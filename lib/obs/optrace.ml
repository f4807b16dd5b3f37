module Timer = Rebal_harness.Timer

(* The one span system. Protocol ops cross threads: a session systhread
   opens the op, runs each shard task under that shard's lock, and a
   two-phase move touches two shards. So spans are flat records
   carrying explicit [trace_id]/[span_id]/[parent_id] links, recorded
   into per-domain ring buffers (every domain's ring registered in one
   global list) and stitched back into trees at exposition time —
   recording never blocks on anything wider than one domain's ring
   mutex. The solvers' phase spans ([greedy.*], [m_partition.*],
   [engine.repair]) are ordinary children of whatever op is open:
   [profile] opens one at sample-every-1.

   Cost model: head sampling (1-in-N at the op boundary) decides whether
   an op's spans are recorded at all; ops slower than the tail threshold
   are additionally captured into a bounded slow-op ring whether or not
   they were sampled (an unsampled slow op keeps only its root span —
   the children were never recorded). With both knobs off, [with_op] is
   [f ()] behind two atomic loads; while no thread is inside a sampled
   op, [with_span]/[add_attr] are behind one. *)

type span = {
  trace_id : int;
  span_id : int;
  parent_id : int;  (* 0 when the span is a trace root *)
  name : string;
  domain : int;  (* domain the span ran on *)
  start_ns : int64;
  mutable stop_ns : int64;
  mutable attrs : (string * string) list;
}

type carrier = {
  trace : int;
  parent : int;
}

type slow_op = {
  slow_trace : int;
  slow_verb : string;
  slow_duration_ns : int64;
  slow_finished_ns : int64;
}

(* ----- configuration ----- *)

(* 0 = head sampling off; N = trace every Nth op. *)
let sample_every = Atomic.make 0

(* Negative = tail capture off; otherwise the threshold in ns. *)
let slow_threshold = Atomic.make (-1)

(* Injectable clock: the slow-ring property tests drive op durations
   deterministically through this hook. *)
let clock : (unit -> int64) Atomic.t = Atomic.make Timer.now_ns

let set_sample_every n = Atomic.set sample_every (max 0 n)
let set_slow_threshold_ns n = Atomic.set slow_threshold n
let set_clock f = Atomic.set clock f
let now () = (Atomic.get clock) ()

(* ----- id allocation (globally unique across domains) ----- *)

let trace_ids = Atomic.make 1
let span_ids = Atomic.make 1
let op_counter = Atomic.make 0

let next_trace () = Atomic.fetch_and_add trace_ids 1
let next_span () = Atomic.fetch_and_add span_ids 1

(* ----- drop accounting ----- *)

let count_dropped kind =
  Metrics.Counter.inc
    (Metrics.counter
       ~help:"Trace entries overwritten because a buffer wrapped"
       ~labels:[ ("kind", kind) ] "rebal_trace_dropped_total")

(* ----- per-domain span rings ----- *)

(* One ring per domain, in DLS, and every ring ever made in [rings], so
   a reader on any domain sees every domain's spans. The mutex is not
   redundant: the systhreads of one domain share its DLS slot, so
   several threads record into one ring concurrently. *)
type ring = {
  ring_mu : Mutex.t;
  mutable slots : span option array;
  mutable written : int;
}

let rings_mu = Mutex.create ()
let rings : ring list ref = ref []

let ring_key =
  Domain.DLS.new_key (fun () ->
      let r = { ring_mu = Mutex.create (); slots = Array.make 4096 None; written = 0 } in
      Mutex.protect rings_mu (fun () -> rings := r :: !rings);
      r)

let ring () = Domain.DLS.get ring_key
let all_rings () = Mutex.protect rings_mu (fun () -> List.rev !rings)

let set_ring_capacity n =
  if n < 1 then invalid_arg "Optrace.set_ring_capacity: need a positive capacity";
  let r = ring () in
  Mutex.lock r.ring_mu;
  r.slots <- Array.make n None;
  r.written <- 0;
  Mutex.unlock r.ring_mu

let record sp =
  let r = ring () in
  Mutex.lock r.ring_mu;
  let cap = Array.length r.slots in
  let slot = r.written mod cap in
  let dropped = r.slots.(slot) <> None in
  r.slots.(slot) <- Some sp;
  r.written <- r.written + 1;
  Mutex.unlock r.ring_mu;
  if dropped then count_dropped "op_span"

let ring_spans r =
  Mutex.lock r.ring_mu;
  let buf = Array.copy r.slots in
  let total = r.written in
  Mutex.unlock r.ring_mu;
  let cap = Array.length buf in
  let start = max 0 (total - cap) in
  List.filter_map (fun i -> buf.(i mod cap)) (List.init (total - start) (fun j -> start + j))

let recorded () = List.concat_map ring_spans (all_rings ())

(* ----- the slow-op ring (global: every domain's slow ops land here) ----- *)

type slow_ring = {
  slow_mu : Mutex.t;
  mutable slow_slots : slow_op option array;
  mutable slow_written : int;
}

let slow_ring =
  { slow_mu = Mutex.create (); slow_slots = Array.make 256 None; slow_written = 0 }

let set_slow_capacity n =
  if n < 1 then invalid_arg "Optrace.set_slow_capacity: need a positive capacity";
  Mutex.lock slow_ring.slow_mu;
  slow_ring.slow_slots <- Array.make n None;
  slow_ring.slow_written <- 0;
  Mutex.unlock slow_ring.slow_mu

let record_slow e =
  Mutex.lock slow_ring.slow_mu;
  let cap = Array.length slow_ring.slow_slots in
  let slot = slow_ring.slow_written mod cap in
  let dropped = slow_ring.slow_slots.(slot) <> None in
  slow_ring.slow_slots.(slot) <- Some e;
  slow_ring.slow_written <- slow_ring.slow_written + 1;
  Mutex.unlock slow_ring.slow_mu;
  if dropped then count_dropped "slow_op"

let slow_ops () =
  Mutex.lock slow_ring.slow_mu;
  let buf = Array.copy slow_ring.slow_slots in
  let total = slow_ring.slow_written in
  Mutex.unlock slow_ring.slow_mu;
  let cap = Array.length buf in
  let start = max 0 (total - cap) in
  List.filter_map (fun i -> buf.(i mod cap)) (List.init (total - start) (fun j -> start + j))

(* ----- the current trace context ----- *)

(* The innermost open span of each thread inside a sampled op. Keyed
   by (domain, thread), not plain DLS: the session systhreads of one
   domain share its DLS, so a domain-local "current span" would leak one
   session's context into another. The table only ever holds entries
   for threads inside a sampled op, so it stays tiny and the lock is
   uncontended unless tracing is busy. *)
let ctx_mu = Mutex.create ()
let ctx : (int * int, span) Hashtbl.t = Hashtbl.create 64

(* [Hashtbl.length ctx], readable without [ctx_mu]. *)
let contexts = Atomic.make 0

let self_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let current_span () =
  Mutex.lock ctx_mu;
  let sp = Hashtbl.find_opt ctx (self_key ()) in
  Mutex.unlock ctx_mu;
  sp

(* Context is set only inside a sampled op: while no thread is inside
   one, the lookup (a mutex and a hash probe) is skipped outright, so
   untraced callers pay one atomic load. *)
let may_have_context () = Atomic.get contexts > 0

let current_carrier () =
  if may_have_context () then
    Option.map (fun sp -> { trace = sp.trace_id; parent = sp.span_id }) (current_span ())
  else None

(* Run [f] with [sp] as the calling thread's innermost span, restoring
   the previous one on the way out (removing the entry if there was
   none — dead threads must not leave ghosts in the table). *)
let with_ctx sp f =
  let key = self_key () in
  Mutex.lock ctx_mu;
  let saved = Hashtbl.find_opt ctx key in
  Hashtbl.replace ctx key sp;
  Atomic.set contexts (Hashtbl.length ctx);
  Mutex.unlock ctx_mu;
  Fun.protect f ~finally:(fun () ->
      Mutex.lock ctx_mu;
      (match saved with
      | None -> Hashtbl.remove ctx key
      | Some s -> Hashtbl.replace ctx key s);
      Atomic.set contexts (Hashtbl.length ctx);
      Mutex.unlock ctx_mu)

(* ----- spans ----- *)

let with_op ~verb f =
  let every = Atomic.get sample_every in
  let slow_t = Atomic.get slow_threshold in
  if every <= 0 && slow_t < 0 then f ()
  else begin
    let sampled = every > 0 && Atomic.fetch_and_add op_counter 1 mod every = 0 in
    let start_ns = now () in
    let trace_id = next_trace () in
    let span_id = next_span () in
    let sp =
      {
        trace_id;
        span_id;
        parent_id = 0;
        name = verb;
        domain = (Domain.self () :> int);
        start_ns;
        stop_ns = start_ns;
        attrs = [];
      }
    in
    let finish () =
      let stop = now () in
      sp.stop_ns <- stop;
      let dur = Int64.sub stop start_ns in
      let is_slow = slow_t >= 0 && dur >= Int64.of_int slow_t in
      if sampled || is_slow then record sp;
      if is_slow then
        record_slow
          { slow_trace = trace_id; slow_verb = verb; slow_duration_ns = dur; slow_finished_ns = stop }
    in
    Fun.protect ~finally:finish @@ fun () ->
    if sampled then with_ctx sp f else f ()
  end

let with_span ?(attrs = []) name f =
  match current_carrier () with
  | None -> f ()
  | Some { trace; parent } ->
    let span_id = next_span () in
    let sp =
      {
        trace_id = trace;
        span_id;
        parent_id = parent;
        name;
        domain = (Domain.self () :> int);
        start_ns = now ();
        stop_ns = 0L;
        attrs;
      }
    in
    Fun.protect
      ~finally:(fun () ->
        sp.stop_ns <- now ();
        record sp)
      (fun () -> with_ctx sp f)

(* The span is the caller's own until it closes, and [record] runs only
   after [f] returns, so the write never races a reader of the ring. *)
let add_attr key v =
  if may_have_context () then
    match current_span () with
    | Some sp -> sp.attrs <- sp.attrs @ [ (key, v) ]
    | None -> ()

let reset () =
  List.iter
    (fun r ->
      Mutex.lock r.ring_mu;
      Array.fill r.slots 0 (Array.length r.slots) None;
      r.written <- 0;
      Mutex.unlock r.ring_mu)
    (all_rings ());
  Mutex.lock slow_ring.slow_mu;
  Array.fill slow_ring.slow_slots 0 (Array.length slow_ring.slow_slots) None;
  slow_ring.slow_written <- 0;
  Mutex.unlock slow_ring.slow_mu;
  Atomic.set op_counter 0

(* ----- assembly: flat records back into causal trees ----- *)

type tree = {
  span : span;
  children : tree list;
}

let assemble spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.span_id sp) spans;
  (* A span is a root when it says so (parent 0) — or when its parent
     was evicted from a ring, or claims a different trace (which a
     correct recorder never produces): orphans are promoted to roots
     rather than silently dropped, so truncation is visible. *)
  let is_root sp =
    sp.parent_id = 0
    ||
    match Hashtbl.find_opt by_id sp.parent_id with
    | Some p -> p.trace_id <> sp.trace_id
    | None -> true
  in
  let kids = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if not (is_root sp) then
        Hashtbl.replace kids sp.parent_id
          (sp :: Option.value ~default:[] (Hashtbl.find_opt kids sp.parent_id)))
    spans;
  let by_start l = List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) l in
  let rec node sp =
    {
      span = sp;
      children =
        List.map node (by_start (Option.value ~default:[] (Hashtbl.find_opt kids sp.span_id)));
    }
  in
  List.map node (by_start (List.filter is_root spans))

let trees_for ~trace_id trees = List.filter (fun t -> t.span.trace_id = trace_id) trees

(* ----- rendering ----- *)

let duration_ns sp = Int64.sub sp.stop_ns sp.start_ns

let pp_duration ppf ns =
  let ns = Int64.to_float ns in
  if ns < 1e3 then Format.fprintf ppf "%.0fns" ns
  else if ns < 1e6 then Format.fprintf ppf "%.2fus" (ns /. 1e3)
  else if ns < 1e9 then Format.fprintf ppf "%.2fms" (ns /. 1e6)
  else Format.fprintf ppf "%.3fs" (ns /. 1e9)

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
    Format.fprintf ppf " {%s}"
      (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) attrs))

let rec pp_node ppf ~indent t =
  Format.fprintf ppf "%s%s%a  %a\n" indent t.span.name pp_attrs t.span.attrs pp_duration
    (duration_ns t.span);
  List.iter (fun c -> pp_node ppf ~indent:(indent ^ "  ") c) t.children

let pp_tree ppf t = pp_node ppf ~indent:"" t
let render_tree t = Format.asprintf "%a" pp_tree t

let render_duration ns = Format.asprintf "%a" pp_duration ns
