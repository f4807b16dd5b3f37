module Timer = Rebal_harness.Timer

(* The one span system. A sampled op's spans are nested calls on one
   thread — the session thread that opened the op runs every shard task
   itself — so the tree is built in place: each thread's innermost open
   span sits in a table keyed by thread id, [with_span] links a child
   under it, and when the op returns its finished tree goes whole into
   one ring bounded in spans. An open span is written only by its own
   thread; a tree is published under the ring mutex and never written
   again. The solvers' phase spans ([greedy.*], [m_partition.*],
   [engine.repair]) are ordinary children of whatever op is open:
   [profile] opens one at sample-every-1.

   Cost model: head sampling (1-in-N at the op boundary) decides whether
   an op's spans are recorded at all; ops slower than the tail threshold
   are additionally captured into a bounded slow-op ring whether or not
   they were sampled (an unsampled slow op stores a root-only tree — the
   children were never recorded). An unsampled op reads the clock twice
   and allocates nothing unless it turns out slow. With both knobs off,
   [with_op] is [f ()] behind two atomic loads; while no thread is inside
   a sampled op, [with_span]/[add_attr] are behind one. *)

type span = {
  name : string;
  start_ns : int64;
  mutable stop_ns : int64;
  mutable attrs : (string * string) list;
  mutable children : span list; (* newest first until the span closes *)
}

type trace = {
  trace_id : int;
  spans : int;
  root : span;
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

(* Injectable clock, in nanoseconds: the slow-ring property tests drive
   op durations deterministically through this hook. An [int], so an
   unsampled op's two reads allocate nothing. *)
let clock : (unit -> int) Atomic.t = Atomic.make Timer.now_int_ns

let set_sample_every n = Atomic.set sample_every (max 0 n)
let set_slow_threshold_ns n = Atomic.set slow_threshold n
let set_clock f = Atomic.set clock f
let now () = (Atomic.get clock) ()

let trace_ids = Atomic.make 1
let op_counter = Atomic.make 0

let count_dropped kind n =
  Metrics.Counter.add
    (Metrics.counter
       ~help:"Trace entries overwritten because a buffer wrapped"
       ~labels:[ ("kind", kind) ] "rebal_trace_dropped_total")
    n

(* ----- the rings: op traces (bounded in spans) and slow ops ----- *)

let leaf name start_ns stop_ns = { name; start_ns; stop_ns; attrs = []; children = [] }

let rings_mu = Mutex.create ()

(* Each trace holds at least one span, so a ring with one slot per
   span of the bound never fills before the bound is reached. *)
let no_trace = { trace_id = 0; spans = 0; root = leaf "" 0L 0L }
let trace_ring = ref (Ring.create 4096 no_trace)
let retained_spans = ref 0

let slow_ring =
  Ring.create 256 { slow_trace = 0; slow_verb = ""; slow_duration_ns = 0L; slow_finished_ns = 0L }

let set_ring_capacity n =
  if n < 1 then invalid_arg "Optrace.set_ring_capacity: need a positive capacity";
  Mutex.protect rings_mu (fun () ->
      trace_ring := Ring.create n no_trace;
      retained_spans := 0)

(* Under [rings_mu]: evict whole traces, oldest first, until [need]
   more spans fit; returns the spans evicted. *)
let rec evict r need dropped =
  if !retained_spans + need <= Ring.capacity r then dropped
  else
    match Ring.pop r with
    | None -> dropped
    | Some old ->
      retained_spans := !retained_spans - old.spans;
      evict r need (dropped + old.spans)

(* A trace larger than the whole bound is dropped on arrival. *)
let record_trace tr =
  let dropped =
    Mutex.protect rings_mu (fun () ->
        let r = !trace_ring in
        if tr.spans > Ring.capacity r then tr.spans
        else begin
          let dropped = evict r tr.spans 0 in
          Ring.push r tr;
          retained_spans := !retained_spans + tr.spans;
          dropped
        end)
  in
  if dropped > 0 then count_dropped "op_span" dropped

let record_slow op =
  let full =
    Mutex.protect rings_mu (fun () ->
        let full = Ring.is_full slow_ring in
        Ring.push slow_ring op;
        full)
  in
  if full then count_dropped "slow_op" 1

let traces () = Mutex.protect rings_mu (fun () -> Ring.to_list !trace_ring)
let slow_ops () = Mutex.protect rings_mu (fun () -> Ring.to_list slow_ring)

let reset () =
  Mutex.protect rings_mu (fun () ->
      Ring.clear !trace_ring;
      retained_spans := 0;
      Ring.clear slow_ring);
  Atomic.set op_counter 0

(* ----- the current span ----- *)

(* The innermost open span of each thread inside a sampled op, keyed by
   thread id (unique across domains). The table only ever holds threads
   inside a sampled op, so it stays tiny and the lock is uncontended
   unless tracing is busy. *)
let ctx_mu = Mutex.create ()
let ctx : (int, span) Hashtbl.t = Hashtbl.create 64

(* [Hashtbl.length ctx], readable without [ctx_mu]: while no thread is
   inside a sampled op, the lookup is skipped outright. *)
let contexts = Atomic.make 0

let current_span () =
  if Atomic.get contexts = 0 then None
  else begin
    let key = Thread.id (Thread.self ()) in
    Mutex.lock ctx_mu;
    let sp = Hashtbl.find_opt ctx key in
    Mutex.unlock ctx_mu;
    sp
  end

let active () = Option.is_some (current_span ())

let set_current key sp =
  Mutex.lock ctx_mu;
  (match sp with None -> Hashtbl.remove ctx key | Some sp -> Hashtbl.replace ctx key sp);
  Atomic.set contexts (Hashtbl.length ctx);
  Mutex.unlock ctx_mu

(* Run [f] with [sp] as the calling thread's innermost span, then close
   [sp] — stamp its stop, put its children in start order — and restore
   the previous span (dead threads must not leave ghosts in the table). *)
let within sp f =
  let key = Thread.id (Thread.self ()) in
  let saved = current_span () in
  set_current key (Some sp);
  Fun.protect f ~finally:(fun () ->
      sp.stop_ns <- Int64.of_int (now ());
      sp.children <- List.rev sp.children;
      set_current key saved)

let open_span name attrs =
  let t = Int64.of_int (now ()) in
  { name; start_ns = t; stop_ns = t; attrs; children = [] }

(* ----- spans ----- *)

let rec span_count sp = List.fold_left (fun n c -> n + span_count c) 1 sp.children

(* Store the op's tree when it was sampled ([root] holds it) or slow (an
   unsampled slow op stores its root alone). *)
let close_op ~verb ~slow_t ~start_ns root =
  let stop_ns = match root with Some sp -> Int64.to_int sp.stop_ns | None -> now () in
  let dur = stop_ns - start_ns in
  let slow = slow_t >= 0 && dur >= slow_t in
  if Option.is_some root || slow then begin
    let trace_id = Atomic.fetch_and_add trace_ids 1 in
    let start_ns = Int64.of_int start_ns and stop_ns = Int64.of_int stop_ns in
    let root = match root with Some sp -> sp | None -> leaf verb start_ns stop_ns in
    record_trace { trace_id; spans = span_count root; root };
    if slow then
      let dur = Int64.of_int dur in
      record_slow
        { slow_trace = trace_id; slow_verb = verb; slow_duration_ns = dur; slow_finished_ns = stop_ns }
  end

let with_op ~verb f =
  let every = Atomic.get sample_every in
  let slow_t = Atomic.get slow_threshold in
  if every <= 0 && slow_t < 0 then f ()
  else begin
    let root =
      if every > 0 && Atomic.fetch_and_add op_counter 1 mod every = 0 then
        Some (open_span verb [])
      else None
    in
    let start_ns = match root with Some sp -> Int64.to_int sp.start_ns | None -> now () in
    match (match root with Some sp -> within sp f | None -> f ()) with
    | v ->
      close_op ~verb ~slow_t ~start_ns root;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_op ~verb ~slow_t ~start_ns root;
      Printexc.raise_with_backtrace e bt
  end

let with_span ?(attrs = []) name f =
  match current_span () with
  | None -> f ()
  | Some parent ->
    let sp = open_span name attrs in
    parent.children <- sp :: parent.children;
    within sp f

let add_attr key v =
  match current_span () with
  | Some sp -> sp.attrs <- sp.attrs @ [ (key, v) ]
  | None -> ()

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

let rec pp_node ~indent ppf sp =
  Format.fprintf ppf "%s%s%a  %a\n" indent sp.name pp_attrs sp.attrs pp_duration
    (duration_ns sp);
  List.iter (pp_node ~indent:(indent ^ "  ") ppf) sp.children

let render_tree sp = Format.asprintf "%a" (pp_node ~indent:"") sp
let render_duration ns = Format.asprintf "%a" pp_duration ns
