module Metrics = Rebal_obs.Metrics
module Optrace = Rebal_obs.Optrace
module Timer = Rebal_harness.Timer

type move = Engine.move = {
  id : string;
  src : int;
  dst : int;
}

type stats = {
  shards : int;
  jobs : int;
  procs : int;
  makespan : int;
  total_size : int;
  imbalance : float;
  events : int;
  adds : int;
  removes : int;
  resizes : int;
  rebalances : int;
  auto_rebalances : int;
  trigger_firings : int;
  moved : int;
  inter_moves : int;
  consistency_checks : int;
  consistency_failures : int;
}

exception Shut_down

(* What the residency directory knows about an id: the shard it lives
   on (for an add in flight, the shard it is being added to; for a
   cross-shard transfer in flight, the source) and whether an operation
   holds it reserved. Every mutating operation reserves its id before
   touching an engine and settles it afterwards, so two clients (or a
   client and the cross-shard mover) can never race the same id onto
   two shards; operations arriving while an id is reserved wait on
   [dir_settled] — per-id linearization without any global
   stop-the-world. Both fields are immediates mutated in place under
   [dir_mu], so reserving and settling cost no hash lookup beyond the
   one that found the id. *)
type entry = {
  mutable at : int;
  mutable reserved : bool;
}

(* What crosses a mailbox. Beyond the closure itself: the submit
   timestamp (queueing delay = dequeue minus submit, observed into the
   owner's wait histogram), the trace carrier when the originating op
   was sampled (worker-side spans parent into the op's trace), and the
   label/shard naming the work for those spans. *)
type envelope = {
  run : unit -> unit;
  enq_ns : int64;  (* set at submit, before the send can block *)
  carrier : Optrace.carrier option;
  label : string;
  shard : int;  (* -1 for domain-level (non-shard) tasks *)
}

type t = {
  engines : Engine.t array;
  offsets : int array;  (* shard i owns global procs [offsets.(i), ...) *)
  m : int;
  (* Consistent-hash ring: sorted (point, shard, replica) triples; a
     new id routes to the first point at or after its hash (wrapping).
     The replica index lets a weight activate a prefix of a shard's
     virtual nodes. *)
  ring : (int * int * int) array;
  (* Routing weight per shard in [0, 1], under dir_mu: the fraction of
     its virtual nodes accepting new placements. 0 takes a shard out of
     the ring and out of the repair passes (a Down shard); a Recovering
     shard ramps back gradually. Residency of placed jobs is never
     affected — only where a *new* id lands. *)
  weights : float array;
  (* The executor. With D worker domains, shard i is owned by domain
     [owner.(i)] and all of its engine work runs there, in mailbox order
     — per-shard FIFO and single-writer confinement (engine state,
     journal sink, metric handles) fall out of the ownership map. With
     D = 0 (inline) there are no mailboxes and no workers: tasks run on
     the calling thread, and callers serialize their own access. *)
  owner : int array;
  mailboxes : envelope Mailbox.t array;  (* one per worker domain *)
  workers : unit Domain.t array;
  (* One per worker domain (one for the inline executor): the registry
     each owned engine's metric handles are bound in. *)
  registries : Metrics.Registry.t array;
  (* Caller-side histograms, bound in the registry current at assembly
     time (the control domain's): senders are session systhreads of
     that one domain, so sharing the handles is within the Metrics
     confinement contract — the loadgen precedent. Empty inline. *)
  send_block : Metrics.Histogram.t array;  (* per worker domain *)
  reply_wait : Metrics.Histogram.t array;  (* per shard *)
  (* Shard i's [Engine.makespan] as of its last completed task, stored
     by the executor before the task's result is handed back — so
     [makespan] is a fold over these, with no mailbox round trip. *)
  peaks : int Atomic.t array;
  dir_mu : Mutex.t;
  dir_settled : Condition.t;
  directory : (string, entry) Hashtbl.t;
  mutable inter_moves : int;  (* under dir_mu *)
  mutable stopped : bool;  (* under dir_mu *)
}

let pf = Printf.sprintf

(* ----- the consistent-hash ring ----- *)

(* FNV-1a, 32-bit, finished with murmur3's fmix32 avalanche: stable
   across runs and OCaml versions, unlike [Hashtbl.hash] which is
   documented to vary. Raw FNV-1a clusters badly on short sequential
   ids ("j0".."j9999" share their high bits), which skews both the
   vnode arcs and the job placement; the finalizer disperses them. *)
let hash32 s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) s;
  let h = ref (!h lxor (!h lsr 16)) in
  h := !h * 0x85ebca6b land 0xFFFFFFFF;
  h := !h lxor (!h lsr 13);
  h := !h * 0xc2b2ae35 land 0xFFFFFFFF;
  !h lxor (!h lsr 16)

let ring_points_per_shard = 64

let make_ring shards =
  let points = Array.init (shards * ring_points_per_shard) (fun i ->
      let shard = i / ring_points_per_shard and replica = i mod ring_points_per_shard in
      (hash32 (pf "shard:%d:%d" shard replica), shard, replica))
  in
  Array.sort compare points;
  points

(* A shard with weight [w] keeps its first [ceil (w * 64)] replicas
   active: weight 1 is the full ring, weight 0 is none. Activating a
   prefix rather than rescaling hashes means ramping a weight up or
   down only flips that shard's own arcs — other shards' points never
   move. *)
let active_replicas w =
  if w <= 0.0 then 0
  else min ring_points_per_shard (int_of_float (ceil (w *. float_of_int ring_points_per_shard)))

(* Binary search for the first point with hash >= h, wrapping to the
   first point past the top of the ring, then walk forward (wrapping)
   past points whose shard has deactivated that replica. *)
let ring_lookup ~weights ring h =
  let n = Array.length ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let p, _, _ = ring.(mid) in
    if p < h then lo := mid + 1 else hi := mid
  done;
  let start = if !lo = n then 0 else !lo in
  let i = ref start and found = ref (-1) and remaining = ref n in
  while !found < 0 && !remaining > 0 do
    let _, s, replica = ring.(!i) in
    if replica < active_replicas weights.(s) then found := s
    else begin
      i := if !i + 1 = n then 0 else !i + 1;
      decr remaining
    end
  done;
  if !found >= 0 then !found
  else begin
    (* Every shard weighted to zero: fall back to the unweighted ring
       so routing still answers (refusing service on an all-down
       cluster is the supervisor's job). *)
    let _, s, _ = ring.(start) in
    s
  end

(* ----- the executors and the synchronous call fabric ----- *)

(* A write-once cell the coordinator parks on until the owner domain
   has run its closure. *)
module Ivar = struct
  type 'a t = {
    mu : Mutex.t;
    cond : Condition.t;
    mutable v : 'a option;
  }

  let create () = { mu = Mutex.create (); cond = Condition.create (); v = None }

  let fill t v =
    Mutex.lock t.mu;
    t.v <- Some v;
    Condition.signal t.cond;
    Mutex.unlock t.mu

  let read t =
    Mutex.lock t.mu;
    let rec wait () =
      match t.v with
      | Some v -> v
      | None ->
        Condition.wait t.cond t.mu;
        wait ()
    in
    let v = wait () in
    Mutex.unlock t.mu;
    v
end

let worker_loop w registry mailbox =
  (* Scope the worker to its own registry so any handle bound on this
     domain (trace drop counters, late-bound histograms) lands where
     only this domain writes — including the queue/utilization gauges
     bound right here. *)
  Metrics.Registry.with_registry registry @@ fun () ->
  let labels = [ ("domain", string_of_int w) ] in
  let depth =
    Metrics.gauge ~labels ~help:"Commands waiting in this worker's mailbox"
      "rebal_mailbox_depth"
  in
  let wait =
    Metrics.histogram ~labels
      ~help:"Mailbox residency from submit to dequeue (includes send-block time) in seconds"
      "rebal_mailbox_wait_seconds"
  in
  let busy =
    Metrics.gauge ~labels ~help:"Cumulative seconds this worker spent executing tasks"
      "rebal_domain_busy_seconds"
  in
  let util =
    Metrics.gauge ~labels ~help:"Busy seconds over wall seconds since the worker started"
      "rebal_domain_utilization"
  in
  let started = Timer.now_ns () in
  let busy_ns = ref 0L in
  let rec loop () =
    match Mailbox.recv mailbox with
    | Some env ->
      let deq = Timer.now_ns () in
      Metrics.Gauge.set depth (float_of_int (Mailbox.length mailbox));
      let queued_ns = Int64.sub deq env.enq_ns in
      Metrics.Histogram.observe_ns wait queued_ns;
      (match env.carrier with
      | Some c ->
        let attrs =
          ("queue_us", pf "%.1f" (Int64.to_float queued_ns /. 1e3))
          :: (if env.shard >= 0 then [ ("shard", string_of_int env.shard) ] else [])
        in
        Optrace.with_span ~carrier:c ~attrs ("shard." ^ env.label) env.run
      | None -> env.run ());
      busy_ns := Int64.add !busy_ns (Int64.sub (Timer.now_ns ()) deq);
      let busy_s = Int64.to_float !busy_ns /. 1e9 in
      Metrics.Gauge.set busy busy_s;
      let wall = Int64.to_float (Int64.sub (Timer.now_ns ()) started) /. 1e9 in
      if wall > 0.0 then Metrics.Gauge.set util (busy_s /. wall);
      loop ()
    | None -> ()
  in
  loop ()

(* Run [f] on shard [s]'s engine — on its owner domain, or inline on
   the caller — and publish the shard's makespan before the result is
   handed back, so a caller that has its reply always sees its own
   op's effect in [makespan]. The engine is re-read for the publish: a
   [replace_engine] task swaps it. *)
let publish t s = Atomic.set t.peaks.(s) (Engine.makespan t.engines.(s))

let on_shard t s f =
  match f t.engines.(s) with
  | v ->
    publish t s;
    v
  | exception ex ->
    publish t s;
    raise ex

let captured f = match f () with v -> Ok v | exception e -> Error e

(* Submit an envelope to worker [w], timing how long the send blocked
   on a full mailbox (the backpressure signal).
   @raise Shut_down if the mailbox is closed. *)
let post t w env =
  let t0 = Timer.now_ns () in
  let accepted = Mailbox.send t.mailboxes.(w) env in
  Metrics.Histogram.observe_ns t.send_block.(w) (Int64.sub (Timer.now_ns ()) t0);
  if not accepted then raise Shut_down

(* A submitted task: already run by the inline executor, or parked on
   its owner's reply cell. Tasks never raise out of a worker (that
   would kill the domain and strand every later sender): exceptions are
   carried back and re-raised by the awaiting caller, so a worker-side
   [failwith] surfaces exactly as it would inline. *)
type 'a task =
  | Done of ('a, exn) result
  | Posted of ('a, exn) result Ivar.t

let inline t = Array.length t.workers = 0

(* The inline executor's only check: a shut-down cluster takes no task.
   (A worker-domain cluster refuses through its closed mailboxes.) *)
let check_open t = if t.stopped then raise Shut_down

(* Post [f] for shard [s] to its owner domain; [label] names the
   worker-side span when the calling op is traced.
   @raise Shut_down if the cluster has shut down. *)
let post_task ?(label = "task") t s f =
  let iv = Ivar.create () in
  post t t.owner.(s)
    {
      run = (fun () -> Ivar.fill iv (captured (fun () -> on_shard t s f)));
      enq_ns = Timer.now_ns ();
      carrier = Optrace.current_carrier ();
      label;
      shard = s;
    };
  iv

(* @raise Shut_down if the cluster has shut down. *)
let submit ?label t s f =
  if inline t then begin
    check_open t;
    Done (captured (fun () -> on_shard t s f))
  end
  else Posted (post_task ?label t s f)

let await = function Done r -> r | Posted iv -> Ivar.read iv
let unwrap = function Ok v -> v | Error e -> raise e

(* Run [f] on shard [s]'s engine and wait for the result.
   @raise Shut_down if the cluster has shut down. *)
let run ?label t s f =
  if inline t then begin
    check_open t;
    on_shard t s f
  end
  else begin
    let iv = post_task ?label t s f in
    let t0 = Timer.now_ns () in
    let r = Ivar.read iv in
    Metrics.Histogram.observe_ns t.reply_wait.(s) (Int64.sub (Timer.now_ns ()) t0);
    unwrap r
  end

(* Fan [f] out to every shard — all tasks submitted before any reply is
   awaited, so on worker domains independent shards genuinely overlap. *)
let run_all ?label t f =
  let tasks = Array.init (Array.length t.engines) (fun s -> submit ?label t s (f s)) in
  Array.map (fun tk -> unwrap (await tk)) tasks

(* Run [f] once on every worker domain (not per shard — with fewer
   domains than shards a per-shard fan-out would visit a domain twice).
   The span-collection path; inline there is no worker to visit. *)
let on_domains t f =
  let ivs =
    Array.mapi
      (fun w _ ->
        let iv = Ivar.create () in
        post t w
          {
            run = (fun () -> Ivar.fill iv (captured f));
            enq_ns = Timer.now_ns ();
            carrier = None;
            label = "domain";
            shard = -1;
          };
        iv)
      t.mailboxes
  in
  Array.map (fun iv -> unwrap (Ivar.read iv)) ivs

(* ----- construction ----- *)

let offsets_of_engines engines =
  let offsets = Array.make (Array.length engines) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i e ->
      offsets.(i) <- !acc;
      acc := !acc + Engine.m e)
    engines;
  (offsets, !acc)

(* The executor layout for [domains] (default 0, inline): the worker
   count, one registry per worker (one for the inline executor) and
   each shard's owner. *)
let layout ~shards domains =
  let domains =
    match domains with
    | None -> 0
    | Some d ->
      if d < 0 then invalid_arg "Cluster: negative domain count";
      min d shards
  in
  let registries = Array.init (max 1 domains) (fun _ -> Metrics.Registry.create ()) in
  let owner = Array.init shards (fun i -> if domains = 0 then 0 else i mod domains) in
  (domains, registries, owner)

let assemble ~engines ~registries ~owner ~domains ~mailbox_capacity ~directory =
  let offsets, m = offsets_of_engines engines in
  let shards = Array.length engines in
  let mailboxes = Array.init domains (fun _ -> Mailbox.create ~capacity:mailbox_capacity) in
  let workers =
    Array.mapi (fun w mb -> Domain.spawn (fun () -> worker_loop w registries.(w) mb)) mailboxes
  in
  let send_block =
    Array.init domains (fun w ->
        Metrics.histogram
          ~labels:[ ("domain", string_of_int w) ]
          ~help:"Seconds a sender blocked on a full mailbox (backpressure)"
          "rebal_mailbox_send_block_seconds")
  in
  let reply_wait =
    Array.init (if domains = 0 then 0 else shards) (fun s ->
        Metrics.histogram
          ~labels:[ ("shard", string_of_int s) ]
          ~help:"Seconds a caller parked on a reply cell waiting for the owner domain"
          "rebal_reply_wait_seconds")
  in
  {
    engines;
    offsets;
    m;
    ring = make_ring shards;
    weights = Array.make shards 1.0;
    owner;
    mailboxes;
    workers;
    registries;
    send_block;
    reply_wait;
    peaks = Array.map (fun e -> Atomic.make (Engine.makespan e)) engines;
    dir_mu = Mutex.create ();
    dir_settled = Condition.create ();
    directory;
    inter_moves = 0;
    stopped = false;
  }

let create ?trigger ?clock ?journal_for ?(mailbox_capacity = 1024) ?domains ~m ~shards () =
  if shards < 1 then invalid_arg "Cluster.create: need at least one shard";
  if m < shards then invalid_arg "Cluster.create: need at least one processor per shard";
  if mailbox_capacity < 1 then invalid_arg "Cluster.create: need a positive mailbox capacity";
  let domains, registries, owner = layout ~shards domains in
  let engines =
    Array.init shards (fun i ->
        let m_i = (m / shards) + if i < m mod shards then 1 else 0 in
        (* Bind the engine's metric handles — and anything the journal
           factory binds, e.g. a resilient sink's drop counter — in the
           owner's registry, so only that worker domain mutates them. *)
        Metrics.Registry.with_registry registries.(owner.(i)) (fun () ->
            let journal = match journal_for with None -> None | Some f -> f i in
            Engine.create ?trigger ?clock ?journal ~m:m_i ()))
  in
  assemble ~engines ~registries ~owner ~domains ~mailbox_capacity ~directory:(Hashtbl.create 256)

let of_engines ?(mailbox_capacity = 1024) ?domains ~shards build =
  if shards < 1 then Error "Cluster.of_engines: need at least one engine"
  else if mailbox_capacity < 1 then Error "Cluster.of_engines: need a positive mailbox capacity"
  else begin
    let domains, registries, owner = layout ~shards domains in
    let engines =
      Array.init shards (fun i ->
          Metrics.Registry.with_registry registries.(owner.(i)) (fun () -> build i))
    in
    let directory = Hashtbl.create 256 in
    let exception Dup of string in
    match
      Array.iteri
        (fun i e ->
          Engine.fold_jobs e
            (fun () ~id ~size:_ ~proc:_ ->
              if Hashtbl.mem directory id then raise (Dup id);
              Hashtbl.replace directory id { at = i; reserved = false })
            ())
        engines
    with
    | () -> Ok (assemble ~engines ~registries ~owner ~domains ~mailbox_capacity ~directory)
    | exception Dup id -> Error (pf "Cluster.of_engines: job %s lives in two shards" id)
  end

(* ----- simple accessors ----- *)

let shard_count t = Array.length t.engines
let domain_count t = Array.length t.workers
let m t = t.m
let offset t i = t.offsets.(i)
let global t i p = t.offsets.(i) + p

let translate t i moves =
  List.map (fun mv -> { mv with src = global t i mv.src; dst = global t i mv.dst }) moves

let with_dir t f =
  Mutex.lock t.dir_mu;
  match f () with
  | v ->
    Mutex.unlock t.dir_mu;
    v
  | exception e ->
    Mutex.unlock t.dir_mu;
    raise e

(* Under [dir_mu]: wait until [id] is not reserved; its entry, if any. *)
let rec settled t id =
  if t.stopped then raise Shut_down;
  match Hashtbl.find_opt t.directory id with
  | Some { reserved = true; _ } ->
    Condition.wait t.dir_settled t.dir_mu;
    settled t id
  | found -> found

let job_count t = with_dir t (fun () -> Hashtbl.length t.directory)

let mem t id =
  try with_dir t (fun () -> settled t id) <> None with Shut_down -> false

let shard_of t id =
  try with_dir t (fun () -> match settled t id with Some e -> Some e.at | None -> None)
  with Shut_down -> None

let weight t i = with_dir t (fun () -> t.weights.(i))

let set_weight t i w =
  if not (Float.is_finite w) || w < 0.0 || w > 1.0 then
    invalid_arg "Cluster.set_weight: weight must be in [0, 1]";
  with_dir t (fun () -> t.weights.(i) <- w)

(* Under [dir_mu]. *)
let route t id = ring_lookup ~weights:t.weights t.ring (hash32 id)

(* Settle [id] (whose entry is [e]) on a shard, or drop it with
   [None], and wake every waiter. *)
let settle t ~id e shard =
  with_dir t (fun () ->
      (match shard with
      | None -> Hashtbl.remove t.directory id
      | Some s ->
        e.at <- s;
        e.reserved <- false);
      Condition.broadcast t.dir_settled)

(* Run the engine half of an op whose id is reserved; on any exception
   (worker failure, shutdown mid-flight) roll the reservation back to
   [restore] so waiters are not stranded on a ghost reservation. *)
let run_reserved ?label t ~id e ~restore s f =
  match run ?label t s f with
  | r -> r
  | exception ex ->
    settle t ~id e restore;
    raise ex

(* ----- the operations ----- *)

let add_job t ~id ~size =
  try
    let reserved =
      with_dir t (fun () ->
          match settled t id with
          | Some _ -> None
          | None ->
            let e = { at = route t id; reserved = true } in
            Hashtbl.add t.directory id e;
            Some e)
    in
    match reserved with
    | None -> Error (pf "job %s already present" id)
    | Some entry -> (
      let s = entry.at in
      let res =
        run_reserved ~label:"add" t ~id entry ~restore:None s (fun e -> Engine.add_job e ~id ~size)
      in
      settle t ~id entry (match res with Ok _ -> Some s | Error _ -> None);
      match res with
      | Error _ as e -> e
      | Ok (p, moves) -> Ok (global t s p, translate t s moves))
  with Shut_down -> Error "cluster is shut down"

(* Reserve a resident [id] for a remove or resize. *)
let reserve t id =
  with_dir t (fun () ->
      match settled t id with
      | None -> None
      | Some e as found ->
        e.reserved <- true;
        found)

let remove_job t ~id =
  try
    match reserve t id with
    | None -> Error (pf "job %s not found" id)
    | Some entry -> (
      let s = entry.at in
      let res =
        run_reserved ~label:"remove" t ~id entry ~restore:(Some s) s (fun e ->
            Engine.remove_job e ~id)
      in
      settle t ~id entry (match res with Ok _ -> None | Error _ -> Some s);
      match res with
      | Error _ as e -> e
      | Ok (p, moves) -> Ok (global t s p, translate t s moves))
  with Shut_down -> Error "cluster is shut down"

let resize_job t ~id ~size =
  try
    match reserve t id with
    | None -> Error (pf "job %s not found" id)
    | Some entry -> (
      let s = entry.at in
      let res =
        run_reserved ~label:"resize" t ~id entry ~restore:(Some s) s (fun e ->
            Engine.resize_job e ~id ~size)
      in
      settle t ~id entry (Some s);
      match res with
      | Error _ as e -> e
      | Ok (p, moves) -> Ok (global t s p, translate t s moves))
  with Shut_down -> Error "cluster is shut down"

(* ----- batched application ----- *)

let op_id = function
  | Engine.Add { id; _ } | Engine.Remove { id } | Engine.Resize { id; _ } -> id

(* One batch of events, routed and dispatched as per-shard sub-batches:
   each involved shard gets a single task that runs [Engine.apply_bulk]
   over its share — one dispatch, one journal flush per shard per chunk
   — while on worker domains distinct shards execute in parallel.
   Results are delivered to [on_result] in batch order.

   The batch is processed in chunks. A chunk ends where per-id ordering
   or deadlock-freedom demands a barrier: at a duplicate id (the second
   op must observe the first's effect), or at an id another client
   currently holds reserved. Only the first op of a chunk may *wait*
   for a reservation; later ops are probed non-blockingly — so this
   call never waits while holding reservations of its own, and two
   concurrent batches over overlapping ids chunk around each other
   instead of deadlocking. *)
let apply_bulk t ?on_result ops =
  let n = Array.length ops in
  let results = if on_result = None then [||] else Array.make n (Error "") in
  let record i r = if on_result <> None then results.(i) <- r in
  let emit lo hi =
    match on_result with
    | None -> ()
    | Some f ->
      for i = lo to hi - 1 do
        f i ops.(i) results.(i)
      done
  in
  let shut_down = Error "cluster is shut down" in
  let lo = ref 0 in
  while !lo < n do
    let chunk_lo = !lo in
    (* Reservation phase: claim ids until a barrier. [shard_for.(j)] is
       the shard op [chunk_lo + j] was reserved on, -1 when the op
       failed validation (already present / not found / shut down) and
       must not be dispatched. *)
    let seen = Hashtbl.create 64 in
    let shard_for = Array.make (n - chunk_lo) (-1) in
    let entries = Array.make (n - chunk_lo) { at = -1; reserved = false } in
    let hi = ref chunk_lo in
    (try
       while !hi < n do
         let i = !hi in
         let id = op_id ops.(i) in
         if Hashtbl.mem seen id then raise Exit;
         let reserve () =
           match (ops.(i), settled t id) with
           | Engine.Add _, Some _ ->
             record i (Error (pf "job %s already present" id));
             Some (-1)
           | (Engine.Remove _ | Engine.Resize _), None ->
             record i (Error (pf "job %s not found" id));
             Some (-1)
           | Engine.Add _, None ->
             let e = { at = route t id; reserved = true } in
             Hashtbl.add t.directory id e;
             entries.(i - chunk_lo) <- e;
             Some e.at
           | (Engine.Remove _ | Engine.Resize _), Some e ->
             e.reserved <- true;
             entries.(i - chunk_lo) <- e;
             Some e.at
         in
         (* First op of the chunk: wait out any foreign reservation
            (we hold none of our own yet). Later ops: probe without
            blocking — a busy id just ends the chunk. *)
         let reserved =
           with_dir t (fun () ->
               if i = chunk_lo then reserve ()
               else if t.stopped then raise Shut_down
               else
                 match Hashtbl.find_opt t.directory id with
                 | Some { reserved = true; _ } -> None
                 | Some { reserved = false; _ } | None -> reserve ())
         in
         match reserved with
         | None -> raise Exit
         | Some s ->
           shard_for.(i - chunk_lo) <- s;
           Hashtbl.add seen id ();
           incr hi
       done
     with
    | Exit -> ()
    | Shut_down ->
      for i = !hi to n - 1 do
        record i shut_down
      done;
      hi := n);
    (* The first op of a chunk always makes progress: it is either
       reserved or its validation failure is recorded before any Exit. *)
    let chunk_hi = max !hi (chunk_lo + 1) in
    (* Dispatch phase: one [Engine.apply_bulk] task per involved shard.
       All tasks are submitted before any is awaited, so distinct
       shards overlap on worker domains. *)
    let module M = Map.Make (Int) in
    let by_shard = ref M.empty in
    for i = chunk_lo to chunk_hi - 1 do
      let s = shard_for.(i - chunk_lo) in
      if s >= 0 then
        by_shard :=
          M.update s (function None -> Some [ i ] | Some l -> Some (i :: l)) !by_shard
    done;
    let tasks =
      M.fold
        (fun s rev_idx acc ->
          let idx = Array.of_list (List.rev rev_idx) in
          let sub = Array.map (fun i -> ops.(i)) idx in
          let sub_results = Array.make (Array.length sub) (Error "") in
          let task =
            match
              submit ~label:"apply_bulk" t s (fun e ->
                  Engine.apply_bulk e ~on_result:(fun j _ r -> sub_results.(j) <- r) sub)
            with
            | tk -> Some tk
            | exception Shut_down -> None
          in
          (s, idx, sub_results, task) :: acc)
        !by_shard []
    in
    (* Collect, translate to global processor indices, and settle every
       reservation — success or failure, no id is left in a transient
       state. *)
    let failure = ref None in
    List.iter
      (fun (s, idx, sub_results, task) ->
        let outcome = match task with None -> Error Shut_down | Some tk -> await tk in
        Array.iteri
          (fun j i ->
            let rolled_back, res =
              match outcome with
              | Ok () -> begin
                match sub_results.(j) with
                | Ok (p, moves) -> (false, Ok (global t s p, translate t s moves))
                | Error _ as e -> (true, e)
              end
              | Error e ->
                if !failure = None then failure := Some e;
                (true, shut_down)
            in
            let settled_on =
              match (ops.(i), rolled_back) with
              | Engine.Add _, true | Engine.Remove _, false -> None
              | Engine.Add _, false | Engine.Remove _, true | Engine.Resize _, _ -> Some s
            in
            settle t ~id:(op_id ops.(i)) entries.(i - chunk_lo) settled_on;
            record i res)
          idx)
      tasks;
    emit chunk_lo chunk_hi;
    (match !failure with
    | Some Shut_down | None -> ()
    | Some e -> raise e);
    lo := chunk_hi
  done

let find t id =
  try
    match shard_of t id with
    | None -> None
    | Some s -> (
      match run ~label:"find" t s (fun e -> Engine.find e id) with
      | None -> None
      | Some (size, p) -> Some (size, global t s p))
  with Shut_down -> None

(* The two-phase cross-shard transfer — the only cross-shard write
   path, and deliberately stop-the-world-free. Phase 0 reserves the id
   (concurrent ops on it park; everything else proceeds). Phase 1 lifts
   it off [src] through the ordinary journaled remove; phase 2 lands it
   on [dst] through the ordinary journaled add; then the directory
   commits to [dst]. Each half is a plain single-shard
   event on that shard's own journal, so every per-shard journal stays
   individually replayable — replay never needs to order one shard's
   events against another's. If phase 2 fails (or [on_removed], the
   crash-injection hook for tests, raises between the phases), the job
   is re-added to [src] through the same journaled path and the
   reservation rolls back — again an ordinary event on src's journal. *)
let move ?(on_removed = fun () -> ()) t ~id ~dst =
  if dst < 0 || dst >= shard_count t then Error (pf "Cluster.move: no such shard %d" dst)
  else
    (* The whole transfer is one span on the session thread; the two
       engine halves become [shard.move.remove] / [shard.move.add]
       child spans on their executors, and the directory steps bracket
       them — so a traced cross-shard move reads session → mailbox →
       remove → add → commit. *)
    Optrace.with_span ~attrs:[ ("id", id); ("dst", string_of_int dst) ] "move"
    @@ fun () ->
    try
      let reserved =
        Optrace.with_span "move.reserve" @@ fun () ->
        with_dir t (fun () ->
            match settled t id with
            | None -> Error (pf "job %s not found" id)
            | Some entry when entry.at = dst -> Ok None
            | Some entry ->
              entry.reserved <- true;
              Ok (Some (entry.at, entry)))
      in
      match reserved with
      | Error _ as e -> e
      | Ok None -> Ok [] (* already resident on [dst] *)
      | Ok (Some (src, entry)) -> (
        (* Phase 1: size lookup + remove, atomically on src's owner. *)
        let lifted =
          run_reserved ~label:"move.remove" t ~id entry ~restore:(Some src) src
            (fun e ->
              match Engine.find e id with
              | None -> Error (pf "job %s missing from shard %d" id src)
              | Some (size, _) -> (
                match Engine.remove_job e ~id with
                | Error _ as err -> err
                | Ok (p, auto) -> Ok (size, p, auto)))
        in
        match lifted with
        | Error e ->
          settle t ~id entry (Some src);
          Error e
        | Ok (size, psrc, auto_src) -> (
          (* Phase 2: land on dst. The hook fires at the crash point
             between the two halves. *)
          let landed =
            match
              on_removed ();
              run ~label:"move.add" t dst (fun e -> Engine.add_job e ~id ~size)
            with
            | r -> r
            | exception e -> Error (Printexc.to_string e)
          in
          match landed with
          | Ok (pdst, auto_dst) ->
            Optrace.with_span "move.commit" (fun () ->
                with_dir t (fun () ->
                    entry.at <- dst;
                    entry.reserved <- false;
                    t.inter_moves <- t.inter_moves + 1;
                    Condition.broadcast t.dir_settled));
            Ok
              (translate t src auto_src
              @ ({ id; src = global t src psrc; dst = global t dst pdst }
                :: translate t dst auto_dst))
          | Error err -> (
            (* Roll back: re-add on src through the ordinary journaled
               path (placement there may differ from the original
               processor — that is fine, the journal records what
               actually happened). *)
            match run ~label:"move.rollback" t src (fun e -> Engine.add_job e ~id ~size) with
            | Ok _ ->
              settle t ~id entry (Some src);
              Error (pf "move of %s rolled back: %s" id err)
            | Error e2 ->
              settle t ~id entry None;
              Error (pf "move of %s failed (%s) and rollback failed (%s): job dropped" id err e2)
            | exception e2 ->
              settle t ~id entry None;
              raise e2)))
    with Shut_down -> Error "cluster is shut down"

(* The shards taking part in routing and repair: positive weight. *)
let routable t = with_dir t (fun () -> Array.map (fun w -> w > 0.0) t.weights)

(* The shard holding the least-loaded processor among [eligible]
   shards (lowest index on ties), from a fresh probe; -1 if none. *)
let least_loaded t eligible =
  let mins = run_all ~label:"probe" t (fun _ e -> snd (Engine.min_load e)) in
  let b = ref (-1) in
  Array.iteri (fun i l -> if eligible i && (!b < 0 || l < mins.(!b)) then b := i) mins;
  !b

(* Every routable shard's own bounded GREEDY repair first — on worker
   domains genuinely in parallel, shards are independent — then up to
   [k] cross-shard transfers, each picked from a fresh probe of all
   shards (the globally heaviest liftable job to the shard holding the
   least-loaded processor, only when it lands below the current peak)
   and executed as a two-phase [move]. Per-shard repair cannot lower a
   peak held by a shard whose every processor is hot; the transfers
   can. Zero-weight shards sit the whole pass out: a Down shard neither
   receives transfers (it stopped taking routes) nor gives any up (its
   engine is presumed unreachable; [evacuate] is the sanctioned drain).
   A transfer beaten by a concurrent client op (the job vanished or
   moved) is skipped, not fatal; the next iteration re-probes. *)
let rebalance t ~k =
  if k < 0 then invalid_arg "Cluster.rebalance: negative k";
  try
    let routable = routable t in
    let internal =
      run_all ~label:"rebalance" t (fun s e ->
          if routable.(s) then translate t s (Engine.rebalance e ~k) else [])
      |> Array.to_list
      |> List.concat
    in
    let inter = ref [] in
    (try
       for _ = 1 to k do
         let probes =
           run_all ~label:"probe" t (fun _ e ->
               (Engine.makespan e, Engine.peek_heaviest e, Engine.min_load e))
         in
         let ms i = let m, _, _ = probes.(i) in m in
         let a = ref (-1) in
         Array.iteri (fun i _ -> if routable.(i) && (!a < 0 || ms i > ms !a) then a := i) probes;
         if !a < 0 then raise Exit;
         let a = !a in
         let lmax = ms a in
         if lmax = 0 then raise Exit;
         match (let _, h, _ = probes.(a) in h) with
         | None -> raise Exit
         | Some (id, size, _) ->
           let b = ref (-1) and best = ref max_int in
           Array.iteri
             (fun i (_, _, (_, l)) ->
               if i <> a && routable.(i) && l < !best then begin
                 b := i;
                 best := l
               end)
             probes;
           if !b < 0 then raise Exit;
           if !best + size >= lmax then raise Exit;
           (match move t ~id ~dst:!b with
           | Ok mvs -> inter := List.rev_append mvs !inter
           | Error _ -> () (* lost to a concurrent op; re-probe *))
       done
     with Exit -> ());
    internal @ List.rev !inter
  with Shut_down -> []

(* Failover: re-home up to [budget] jobs off a dead shard as two-phase
   moves, so each half is an ordinary journaled event on its engine,
   every surviving journal stays replayable and the directory stays
   authoritative. Jobs leave largest-first (the jobs that hurt the
   makespan most if stranded); each lands on the routable survivor
   holding the globally least-loaded processor, i.e. exactly where the
   batch GREEDY would put it. *)
let evacuate t ~from ~budget =
  if from < 0 || from >= shard_count t then Error "Cluster.evacuate: no such shard"
  else if budget < 0 then Error "Cluster.evacuate: negative budget"
  else
    try
      let jobs =
        run ~label:"evacuate" t from (fun e ->
            Engine.fold_jobs e (fun acc ~id ~size ~proc:_ -> (id, size) :: acc) [])
        |> List.sort (fun (ida, sa) (idb, sb) ->
               if sa <> sb then compare sb sa else compare ida idb)
      in
      let routable = routable t in
      let survivor i = i <> from && routable.(i) in
      if jobs <> [] && not (List.exists survivor (List.init (shard_count t) Fun.id)) then
        Error "Cluster.evacuate: no routable surviving shard"
      else begin
        let moves = ref [] and moved = ref 0 in
        (try
           List.iter
             (fun (id, _) ->
               if !moved >= budget then raise Exit;
               match move t ~id ~dst:(least_loaded t survivor) with
               | Ok mvs ->
                 incr moved;
                 moves := List.rev_append mvs !moves
               | Error _ -> () (* left behind: counted with the stranded *))
             jobs
         with Exit -> ());
        Ok (List.rev !moves, List.length jobs - !moved)
      end
    with Shut_down -> Error "cluster is shut down"

(* Re-admission: swap a fresh engine (restored from the shard's own
   snapshot + journal tail) in behind the directory. It is built in the
   owner's registry, as [of_engines] builders are, and swapped in by a
   task on the owner, so it is ordered after every task already queued
   for the old engine. The swap is only sound when the replacement
   agrees with the directory about exactly which jobs shard [i] owns —
   after a full evacuation both sides are empty, so a journal-restored
   engine (whose journal recorded the evacuation removes) passes. *)
let replace_engine t i build =
  if i < 0 || i >= shard_count t then Error "Cluster.replace_engine: no such shard"
  else
    try
      match Metrics.Registry.with_registry t.registries.(t.owner.(i)) build with
      | Error _ as e -> e
      | Ok eng ->
        let owned = Engine.m t.engines.(i) in
        if Engine.m eng <> owned then
          Error
            (pf "Cluster.replace_engine: engine has %d processors, shard %d owns %d"
               (Engine.m eng) i owned)
        else begin
          let expected =
            with_dir t (fun () ->
                Hashtbl.fold
                  (fun id e acc -> if e.at = i && not e.reserved then id :: acc else acc)
                  t.directory [])
          in
          let actual = Engine.fold_jobs eng (fun acc ~id ~size:_ ~proc:_ -> id :: acc) [] in
          if List.sort compare expected <> List.sort compare actual then
            Error
              (pf
                 "Cluster.replace_engine: engine holds %d job(s) but the directory maps %d \
                  to shard %d"
                 (List.length actual) (List.length expected) i)
          else Ok (run ~label:"replace" t i (fun _ -> t.engines.(i) <- eng))
        end
    with Shut_down -> Error "cluster is shut down"

(* ----- inspection ----- *)

(* No mailbox: each shard's value is the one its executor published at
   the end of its last completed task. *)
let makespan t = Array.fold_left (fun acc p -> max acc (Atomic.get p)) 0 t.peaks

let loads t =
  let out = Array.make t.m 0 in
  let per_shard = run_all ~label:"loads" t (fun _ e -> Engine.loads e) in
  Array.iteri (fun i l -> Array.blit l 0 out t.offsets.(i) (Array.length l)) per_shard;
  out

let stats t =
  let agg = run_all ~label:"stats" t (fun _ e -> (Engine.stats e, Engine.max_job_size e)) in
  let sum f = Array.fold_left (fun acc (s, _) -> acc + f s) 0 agg in
  let makespan = Array.fold_left (fun acc (s, _) -> max acc s.Engine.makespan) 0 agg in
  let max_job_size = Array.fold_left (fun acc (_, mx) -> max acc mx) 0 agg in
  let total_size = sum (fun s -> s.Engine.total_size) in
  (* Same ratio as [Engine.imbalance], over the global state: makespan
     / max (average load across all m processors, largest live job). *)
  let imbalance =
    if total_size = 0 then 1.0
    else begin
      let bound =
        Float.max (float_of_int total_size /. float_of_int t.m) (float_of_int max_job_size)
      in
      float_of_int makespan /. bound
    end
  in
  let jobs, inter_moves = with_dir t (fun () -> (Hashtbl.length t.directory, t.inter_moves)) in
  {
    shards = shard_count t;
    jobs;
    procs = t.m;
    makespan;
    total_size;
    imbalance;
    events = sum (fun s -> s.Engine.events);
    adds = sum (fun s -> s.Engine.adds);
    removes = sum (fun s -> s.Engine.removes);
    resizes = sum (fun s -> s.Engine.resizes);
    rebalances = sum (fun s -> s.Engine.rebalances);
    auto_rebalances = sum (fun s -> s.Engine.auto_rebalances);
    trigger_firings = sum (fun s -> s.Engine.trigger_firings);
    moved = sum (fun s -> s.Engine.moved);
    inter_moves;
    consistency_checks = sum (fun s -> s.Engine.consistency_checks);
    consistency_failures = sum (fun s -> s.Engine.consistency_failures);
  }

let shard_stats t = run_all ~label:"stats" t (fun _ e -> Engine.stats e)

let check_consistency t ~k =
  let ids =
    run_all ~label:"check" t (fun _ e ->
        Engine.fold_jobs e (fun acc ~id ~size:_ ~proc:_ -> id :: acc) [])
  in
  let resident = Hashtbl.create 256 in
  Array.iteri (fun s l -> List.iter (fun id -> Hashtbl.replace resident id s) l) ids;
  let directory_ok =
    with_dir t (fun () ->
        Hashtbl.length t.directory = Hashtbl.length resident
        && Hashtbl.fold
             (fun id e acc ->
               acc && (not e.reserved) && Hashtbl.find_opt resident id = Some e.at)
             t.directory true)
  in
  directory_ok
  && Array.for_all Fun.id (run_all ~label:"check" t (fun _ e -> Engine.check_consistency e ~k))

let journal_snapshot t =
  try
    let attached = run_all ~label:"snapshot" t (fun _ e -> Engine.journal e <> None) in
    let missing = ref [] in
    Array.iteri (fun i a -> if not a then missing := i :: !missing) attached;
    match !missing with
    | _ :: _ ->
      Error
        (pf "no journal attached to shard %s"
           (String.concat ", " (List.rev_map string_of_int !missing)))
    | [] ->
      let seqs = run_all ~label:"snapshot" t (fun _ e -> Engine.journal_snapshot e) in
      Ok
        (Array.to_list
           (Array.mapi
              (fun i seq ->
                match seq with
                | Ok seq -> (i, seq)
                | Error e -> failwith ("Cluster.journal_snapshot: " ^ e))
              seqs))
  with Shut_down -> Error "cluster is shut down"

let query t s f =
  if s < 0 || s >= shard_count t then invalid_arg "Cluster.query: no such shard";
  run ~label:"query" t s f

let recorded_spans t =
  Array.to_list (on_domains t Optrace.recorded) |> List.concat

let merge_metrics t ~into = Array.iter (fun reg -> Metrics.merge ~into reg) t.registries

(* ----- shutdown ----- *)

let shutdown t =
  let first =
    with_dir t (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          (* Wake clients parked in [settled]; they observe [stopped]
             and fail their op with "cluster is shut down". *)
          Condition.broadcast t.dir_settled;
          true
        end)
  in
  if first then begin
    (* Workers drain every accepted task, then exit — in-flight ops
       still get their replies before the domains are joined. *)
    Array.iter Mailbox.close t.mailboxes;
    Array.iter Domain.join t.workers
  end

let engine t i =
  if i < 0 || i >= shard_count t then invalid_arg "Cluster.engine: no such shard";
  t.engines.(i)
