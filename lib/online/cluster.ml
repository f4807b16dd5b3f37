module Flat_str_map = Rebal_ds.Flat_str_map
module Metrics = Rebal_obs.Metrics
module Optrace = Rebal_obs.Optrace
module Timer = Rebal_harness.Timer

type move = Engine.move = {
  id : string;
  src : int;
  dst : int;
}

exception Shut_down

(* The supervision vocabulary, re-exported by [Supervisor]. *)
module Health = struct
  type health =
    | Healthy
    | Suspect
    | Down
    | Recovering

  let health_name = function
    | Healthy -> "healthy"
    | Suspect -> "suspect"
    | Down -> "down"
    | Recovering -> "recovering"

  type config = {
    suspect_after : int;
    down_after : int;
    op_deadline : float;
    evac_budget : int;
    recovery_steps : int;
  }

  let default_config =
    {
      suspect_after = 1;
      down_after = 3;
      op_deadline = 1.0;
      evac_budget = max_int;
      recovery_steps = 4;
    }

  type stats = {
    shards : int;
    healthy : int;
    suspect : int;
    down : int;
    recovering : int;
    evacuations : int;
    evacuated_jobs : int;
    stranded_jobs : int;
    readmissions : int;
    probe_failures : int;
    watchdog_trips : int;
    degraded_rejections : int;
  }
end

open Health

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

(* Shard availability under a supervision policy. Every mutable part is
   read and written under [dir_mu], next to the routing weights, so one
   hold changes a shard's health and its weight together, and the
   thread whose signal flips a shard Down is the only one that runs its
   failover. *)
type supervision = {
  policy : config;
  probe : int -> bool;
  clock : unit -> float;
  health : health array;
  fails : int array;  (* consecutive failure signals since the last success *)
  ramp : int array;  (* recovery progress, 0..recovery_steps *)
  (* Reservations in flight that touch the shard: an op's on its shard,
     a transfer's on its source and its destination. A failover waits
     for its shard's count to reach 0 before it lists the jobs. *)
  pinned : int array;
  in_flux : bool array;  (* the shard's failover is running *)
  mutable serving : int;  (* shards not Down *)
  mutable counts : Health.stats;  (* the counters; [stats] fills in the census *)
}

(* What the residency directory knows about an id, packed into one
   int: the shard it lives on (for an add in flight, the shard it is
   being added to; for a cross-shard transfer in flight, the source),
   shifted left by one, and in the low bit whether an operation holds it
   reserved. Every mutating operation reserves its id before touching
   an engine and settles it afterwards, so two clients (or a client and
   the cross-shard mover) can never race the same id onto two shards;
   operations arriving while an id is reserved wait on [dir_settled] —
   per-id linearization without any global stop-the-world. The
   directory is a [Flat_str_map], like each engine's id -> slot map:
   reserving and settling each re-probe the id under [dir_mu], and
   neither allocates. *)
let settled_on s = s lsl 1
let reserved_on s = (s lsl 1) lor 1
let is_reserved v = v > 0 && v land 1 = 1

(* The consistent-hash ring as parallel arrays sorted by point: a new id
   routes to the first point at or after its hash (wrapping). Point
   [j]'s shard is [owner.(j)] and [replica.(j)] is its index among that
   shard's virtual nodes, so a weight can activate a prefix of them. *)
type ring = {
  points : int array;
  owner : int array;
  replica : int array;
}

(* The executor state of one shard. Its lock is the only thing that
   serializes the shard's engine, journal sink and metric handles: every
   handle below, and every handle the engine binds (they all live in
   [registry]), is mutated only by the thread holding [mu]. [waiting] is
   the exception — callers count themselves in before they block — so
   it is an atomic. *)
type lane = {
  mu : Mutex.t;
  registry : Metrics.Registry.t;
  waiting : int Atomic.t;  (* callers blocked on [mu] *)
  depth : Metrics.Gauge.t;
  wait : Metrics.Histogram.t;
  busy : Metrics.Gauge.t;
  util : Metrics.Gauge.t;
  mutable busy_ns : int;  (* under [mu] *)
}

type t = {
  engines : Engine.t array;
  offsets : int array;  (* shard i owns global procs [offsets.(i), ...) *)
  m : int;
  ring : ring;
  (* Routing weight per shard in [0, 1], under dir_mu: the fraction of
     its virtual nodes accepting new placements. 0 takes a shard out of
     the ring and out of the repair passes (a Down shard); a Recovering
     shard ramps back gradually. Residency of placed jobs is never
     affected — only where a *new* id lands. *)
  weights : float array;
  (* The executor: one lane per shard. Shard work runs on the calling
     thread under the shard's lane lock. *)
  lanes : lane array;
  (* One metrics registry per session domain; the server runs each of
     its acceptor domains under one. *)
  domain_registries : Metrics.Registry.t array;
  started_ns : int64;  (* the utilization gauges' wall-clock origin *)
  (* Shard i's [Engine.makespan] and [Engine.min_load] as of its last
     completed task, stored before the lane lock is released — so
     [makespan] is a fold over the peaks, and the cross-shard passes
     pick their shards from both, with no lock at all. Only the peaks
     are atomic: [makespan] promises a caller its own op's effect. The
     passes already tolerate a stale low, so a plain store (no fence on
     every task) serves. *)
  peaks : int Atomic.t array;
  lows : int array;
  dir_mu : Mutex.t;
  dir_settled : Condition.t;
  directory : Flat_str_map.t;  (* id -> [settled_on] / [reserved_on] shard *)
  mutable inter_moves : int;  (* under dir_mu *)
  stopped : bool Atomic.t;  (* set under dir_mu; read under lane locks too *)
  (* Installed once, by [supervise], before the cluster serves; an
     unsupervised cluster pays one [None] test per op. *)
  mutable supervision : supervision option;
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
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193 land 0xFFFFFFFF
  done;
  let h = !h lxor (!h lsr 16) in
  let h = h * 0x85ebca6b land 0xFFFFFFFF in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land 0xFFFFFFFF in
  h lxor (h lsr 16)

let ring_points_per_shard = 64

let make_ring shards =
  let triples =
    Array.init (shards * ring_points_per_shard) (fun i ->
        let shard = i / ring_points_per_shard and replica = i mod ring_points_per_shard in
        (hash32 (pf "shard:%d:%d" shard replica), shard, replica))
  in
  Array.sort compare triples;
  {
    points = Array.map (fun (p, _, _) -> p) triples;
    owner = Array.map (fun (_, s, _) -> s) triples;
    replica = Array.map (fun (_, _, r) -> r) triples;
  }

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
   past points whose shard has deactivated that replica; -1 when every
   shard is weighted to zero. *)
let ring_lookup ~weights ring h =
  let n = Array.length ring.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ring.points.(mid) < h then lo := mid + 1 else hi := mid
  done;
  let start = if !lo = n then 0 else !lo in
  let i = ref start and found = ref (-1) and remaining = ref n in
  while !found < 0 && !remaining > 0 do
    let s = ring.owner.(!i) in
    if ring.replica.(!i) < active_replicas weights.(s) then found := s
    else begin
      i := if !i + 1 = n then 0 else !i + 1;
      decr remaining
    end
  done;
  !found

(* ----- the executor: lane locks on the calling thread ----- *)

(* Every shard task runs on the thread that asks for it, holding the
   shard's lane lock — there is no hand-off between threads or domains
   on the op path. Two invariants keep the locks deadlock-free:

   - a thread never holds two lane locks: work spanning shards (a
     fan-out, the two halves of a cross-shard move) is a sequence of
     single-shard tasks;
   - a thread never holds [dir_mu] while it takes a lane lock:
     directory steps and engine steps alternate, they never nest.

   Task bodies are engine calls and never call back into the cluster,
   so neither can arise from inside a task. *)

(* Run [f] on shard [s]'s engine and publish the shard's makespan and
   least load before the lock is released, so a caller that has its
   result always sees its own op's effect in them. The engine is re-read
   for the publish: a [replace_engine] task swaps it. *)
let publish t s =
  let e = t.engines.(s) in
  Atomic.set t.peaks.(s) (Engine.makespan e);
  t.lows.(s) <- Engine.min_load e

let on_shard t s f =
  match f t.engines.(s) with
  | v ->
    publish t s;
    v
  | exception ex ->
    publish t s;
    raise ex

(* Under [l.mu]: fold the task that started at [start] into the busy
   and utilization gauges. *)
let account t l start =
  let now = Timer.now_ns () in
  l.busy_ns <- l.busy_ns + Int64.to_int (Int64.sub now start);
  let busy_s = float_of_int l.busy_ns /. 1e9 in
  Metrics.Gauge.set l.busy busy_s;
  let wall = Int64.to_float (Int64.sub now t.started_ns) /. 1e9 in
  if wall > 0.0 then Metrics.Gauge.set l.util (busy_s /. wall)

(* Under [l.mu]. A traced op gets a [shard.<label>] child span, with
   the lock wait as [queue_us].
   @raise Shut_down if the cluster has shut down. *)
let locked_task t s l ~label ~queued_ns f =
  if Atomic.get t.stopped then raise Shut_down;
  Metrics.Histogram.observe_ns l.wait queued_ns;
  Metrics.Gauge.set l.depth (float_of_int (Atomic.get l.waiting));
  let start = Timer.now_ns () in
  match
    if Optrace.active () then
      Optrace.with_span
        ~attrs:
          [ ("queue_us", pf "%.1f" (Int64.to_float queued_ns /. 1e3)); ("shard", string_of_int s) ]
        ("shard." ^ label)
        (fun () -> on_shard t s f)
    else on_shard t s f
  with
  | v ->
    account t l start;
    v
  | exception ex ->
    account t l start;
    raise ex

(* Run [f] on shard [s]'s engine under its lane lock; [label] names the
   span when the calling op is traced. An uncontended lock observes a
   zero wait without reading the clock.
   @raise Shut_down if the cluster has shut down. *)
let run ?(label = "task") t s f =
  let l = t.lanes.(s) in
  let queued_ns =
    if Mutex.try_lock l.mu then 0L
    else begin
      let t0 = Timer.now_ns () in
      Atomic.incr l.waiting;
      Mutex.lock l.mu;
      Atomic.decr l.waiting;
      Int64.sub (Timer.now_ns ()) t0
    end
  in
  match locked_task t s l ~label ~queued_ns f with
  | v ->
    Mutex.unlock l.mu;
    v
  | exception ex ->
    Mutex.unlock l.mu;
    raise ex

(* [f s] on every shard, one lane at a time. *)
let run_all ?label t f = Array.init (Array.length t.engines) (fun s -> run ?label t s (f s))

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

let make_lane s =
  let registry = Metrics.Registry.create () in
  let labels = [ ("shard", string_of_int s) ] in
  {
    mu = Mutex.create ();
    registry;
    waiting = Atomic.make 0;
    depth =
      Metrics.gauge ~registry ~labels ~help:"Callers waiting for this shard's lock"
        "rebal_mailbox_depth";
    wait =
      Metrics.histogram ~registry ~labels
        ~help:
          "Seconds from submitting a shard task until it holds the shard's lock (0 when \
           uncontended)"
        "rebal_mailbox_wait_seconds";
    busy =
      Metrics.gauge ~registry ~labels ~help:"Cumulative seconds spent inside this shard's tasks"
        "rebal_domain_busy_seconds";
    util =
      Metrics.gauge ~registry ~labels
        ~help:"Seconds inside this shard's tasks over wall seconds since the cluster started"
        "rebal_domain_utilization";
    busy_ns = 0;
  }

(* [domains] (default 0) session domains, clamped to [shards]: at most
   [shards] threads can hold lane locks at once, so more domains add no
   parallel engine work. *)
let domain_count_of ~shards = function
  | None -> 0
  | Some d ->
    if d < 0 then invalid_arg "Cluster: negative domain count";
    min d shards

let of_parts ~engines ~lanes ~domains ~directory =
  let offsets, m = offsets_of_engines engines in
  let shards = Array.length engines in
  {
    engines;
    offsets;
    m;
    ring = make_ring shards;
    weights = Array.make shards 1.0;
    lanes;
    domain_registries = Array.init domains (fun _ -> Metrics.Registry.create ());
    started_ns = Timer.now_ns ();
    peaks = Array.map (fun e -> Atomic.make (Engine.makespan e)) engines;
    lows = Array.map Engine.min_load engines;
    dir_mu = Mutex.create ();
    dir_settled = Condition.create ();
    directory;
    inter_moves = 0;
    stopped = Atomic.make false;
    supervision = None;
  }

let create ?trigger ?clock ?journal_for ?domains ~m ~shards () =
  if shards < 1 then invalid_arg "Cluster.create: need at least one shard";
  if m < shards then invalid_arg "Cluster.create: need at least one processor per shard";
  let domains = domain_count_of ~shards domains in
  let lanes = Array.init shards make_lane in
  let engines =
    Array.init shards (fun i ->
        let m_i = (m / shards) + if i < m mod shards then 1 else 0 in
        (* Bind the engine's metric handles — and anything the journal
           factory binds, e.g. a resilient sink's drop counter — in the
           shard's own registry, which only its lock holder mutates. *)
        Metrics.Registry.with_registry lanes.(i).registry (fun () ->
            let journal = match journal_for with None -> None | Some f -> f i in
            Engine.create ?trigger ?clock ?journal ~m:m_i ()))
  in
  of_parts ~engines ~lanes ~domains ~directory:(Flat_str_map.create 256)

let of_engines ?domains ~shards build =
  if shards < 1 then Error "Cluster.of_engines: need at least one engine"
  else begin
    let domains = domain_count_of ~shards domains in
    let lanes = Array.init shards make_lane in
    let engines =
      Array.init shards (fun i ->
          Metrics.Registry.with_registry lanes.(i).registry (fun () -> build i))
    in
    (* Sized for the resumed jobs, so filling it grows nothing. *)
    let jobs = Array.fold_left (fun n e -> n + Engine.job_count e) 0 engines in
    let directory = Flat_str_map.create (max 256 jobs) in
    let exception Dup of string in
    match
      Array.iteri
        (fun i e ->
          Engine.fold_jobs e
            (fun () ~id ~size:_ ~proc:_ ->
              if Flat_str_map.mem directory id then raise (Dup id);
              Flat_str_map.set directory id (settled_on i))
            ())
        engines
    with
    | () -> Ok (of_parts ~engines ~lanes ~domains ~directory)
    | exception Dup id -> Error (pf "Cluster.of_engines: job %s lives in two shards" id)
  end

(* ----- simple accessors ----- *)

let shard_count t = Array.length t.engines
let domain_count t = Array.length t.domain_registries
let domain_registries t = t.domain_registries
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

(* Under [dir_mu]: wait until [id] is not reserved; its shard, -1 when
   it is absent. *)
let rec settled t id =
  if Atomic.get t.stopped then raise Shut_down;
  let v = Flat_str_map.find t.directory id in
  if is_reserved v then begin
    Condition.wait t.dir_settled t.dir_mu;
    settled t id
  end
  else v asr 1

let job_count t = with_dir t (fun () -> Flat_str_map.length t.directory)

let mem t id = try with_dir t (fun () -> settled t id) >= 0 with Shut_down -> false

let shard_of t id =
  try
    let s = with_dir t (fun () -> settled t id) in
    if s < 0 then None else Some s
  with Shut_down -> None

let weight t i = with_dir t (fun () -> t.weights.(i))

let set_weight t i w =
  if not (Float.is_finite w) || w < 0.0 || w > 1.0 then
    invalid_arg "Cluster.set_weight: weight must be in [0, 1]";
  with_dir t (fun () -> t.weights.(i) <- w)

(* Under [dir_mu]: the shard a new [id] lands on, -1 if none is
   routable. *)
let route t id = ring_lookup ~weights:t.weights t.ring (hash32 id)

(* Under [dir_mu]: count a reservation touching shard [s] in ([d = 1])
   or out ([d = -1]). Only a supervised cluster keeps the count. *)
let pin t s d =
  match t.supervision with None -> () | Some v -> v.pinned.(s) <- v.pinned.(s) + d

(* Under [dir_mu]: whether shard [s] is Down. *)
let is_down t s = match t.supervision with Some v -> v.health.(s) = Down | None -> false

(* Under [dir_mu]: settle [id], reserved on shard [at], on shard [home],
   or drop it when [home < 0], and unpin [at]. *)
let release t ~id ~at home =
  pin t at (-1);
  if home < 0 then Flat_str_map.remove t.directory id
  else Flat_str_map.set t.directory id (settled_on home)

(* [release] under its own [dir_mu] hold, waking every waiter. *)
let settle t ~id ~at home =
  with_dir t (fun () ->
      release t ~id ~at home;
      Condition.broadcast t.dir_settled)

(* Run the engine half of an op whose id is reserved on shard [s]; on
   any exception (a raising task, shutdown mid-flight) roll the
   reservation back to [restore] so waiters are not stranded on a ghost
   reservation. *)
let run_reserved ?label t ~id ~restore s f =
  match run ?label t s f with
  | r -> r
  | exception ex ->
    settle t ~id ~at:s restore;
    raise ex

(* ----- the operations ----- *)

(* Under [dir_mu]: a refusal of the degraded-mode guard, counted. *)
let refuse v msg =
  v.counts <- { v.counts with degraded_rejections = v.counts.degraded_rejections + 1 };
  Error msg

(* Under [dir_mu]: reserve [id] on shard [s]. *)
let reserve_on t id s =
  Flat_str_map.set t.directory id (reserved_on s);
  pin t s 1

(* Under [dir_mu], with [found] the id's settled shard (-1 when absent):
   reserve [op]'s id — on the routed shard for an add, on its resident
   shard otherwise — and return that shard, or say why the op cannot
   apply. On a supervised cluster the degraded-mode guard speaks first.
   Routing skips zero-weight shards (Down ones, and Recovering ones at
   ramp 0), so an add lands on a routable shard or is refused. *)
let claim t op found =
  let id = Engine.op_id op in
  match t.supervision with
  | Some v when v.serving = 0 -> refuse v "no serving shards"
  | Some v when found >= 0 && v.health.(found) = Down ->
    refuse v (pf "job %s is stranded on down shard %d" id found)
  | _ -> (
    match op with
    | Engine.Add _ when found >= 0 -> Error (pf "job %s already present" id)
    | Engine.Add _ ->
      let s = route t id in
      if s < 0 then
        match t.supervision with
        | Some v -> refuse v "no routable shards"
        | None -> Error "no routable shards"
      else begin
        reserve_on t id s;
        Ok s
      end
    | (Engine.Remove _ | Engine.Resize _) when found < 0 -> Error (pf "job %s not found" id)
    | Engine.Remove _ | Engine.Resize _ ->
      reserve_on t id found;
      Ok found)

(* Where a claimed id settles once its op ran on shard [s] — [applied]
   or not: a placed add and a failed remove stay, a failed add and a
   done remove leave (-1), a resize stays either way. *)
let home op s ~applied =
  match (op, applied) with
  | Engine.Add _, false | Engine.Remove _, true -> -1
  | Engine.Add _, true | Engine.Remove _, false | Engine.Resize _, _ -> s

(* The span label of an op's shard task, as the [?label] argument. *)
let label = function
  | Engine.Add _ -> Some "add"
  | Engine.Remove _ -> Some "remove"
  | Engine.Resize _ -> Some "resize"

let shut_down = Error "cluster is shut down"

(* Shard [s]'s result in global processor indices; shard 0's are
   already global. *)
let global_result t s r =
  match r with
  | Ok (p, moves) when t.offsets.(s) <> 0 -> Ok (global t s p, translate t s moves)
  | r -> r

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
   reservation rolls back — again an ordinary event on src's journal.

   On a supervised cluster no transfer lands on a Down shard, and only
   a failover's own ([evacuation]) lifts a job off one. *)
let transfer ~evacuation ?(on_removed = fun () -> ()) t ~id ~dst =
  if dst < 0 || dst >= shard_count t then Error (pf "Cluster.move: no such shard %d" dst)
  else
    (* The whole transfer is one span on the calling thread; the two
       engine halves become [shard.move.remove] / [shard.move.add]
       child spans, each under its own lane lock, and the directory
       steps bracket them — so a traced cross-shard move reads
       reserve → remove → add → commit. *)
    Optrace.with_span ~attrs:[ ("id", id); ("dst", string_of_int dst) ] "move"
    @@ fun () ->
    try
      let reserved =
        Optrace.with_span "move.reserve" @@ fun () ->
        with_dir t (fun () ->
            let src = settled t id in
            if src = dst then Ok None
            else if src < 0 then Error (pf "job %s not found" id)
            else if is_down t dst then Error (pf "shard %d is down" dst)
            else if (not evacuation) && is_down t src then
              Error (pf "job %s is stranded on down shard %d" id src)
            else begin
              reserve_on t id src;
              pin t dst 1;
              Ok (Some src)
            end)
      in
      match reserved with
      | Error _ as e -> e
      | Ok None -> Ok [] (* already resident on [dst] *)
      | Ok (Some src) -> (
        (* Settle the id and unpin both shards under one hold. *)
        let finish ?(commit = false) home =
          with_dir t (fun () ->
              release t ~id ~at:src home;
              pin t dst (-1);
              if commit then t.inter_moves <- t.inter_moves + 1;
              Condition.broadcast t.dir_settled)
        in
        (* Phase 1: size lookup + remove, in one task on src. *)
        let lifted =
          match
            run ~label:"move.remove" t src (fun e ->
                match Engine.find e id with
                | None -> Error (pf "job %s missing from shard %d" id src)
                | Some (size, _) -> (
                  match Engine.remove_job e ~id with
                  | Error _ as err -> err
                  | Ok (p, auto) -> Ok (size, p, auto)))
          with
          | r -> r
          | exception ex ->
            finish src;
            raise ex
        in
        match lifted with
        | Error e ->
          finish src;
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
            Optrace.with_span "move.commit" (fun () -> finish ~commit:true dst);
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
              finish src;
              Error (pf "move of %s rolled back: %s" id err)
            | Error e2 ->
              finish (-1);
              Error (pf "move of %s failed (%s) and rollback failed (%s): job dropped" id err e2)
            | exception e2 ->
              finish (-1);
              raise e2)))
    with Shut_down -> Error "cluster is shut down"

let move ?on_removed t ~id ~dst = transfer ~evacuation:false ?on_removed t ~id ~dst

(* The shards taking part in routing and repair: positive weight. *)
let routable t = with_dir t (fun () -> Array.map (fun w -> w > 0.0) t.weights)

let peak t i = Atomic.get t.peaks.(i)
let low t i = t.lows.(i)

(* The [eligible] shard whose published value [v] ([peak] or [low]) is
   best by [better], lowest index on ties; -1 if none. *)
let pick t v eligible better =
  let b = ref (-1) in
  for i = 0 to Array.length t.lows - 1 do
    if eligible i && (!b < 0 || better (v i) (v !b)) then b := i
  done;
  !b

(* Re-home up to [budget] jobs off shard [from] as two-phase transfers,
   so each half is an ordinary journaled event on its engine, every
   surviving journal stays replayable and the directory stays
   authoritative. Jobs leave largest-first (the jobs that hurt the
   makespan most if stranded); each lands on the routable survivor
   holding the globally least-loaded processor, i.e. exactly where the
   batch GREEDY would put it. Returns the moves, how many jobs moved
   and how many the shard held when listed; the rest stay, stranded. *)
let evacuate t ~from ~budget =
  let jobs =
    run ~label:"evacuate" t from (fun e ->
        Engine.fold_jobs e (fun acc ~id ~size ~proc:_ -> (id, size) :: acc) [])
    |> List.sort (fun (ida, sa) (idb, sb) -> if sa <> sb then compare sb sa else compare ida idb)
  in
  let moves = ref [] and moved = ref 0 in
  (try
     List.iter
       (fun (id, _) ->
         let routable = routable t in
         let survivor i = i <> from && routable.(i) in
         if !moved >= budget || not (List.exists survivor (List.init (shard_count t) Fun.id))
         then raise Exit;
         match transfer ~evacuation:true t ~id ~dst:(pick t (low t) survivor ( < )) with
         | Ok mvs ->
           incr moved;
           moves := List.rev_append mvs !moves
         | Error _ -> () (* left behind: counted with the stranded *))
       jobs
   with Exit -> ());
  (List.rev !moves, !moved, List.length jobs)

(* ----- supervision: health, the failover, the watchdog ----- *)

(* Under [dir_mu]: shard [i] goes Down — out of the ring and out of
   service, and in flux until its failover has run. [true]: the
   caller's signal flipped it, so the caller runs the failover. *)
let go_down t v i =
  v.health.(i) <- Down;
  v.serving <- v.serving - 1;
  v.ramp.(i) <- 0;
  t.weights.(i) <- 0.0;
  v.in_flux.(i) <- true;
  true

(* The failover of shard [i], run outside [dir_mu] by the thread whose
   signal flipped it Down. From the flip on, no new reservation touches
   the shard but the failover's own transfers, so once those in flight
   have settled, [evacuate]'s listing is final. The ["evacuation"] event
   goes into the shard's own journal; replay ignores it. *)
let failover t v i ~reason =
  let budget = v.policy.evac_budget in
  try
    with_dir t (fun () ->
        while v.pinned.(i) > 0 do
          if Atomic.get t.stopped then raise Shut_down;
          Condition.wait t.dir_settled t.dir_mu
        done);
    let moves, moved, listed = evacuate t ~from:i ~budget in
    run ~label:"query" t i (fun e ->
        match Engine.journal e with
        | None -> ()
        | Some sink ->
          Rebal_obs.Journal.(
            emit sink ~kind:"evacuation"
              [
                ("shard", Int i);
                ("reason", Str reason);
                ("jobs", Int moved);
                ("leftover", Int (listed - moved));
                ("budget", Int (if budget = max_int then -1 else budget));
              ]));
    with_dir t (fun () ->
        let c = v.counts in
        v.in_flux.(i) <- false;
        v.counts <-
          { c with
            evacuations = c.evacuations + 1;
            evacuated_jobs = c.evacuated_jobs + moved;
            stranded_jobs = c.stranded_jobs + listed - moved;
          });
    moves
  with Shut_down ->
    with_dir t (fun () -> v.in_flux.(i) <- false);
    []

(* Under [dir_mu]: one failure signal against shard [i]; [true] when it
   flips the shard Down. A Recovering shard goes straight back Down. *)
let note_failure t v i =
  match v.health.(i) with
  | Down -> false
  | Recovering -> go_down t v i
  | Healthy | Suspect ->
    v.fails.(i) <- v.fails.(i) + 1;
    if v.fails.(i) >= v.policy.down_after then go_down t v i
    else begin
      if v.fails.(i) >= v.policy.suspect_after then v.health.(i) <- Suspect;
      false
    end

(* Under [dir_mu]: one success — a Suspect shard heals, a Recovering one
   ramps its weight one step back. *)
let note_success t v i =
  match v.health.(i) with
  | Down -> ()
  | Healthy | Suspect ->
    v.fails.(i) <- 0;
    v.health.(i) <- Healthy
  | Recovering ->
    let steps = v.policy.recovery_steps in
    v.fails.(i) <- 0;
    v.ramp.(i) <- min steps (v.ramp.(i) + 1);
    t.weights.(i) <- float_of_int v.ramp.(i) /. float_of_int steps;
    if v.ramp.(i) >= steps then v.health.(i) <- Healthy

(* A failure signal, counted by [count] under the same hold; the moves
   of the failover it triggers. *)
let signal_failure t v i ~reason count =
  if with_dir t (fun () -> count v; note_failure t v i) then failover t v i ~reason else []

let count_trip v = v.counts <- { v.counts with watchdog_trips = v.counts.watchdog_trips + 1 }

let count_probe_failure v =
  v.counts <- { v.counts with probe_failures = v.counts.probe_failures + 1 }

(* The watchdog's clock, read around each shard task of an op. *)
let clock t = match t.supervision with None -> 0.0 | Some v -> v.clock ()

(* A failover's moves ride on an acknowledged op's reply. *)
let with_moves r evacuated =
  match (r, evacuated) with Ok (p, moves), _ :: _ -> Ok (p, moves @ evacuated) | r, _ -> r

(* ----- single ops ----- *)

(* The watchdog judges an op once its reservation has settled, since a
   failover waits on the reservations touching its shard: an op whose
   task ran longer than [op_deadline] is one failure signal against the
   shard that served it. *)
let apply t op =
  try
    match with_dir t (fun () -> claim t op (settled t (Engine.op_id op))) with
    | Error _ as e -> e
    | Ok s ->
      let id = Engine.op_id op in
      let t0 = clock t in
      let res =
        run_reserved ?label:(label op) t ~id ~restore:(home op s ~applied:false) s (fun e ->
            Engine.apply e op)
      in
      let dt = clock t -. t0 in
      settle t ~id ~at:s (home op s ~applied:(Result.is_ok res));
      let res = global_result t s res in
      match t.supervision with
      | Some v when dt > v.policy.op_deadline ->
        with_moves res (signal_failure t v s ~reason:"watchdog" count_trip)
      | _ -> res
  with Shut_down -> shut_down

let add_job t ~id ~size = apply t (Engine.Add { id; size })
let remove_job t ~id = apply t (Engine.Remove { id })
let resize_job t ~id ~size = apply t (Engine.Resize { id; size })

(* ----- batched application ----- *)

(* One batch of events, routed and dispatched as per-shard sub-batches:
   each involved shard gets a single task that runs [Engine.apply_bulk]
   over its share — one lock acquisition, one journal flush per shard
   per chunk. Results are delivered to [on_result] in batch order.

   The batch runs in chunks, and a chunk holds [dir_mu] twice: once to
   reserve its ids, once to settle them all with one broadcast. The
   first op of a chunk may wait in [settled] for a foreign reservation
   (the call holds none of its own yet). After it, any op whose id is
   already reserved — by an earlier op of this chunk, whose effect it
   must observe, or by another client — ends the chunk. So this call
   never waits while holding reservations, and two concurrent batches
   over overlapping ids chunk around each other instead of
   deadlocking. An op that fails validation reserves nothing and
   changes no state, so a later op on its id stays in the chunk and
   meets the directory as it would one by one.

   Between the two holds, a counting sort groups the chunk's reserved
   ops by shard into [order], and each involved shard runs one task
   under its lane lock. A task that raises leaves its ops not applied:
   their results read "cluster is shut down" and their reservations
   are restored. The first such exception other than [Shut_down] is
   re-raised once the chunk is settled and delivered.

   On a supervised cluster the watchdog judges each chunk after its
   reservations are settled and before its results are delivered: a
   shard whose task of [n] ops ran longer than [n * op_deadline] takes
   one failure signal, and the moves of a failover it triggers ride on
   the reply of the chunk's last acknowledged op. *)
let apply_bulk t ?on_result ops =
  let n = Array.length ops and shards = shard_count t in
  (* Per batch, indexed by op: its result and the shard it was reserved
     on (-1 when it is not dispatched). *)
  let results = Array.make n shut_down in
  let shard_for = Array.make n (-1) in
  (* The counting sort: shard s's ops are [order.(starts.(s)) ..
     order.(starts.(s + 1) - 1)], in batch order. *)
  let order = Array.make n 0 in
  let starts = Array.make (shards + 1) 0 and fill = Array.make shards 0 in
  (* The watchdog's per-shard task seconds in the current chunk. *)
  let supervised = Option.is_some t.supervision in
  let seconds = Array.make (if supervised then shards else 0) 0.0 in
  (* Ops [lo, hi) are reserved or refused under one hold; returns [hi]. *)
  let reserve lo =
    with_dir t (fun () ->
        let hi = ref lo in
        (try
           while !hi < n do
             let i = !hi in
             let id = Engine.op_id ops.(i) in
             let found =
               if i = lo then settled t id
               else if Atomic.get t.stopped then raise Shut_down
               else begin
                 let v = Flat_str_map.find t.directory id in
                 if is_reserved v then raise Exit;
                 v asr 1
               end
             in
             (match claim t ops.(i) found with
             | Error _ as e -> results.(i) <- e
             | Ok s -> shard_for.(i) <- s);
             incr hi
           done
         with
        | Exit -> ()
        | Shut_down -> hi := n);
        !hi)
  in
  let dispatch s failure =
    let first = starts.(s) and len = starts.(s + 1) - starts.(s) in
    if len > 0 then begin
      let sub = Array.init len (fun j -> ops.(order.(first + j))) in
      let t0 = clock t in
      match
        run ~label:"apply_bulk" t s (fun e ->
            Engine.apply_bulk e
              ~on_result:(fun j _ r -> results.(order.(first + j)) <- global_result t s r)
              sub)
      with
      | () -> if supervised then seconds.(s) <- clock t -. t0
      | exception e ->
        for k = first to first + len - 1 do
          results.(order.(k)) <- shut_down
        done;
        if !failure = None then failure := Some e
    end
  in
  (* The chunk [lo, hi)'s watchdog: a failure signal against each shard
     whose task blew its share's deadline, shard by shard; the moves of
     the failovers they trigger ride on the chunk's last acknowledged
     op. *)
  let watch v lo hi =
    let evacuated = ref [] in
    for s = 0 to shards - 1 do
      let len = starts.(s + 1) - starts.(s) in
      if len > 0 && seconds.(s) > float_of_int len *. v.policy.op_deadline then
        evacuated := !evacuated @ signal_failure t v s ~reason:"watchdog" count_trip
    done;
    let rec last i =
      if i >= lo then
        match results.(i) with
        | Ok _ -> results.(i) <- with_moves results.(i) !evacuated
        | Error _ -> last (i - 1)
    in
    if !evacuated <> [] then last (hi - 1)
  in
  let lo = ref 0 in
  while !lo < n do
    let chunk_lo = !lo in
    (* The first op always makes progress: it is reserved, refused or
       shut down before anything can end the chunk. *)
    let chunk_hi = reserve chunk_lo in
    Array.fill starts 0 (shards + 1) 0;
    for i = chunk_lo to chunk_hi - 1 do
      let s = shard_for.(i) in
      if s >= 0 then starts.(s + 1) <- starts.(s + 1) + 1
    done;
    for s = 1 to shards do
      starts.(s) <- starts.(s) + starts.(s - 1)
    done;
    Array.blit starts 0 fill 0 shards;
    for i = chunk_lo to chunk_hi - 1 do
      let s = shard_for.(i) in
      if s >= 0 then begin
        order.(fill.(s)) <- i;
        fill.(s) <- fill.(s) + 1
      end
    done;
    Array.fill seconds 0 (Array.length seconds) 0.0;
    let failure = ref None in
    for s = 0 to shards - 1 do
      dispatch s failure
    done;
    (* Settle every reservation — success or failure, no id is left in
       a transient state — and wake the waiters once. *)
    if starts.(shards) > 0 then
      with_dir t (fun () ->
          for i = chunk_lo to chunk_hi - 1 do
            let s = shard_for.(i) in
            if s >= 0 then
              release t ~id:(Engine.op_id ops.(i)) ~at:s
                (home ops.(i) s ~applied:(Result.is_ok results.(i)))
          done;
          Condition.broadcast t.dir_settled);
    (match t.supervision with Some v -> watch v chunk_lo chunk_hi | None -> ());
    (match on_result with
    | None -> ()
    | Some f ->
      for i = chunk_lo to chunk_hi - 1 do
        f i ops.(i) results.(i)
      done);
    (match !failure with Some Shut_down | None -> () | Some e -> raise e);
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

(* Every routable shard's own bounded GREEDY repair first — shards are
   independent, each repair is one task under its own lane — then up to
   [k] cross-shard transfers, each picked from the published state: the
   largest job on the shard with the highest peak, read by one task on
   that shard, to the shard holding the least-loaded processor, only
   when it lands below that peak; each is a two-phase [move]. Per-shard
   repair cannot lower a peak held by a shard whose every processor is
   hot; the transfers can. Zero-weight shards sit the whole pass out: a
   Down shard neither receives transfers (it stopped taking routes) nor
   gives any up (its engine is presumed unreachable; a failover is the
   sanctioned drain). A transfer beaten by a concurrent client op (the
   job vanished or moved) is skipped, not fatal; the next iteration
   reads the published state again. *)
let rebalance t ~k =
  if k < 0 then invalid_arg "Cluster.rebalance: negative k";
  try
    let routable = routable t in
    (* Each shard's weight is read again right before its task, so a
       shard gone Down since is not repaired. *)
    let internal =
      run_all ~label:"rebalance" t (fun s ->
          let live = weight t s > 0.0 in
          fun e -> if live then translate t s (Engine.rebalance e ~k) else [])
      |> Array.to_list
      |> List.concat
    in
    let inter = ref [] in
    (try
       for _ = 1 to k do
         let a = pick t (peak t) (Array.get routable) ( > ) in
         if a < 0 then raise Exit;
         match run ~label:"peek" t a (fun e -> (Engine.makespan e, Engine.peek_heaviest e)) with
         | 0, _ | _, None -> raise Exit
         | lmax, Some (id, size, _) ->
           let b = pick t (low t) (fun i -> i <> a && routable.(i)) ( < ) in
           if b < 0 || low t b + size >= lmax then raise Exit;
           (match move t ~id ~dst:b with
           | Ok mvs -> inter := List.rev_append mvs !inter
           | Error _ -> () (* lost to a concurrent op; read again *))
       done
     with Exit -> ());
    internal @ List.rev !inter
  with Shut_down -> []

(* Re-admission: swap a fresh engine (restored from the shard's own
   snapshot + journal tail) in behind the directory. It is built in the
   shard's registry, as [of_engines] builders are, and swapped in by a
   task under the shard's lane lock, so it is ordered after every task
   that took the lock for the old engine first. The swap is only sound
   when the replacement agrees with the directory about exactly which
   jobs shard [i] owns — after a full evacuation both sides are empty,
   so a journal-restored engine (whose journal recorded the evacuation
   removes) passes. *)
let replace_engine t i build =
  try
    match Metrics.Registry.with_registry t.lanes.(i).registry build with
    | Error _ as e -> e
    | Ok eng ->
      let owned = Engine.m t.engines.(i) in
      if Engine.m eng <> owned then
        Error
          (pf "Cluster.replace_engine: engine has %d processors, shard %d owns %d" (Engine.m eng)
             i owned)
      else begin
        let expected =
          with_dir t (fun () ->
              let ids = ref [] in
              Flat_str_map.iter
                (fun id v -> if v = settled_on i then ids := id :: !ids)
                t.directory;
              !ids)
        in
        let actual = Engine.fold_jobs eng (fun acc ~id ~size:_ ~proc:_ -> id :: acc) [] in
        if List.sort compare expected <> List.sort compare actual then
          Error
            (pf
               "Cluster.replace_engine: engine holds %d job(s) but the directory maps %d to \
                shard %d"
               (List.length actual) (List.length expected) i)
        else Ok (run ~label:"replace" t i (fun _ -> t.engines.(i) <- eng))
      end
  with Shut_down -> Error "cluster is shut down"

(* ----- supervision: the policy and its signals ----- *)

let supervise t policy ~probe ~clock =
  let bad msg = invalid_arg ("Cluster.supervise: " ^ msg) in
  if policy.suspect_after < 1 then bad "suspect_after must be >= 1";
  if policy.down_after < policy.suspect_after then bad "down_after must be >= suspect_after";
  if not (Float.is_finite policy.op_deadline) || policy.op_deadline <= 0.0 then
    bad "op_deadline must be positive";
  if policy.evac_budget < 0 then bad "evac_budget must be >= 0";
  if policy.recovery_steps < 1 then bad "recovery_steps must be >= 1";
  let shards = shard_count t in
  with_dir t (fun () ->
      if Option.is_some t.supervision then bad "a policy is already installed";
      t.supervision <-
        Some
          {
            policy;
            probe;
            clock;
            health = Array.make shards Healthy;
            fails = Array.make shards 0;
            ramp = Array.make shards 0;
            pinned = Array.make shards 0;
            in_flux = Array.make shards false;
            serving = shards;
            counts =
              { shards; healthy = shards; suspect = 0; down = 0; recovering = 0; evacuations = 0;
                evacuated_jobs = 0; stranded_jobs = 0; readmissions = 0; probe_failures = 0;
                watchdog_trips = 0; degraded_rejections = 0 };
          })

let supervised t = Option.is_some t.supervision

(* The policy, and [shard] (default 0) checked as a shard index. *)
let policy_of ?(shard = 0) t =
  if shard < 0 || shard >= shard_count t then invalid_arg "Cluster: no such shard";
  match t.supervision with
  | Some v -> v
  | None -> invalid_arg "Cluster: no supervision policy installed"

(* The signals and the census; [Supervisor] re-exports them. *)
module Supervision = struct
  let health t i =
    let v = policy_of ~shard:i t in
    with_dir t (fun () -> v.health.(i))

  let serving_shards t =
    let v = policy_of t in
    with_dir t (fun () -> v.serving)

  (* The probe runs outside every cluster lock. *)
  let tick t =
    let v = policy_of t in
    let moves = ref [] in
    for i = 0 to shard_count t - 1 do
      if not (with_dir t (fun () -> v.health.(i) = Down)) then
        if v.probe i then with_dir t (fun () -> note_success t v i)
        else
          moves :=
            List.rev_append (signal_failure t v i ~reason:"probe" count_probe_failure) !moves
    done;
    List.rev !moves

  let fail ?(reason = "report") t i =
    signal_failure t (policy_of ~shard:i t) i ~reason count_probe_failure

  let mark_down t i =
    let v = policy_of ~shard:i t in
    if with_dir t (fun () -> v.health.(i) <> Down && go_down t v i) then
      failover t v i ~reason:"manual"
    else []

  (* Not while the shard's failover runs: the swap would race its
     transfers. *)
  let readmit t i build =
    let v = policy_of ~shard:i t in
    match
      with_dir t (fun () ->
          if v.health.(i) <> Down then
            Error (pf "shard %d is %s, not down" i (health_name v.health.(i)))
          else if v.in_flux.(i) then Error (pf "shard %d is still failing over" i)
          else Ok ())
    with
    | Error _ as e -> e
    | Ok () ->
      let swapped = replace_engine t i build in
      with_dir t (fun () ->
          if Result.is_ok swapped && v.health.(i) = Down then begin
            v.health.(i) <- Recovering;
            v.serving <- v.serving + 1;
            v.fails.(i) <- 0;
            v.ramp.(i) <- 0;
            t.weights.(i) <- 0.0;
            v.counts <- { v.counts with readmissions = v.counts.readmissions + 1 }
          end);
      swapped

  let stats t =
    let v = policy_of t in
    with_dir t (fun () ->
        let count h = Array.fold_left (fun acc x -> if x = h then acc + 1 else acc) 0 v.health in
        { v.counts with
          healthy = count Healthy;
          suspect = count Suspect;
          down = count Down;
          recovering = count Recovering;
        })
end

(* ----- inspection ----- *)

(* No lock: each shard's value is the one published at the end of its
   last completed task. *)
let makespan t =
  Array.fold_left
    (fun acc p ->
      let v = Atomic.get p in
      if v > acc then v else acc)
    0 t.peaks

let published t i = (peak t i, low t i)

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
  (* [Engine.imbalance]'s ratio over the global state. *)
  let imbalance = Engine.imbalance_of ~m:t.m ~makespan ~total_size ~max_job_size in
  let jobs, inter_moves =
    with_dir t (fun () -> (Flat_str_map.length t.directory, t.inter_moves))
  in
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
  let resident = Flat_str_map.create 256 in
  Array.iteri (fun s l -> List.iter (fun id -> Flat_str_map.set resident id (settled_on s)) l) ids;
  let directory_ok =
    with_dir t (fun () ->
        let agree = ref (Flat_str_map.length t.directory = Flat_str_map.length resident) in
        Flat_str_map.iter
          (fun id v -> if Flat_str_map.find resident id <> v then agree := false)
          t.directory;
        !agree)
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

let merge_metrics t ~into =
  Array.iter (fun l -> Metrics.merge ~into l.registry) t.lanes;
  Array.iter (fun r -> Metrics.merge ~into r) t.domain_registries

(* ----- shutdown ----- *)

let shutdown t =
  let first =
    with_dir t (fun () ->
        if Atomic.get t.stopped then false
        else begin
          Atomic.set t.stopped true;
          (* Wake clients parked in [settled]; they observe [stopped]
             and fail their op with "cluster is shut down". *)
          Condition.broadcast t.dir_settled;
          true
        end)
  in
  (* A task that took its lane lock before [stopped] was set finishes
     before this passes its lane; every later one refuses. *)
  if first then Array.iter (fun l -> Mutex.protect l.mu ignore) t.lanes

let engine t i =
  if i < 0 || i >= shard_count t then invalid_arg "Cluster.engine: no such shard";
  t.engines.(i)
