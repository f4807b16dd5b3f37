(** The online rebalancing engine: the batch problem of the paper turned
    into a stream of decisions. Jobs arrive, depart and resize
    continuously; the engine keeps the current placement in mutable
    indexed-heap-backed state so that every single-event update is an
    [O(log m)] greedy placement, and [rebalance ~k] is a bounded-move
    repair pass — the k-move GREEDY of Theorem 1 run over the live state
    instead of a from-scratch solve.

    Consistency with the batch solver is a checked invariant, not a hope:
    the repair pass uses exactly the removal order (most-loaded processor
    first, largest job first, ties by smallest index) and reinsertion
    order (descending size into the least-loaded processor) of
    [Rebal_algo.Greedy.solve ~order:Descending], so after [rebalance ~k]
    the engine's makespan equals the batch makespan on the materialized
    instance. [check_consistency] verifies this bit-match on demand and
    keeps counters that [stats] exposes.

    Observability: every engine binds histogram handles
    ([rebal_engine_op_latency_seconds{op=...}],
    [rebal_engine_moves_per_rebalance]) in the registry current at
    {!create} time. They count served work only: moves-per-rebalance is
    observed on every {!rebalance} and automatic repair (no clock
    involved); per-op latency needs two monotonic clock reads and is
    recorded only while [Rebal_obs.Control.enabled ()] is true. Replay
    ({!replay_apply}, {!replay_rebalance}) and the consistency probe
    record nothing. Each served repair pass is an [engine.repair]
    [Rebal_obs.Optrace] span (attributes [k], [auto], [moves]) under the
    sampled op that ran it.

    The flight recorder: attach a [Rebal_obs.Journal] sink (at {!create}
    or with {!set_journal}) and the engine writes a ["rebal-engine"]
    header plus one event per operation — [add] / [remove] / [resize]
    (id, size, chosen processor, load after, makespan), [trigger] (which
    policy fired, budget, imbalance at decision time), [rebalance]
    (budget, lifted count, makespan and imbalance before/after, and
    per-move provenance: id, size, source/destination and their loads
    before/after) and [check] (batch vs repair makespan). With no sink
    attached every site is a single [None] branch — near-zero cost.
    [Rebal_online.Replay] re-executes these journals and verifies
    bit-exact reconstruction. *)

type t

(** When the engine pays for a repair pass on its own. [Manual] never
    repairs; the caller invokes {!rebalance}. The other policies fire
    after a mutating event: when enough events have accumulated since the
    last repair, when the imbalance (makespan / average load) exceeds a
    threshold, or when enough wall-clock time has passed. Each carries the
    move budget [k] spent per automatic repair. *)
type trigger =
  | Manual
  | Every_events of { events : int; k : int }
  | Imbalance_above of { threshold : float; k : int }
  | Every_seconds of { seconds : float; k : int }

type move = {
  id : string;
  src : int;
  dst : int;
}

(** One mutating event: a job arrives, leaves or changes size. This is
    the only description of a mutation below the protocol parser —
    {!apply}, {!apply_bulk} and every serving layer above ([Cluster],
    [Supervisor], [Protocol]) take it. *)
type op =
  | Add of { id : string; size : int }
  | Remove of { id : string }
  | Resize of { id : string; size : int }

val op_id : op -> string
(** The job an op touches. *)

type stats = {
  jobs : int;
  procs : int;
  makespan : int;
  total_size : int;
  imbalance : float;
      (** makespan / max (average load, largest job); 1.0 when empty *)
  events : int;  (** adds + removes + resizes processed *)
  adds : int;
  removes : int;
  resizes : int;
  rebalances : int;  (** repair passes run (manual + automatic) *)
  auto_rebalances : int;  (** repair passes fired by the trigger policy *)
  trigger_firings : int;
      (** times the trigger policy asked for a repair (currently equal to
          [auto_rebalances]; kept separate so a future policy may decline
          or coalesce firings without changing the counter's meaning) *)
  moved : int;  (** jobs relocated by repair passes, cumulative *)
  last_rebalance_moves : int;  (** jobs relocated by the most recent repair pass *)
  consistency_checks : int;
  consistency_failures : int;
}

val create :
  ?trigger:trigger ->
  ?clock:(unit -> float) ->
  ?journal:Rebal_obs.Journal.sink ->
  m:int ->
  unit ->
  t
(** An empty engine over [m] processors. [trigger] defaults to [Manual];
    [clock] (used only by [Every_seconds]) defaults to
    [Unix.gettimeofday]. [journal] attaches a flight-recorder sink (the
    header line is written immediately).
    @raise Invalid_argument if [m < 1]. *)

val trigger_name : trigger -> string
(** The journal/exposition tag: ["manual"], ["every_events"],
    ["imbalance_above"] or ["every_seconds"]. *)

val trigger_of_json : Rebal_obs.Journal.json -> (trigger, string) result

val trigger : t -> trigger

val set_trigger : t -> trigger -> unit
(** Swap the trigger policy on a live engine (used when resuming a
    journaled engine: the recorded config is re-armed after replay).
    Restarts the wall-clock epoch; the events-since-repair backlog is
    kept. *)

val journal : t -> Rebal_obs.Journal.sink option

val set_journal : t -> Rebal_obs.Journal.sink option -> unit
(** Attach (writing the header if the sink has none yet) or detach the
    flight recorder. *)

val m : t -> int
val job_count : t -> int

val makespan : t -> int
(** Maximum processor load, maintained incrementally — [O(1)]. *)

val loads : t -> int array
(** Fresh copy of the per-processor load vector. *)

val load : t -> int -> int
(** [load t p]: processor [p]'s load, [O(1)] with no copy. *)

val max_job_size : t -> int
(** Largest live job size (0 when empty), maintained incrementally. *)

val imbalance : t -> float
(** The trigger metric: makespan divided by the batch lower bound
    [max (average load, largest job)] — the same ratio [Verify] reports.
    Dividing by the average alone would make one oversized job read as
    permanent imbalance no repair can fix, and a threshold trigger would
    thrash on it. 1.0 when no jobs. *)

val min_load : t -> int * int
(** [(processor, load)] of the least-loaded processor (ties: smallest
    index) — [O(1)]. Where the next arrival would be placed. *)

val peek_heaviest : t -> (string * int * int) option
(** [(id, size, processor)] of the largest job on the most-loaded
    processor — the job a repair pass would lift first. [None] when all
    loads are zero. Used by the cross-shard move pass. *)

val fold_jobs : t -> ('a -> id:string -> size:int -> proc:int -> 'a) -> 'a -> 'a
(** Fold over live jobs in unspecified order. *)

val mem : t -> string -> bool

val find : t -> string -> (int * int) option
(** [(size, processor)] of a job, if present. *)

val apply : t -> op -> (int * move list, string) result
(** Apply one event. [Add] places a new job on the least-loaded
    processor ([O(log m)] placement plus [O(log n)] heap bookkeeping);
    [Remove] frees its processor's load; [Resize] changes the size in
    place (the job stays on its processor until a repair pass decides
    otherwise). Returns the job's processor and the moves of any
    automatic repair the event triggered. [Error] — with no state
    changed — when the size is not positive, an added id is already
    present, or a removed or resized id is absent.

    One validated kernel, returning the processor or an error code,
    serves this, the wrappers below and {!apply_bulk}, so every path
    validates, counts and journals alike. With
    [Rebal_obs.Control.enabled ()] each call lands one observation in
    [rebal_engine_op_latency_seconds{op="add"|"remove"|"resize"}]. *)

val add_job : t -> id:string -> size:int -> (int * move list, string) result
(** [apply t (Add { id; size })]. *)

val remove_job : t -> id:string -> (int * move list, string) result
(** [apply t (Remove { id })]. *)

val resize_job : t -> id:string -> size:int -> (int * move list, string) result
(** [apply t (Resize { id; size })]. *)

val apply_bulk :
  t ->
  ?on_result:(int -> op -> (int * move list, string) result -> unit) ->
  op array ->
  unit
(** Apply a batch of events in order, amortizing dispatch and journal
    flushing: the trigger policy is still evaluated after every single
    event (so automatic repairs fire at exactly the points one-by-one
    application would fire them), but the journal sink is written once
    for the whole batch and per-op latency histograms are skipped.
    State, stats and journal bytes are bit-identical to applying the
    same ops one by one through {!apply}.

    [on_result] receives the batch index, the op and its result
    (including any auto-repair moves) as each op completes — protocol
    sessions use it to format replies against the correct intermediate
    state. Without it no per-op result is materialized, and a batch of
    valid ops under a non-firing trigger with no journal attached runs
    with zero minor-heap allocation (after {!reserve} or warm-up).
    Invalid ops change no state; with no consumer they are skipped
    silently. *)

val reserve : t -> jobs:int -> unit
(** Pre-size the per-job slot arrays, the id directory and every
    processor's heap for [jobs] live jobs (worst-case skew included), so
    later adds, removes and resizes never grow an array. Takes warm-up
    allocation out of latency-sensitive windows; the allocation
    benchmark (E24) calls this before measuring. The repair scratch is
    not presized: it grows to [min k (job_count t)] on the first
    {!rebalance} with budget [k] and keeps that size.
    @raise Invalid_argument if [jobs < 0]. *)

val rebalance : t -> k:int -> move list
(** The bounded-move repair pass: remove (up to) the [k] largest jobs
    from the most-loaded processors exactly as GREEDY's removal phase
    does, then reinsert them in descending size order onto the
    least-loaded processors. [O((k + m) log m)] plus an [O(k log k)]
    merge sort of the lifted jobs, near-linear when they come off in
    near size order — no from-scratch solve.
    Returns the jobs that actually changed processor. Resets the trigger
    epoch.
    @raise Invalid_argument if [k < 0]. *)

val stats : t -> stats

val to_instance : t -> Rebal_core.Instance.t * string array
(** Materialize the current state as a batch instance whose initial
    assignment is the live placement, with jobs in ascending id order.
    The array maps the instance's job indices back to engine ids. *)

val check_consistency : t -> k:int -> bool
(** Does a repair pass with budget [k] reach exactly the makespan of
    [Rebal_algo.Greedy.solve ~k] on the materialized instance? The
    instance is the live jobs in slot order (GREEDY's makespan does not
    depend on how jobs are numbered), and the repair runs on a probe
    that copies only what a repair writes — the engine itself is not
    perturbed, and the probe builds no move list and records no
    telemetry. The probe's repair scratch is its own and is dropped
    with it, so a full-budget check leaves nothing job-count-sized
    behind in [t]. The outcome lands in the [consistency_checks] /
    [consistency_failures] counters and, when journaling, a [check]
    event. *)

(** {2 Replay}

    History re-executed at a restart is not served work: these are
    {!apply} and {!rebalance} with no clock read, no histogram
    observation and no span, so the op-latency and moves-per-rebalance
    histograms count only what this process served. State, counters and
    journal events are exactly those of {!apply} and {!rebalance}. A
    replayed repair does not restart the trigger epoch; {!set_trigger}
    does, once replay is done. *)

val replay_apply : t -> op -> (int * move list, string) result
val replay_rebalance : t -> k:int -> move list

(** {2 State snapshots}

    A snapshot is the engine's complete logical state as one versioned
    JSON object: processors, trigger config, every live job with its
    internal sequence number (so repair tie-breaks survive the round
    trip), the next sequence number, and all stats counters.
    [of_snapshot (snapshot t)] reconstructs an engine that bit-matches
    [t]: same loads, makespan, stats and future repair decisions.
    Snapshots are the compaction record of the flight recorder: a
    ["snapshot"] journal event carries one in its ["state"] field.
    Replay resumes from a snapshot only at seq 0, which a journal has
    after [rebalance compact]; a snapshot later in a journal (a
    [SNAPSHOT] verb, the daemon's shutdown snapshot) is compared with
    the state replayed up to it, and replay goes on from genesis. *)

val snapshot : t -> Rebal_obs.Journal.json

val of_snapshot :
  ?trigger:trigger ->
  ?clock:(unit -> float) ->
  ?journal:Rebal_obs.Journal.sink ->
  Rebal_obs.Journal.Cursor.t ->
  (t, string) result
(** Rebuild an engine from the encoded snapshot at the cursor — a
    journal frame's ["state"] field ({!Rebal_obs.Journal.Frame.cursor}),
    or [Journal.Cursor.of_json (snapshot t)] — walked in place, so no
    tree of the jobs is built. [trigger] overrides the recorded trigger
    config (replay passes [Manual] so recorded auto-repairs are
    re-applied explicitly rather than re-fired); by default the recorded
    config is armed. Validates version, processor ranges, positive
    sizes, and id/seq uniqueness; each job must be exactly
    [{id, seq, size, proc}], in that order, as {!snapshot} writes it. *)

val snapshot_differs : t -> Rebal_obs.Journal.Cursor.t -> string option
(** [snapshot_differs t c] compares a recorded snapshot (the value at
    [c]) with {!snapshot}[ t] on the structural fields ["m"],
    ["next_seq"], ["events_since_repair"] and ["jobs"], in that order,
    and names the first that is not equal, as [List.assoc] on the two
    objects would see it. The recorded jobs are read by the same walk as
    {!of_snapshot}, against the engine's jobs in sequence order. Trigger
    and counters are not compared. *)

val journal_snapshot : t -> (int, string) result
(** Emit a ["snapshot"] event carrying the current state into the
    attached journal and return its sequence number — the compaction
    point. [Error] if no journal is attached. *)
