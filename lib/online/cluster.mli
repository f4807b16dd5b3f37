(** The sharded runtime: processors partitioned into [S] shards, each
    backed by its own {!Engine} (with its own trigger and, optionally,
    its own flight-recorder journal), behind one residency directory
    and one consistent-hash router, run by one of two executors.

    Processor numbering is global: shard [i] owns the contiguous range
    [[offset t i, offset t i + procs of shard i)], and every move list
    or processor this module returns uses global indices.

    {b Executors.} With [~domains:0] (the default) the cluster is
    {e inline}: every task runs on the calling thread, with no mailbox,
    no reply cell and no worker domain, and callers serialize their own
    access (one thread, or an external lock). With [~domains:D >= 1],
    shard [i] is owned by worker domain [i mod D]; all of a shard's
    engine work — state mutation, journal writes, metric-handle updates
    — runs on its owner, in mailbox order, behind a bounded MPSC
    command {!Mailbox}, and client threads park on a reply cell, so
    every operation is synchronous at the call site while independent
    shards execute genuinely in parallel. That single-writer discipline
    lets the engines, their journal sinks and their per-domain metric
    registries stay unsynchronized: the only locks are the mailboxes
    and the residency directory. Both executors go through the same
    task helper, which publishes the shard's makespan before handing a
    result back; a quiescent cluster places, repairs and reports
    bit-identically whatever [D] is — the equivalence property the
    test suite checks.

    {b Routing and weights.} A new id lands on the shard owning the
    first ring point at or after its hash (64 virtual nodes per shard,
    FNV-1a with a murmur3 finalizer — stable across runs). Each shard
    carries a routing weight in [[0, 1]] (see {!set_weight}); weight 0
    takes it out of the ring and out of the repair passes. Hashing
    only decides where a {e new} id lands: the cross-shard pass and
    evacuations migrate jobs off their hash shard, so the directory is
    authoritative for lookups.

    {b The directory.} Every mutating operation {e reserves} its id in
    the mutex-guarded directory before touching an engine and settles
    it afterwards; operations arriving while an id is reserved wait.
    That per-id reservation is the only cross-shard synchronization
    point — there is no global stop-the-world.

    {b Two-phase moves.} Cross-shard transfers ({!move}, {!rebalance}'s
    inter-shard pass and {!evacuate}) reserve the id, lift it off the
    source through the ordinary journaled remove, land it on the
    destination through the ordinary journaled add, then commit the
    directory. Each half is a plain single-shard event on that shard's
    own journal, so {b every per-shard journal stays individually
    replayable} — [Replay.resume] works per shard, unchanged. A failed
    second half rolls back by re-adding on the source (again an
    ordinary journaled event).

    [rebalance ~k] composes the per-shard guarantee of the paper with a
    cross-shard repair: every shard first runs its own bounded GREEDY
    repair (each shard's makespan then bit-matches the batch GREEDY on
    its sub-instance), then a bounded top-k pass migrates the globally
    heaviest liftable job to the least-loaded processor of another
    shard whenever that lands below the current global peak. *)

type move = Engine.move = {
  id : string;
  src : int;
  dst : int;
}

type stats = {
  shards : int;
  jobs : int;
  procs : int;
  makespan : int;  (** max over all shards *)
  total_size : int;
  imbalance : float;
      (** global makespan / max (global average load, largest live job) *)
  events : int;
  adds : int;  (** includes the add half of cross-shard transfers *)
  removes : int;  (** includes the remove half of cross-shard transfers *)
  resizes : int;
  rebalances : int;
  auto_rebalances : int;
  trigger_firings : int;
  moved : int;  (** intra-shard repair relocations, summed *)
  inter_moves : int;  (** cross-shard transfers committed by this cluster *)
  consistency_checks : int;
  consistency_failures : int;
}

exception Shut_down
(** Raised by inspection entry points ({!query}, {!stats}, {!loads},
    {!shard_stats}, {!check_consistency}) called after {!shutdown},
    whatever the executor. The result-returning operations catch it
    and report ["cluster is shut down"] instead. *)

type t

val create :
  ?trigger:Engine.trigger ->
  ?clock:(unit -> float) ->
  ?journal_for:(int -> Rebal_obs.Journal.sink option) ->
  ?mailbox_capacity:int ->
  ?domains:int ->
  m:int ->
  shards:int ->
  unit ->
  t
(** [m] processors split as evenly as possible over [shards] engines
    (the first [m mod shards] shards get one extra); [trigger] and
    [clock] are handed to every engine, [journal_for i] supplies shard
    [i]'s flight-recorder sink. Each engine is bound (metric handles
    and all) to its owner's private registry. [domains] defaults to 0
    (the inline executor) and is clamped to [shards];
    [mailbox_capacity] (default 1024) bounds each worker's command
    queue — senders block when it fills, which is the backpressure.
    Worker domains, if any, are spawned here; pair with {!shutdown}.
    @raise Invalid_argument on a negative domain count, a non-positive
    capacity, [shards < 1] or [m < shards]. *)

val of_engines :
  ?mailbox_capacity:int ->
  ?domains:int ->
  shards:int ->
  (int -> Engine.t) ->
  (t, string) result
(** Assemble a cluster around restored engines — the restart path.
    [build i] is called once per shard, {e under the owner's
    registry}, so resumed engines bind their metric handles where only
    their executor writes (this is why the builder is a function, not
    an array). [domains] is as for {!create}. The residency directory
    is rebuilt from the engines' live jobs; [Error] if an id appears in
    two engines. The [inter_moves] counter starts at zero. *)

val shard_count : t -> int

val domain_count : t -> int
(** Worker domains: 0 for the inline executor. *)

val m : t -> int
(** Total processors across all shards. *)

val offset : t -> int -> int
(** First global processor index owned by shard [i]. *)

val job_count : t -> int

val makespan : t -> int
(** The global peak: the maximum over shards of each shard's makespan
    {e as of its last completed task}. Every shard's owner domain
    publishes that value through an atomic before it fills the task's
    reply cell, so this never blocks and posts no task — it is a fold
    over [shards] atomics — and a caller always sees the effect of its
    own completed operations. Other clients' in-flight operations may
    or may not be reflected yet; on a quiescent cluster the value is
    exactly the maximum [Engine.makespan]. After {!shutdown} it returns
    the final value (it does not raise). *)

val loads : t -> int array
(** Global load vector (length [m]), shard ranges concatenated. *)

val mem : t -> string -> bool
val shard_of : t -> string -> int option
val find : t -> string -> (int * int) option
(** [(size, global processor)]. Waits for any in-flight operation on
    the id to settle first. *)

val weight : t -> int -> float
(** Shard [i]'s routing weight (1.0 unless changed). *)

val set_weight : t -> int -> float -> unit
(** Set shard [i]'s routing weight in [[0, 1]]: the fraction of its
    virtual nodes accepting {e new} placements (weight [w] keeps
    [ceil (w * 64)] of its 64 replicas active, so weight 1 routes
    bit-identically to the unweighted ring). Weight 0 takes the shard
    out of the ring and out of {!rebalance} — a Down shard stops
    receiving routes; a Recovering shard ramps back gradually.
    Residency and lookups of jobs already placed are never affected.
    When {e every} shard is weighted to 0, routing falls back to the
    unweighted ring (refusing service on an all-down cluster is the
    supervisor's job, not the router's).
    @raise Invalid_argument if [w] is outside [[0, 1]] or not finite. *)

val add_job : t -> id:string -> size:int -> (int * move list, string) result
(** Route by the weighted ring, reserve, place greedily on the chosen
    shard. Returns the global processor and any automatic-repair
    moves. Blocks while the shard's mailbox is full — backpressure,
    not failure. *)

val remove_job : t -> id:string -> (int * move list, string) result
val resize_job : t -> id:string -> size:int -> (int * move list, string) result

val apply_bulk :
  t ->
  ?on_result:(int -> Engine.op -> (int * move list, string) result -> unit) ->
  Engine.op array ->
  unit
(** Apply a batch of events, amortizing dispatch and journal flushing:
    the batch is routed into per-shard sub-batches and each involved
    shard runs one [Engine.apply_bulk] task — on worker domains
    distinct shards execute in parallel, and each shard's journal is
    flushed once per sub-batch instead of once per event. Per-id
    semantics match the one-by-one operations: ids are reserved in the
    residency directory for the duration of their sub-batch, results
    (global processor indices, auto-repair moves, engine error
    strings) are identical, and [on_result] sees them in batch order.

    Ordering barriers are honored by chunking: a duplicate id inside
    the batch, or an id currently reserved by a concurrent client,
    ends the current chunk — later ops wait for the earlier effect
    rather than race it. Only the first op of a chunk ever blocks on a
    foreign reservation, so two concurrent batches over overlapping
    ids chunk around each other instead of deadlocking. After
    {!shutdown} every result is ["cluster is shut down"]. *)

val move : ?on_removed:(unit -> unit) -> t -> id:string -> dst:int -> (move list, string) result
(** Two-phase cross-shard transfer of one job (see the header). Moving
    a job to its current shard is a no-op ([Ok []]). [on_removed] is
    the crash-injection hook for tests: it fires after the journaled
    remove and before the journaled add; if it raises, the transfer
    rolls back (re-add on the source) and reports [Error]. *)

val rebalance : t -> k:int -> move list
(** Per-shard bounded GREEDY repair (budget [k] each, all shards in
    parallel on worker domains), then up to [k] two-phase cross-shard
    transfers, each chosen from a fresh probe of every shard. Returns
    all moves in global indices, intra-shard repairs first. Quiescent,
    every executor makes the same decisions in the same order; under
    concurrent traffic a transfer beaten by a client operation is
    skipped and the next iteration re-probes. Zero-weight shards are
    skipped entirely — their engines are presumed unreachable, and
    transfers never target them.
    @raise Invalid_argument if [k < 0]. *)

val evacuate : t -> from:int -> budget:int -> (move list * int, string) result
(** Re-home up to [budget] jobs off shard [from] onto the other
    positive-weight shards as two-phase moves, largest job first, each
    landing on the shard holding the globally least-loaded processor
    (lowest index on ties). Both halves are journaled on their engines,
    the directory is updated and each transfer counts in
    [inter_moves]. Returns the moves (global indices) and how many jobs
    were {e left} on [from]. Typically called with weight 0 already set
    on [from] (the supervisor's Down transition), but this function
    does not require or change weights. [Error] if [from] is out of
    range, [budget] is negative, or jobs remain and no other shard has
    positive weight. *)

val replace_engine : t -> int -> (unit -> (Engine.t, string) result) -> (unit, string) result
(** Swap shard [i]'s backing engine for the one [build ()] returns —
    the re-admission path: a Recovering shard restores an engine from
    its latest snapshot plus journal tail. [build] runs under the
    owner's registry, as {!of_engines} builders do, and the swap is a
    task on the owner. Refuses (leaving the cluster untouched) unless
    the engine has the same processor count and holds exactly the jobs
    the directory maps to shard [i] (after a full evacuation, both are
    empty); [build]'s own [Error] is passed through. *)

val stats : t -> stats
val shard_stats : t -> Engine.stats array

val check_consistency : t -> k:int -> bool
(** Directory integrity (every entry settled and resident exactly
    where its engine holds it) plus [Engine.check_consistency ~k] per
    shard. Meaningful on a quiescent cluster — in-flight reservations
    count as failures by design. *)

val journal_snapshot : t -> ((int * int) list, string) result
(** Emit a snapshot event into every shard's journal (on its owner);
    [(shard, event seq)] pairs. [Error] (emitting nothing) if
    any shard lacks a journal. *)

val query : t -> int -> (Engine.t -> 'a) -> 'a
(** Run a closure on shard [i]'s engine, {e on its owner}, and wait for
    the answer — the safe way to inspect a live engine (e.g. its
    journal tail) or to write to its journal.
    @raise Shut_down after {!shutdown}. *)

val recorded_spans : t -> Rebal_obs.Optrace.span list
(** Every worker domain's recorded op spans (one collection task per
    {e domain}, not per shard), concatenated; none inline. The
    caller's own domain is not included — combine with
    [Optrace.recorded ()] for the full picture.
    @raise Shut_down after {!shutdown}. *)

val merge_metrics : t -> into:Rebal_obs.Metrics.Registry.t -> unit
(** Fold every owner registry (one per worker domain, one inline) into
    [into] — call at exposition time with a fresh registry (merging
    twice into the same registry double-counts). *)

val shutdown : t -> unit
(** Stop accepting work, drain every accepted task (in-flight
    operations still get replies), close the mailboxes and join the
    worker domains, if any. Idempotent from one thread; afterwards operations
    report ["cluster is shut down"] and inspection raises
    {!Shut_down}, except {!makespan}, which keeps returning the final
    value. *)

val engine : t -> int -> Engine.t
(** Shard [i]'s backing engine, {e without} domain confinement — safe
    on an inline cluster, or once the cluster is {!shutdown} (the
    replay-audit path in tests and benches). For a live cluster with
    worker domains use {!query}. Mutating it directly bypasses the
    residency directory. *)
