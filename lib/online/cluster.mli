(** The parallel cluster: the shard router scaled across OCaml 5
    domains. Each shard's engine runs confined to one worker domain
    behind a bounded MPSC command {!Mailbox}; client threads submit
    closures and park on a reply cell, so every operation is
    synchronous at the call site while independent shards execute
    genuinely in parallel.

    {b Ownership and confinement.} Shard [i] is owned by worker domain
    [i mod domains]. All of a shard's engine work — state mutation,
    journal writes, metric-handle updates — runs on its owner, in
    mailbox order. That single-writer discipline is what lets the
    engines, their journal sinks and their per-domain metric
    registries stay completely unsynchronized: the only locks in the
    system are the mailboxes and the residency directory. With
    [domains = shards] (the default) this is domain-per-shard; with
    fewer domains, shards are multiplexed round-robin.

    {b The directory.} Job residency lives in one mutex-guarded
    directory. Every mutating operation {e reserves} its id there
    before touching an engine and settles it afterwards; operations
    arriving while an id is reserved wait. That per-id reservation is
    the only cross-shard synchronization point — there is no global
    stop-the-world, and shards never wait on each other.

    {b Two-phase moves.} Cross-shard transfers ({!move}, and
    {!rebalance}'s inter-shard pass) reserve the id, lift it off the
    source through the ordinary journaled remove, land it on the
    destination through the ordinary journaled add, then commit the
    directory. Each half is a plain single-shard event on that shard's
    own journal, so {b every per-shard journal stays individually
    replayable} — [Replay.resume] works per shard, unchanged. A failed
    second half rolls back by re-adding on the source (again an
    ordinary journaled event).

    {b Routing} uses the same consistent-hash ring as {!Shard}
    (unweighted), so a quiescent cluster places, repairs and reports
    bit-identically to the sequential router — the equivalence
    property the test suite checks for every domain count. *)

type move = Engine.move = {
  id : string;
  src : int;
  dst : int;
}

exception Shut_down
(** Raised by inspection entry points ({!query}, {!stats}, {!loads},
    {!shard_stats}, {!check_consistency}) called after {!shutdown}.
    The result-returning operations catch it and report
    ["cluster is shut down"] instead. *)

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
(** [m] processors split over [shards] engines exactly as
    {!Shard.create} splits them, each engine bound (metric handles and
    all) to its owner domain's private registry. [domains] defaults to
    [shards] and is clamped to it; [mailbox_capacity] (default 1024)
    bounds each worker's command queue — senders block when it fills,
    which is the backpressure. Worker domains are spawned here; pair
    with {!shutdown}.
    @raise Invalid_argument on a non-positive domain or capacity
    count, [shards < 1] or [m < shards]. *)

val of_engines :
  ?mailbox_capacity:int ->
  ?domains:int ->
  shards:int ->
  (int -> Engine.t) ->
  (t, string) result
(** Assemble a cluster around restored engines — the restart path.
    [build i] is called once per shard, {e under the owner domain's
    registry}, so resumed engines bind their metric handles where only
    their worker writes (this is why the builder is a function, not an
    array). The residency directory is rebuilt from the engines' live
    jobs; [Error] if an id appears in two engines. *)

val shard_count : t -> int
val domain_count : t -> int

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

val home_shard : t -> string -> int
(** Where [id] resides, or (for a new id) where the ring would route
    it. *)

val add_job : t -> id:string -> size:int -> (int * move list, string) result
(** Route by consistent hash, reserve, place greedily on the owner
    domain. Returns the global processor and any automatic-repair
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
    shard runs one [Engine.apply_bulk] task on its owner domain —
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
    parallel), then up to [k] two-phase cross-shard transfers, each
    chosen from a fresh probe of every shard. Quiescent, this makes
    the same decisions in the same order as {!Shard.rebalance}; under
    concurrent traffic a transfer beaten by a client operation is
    skipped and the next iteration re-probes.
    @raise Invalid_argument if [k < 0]. *)

val stats : t -> Shard.stats
val shard_stats : t -> Engine.stats array

val check_consistency : t -> k:int -> bool
(** Directory integrity (every entry settled and resident exactly
    where its engine holds it) plus [Engine.check_consistency ~k] per
    shard. Meaningful on a quiescent cluster — in-flight reservations
    count as failures by design. *)

val journal_snapshot : t -> ((int * int) list, string) result
(** Emit a snapshot event into every shard's journal (on its owner
    domain); [(shard, event seq)] pairs. [Error] (emitting nothing) if
    any shard lacks a journal. *)

val query : t -> int -> (Engine.t -> 'a) -> 'a
(** Run a read-only closure on shard [i]'s engine, {e on its owner
    domain}, and wait for the answer — the safe way to inspect a live
    engine (e.g. its journal tail).
    @raise Shut_down after {!shutdown}. *)

val recorded_spans : t -> Rebal_obs.Optrace.span list
(** Every worker domain's recorded op spans (one collection task per
    {e domain}, not per shard), concatenated. The caller's own domain
    is not included — combine with [Optrace.recorded ()] for the full
    picture.
    @raise Shut_down after {!shutdown}. *)

val merge_metrics : t -> into:Rebal_obs.Metrics.Registry.t -> unit
(** Fold every worker domain's metrics registry into [into] — call at
    exposition time with a fresh registry (merging twice into the same
    registry double-counts). *)

val shutdown : t -> unit
(** Stop accepting work, drain every accepted task (in-flight
    operations still get replies), close the mailboxes and join the
    worker domains. Idempotent from one thread; afterwards operations
    report ["cluster is shut down"] and inspection raises
    {!Shut_down}, except {!makespan}, which keeps returning the final
    value. *)

val engine : t -> int -> Engine.t
(** Shard [i]'s backing engine, {e without} domain confinement — only
    safe once the cluster is {!shutdown} (the replay-audit path in
    tests and benches). For a live cluster use {!query}. *)
