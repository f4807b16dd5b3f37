(** The sharded runtime: processors partitioned into [S] shards, each
    backed by its own {!Engine} (with its own trigger and, optionally,
    its own flight-recorder journal), behind one residency directory
    and one consistent-hash router, each shard behind its own lock.

    Processor numbering is global: shard [i] owns the contiguous range
    [[offset t i, offset t i + procs of shard i)], and every move list
    or processor this module returns uses global indices.

    {b The executor.} Every shard task runs on the thread that asks for
    it, holding that shard's lock: there is no hand-off between threads
    or domains on the op path. The lock serializes all of a shard's
    engine work — state mutation, journal writes, metric-handle updates
    — so the engines, their journal sinks and their per-shard metric
    registries stay unsynchronized, and callers on any number of
    threads and domains may drive the cluster concurrently. Two
    invariants keep it deadlock-free: a thread never holds two shard
    locks (work spanning shards is a sequence of single-shard tasks),
    and it never holds the directory lock while it takes a shard lock.
    Each task publishes the shard's makespan before its lock is
    released. A quiescent cluster places, repairs and reports
    bit-identically whatever drives it — the equivalence property the
    test suite checks.

    {b Hosting domains.} [~domains:D] (default 0) starts [D] domains
    that {e host threads}: {!spawn} starts a systhread on the next one,
    round robin (on the caller's domain when [D = 0]); each starts with
    its first thread. The serve daemon
    runs its TCP and Unix-socket sessions there, so sessions spread over
    [D] domains while their shard work stays on the session thread.
    Each hosting domain runs under its own metrics registry.

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
    inter-shard pass and a failover's evacuation) reserve the id, lift it off the
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
    shard whenever that lands below the current global peak.

    {b Supervision.} A cluster may carry a policy
    ({!section:supervision}); supervised or not, it is mutated through
    the same {!apply} and {!apply_bulk}, safe from many threads. *)

type move = Engine.move = {
  id : string;
  src : int;
  dst : int;
}

(** The supervision vocabulary; {!Supervisor} re-exports it. *)
module Health : sig
  type health =
    | Healthy
    | Suspect  (** failing signals, still serving *)
    | Down  (** weight 0, evacuated, refusing its ids *)
    | Recovering  (** readmitted, ramping its weight back *)

  val health_name : health -> string
  (** Lowercase wire name: ["healthy"], ["suspect"], ["down"],
      ["recovering"]. *)

  type config = {
    suspect_after : int;  (** consecutive failures before Suspect (>= 1) *)
    down_after : int;  (** consecutive failures before Down (>= suspect_after) *)
    op_deadline : float;  (** watchdog limit per op, seconds *)
    evac_budget : int;  (** max jobs re-homed per evacuation *)
    recovery_steps : int;  (** successful probes to ramp weight 0 -> 1 *)
  }

  val default_config : config
  (** [suspect_after = 1], [down_after = 3], [op_deadline = 1.0],
      [evac_budget = max_int], [recovery_steps = 4]. *)

  (** The health census and the failover counters. The counters count
      this process's signals and transitions: they start at 0 when a
      daemon resumes its journals. *)
  type stats = {
    shards : int;
    healthy : int;
    suspect : int;
    down : int;
    recovering : int;
    evacuations : int;  (** Down transitions that ran an evacuation *)
    evacuated_jobs : int;  (** jobs re-homed across all evacuations *)
    stranded_jobs : int;  (** jobs left behind by budget or lack of survivors *)
    readmissions : int;
    probe_failures : int;  (** failed probes + external failure reports *)
    watchdog_trips : int;  (** ops, or per-shard shares of a chunk, that blew their deadline *)
    degraded_rejections : int;  (** ops refused because of a Down shard *)
  }
end

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
  inter_moves : int;
      (** cross-shard transfers committed by this cluster object — per
          process: a daemon that resumes its journals starts it at 0 *)
  consistency_checks : int;
  consistency_failures : int;
}

exception Shut_down
(** Raised by inspection entry points ({!query}, {!stats}, {!loads},
    {!shard_stats}, {!check_consistency}) called after {!shutdown},
    whatever the domain count. The result-returning operations catch it
    and report ["cluster is shut down"] instead. *)

type t

val create :
  ?trigger:Engine.trigger ->
  ?clock:(unit -> float) ->
  ?journal_for:(int -> Rebal_obs.Journal.sink option) ->
  ?domains:int ->
  m:int ->
  shards:int ->
  unit ->
  t
(** [m] processors split as evenly as possible over [shards] engines
    (the first [m mod shards] shards get one extra); [trigger] and
    [clock] are handed to every engine, [journal_for i] supplies shard
    [i]'s flight-recorder sink. Each engine is bound (metric handles
    and all) to its shard's private registry. [domains], the hosting
    domain count, defaults to 0 and is clamped to [shards] (at most
    [shards] threads can hold shard locks at once). A hosting domain
    starts with the first thread {!spawn} puts on it; pair with
    {!shutdown}.
    @raise Invalid_argument on a negative domain count, [shards < 1] or
    [m < shards]. *)

val of_engines :
  ?domains:int ->
  shards:int ->
  (int -> Engine.t) ->
  (t, string) result
(** Assemble a cluster around restored engines — the restart path.
    [build i] is called once per shard, {e under the shard's
    registry}, so resumed engines bind their metric handles where only
    the shard's lock holder writes (this is why the builder is a
    function, not an array). [domains] is as for {!create}. The residency directory
    is rebuilt from the engines' live jobs; [Error] if an id appears in
    two engines. The [inter_moves] counter starts at zero. *)

val shard_count : t -> int

val domain_count : t -> int
(** Hosting domains, started or not (0 unless [~domains] was given). *)

val spawn : t -> (unit -> unit) -> unit -> unit
(** [spawn t f] starts a systhread running [f] on the next hosting
    domain, round robin, or on the caller's domain when there are none.
    The result joins it: it waits for [f] to return and re-raises what
    [f] raised.
    @raise Shut_down after {!shutdown}. *)

val m : t -> int
(** Total processors across all shards. *)

val offset : t -> int -> int
(** First global processor index owned by shard [i]. *)

val job_count : t -> int

val makespan : t -> int
(** The global peak: the maximum over shards of each shard's makespan
    {e as of its last completed task}. Every task publishes that value
    through an atomic before it releases the shard's lock, so this
    never blocks and runs no task — it is a fold over [shards] atomics
    — and a caller always sees the effect of its own completed
    operations. Other clients' in-flight operations may
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

val apply : t -> Engine.op -> (int * move list, string) result
(** Apply one event. Claim the id in the directory (an [Add] is routed
    by the weighted ring and refused if the id is present; a [Remove]
    or [Resize] is refused if it is absent), run [Engine.apply] on the
    owning shard under its lock (a [shard.add] / [shard.remove] /
    [shard.resize] span when the op is traced), then settle the claim.
    Returns the global processor and any automatic-repair moves. Blocks
    while another thread holds the id or the shard's lock. One op takes
    none of {!apply_bulk}'s chunk machinery, but the same claim and
    settle steps, so the two paths validate and settle alike. On a
    supervised cluster the op first meets the degraded-mode guard and
    its task is watched (see {!supervise}). *)

val add_job : t -> id:string -> size:int -> (int * move list, string) result
(** [apply t (Add { id; size })]. *)

val remove_job : t -> id:string -> (int * move list, string) result
(** [apply t (Remove { id })]. *)

val resize_job : t -> id:string -> size:int -> (int * move list, string) result
(** [apply t (Resize { id; size })]. *)

val apply_bulk :
  t ->
  ?on_result:(int -> Engine.op -> (int * move list, string) result -> unit) ->
  Engine.op array ->
  unit
(** Apply a batch of events, amortizing dispatch and journal flushing:
    the batch is routed into per-shard sub-batches and each involved
    shard runs one [Engine.apply_bulk] task under its lock, so each
    shard's lock is taken and its journal flushed once per sub-batch
    instead of once per event. Per-id semantics match {!apply}: ids
    are claimed and settled in the residency directory by the same
    steps, held for the duration of their sub-batch, results (global
    processor indices, auto-repair moves, error strings) are
    identical, and [on_result] sees them in batch order.

    Ordering barriers are honored by chunking. A chunk takes the
    directory lock once to reserve its ids and once to settle them all.
    Its first op may block on a foreign reservation; after it, any op
    whose id is already reserved — by an earlier op of the chunk (a
    duplicate id, which must see that op's effect) or by a concurrent
    client — ends the chunk. So two concurrent batches over overlapping
    ids chunk around each other instead of deadlocking, and an op that
    failed validation (it reserves nothing) does not end a chunk. After
    {!shutdown} every result is ["cluster is shut down"].


    On a supervised cluster every op first meets the degraded-mode
    guard, and the watchdog judges each chunk (see {!supervise}). *)

val move : ?on_removed:(unit -> unit) -> t -> id:string -> dst:int -> (move list, string) result
(** Two-phase cross-shard transfer of one job (see the header). Moving
    a job to its current shard is a no-op ([Ok []]). [on_removed] is
    the crash-injection hook for tests: it fires after the journaled
    remove and before the journaled add; if it raises, the transfer
    rolls back (re-add on the source) and reports [Error]. *)

val rebalance : t -> k:int -> move list
(** Per-shard bounded GREEDY repair (budget [k] each, one task per
    shard), then up to [k] two-phase cross-shard transfers, each chosen
    from a fresh probe of every shard. Returns all moves in global
    indices, intra-shard repairs first — so one call over [S] shards
    makes at most [(S + 1) * k] moves. Quiescent, every domain count
    makes the same decisions in the same order; under
    concurrent traffic a transfer beaten by a client operation is
    skipped and the next iteration re-probes. Zero-weight shards are
    skipped entirely — their engines are presumed unreachable, and
    transfers never target them.
    @raise Invalid_argument if [k < 0]. *)

(** {2:supervision Supervision}

    Each shard of a supervised cluster carries a health state machine

    {v Healthy -> Suspect -> Down -> Recovering -> Healthy v}

    driven by two failure signals: an injectable {e probe}, polled by
    {!Supervision.tick} outside every cluster lock (in production a
    liveness check, in tests and the chaos harness a seeded fault
    plan), and a {e watchdog} on every op: the [n] ops one chunk of
    {!apply_bulk} sends to one shard get [n * op_deadline] together,
    timed around the shard's task with its lock wait, and a shard over
    it takes one failure signal (an {!apply} op is [n = 1]).
    [suspect_after] consecutive failures mark a shard Suspect (still
    serving, flagged in health reports); [down_after] mark it Down.

    The Down transition is the failover. One directory-lock hold marks
    the shard Down and drops its routing weight to 0, so new placements
    stop landing there; the thread whose signal did so waits for the
    reservations in flight on the shard to settle, then re-homes up to
    [evac_budget] of its jobs and writes an informational
    ["evacuation"] event into the shard's journal: the trigger
    ([probe], [watchdog], [report], [manual] or [alert:<rule>]), the
    job count, the leftover and the budget — provenance for the burst
    of removes before it. A watchdog failover's moves ride on the reply
    of the last acknowledged op of the chunk that tripped it.

    Re-admission reverses it: the operator restores an engine from the
    shard's latest snapshot plus journal tail ({!Replay.resume}) in the
    builder it hands to {!Supervision.readmit}; the shard re-enters as
    Recovering and each successful probe ramps its weight back by
    [1 / recovery_steps] until it is Healthy at full weight. A failure
    mid-ramp sends it straight back Down.

    Degraded mode: while a shard is Down the cluster serves from the
    survivors. An op on a job stranded there (left behind by the
    budget, or still there while its evacuation runs) is refused, and
    counted, rather than routed into the corpse; so is every op when
    no shard serves.

    All of this state — health, failure streaks, ramps, counters —
    lives under the directory lock next to the routing weights; an
    unsupervised cluster pays one [None] test per op. *)

val supervise : t -> Health.config -> probe:(int -> bool) -> clock:(unit -> float) -> unit
(** Install a supervision policy, every shard Healthy — before the
    cluster serves. [probe i] answers whether shard [i] looks live;
    [clock] feeds the watchdog, read exactly twice per shard task of an
    op. From then on every {!apply}/{!apply_bulk} op meets the
    degraded-mode guard and the watchdog, and no {!move} or
    {!rebalance} transfer touches a Down shard.
    @raise Invalid_argument on a nonsensical config, or if a policy is
    already installed. *)

val supervised : t -> bool

(** The signals and the census of a supervised cluster; {!Supervisor}
    re-exports them. Each raises [Invalid_argument] on a cluster
    without a policy, or on a shard index out of range. *)
module Supervision : sig
  val health : t -> int -> Health.health
  val serving_shards : t -> int

  val tick : t -> move list
  (** One supervision round: probe every non-Down shard and apply the
      state machine. A probe success resets the failure streak (Suspect
      heals to Healthy; Recovering ramps one step). A probe failure
      counts toward Suspect/Down; the moves of any failover this
      triggers are returned. Call it from the serving loop's idle path
      or a timer. *)

  val fail : ?reason:string -> t -> int -> move list
  (** An external failure report against shard [i] — same effect as
      one failed probe (returns the failover's moves if it tips the
      shard Down). [reason] (default ["report"]) is the provenance the
      evacuation event records — the telemetry loop passes
      ["alert:<rule>"] here, so a post-mortem can tie the evacuation
      back to the alert that caused it. *)

  val mark_down : t -> int -> move list
  (** Operator override: force shard [i] Down now (no effect if
      already Down), returning the failover's moves. *)

  val readmit : t -> int -> (unit -> (Engine.t, string) result) -> (unit, string) result
  (** Swap the engine [build ()] restores in for Down shard [i] and
      start the recovery ramp at weight 0. [build] runs under the
      shard's registry, as {!of_engines} builders do, and the swap is a
      task under the shard's lock. The engine must have the shard's
      processor count and hold exactly the jobs the directory still
      maps to shard [i] — an engine resumed from the shard's own
      journal does, because the evacuation removes were journaled.
      [Error] (the cluster untouched) if the shard is not Down, its
      failover is still running, [build] fails, or the engine
      disagrees with the directory. *)

  val stats : t -> Health.stats
end

val stats : t -> stats
val shard_stats : t -> Engine.stats array

val check_consistency : t -> k:int -> bool
(** Directory integrity (every entry settled and resident exactly
    where its engine holds it) plus [Engine.check_consistency ~k] per
    shard. Meaningful on a quiescent cluster — in-flight reservations
    count as failures by design. *)

val journal_snapshot : t -> ((int * int) list, string) result
(** Emit a snapshot event into every shard's journal (under its lock);
    [(shard, event seq)] pairs. [Error] (emitting nothing) if
    any shard lacks a journal. *)

val query : t -> int -> (Engine.t -> 'a) -> 'a
(** Run a closure on shard [i]'s engine {e under its lock} — the safe
    way to inspect a live engine (e.g. its journal tail) or to write to
    its journal. The closure must not call back into the cluster.
    @raise Shut_down after {!shutdown}. *)

val merge_metrics : t -> into:Rebal_obs.Metrics.Registry.t -> unit
(** Fold every shard registry and every hosting domain's registry into
    [into] — call at exposition time with a fresh registry (merging
    twice into the same registry double-counts). The caller's own
    domain's registry is not included. *)

val shutdown : t -> unit
(** Stop accepting work: tasks already holding a shard lock finish,
    later ones refuse. Then join the started hosting domains, which
    waits for every thread {!spawn} started on them — so call it from
    a thread the cluster did not spawn. Idempotent from one thread;
    afterwards operations report ["cluster is shut down"] and
    inspection raises {!Shut_down}, except {!makespan}, which keeps
    returning the final value. *)

val engine : t -> int -> Engine.t
(** Shard [i]'s backing engine, {e without} its lock — safe with one
    caller thread, or once the cluster is {!shutdown} (the replay-audit
    path in tests and benches). With concurrent callers use {!query}.
    Mutating it directly bypasses the residency directory. *)
