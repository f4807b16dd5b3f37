(** The self-healing layer: per-shard health supervision over a
    {!Cluster}, with automatic failover and re-admission. It runs over
    either executor: every engine access goes through the cluster's
    own operations ({!Cluster.query} for the journal write), and its
    mutations stay one op at a time, each under the watchdog.

    Each shard carries a health state machine

    {v Healthy -> Suspect -> Down -> Recovering -> Healthy v}

    driven by two failure signals: an injectable {e probe} (polled by
    {!tick} — in production a liveness check, in tests and the chaos
    harness a seeded fault plan) and a {e watchdog} on every supervised
    operation (an op slower than [op_deadline] counts against the shard
    that served it). [suspect_after] consecutive failures mark a shard
    Suspect (still serving, flagged in health reports); [down_after]
    mark it Down.

    The Down transition is the failover: the shard's routing weight
    drops to 0 (new placements stop landing there — see
    {!Cluster.set_weight}), and up to [evac_budget] of its jobs are
    re-homed onto the survivors as two-phase moves, so every journal
    stays replayable and the directory stays authoritative
    ({!Cluster.evacuate}). An informational
    ["evacuation"] event in the dead shard's journal records the
    trigger ([probe], [watchdog], [report] or [manual]), the job count
    and the budget — provenance for the burst of removes that follows.

    Re-admission reverses it: the operator restores an engine from the
    shard's latest snapshot plus journal tail ({!Replay.resume}) in the
    builder it hands to {!readmit}; the shard re-enters as Recovering and each
    successful probe ramps its routing weight back by
    [1 / recovery_steps] until it is Healthy at full weight. A failure
    mid-ramp sends it straight back Down (evacuating whatever it
    accumulated).

    Degraded mode: while any shard is Down the cluster keeps serving
    from the survivors. Operations touching a job stranded on a dead
    shard (left behind by the evacuation budget) are rejected rather
    than routed into the corpse, and {!stats} exposes the full health
    census for STATS/SHARDS/HEALTH reporting. *)

type move = Engine.move = {
  id : string;
  src : int;
  dst : int;
}

type health =
  | Healthy
  | Suspect  (** failing probes, still serving *)
  | Down  (** evacuated, weight 0, rejecting *)
  | Recovering  (** readmitted, ramping weight back *)

val health_name : health -> string
(** Lowercase wire name: ["healthy"], ["suspect"], ["down"],
    ["recovering"]. *)

type config = {
  suspect_after : int;  (** consecutive failures before Suspect (>= 1) *)
  down_after : int;  (** consecutive failures before Down (>= suspect_after) *)
  op_deadline : float;  (** watchdog limit per supervised op, seconds *)
  evac_budget : int;  (** max jobs re-homed per evacuation *)
  recovery_steps : int;  (** successful probes to ramp weight 0 -> 1 *)
}

val default_config : config
(** [suspect_after = 1], [down_after = 3], [op_deadline = 1.0],
    [evac_budget = max_int], [recovery_steps = 4]. *)

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
  probe_failures : int;  (** failed probes + external {!fail} reports *)
  watchdog_trips : int;  (** ops that blew [op_deadline] *)
  degraded_rejections : int;  (** ops refused because of a Down shard *)
}

type t

val create :
  ?config:config -> ?probe:(int -> bool) -> ?clock:(unit -> float) -> Cluster.t -> t
(** Supervise [cluster]. [probe i] (default: always alive) answers
    whether shard [i] looks live — inject the fault source here.
    [clock] (default [Unix.gettimeofday]) feeds the watchdog; inject a
    fake for deterministic deadline tests. All shards start Healthy.
    @raise Invalid_argument on a nonsensical [config]. *)

val cluster : t -> Cluster.t
(** The supervised cluster. Mutating it directly bypasses health
    guards and the watchdog — use the supervised operations. *)

val config : t -> config
val shard_count : t -> int
val health : t -> int -> health
val is_serving : t -> int -> bool
(** [true] unless Down. *)

val serving_shards : t -> int

val tick : t -> move list
(** One supervision round: probe every non-Down shard and apply the
    state machine. A probe success resets the failure streak (Suspect
    heals to Healthy; Recovering ramps one step). A probe failure
    counts toward Suspect/Down; the moves of any evacuation this
    triggers are returned (global indices). Call it from the serving
    loop's idle path or a timer. *)

val fail : ?reason:string -> t -> int -> move list
(** An external failure report against shard [i] — same effect as one
    failed probe (returns evacuation moves if it tips the shard Down).
    [reason] (default ["report"]) is the provenance recorded in the
    evacuation journal event if this report tips the shard Down — the
    telemetry loop passes ["alert:<rule>"] here, so a post-mortem can
    tie the evacuation back to the alert that caused it.
    @raise Invalid_argument if [i] is out of range. *)

val mark_down : t -> int -> move list
(** Operator override: force shard [i] Down now (no effect if already
    Down), returning the evacuation moves. *)

val readmit : t -> int -> (unit -> (Engine.t, string) result) -> (unit, string) result
(** Swap the engine [build ()] restores in for Down shard [i] and start
    the recovery ramp at weight 0. [build] runs under the shard owner's
    metrics registry ({!Cluster.replace_engine}). The engine must hold
    exactly the jobs the directory still maps to shard [i] — an engine
    resumed from the shard's own journal does, because the evacuation
    removes were journaled. [Error] if the shard is not Down, [build]
    fails, or the engine disagrees with the directory. *)

val add_job : t -> id:string -> size:int -> (int * move list, string) result
(** {!Cluster.add_job} under the watchdog. Rejected when no shard is
    serving or the id is stranded on a Down shard. *)

val remove_job : t -> id:string -> (int * move list, string) result
val resize_job : t -> id:string -> size:int -> (int * move list, string) result

val rebalance : t -> k:int -> move list
(** {!Cluster.rebalance} on the cluster (Down shards hold no weight and,
    after evacuation, at most stranded jobs). *)

val stats : t -> stats
