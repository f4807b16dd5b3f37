(** The chaos workload behind [rebalance chaos-serve] and bench E20: a
    supervised shard cluster driven through a seeded stream of adds,
    removes and resizes while shards die and come back — the paper's
    websites moved between failing servers — then audited.

    Every shard journals to memory. A shard the fault schedule kills is
    evacuated by the {!Supervisor}; when the schedule revives it, its
    engine is rebuilt from its own journal and readmitted. The audit
    checks the cluster against a model of what the workload believes is
    live (no job lost, resized behind its back, stray or duplicated),
    the directory's batch-consistency check, and that every shard's
    journal replays to exactly its live engine. *)

type config = {
  shards : int;
  procs : int;  (** total, split over the shards *)
  horizon : int;  (** driven steps *)
  ops_per_step : int;  (** 60% add, 25% remove, 15% resize *)
  period : int;  (** steps between rebalance passes *)
  k : int;  (** move budget per pass *)
  evac_budget : int option;  (** jobs re-homed per evacuation; [None] unbounded *)
  seed : int;
}

val validate : config -> (unit, string) result
(** Refuse what the driver cannot run, with the [chaos-serve] message. *)

val kill_schedule :
  config -> down_for:int -> (int * int) list -> (int -> int -> bool, string) result
(** The [live shard step] predicate of an explicit kill list: shard [s]
    of [(s, step)] is down for [down_for] steps from [step]. [Error]
    names the first kill outside [shards x horizon]. *)

type t

val create : live:(int -> int -> bool) -> config -> t
(** A fresh cluster under a supervisor probing [live shard step]
    (suspect after one failed probe, down after two, four to ramp back
    in). The config must pass {!validate}. *)

val supervisor : t -> Supervisor.t

type report = {
  rejected : int;  (** workload ops the supervisor refused *)
  recoveries : (int * int * int) list;  (** shard, down step, healthy step *)
  still_down : (int * Supervisor.health * int) list;  (** shard, state, down step *)
  downtime_weighted : float;  (** sum of makespan x (1 + shards not serving) *)
  stats : Supervisor.stats;
  jobs : int;
  makespan : int;
  journals : string array;
  replays_clean : int;
  failures : string list;  (** readmission and audit failures; [[]] is a pass *)
}

val run : ?on_step:(int -> unit) -> t -> report
(** Drive every step — supervisor tick, readmission of revived shards,
    the workload, a rebalance pass every [period] steps, [on_step step]
    — then audit. Once per {!create}. *)

val replay_matches : Cluster.t -> int -> string -> (unit, string) result
(** Shard [i]'s journal text resumes to an engine
    {!Replay.same_state} as its live one (on either executor). *)
