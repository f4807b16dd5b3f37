(** Deterministic fault injection for the simulators.

    A plan is generated once from a seed and then only queried, so a
    given [(seed, servers, horizon, knobs)] tuple always produces the
    same crash windows, the same migration failures and the same
    measurement noise — chaos runs are exactly as reproducible as
    fault-free ones.

    Three failure classes, all optional and independent:

    - {b crashes}: while a server is up it crashes with probability
      [crash_rate] per step and stays down for a geometric number of
      steps with mean [mttr]. The plan never takes the last live server
      down, so the cluster always has somewhere to put work. The
      simulator must evacuate a crashed server's jobs (emergency moves,
      metered separately from policy moves) and keep policies from
      placing work on it.
    - {b failed migrations}: each policy-proposed move independently
      fails with probability [migration_fail]. A failed move leaves the
      job where it was but still consumes the round's move budget —
      the operator paid for the attempt.
    - {b stale / noisy measurement}: policies observe the load vector
      from [lag] steps ago, each entry scaled by an independent
      multiplicative jitter uniform in [1 - noise, 1 + noise]. The
      simulator's own metrics always use the true loads. *)

type t

val none : t
(** The zero-fault plan: every server always live, no migration ever
    fails, observation is exact and instantaneous. Simulations run with
    [none] behave identically to fault-free runs. *)

val create :
  seed:int ->
  servers:int ->
  horizon:int ->
  ?crash_rate:float ->
  ?mttr:int ->
  ?migration_fail:float ->
  ?lag:int ->
  ?noise:float ->
  unit ->
  t
(** Generate a plan. Defaults are all-zero (no faults): [crash_rate = 0.],
    [mttr = 10], [migration_fail = 0.], [lag = 0], [noise = 0.].
    @raise Invalid_argument on non-positive [servers]/[horizon]/[mttr],
    probabilities outside [0, 1], negative [lag] or negative [noise]. *)

val is_none : t -> bool
(** True when the plan can inject no fault at all (the [none] plan or a
    [create] with all-zero knobs); simulators use this to keep the
    fault-free fast path untouched. *)

val is_live : t -> server:int -> time:int -> bool
(** Whether [server] is up at [time]. Servers outside the plan's range
    and times at or past its horizon are reported live. *)

val live_count : t -> m:int -> time:int -> int
(** Number of live servers among [0 .. m-1] at [time]; always >= 1. *)


val crash_events : t -> (int * int) list
(** All [(time, server)] crash transitions, in time order. *)

val migration_fails : t -> time:int -> job:int -> bool
(** Whether the move proposed for [job] in the rebalancing round at
    [time] fails. Deterministic in [(seed, time, job)] — independent of
    query order and of how many other queries were made. *)

val lag : t -> int

val observe : t -> time:int -> (int -> int array) -> int array
(** [observe t ~time rates_at] is what a policy sees at [time]: the
    vector [rates_at (max 0 (time - lag))] with per-entry multiplicative
    jitter, each entry clamped to at least 1. With [lag = 0] and
    [noise = 0.] this is exactly [rates_at time]. *)
