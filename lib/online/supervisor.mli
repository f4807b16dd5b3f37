(** The self-healing layer's public face: health supervision of a
    {!Cluster}, with automatic failover and re-admission. The state and
    the state machine live in the cluster ({!Cluster.supervise},
    {!Cluster.section-supervision}); [t] is the cluster itself, mutated
    through {!Cluster.apply}/{!Cluster.apply_bulk} and safe to drive
    from many threads at once. *)

include module type of struct
  include Cluster.Health
end
(** The health states, the policy ([config]) and the census ([stats]):
    {!Cluster.Health}. *)

type t = Cluster.t

val create :
  ?config:config -> ?probe:(int -> bool) -> ?clock:(unit -> float) -> Cluster.t -> t
(** Install the policy on [cluster] ({!Cluster.supervise}) and return
    it. [probe i] (default: always alive) answers whether shard [i]
    looks live — inject the fault source here. [clock] (default
    [Unix.gettimeofday]) feeds the watchdog, read exactly twice per
    shard task; inject a fake for deterministic deadline tests. All
    shards start Healthy.
    @raise Invalid_argument on a nonsensical [config], or if [cluster]
    is already supervised. *)

include module type of struct
  include Cluster.Supervision
end
(** [health], [serving_shards], [tick], [fail], [mark_down], [readmit]
    and [stats]: {!Cluster.Supervision}. *)
