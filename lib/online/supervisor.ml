include Cluster.Health

type t = Cluster.t

let create ?(config = default_config) ?(probe = fun _ -> true) ?(clock = Unix.gettimeofday)
    cluster =
  Cluster.supervise cluster config ~probe ~clock;
  cluster

include Cluster.Supervision
