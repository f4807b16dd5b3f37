(* An alias of [Cluster], kept only because the benchmark ladder
   (perfbench/ladder.ml) names [Shard.create] and
   [Shard.journal_snapshot]. Nothing else may use it; it goes away with
   the next change to the benchmark. *)
include Cluster
