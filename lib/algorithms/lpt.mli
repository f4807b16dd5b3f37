(** Longest-processing-time-first list scheduling (Graham 1966) — the
    classical from-scratch load balancer. It ignores the initial
    assignment entirely and therefore serves as the "unbounded moves"
    reference point in the benchmark tables: the makespan a rebalancer
    could reach if relocation were free, at the price of moving almost
    every job. The placement is {!Rebal_core.Greedy_steps.lpt}. *)

val solve : Rebal_core.Instance.t -> Rebal_core.Assignment.t
(** Assign jobs to processors from scratch, largest first, each on the
    currently least-loaded processor. [(4/3 - 1/(3m))]-approximate for
    plain makespan minimization; moves are unbounded. *)
