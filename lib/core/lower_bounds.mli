(** Lower bounds on the optimal rebalanced makespan. Every algorithm's
    empirical approximation ratio is measured against [best], so each bound
    here must be provably [<= OPT]:

    - [average]: ⌈total size / m⌉ — some processor carries at least the
      average load in any assignment.
    - [max_size]: every job sits on some processor in the optimal
      assignment, so [OPT >= max_j s_j].
    - [g1]: the paper's Lemma 1. Removing, [k] times, the largest job from
      the currently most-loaded processor minimizes the makespan over all
      ways of deleting [k] jobs {e without reassigning them}; since the
      optimum must additionally place the removed jobs somewhere,
      [G1 <= OPT]. Only valid for the [Moves k] budget. The removal is
      {!Greedy_steps.remove_largest}, GREEDY's own first step. *)

val average : Instance.t -> int
val max_size : Instance.t -> int

val g1 : Instance.t -> k:int -> int
(** Lemma 1 bound. [O(n log n)].
    @raise Invalid_argument if [k < 0]. *)

val best : Instance.t -> budget:Budget.t -> int
(** The largest applicable bound: [max(average, max_size)] always, and
    additionally [g1] for a [Moves] budget. *)
