(** The paper's GREEDY algorithm (§2), a variant of Graham's list
    scheduling heuristic for the unit-cost load rebalancing problem:

    + repeat [k] times: remove the largest job from the currently
      most-loaded processor;
    + place each removed job, in some order, on the currently
      least-loaded processor.

    Theorem 1: GREEDY is a tight [(2 - 1/m)]-approximation and runs in
    [O(n log n)] time. The approximation guarantee holds for {e any}
    insertion order in step 2; the order still matters in practice
    (descending is best; ascending exhibits the tight [2 - 1/m] example
    of Theorem 1, where the one huge job is re-placed last).

    Both steps are {!Rebal_core.Greedy_steps}: step 1 is
    [remove_largest] (Lemma 1's removal, also behind
    [Lower_bounds.g1]), step 2 is [list_schedule]. *)

type insertion_order =
  | As_removed  (** FIFO over the removal sequence — the paper's default *)
  | Ascending  (** smallest first; adversarial on Theorem 1's instance *)
  | Descending  (** largest first (LPT-style); best practical choice *)

val solve : ?order:insertion_order -> Rebal_core.Instance.t -> k:int -> Rebal_core.Assignment.t
(** [solve inst ~k] relocates at most [k] jobs. [order] defaults to
    [Descending]. The returned assignment always moves at most [k] jobs
    (a removed job re-placed on its own processor counts as no move).
    @raise Invalid_argument if [k < 0]. *)
