(** PARTITION extended to arbitrary relocation costs (§3.2 of the paper):
    minimize the makespan subject to a total relocation-cost budget [B].

    For a makespan guess [t] (restricted to
    [t >= max(average load, max job size)], both lower bounds on the
    optimum), the per-processor quantities become minimum {e costs}
    instead of minimum counts, each computed by a knapsack subroutine
    that keeps the most expensive jobs within a size cap:

    - [a_i]: cost of removing all large jobs but the most expensive one,
      plus the cheapest set of small jobs whose removal brings the small
      load under [t/2];
    - [b_i]: the cheapest set of jobs (large included) whose removal
      brings the whole load under [t].

    The [L_T] processors of smallest [c_i = a_i - b_i] are selected as in
    the unit-cost algorithm; the total removal cost of the resulting plan
    is compared with [B]. The guess is raised along a geometric grid with
    ratio [1 + alpha] until the plan is affordable; the first affordable
    guess is at most [(1 + alpha)] times the optimal makespan (the plan at
    any [t >=] optimum costs no more than the optimum's own relocation
    cost — the paper's Lemma 7), so the result is a
    [1.5 (1 + alpha)]-approximation, plus the knapsack error [epsilon]
    when the FPTAS replaces the exact DP.

    Only the knapsack removal sets are this module's own: the selection
    and the re-placement are PARTITION's ({!Partition.select},
    {!Partition.replace}), with removed large jobs paired in ascending id
    order. *)

type knapsack_mode =
  | Auto
      (** exact: the DP when [q * t] is small, branch-and-bound
          otherwise; the default *)
  | Exact_dp  (** exact pseudo-polynomial DP, [O(q * t)] per processor *)
  | Branch_and_bound  (** exact, capacity-independent *)
  | Fptas of float  (** value-scaling FPTAS with the given epsilon *)

val solve :
  ?alpha:float ->
  ?knapsack:knapsack_mode ->
  Rebal_core.Instance.t ->
  budget:int ->
  Rebal_core.Assignment.t * int
(** [solve inst ~budget] returns the assignment and the accepted makespan
    guess. [alpha] (default [0.05]) is the geometric step of the guess
    grid; [knapsack] defaults to [Auto]. The returned assignment's relocation cost is at most [budget].
    @raise Invalid_argument if [budget < 0] or [alpha <= 0]. *)

val plan_cost :
  ?knapsack:knapsack_mode ->
  Rebal_core.Instance.t ->
  threshold:int ->
  int option
(** Total removal cost of the §3.2 plan at one guess, or [None] when the
    guess is structurally infeasible (more large jobs than processors).
    Exposed for tests. *)
