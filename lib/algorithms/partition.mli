(** The paper's PARTITION algorithm (§3): a 1.5-approximation for the
    unit-cost load rebalancing problem when the optimal makespan (or any
    threshold [t >= OPT], or in fact any lower bound at which the plan
    happens to be feasible) is supplied.

    Given a threshold [t], a job is {e large} when its size is strictly
    greater than [t/2]. The algorithm (a) keeps only the smallest large
    job on each processor that has one, (b) computes for each processor
    the removal counts [a_i] (small jobs to get the small load under
    [t/2]) and [b_i] (any jobs to get the whole load under [t]), (c)
    selects the [L_T] processors with the smallest [c_i = a_i - b_i]
    (ties prefer processors holding a large job) to become the
    one-large-job processors, (d) clears the rest down to load [t] and
    large-free, and (e) re-places every removed job — large jobs one per
    large-free selected processor, small jobs greedily on the least
    loaded processor.

    The number of removals is minimal over all ways of reaching a
    "half-optimal" configuration (Lemma 3/4), hence at most the number of
    moves the optimum uses when [t >= OPT]; the resulting makespan is at
    most [1.5 t] (Theorem 2).

    Step (c) is {!select} and step (e) is {!replace}; the budgeted
    variant ([Budgeted_partition], §3.2) reuses both. Step (e) places
    small jobs with {!Rebal_core.Greedy_steps.list_schedule}. *)

type plan = {
  threshold : int;
  moves : int;  (** total removals the plan performs *)
  large_total : int;  (** [L_T], the number of large jobs *)
  large_extra : int;  (** [L_E], large jobs beyond one per processor *)
  selected : bool array;  (** the [L_T] processors chosen in step (c) *)
  a : int array;
  b : int array;
}

val plan :
  Rebal_core.Instance.t -> views:Rebal_ds.Sorted_jobs.t array -> threshold:int -> plan option
(** The removal plan for a guess [threshold], or [None] when the guess is
    structurally infeasible (more large jobs than processors, which
    cannot happen for [threshold >= OPT]). [O(m log n)] given the views.
    @raise Invalid_argument if [threshold < 0]. *)

val select :
  m:int -> count:int -> cost:(int -> int) -> has_large:(int -> bool) -> bool array
(** Step (c): mark the [count] processors of smallest [cost p]
    ([c_p = a_p - b_p]); ties prefer processors with [has_large p], then
    the smaller index. *)

val replace :
  Rebal_core.Instance.t ->
  assign:int array ->
  load:int array ->
  larges:int array ->
  frees:int array ->
  smalls:int array ->
  Rebal_core.Assignment.t
(** Step (e), on the job-to-processor map [assign] and the loads [load]
    left by the removals (both updated in place): removed large job
    [larges.(i)] goes to processor [frees.(i)], then the removed jobs
    [smalls] are sorted largest first and list-scheduled.
    @raise Invalid_argument if [frees] is shorter than [larges]. *)

val build :
  Rebal_core.Instance.t -> views:Rebal_ds.Sorted_jobs.t array -> plan -> Rebal_core.Assignment.t
(** Execute a plan: perform its removals and re-place the removed jobs.
    The returned assignment displaces at most [plan.moves] jobs and, for
    [threshold >= max(average, max_size)], has makespan at most
    [1.5 * threshold]. *)

val solve :
  Rebal_core.Instance.t -> opt_guess:int -> Rebal_core.Assignment.t option
(** [plan] + [build] in one step with freshly computed views. *)
