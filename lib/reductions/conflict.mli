(** The Conflict Scheduling problem of §5 (Theorem 7): assign jobs to
    machines so that no two conflicting jobs share a machine. The paper
    proves that {e deciding feasibility} is NP-hard via 3-dimensional
    matching, so the makespan version admits no polynomial approximation
    within any ratio unless P = NP.

    This module makes the reduction executable: [of_three_dm] builds the
    exact gadget of the paper's proof, and [feasible] decides small
    instances by backtracking, so the test-suite verifies the equivalence
    "matching exists iff the schedule is feasible" in both directions. *)

type t

val create : jobs:int -> machines:int -> conflicts:(int * int) list -> t
(** @raise Invalid_argument on out-of-range job indices or self-conflicts. *)

val jobs : t -> int
val machines : t -> int
val conflicts : t -> (int * int) list

val feasible : t -> int array option
(** A machine per job such that no conflicting pair shares one, if any
    exists. Backtracking with machine-symmetry breaking; exponential. *)

val of_three_dm : Three_dm.t -> t
(** Theorem 7's gadget. With [m] triples over universes of size [n]:
    [m] pairwise-conflicting {e triple} jobs, [3n] {e element} jobs (an
    element conflicts with every triple job whose triple does not contain
    it), and [m - n] pairwise-conflicting {e dummy} jobs that also
    conflict with every element job. Feasible on [m] machines iff the
    3DM instance has a perfect matching.
    @raise Invalid_argument if [m < n] (the gadget needs a dummy count of
    [m - n >= 0]). *)

val verify_reduction : Three_dm.t -> bool
(** Checks that [feasible (of_three_dm inst)] agrees with
    [Three_dm.has_perfect_matching inst]. *)
