(** Immutable per-processor view of a job multiset, sorted by size in
    decreasing order, with prefix sums of the sorted sizes.

    This is the data structure that makes the PARTITION / M-PARTITION
    algorithms of Aggarwal–Motwani–Zhu run in near-linear time: for a
    makespan guess [t], the number of {e large} jobs (size strictly greater
    than [t/2]) is the length of a prefix of the view, and the quantities

    - [a_i] — the minimum number of small jobs to remove so that the
      remaining small jobs total at most [t/2], and
    - [b_i] — the minimum number of jobs (large job included) to remove so
      that the remaining jobs total at most [t]

    are each computed with one binary search over the prefix sums
    ([O(log q)] for a processor holding [q] jobs).

    All size arithmetic is on integers; "size strictly greater than [t/2]"
    is evaluated exactly as [2*size > t]. *)

type t

val of_ids : sizes:int array -> int array -> t
(** [of_ids ~sizes ids] builds the view of the jobs [ids], distinct
    indices into [sizes]. [ids] is sorted in place, by size then id (so
    the view is deterministic), and kept as the view's id array: the
    caller hands it over.
    @raise Invalid_argument if any of those sizes is negative. *)

val length : t -> int
(** Number of jobs in the view. *)

val id : t -> int -> int
(** [id t i] is the job id at descending-sorted position [i]. *)

val size : t -> int -> int
(** [size t i] is the size at descending-sorted position [i]. *)

val total : t -> int
(** Sum of all job sizes in the view. *)

val prefix : t -> int -> int
(** [prefix t l] is the sum of the [l] largest sizes; [prefix t 0 = 0]. *)

val suffix : t -> int -> int
(** [suffix t l] is the total minus the [l] largest sizes, i.e. the sum of
    the sizes at positions [l .. length-1]. *)

val large_count : t -> threshold:int -> int
(** Number of jobs with [2*size > threshold]. They occupy positions
    [0 .. large_count-1]. [O(log q)]. *)

val min_removals_to_cap : t -> from_:int -> cap:int -> int
(** [min_removals_to_cap t ~from_ ~cap] is the least [r] such that removing
    the [r] largest jobs of the suffix starting at position [from_] leaves
    that suffix with total size at most [cap]. Removing largest-first is
    optimal for minimizing the count, so this is exact. [O(log q)].
    @raise Invalid_argument if no [r] suffices, which can only happen when
    [cap < 0]. *)
