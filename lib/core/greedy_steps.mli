(** The two steps of the paper's GREEDY (§2), written once for every
    solver that uses them:

    - {!remove_largest} is step 1 and Lemma 1: [Lower_bounds.g1] is the
      largest load it leaves, and [Greedy.solve] re-places the jobs it
      removes;
    - {!list_schedule} is step 2, Graham's list scheduling: GREEDY's
      reinsertion, {!lpt} ([Lpt.solve], [Gen.drifted]'s balanced start) and
      PARTITION's placement of removed small jobs ([Partition.replace]).

    Both loops are allocation-free once their arrays exist. Processor
    ties go to the smaller index, so every result is deterministic. *)

val remove_largest : Instance.t -> k:int -> int array * int array
(** [remove_largest inst ~k] removes, [min k n] times, the largest job
    from the currently most-loaded processor. It returns the removed jobs
    in removal order and the loads they leave behind; the largest of
    those loads is Lemma 1's [G1]. Its heap takes one insert per
    processor, then one minimum read and one re-key per removal.
    @raise Invalid_argument if [k < 0]. *)

val by_size_descending : size:(int -> int) -> int array -> unit
(** Sort jobs in place, largest first, the smaller id first among equal
    sizes: LPT's order, which PARTITION's small jobs, the exact solver's
    branching and the PTAS's pooled small jobs also follow. *)

val list_schedule : size:(int -> int) -> load:int array -> int array -> assign:int array -> unit
(** [list_schedule ~size ~load jobs ~assign] places each job of [jobs],
    in order, on the processor of least load (starting from [load], one
    entry per processor) and records it in [assign.(job)]. [load] itself
    is not changed. Its heap takes one insert per processor, then one
    minimum read and one re-key per job. *)

val lpt : size:(int -> int) -> n:int -> m:int -> int array
(** Graham's LPT rule: jobs [0 .. n-1] in {!by_size_descending} order,
    list-scheduled onto [m] empty processors. Returns the job-to-processor
    map. *)
