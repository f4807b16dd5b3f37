(** Relocation budgets. The paper states the problem in two forms: move at
    most [k] jobs (unit-cost version), or keep the total relocation cost of
    the moved jobs within [b] (arbitrary-cost version). *)

type t =
  | Moves of int  (** at most this many jobs may change processor *)
  | Cost of int  (** total relocation cost of moved jobs at most this *)

val pp : Format.formatter -> t -> unit

val spent : Instance.t -> Assignment.t -> t -> int
(** What the assignment consumed of this budget kind: its move count for
    [Moves _], its relocation cost for [Cost _]. *)

val within : Instance.t -> Assignment.t -> t -> bool
(** Whether the assignment respects the budget. *)

val limit : t -> int
(** The numeric bound carried by the budget. *)
