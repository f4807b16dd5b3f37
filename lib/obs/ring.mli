(** A bounded FIFO over a fixed array: pushing onto a full ring evicts
    the oldest element. Every bounded log of values in [Rebal_obs] is
    one of these — the alert transition log, the time-series tiers,
    and the op-trace and slow-op rings. (The journal sink's tail keeps
    frames as bytes, in a byte ring of its own.) Not synchronized:
    callers hold their own lock. *)

type 'a t

val create : int -> 'a -> 'a t
(** [create capacity fill]: an empty ring. [fill] occupies the slots
    that hold no element, so evicted values are not kept alive.
    @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Elements retained. *)

val pushed : 'a t -> int
(** Pushes since creation or the last {!clear}, evicted ones included. *)

val is_full : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append, evicting the oldest element when the ring is full. *)

val oldest : 'a t -> 'a option

val pop : 'a t -> 'a option
(** Remove and return the oldest element. *)

val last : 'a t -> int -> 'a list
(** The newest [n] elements (all of them when fewer), oldest first. *)

val to_list : 'a t -> 'a list
(** Every retained element, oldest first. *)

val clear : 'a t -> unit
