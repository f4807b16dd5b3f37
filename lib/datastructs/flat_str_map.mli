(** Open-addressing string -> int hash map: linear probing over two
    parallel arrays (keys, values), with backward-shift deletion instead
    of tombstones, so probe runs hold live entries only and no purge
    (nor a spare buffer for one) is ever needed. Once the table has
    grown to its working-set size, any interleaving of {!set} and
    {!remove} at constant population runs without allocating. Values
    must be non-negative — [-1] is the "absent" return of {!find}.

    Built for {!Rebal_online.Engine}'s id -> slot directory and
    {!Rebal_online.Cluster}'s id -> residency directory, where the
    per-event budget excludes the minor heap entirely. *)

type t

val create : int -> t
(** [create n] sizes the table for [n] live entries (capacity is the
    least power of two at or above [2n], minimum 8).
    @raise Invalid_argument if [n < 0]. *)

val length : t -> int
(** Number of live bindings. *)

val capacity : t -> int
(** Current slot-array size (a power of two). *)

val find : t -> string -> int
(** The value bound to the key, or [-1] when absent. Allocation-free. *)

val mem : t -> string -> bool

val set : t -> string -> int -> unit
(** Bind a key (replacing any existing binding). Allocation-free except
    when the live count reaches a new high-water mark, which doubles the
    arrays. Do not store negative values — they are indistinguishable
    from "absent". *)

val remove : t -> string -> unit
(** Unbind a key; no-op when absent. Allocation-free: the entries after
    it in its probe run shift back over the hole. *)

val reserve : t -> int -> unit
(** [reserve t n] grows the table (if needed) so [n] live entries fit
    without any further growth — pulls warm-up allocation forward.
    @raise Invalid_argument if [n < 0]. *)

val clear : t -> unit
(** Drop all bindings, keeping the current capacity. *)

val iter : (string -> int -> unit) -> t -> unit
(** Apply to every live binding, in unspecified order. *)
