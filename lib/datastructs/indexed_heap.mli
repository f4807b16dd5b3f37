(** Min-heap over a fixed universe of integer keys [0 .. n-1] with integer
    priorities and support for changing the priority of a present key
    ("decrease-key" and "increase-key") in [O(log n)].

    Used by the web-server simulator to track server loads that change as
    sites are migrated, and by list-scheduling style placement loops where
    the same processor is re-keyed many times. Ties between equal
    priorities are broken by the smaller key, so iteration orders are
    deterministic. *)

type t

(** {2 Optional operation counters}

    A process-global hook for observability: when installed, every heap
    in the process attributes its operations and sift steps to the
    record, which the profiler flushes into the metrics registry. When
    absent (the default) each counting site is one ref load and branch —
    the heap stays dependency-free and effectively uninstrumented. *)

type counters = {
  mutable sets : int;  (** {!set} calls (inserts and priority updates) *)
  mutable removes : int;  (** {!remove} calls (including via {!pop_min}) *)
  mutable pops : int;  (** {!pop_min} calls that removed an entry *)
  mutable sift_up_steps : int;  (** swaps performed sifting up *)
  mutable sift_down_steps : int;  (** swaps performed sifting down *)
}

val fresh_counters : unit -> counters
val install_counters : counters -> unit
val remove_counters : unit -> unit

val create : int -> t
(** [create n] is an empty heap over keys [0 .. n-1].
    @raise Invalid_argument if [n < 0]. *)

val capacity : t -> int
(** The size of the key universe [n]. *)

val length : t -> int
(** Number of keys currently present. *)

val is_empty : t -> bool

val mem : t -> int -> bool
(** Whether the key is present. *)

val priority : t -> int -> int option
(** Current priority of a key, if present. *)

val set : t -> int -> int -> unit
(** [set h key prio] inserts [key] with priority [prio], or updates its
    priority if already present.
    @raise Invalid_argument if [key] is outside [0 .. n-1]. *)

val remove : t -> int -> unit
(** Remove a key; no-op if absent. *)

val min : t -> (int * int) option
(** [(key, priority)] with the smallest priority (smallest key on ties). *)

val min_exn : t -> int * int
(** @raise Invalid_argument if empty. *)

val min_key_exn : t -> int
(** Key of the minimum entry without allocating the tuple [min_exn]
    boxes — for per-event loops that must stay off the minor heap.
    @raise Invalid_argument if empty. *)

val min_prio_exn : t -> int
(** Priority of the minimum entry, allocation-free.
    @raise Invalid_argument if empty. *)

val pop_min : t -> (int * int) option
(** Remove and return the minimum entry. *)

val entries : t -> (int * int) list
(** All present [(key, priority)] pairs, in heap-array order (the first
    entry is the minimum; the rest are unordered). Non-destructive:
    intended for snapshots, debugging and model-based tests. *)

val clear : t -> unit
