(** A bounded multi-producer single-consumer mailbox — the inbox
    through which [Cluster.spawn] hands a thread's body to a hosting
    domain.

    Backpressure is the point of the bound: {!send} blocks while the
    buffer is full, so a producer that outruns its consumer parks
    instead of growing an unbounded queue. {!close} is the shutdown
    handshake: senders arriving after close are refused, the consumer
    drains everything accepted before close and then sees
    end-of-stream — a successful {!send} is never dropped.

    All operations are domain-safe (one mutex, two condition
    variables); the single-consumer discipline is a usage convention,
    not enforced. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val send : 'a t -> 'a -> bool
(** Enqueue, blocking while full. [false] if the mailbox is (or
    becomes, while waiting) closed — the value was not enqueued. *)

val recv : 'a t -> 'a option
(** Dequeue the oldest element, blocking while empty. [None] only
    after {!close} once every accepted element has been drained. *)

val close : 'a t -> unit
(** Refuse further sends and wake all blocked senders and receivers.
    Idempotent. *)
