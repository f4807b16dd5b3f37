(** Span tracing: op traces with head sampling and tail capture, and
    the solvers' phase spans.

    A sampled op builds its span tree in place. {!with_op} opens the
    root on the calling thread, {!with_span} appends a child to that
    thread's innermost open span, and when the op returns its finished
    tree goes whole into one bounded ring of op traces. A protocol op's
    work runs on its session thread, one shard task after another (two,
    for a cross-shard move), so its spans are nested calls on one
    thread and the tree is complete by construction. The solvers' phase
    spans ([greedy.*], [m_partition.*], [engine.repair]) are ordinary
    {!with_span} children of whatever op is open; [rebalance profile]
    opens one op at sample-every-1 and renders its children.

    {b Sampling.} With head sampling at 1-in-N ({!set_sample_every}),
    every Nth op records its full span tree. Independently, ops slower
    than the tail threshold ({!set_slow_threshold_ns}) land in a
    bounded slow-op ring whether or not they were sampled — an
    unsampled slow op stores a root-only tree, since its children were
    never recorded. With both knobs off (the default) [with_op] is
    [f ()] behind two atomic loads; an unsampled op that is not slow
    reads the clock twice and allocates nothing. While no thread is inside a
    sampled op, {!with_span} and {!add_attr} are [f ()] / a no-op
    behind one atomic load.

    {b Bounds.} The op-trace ring retains at most
    {!set_ring_capacity} spans (default 4096), evicting whole traces
    oldest first; their spans count into
    [rebal_trace_dropped_total{kind="op_span"}]. The slow-op ring keeps
    the last 256 ops; evictions count under [kind="slow_op"].

    {b Concurrency contract.} An open span belongs to the thread that
    opened it: only that thread appends children or attributes, so
    recording takes no lock beyond the current-span table, keyed by
    thread id (unique across domains). A tree becomes visible to
    readers only when its op closes, under the one mutex that guards
    both rings, and is never written again. Readers on any domain see
    every thread's traces. *)

type span = private {
  name : string;
  start_ns : int64;
  mutable stop_ns : int64;
  mutable attrs : (string * string) list;  (** see {!add_attr} *)
  mutable children : span list;  (** in start order once the span closes *)
}
(** A span and its subtree. Read-only outside this module. *)

type trace = {
  trace_id : int;
  spans : int;  (** spans in [root]'s tree, [root] included *)
  root : span;  (** named after the op's verb *)
}

type slow_op = {
  slow_trace : int;  (** the {!trace} holding its tree *)
  slow_verb : string;
  slow_duration_ns : int64;
  slow_finished_ns : int64;
}

(** {2 Configuration} *)

val set_sample_every : int -> unit
(** Head-sample 1 op in [n]; [n <= 0] disables head sampling (the
    default). *)

val set_slow_threshold_ns : int -> unit
(** Capture ops slower than this into the slow-op ring; negative
    disables tail capture (the default). [0] captures every op. *)

val set_ring_capacity : int -> unit
(** Resize (and clear) the op-trace ring, in spans (default 4096).
    @raise Invalid_argument if not positive. *)

val set_clock : (unit -> int) -> unit
(** Test hook: replace the monotonic nanosecond clock (global, all
    domains). Restore with [set_clock Rebal_harness.Timer.now_int_ns]. *)

(** {2 Recording} *)

val with_op : verb:string -> (unit -> 'a) -> 'a
(** Open a trace at the op boundary: applies the head-sampling
    decision, times [f], and — when sampled or slower than the tail
    threshold — draws a trace id and stores the op's tree. Exception
    safe. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run [f] as a child span of the calling thread's innermost open
    span; with none, [f] runs untraced. Nested calls nest. *)

val add_attr : string -> string -> unit
(** Append an attribute to the calling thread's innermost open span —
    for values known only once the phase has run ([removed], [moves]).
    A no-op outside a sampled op. *)

val active : unit -> bool
(** Whether the calling thread is inside a sampled op — lets a caller
    skip building span attributes nobody will record. *)

(** {2 Reading} *)

val traces : unit -> trace list
(** The op-trace ring, oldest first. *)

val slow_ops : unit -> slow_op list
(** The slow-op ring, oldest first. *)

val reset : unit -> unit
(** Clear both rings and the head-sampling phase. *)

(** {2 Rendering} *)

val duration_ns : span -> int64

val render_tree : span -> string
(** One line per span, [name {k=v ...}  duration], children indented
    two spaces under their parent. *)

val render_duration : int64 -> string
(** Human units, e.g. ["1.24ms"]. *)
