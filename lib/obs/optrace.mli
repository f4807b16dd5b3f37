(** Span tracing: op traces with head sampling and tail capture, and
    the solvers' phase spans.

    Spans are {e flat records} with explicit
    [trace_id]/[span_id]/[parent_id] links: each domain records into
    its own bounded ring, every ring is registered in one global list,
    and {!assemble} stitches the flat records back into causal trees at
    exposition time. A protocol op's work runs on its session thread,
    one shard task after another (two, for a cross-shard move), and
    reads as one tree. The solvers' phase spans ([greedy.*],
    [m_partition.*], [engine.repair]) are ordinary {!with_span}
    children of whatever op is open; [rebalance profile] opens one op
    at sample-every-1 and renders its children.

    {b Sampling.} {!with_op} opens a trace at the op boundary. With head
    sampling at 1-in-N ({!set_sample_every}), every Nth op records its
    full span tree. Independently, ops slower than the tail threshold
    ({!set_slow_threshold_ns}) land in a bounded slow-op ring whether or
    not they were sampled — an unsampled slow op keeps only its root
    span, since the children were never recorded. With both knobs off
    (the default) [with_op] is [f ()] behind two atomic loads; while no
    thread is inside a sampled op, {!with_span} and {!add_attr} are
    [f ()] / a no-op behind one.

    {b Concurrency contract.} Span rings are per-domain (mutex-guarded,
    because the session systhreads of one domain share its ring); the
    slow-op ring and the id counters are global. The current trace
    context — the innermost open span — is keyed by
    [(domain, thread)], {e not} plain DLS, so concurrent sessions on
    one domain cannot leak context into one another. {!recorded} reads
    {e every} domain's ring, whichever domain calls it. *)

type span = {
  trace_id : int;
  span_id : int;  (** globally unique across domains *)
  parent_id : int;  (** [0] when the span is a trace root *)
  name : string;
  domain : int;  (** domain the span ran on *)
  start_ns : int64;
  mutable stop_ns : int64;
  mutable attrs : (string * string) list;  (** see {!add_attr} *)
}

type carrier = {
  trace : int;
  parent : int;
}
(** The calling thread's trace context: enough to parent a span into
    the open op's trace. A carrier exists only for sampled ops —
    presence is the sampling decision. *)

type slow_op = {
  slow_trace : int;
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
(** Resize (and clear) the {e calling} domain's span ring (default
    4096 spans). @raise Invalid_argument if not positive. *)

val set_slow_capacity : int -> unit
(** Resize (and clear) the global slow-op ring (default 256).
    @raise Invalid_argument if not positive. *)

val set_clock : (unit -> int64) -> unit
(** Test hook: replace the monotonic clock (global, all domains).
    Restore with [set_clock Rebal_harness.Timer.now_ns]. *)

(** {2 Recording} *)

val with_op : verb:string -> (unit -> 'a) -> 'a
(** Open a trace at the op boundary: allocates a trace id, applies the
    head-sampling decision, times [f], and — when sampled or slower
    than the tail threshold — records the root span (overwrites count
    into [rebal_trace_dropped_total{kind="op_span"}]; slow-ring
    overwrites under [kind="slow_op"]). Sets the current context for
    the duration of [f] so nested {!with_span} calls attach.
    Exception-safe. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Record a child span of the calling thread's current context; with
    none, [f] runs untraced. Sets the context for the duration of [f],
    so nesting works. *)

val add_attr : string -> string -> unit
(** Append an attribute to the calling thread's innermost open span —
    for values known only once the phase has run ([removed], [moves]).
    A no-op outside a sampled op. *)

val current_carrier : unit -> carrier option
(** The calling thread's context. [None] unless inside a sampled op. *)

(** {2 Collection and assembly} *)

val recorded : unit -> span list
(** Every domain's ring, each oldest first, concatenated. *)

val slow_ops : unit -> slow_op list
(** The global slow-op ring, oldest first. *)

val reset : unit -> unit
(** Clear every domain's ring, the slow-op ring, and the head-sampling
    phase. *)

type tree = {
  span : span;
  children : tree list;  (** in start order *)
}

val assemble : span list -> tree list
(** Stitch flat spans (from any number of domains) into trees, roots in
    start order. A span whose parent was evicted from a ring — or is
    missing entirely — is promoted to a root rather than dropped, so
    truncation is visible instead of silent. *)

val trees_for : trace_id:int -> tree list -> tree list

(** {2 Rendering} *)

val duration_ns : span -> int64
val pp_tree : Format.formatter -> tree -> unit
val render_tree : tree -> string

val render_duration : int64 -> string
(** Human units, e.g. ["1.24ms"]. *)
