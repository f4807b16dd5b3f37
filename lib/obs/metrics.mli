(** The metrics registry: named counters, gauges and fixed-bucket
    histograms with labels.

    A metric handle is obtained once (a hashtable lookup in the current
    registry) and then mutated in place — the hot increment path
    ([Counter.inc], [Histogram.observe]) allocates nothing. Handles are
    identified by (name, canonically sorted labels); asking twice for the
    same identity returns the same handle, so instrumentation sites can
    re-fetch at every call without double counting.

    There is one process-global {!Registry.default}; tests and the bench
    harness isolate themselves with {!Registry.with_registry}, which
    scopes which registry handle-creation binds to.

    {b Concurrency contract.} Registry {e structure} is domain-safe: a
    per-registry mutex guards handle registration ({!counter}, {!gauge},
    {!histogram}), {!Registry.metrics}, {!Registry.clear},
    {!Registry.register_collector} and the structural half of {!merge},
    so several domains may register into the same registry concurrently.
    The "current registry" is domain-local ({!Registry.with_registry}
    scopes only the calling domain; fresh domains start on
    {!Registry.default}). Handle {e mutation} ([Counter.inc],
    [Gauge.set], [Histogram.observe]) is deliberately unsynchronized to
    keep the hot path zero-cost: confine each handle's writers to one
    thread at a time — the pattern the cluster uses is one registry per
    shard, written only under that shard's lock, {!merge}d into an
    exposition registry on export. A reader ({!Registry.metrics},
    {!merge}) racing a confined writer sees word-atomic values (no
    tearing), but cross-field invariants (a histogram's sum vs its
    buckets) may be mid-update; that is acceptable for monitoring reads
    and never corrupts the registry. *)

type labels = (string * string) list

type counter
type gauge
type histogram

type kind =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type metric = {
  name : string;
  labels : labels;  (** canonically sorted *)
  help : string;
  kind : kind;
}

module Registry : sig
  type t

  val create : unit -> t

  val default : t
  (** The process-global registry, current unless scoped otherwise. *)

  val current : unit -> t
  (** The calling domain's current registry (domain-local; fresh domains
      start on {!default}). *)

  val with_registry : t -> (unit -> 'a) -> 'a
  (** Make [t] the current registry for the call (exception-safe). The
      redirection is domain-local: other domains are unaffected. *)

  val register_collector : t -> (unit -> unit) -> unit
  (** Register a callback run by {!metrics} before snapshotting — the
      hook for exporting externally-held state (e.g. engine counters)
      into gauges at exposition time instead of on every event. *)

  val clear : t -> unit
  (** Drop all metrics and collectors. Existing handles keep working but
      are no longer reachable from the registry. *)

  val metrics : t -> metric list
  (** Run the collectors, then snapshot all metrics in registration
      order. *)
end

val counter : ?registry:Registry.t -> ?help:string -> ?labels:labels -> string -> counter
(** Find or create. [registry] defaults to [Registry.current ()].
    @raise Invalid_argument on an invalid name or if the identity is
    already registered as a different kind. *)

val gauge : ?registry:Registry.t -> ?help:string -> ?labels:labels -> string -> gauge

val histogram :
  ?registry:Registry.t ->
  ?help:string ->
  ?labels:labels ->
  ?buckets:float array ->
  string ->
  histogram
(** [buckets] are strictly increasing finite upper bounds (default:
    latency buckets 1 µs .. 1 s); an implicit +Inf bucket is appended.
    The bucket array is ignored when the histogram already exists. *)

module Counter : sig
  type t = counter

  val inc : t -> unit
  val add : t -> int -> unit
  (** @raise Invalid_argument on a negative increment. *)

  val set : t -> int -> unit
  (** For collectors mirroring an externally-maintained monotone count. *)

  val value : t -> int
end

module Gauge : sig
  type t = gauge

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t = histogram

  val observe : t -> float -> unit
  (** Count [x] into the first bucket with [x <= upper] (the +Inf bucket
      if none) and add it to the sum. *)

  val observe_ns : t -> int64 -> unit
  (** Observe a nanosecond duration as seconds. *)

  val observations : t -> int
  val sum : t -> float

  val buckets : t -> (float * int) list
  (** Per-bucket (upper bound, count) pairs, non-cumulative; the last
      upper bound is [infinity]. *)
end

val register_build_info :
  ?registry:Registry.t -> ?clock:(unit -> float) -> version:string -> unit -> unit
(** Register the standard build metadata series:
    [rebal_build_info{ocaml,version}] (always 1) and a collector-driven
    [rebal_uptime_seconds] counting from this call. [registry] defaults
    to [Registry.current ()]; [clock] (default [Unix.gettimeofday])
    is injectable for tests. Both expositions pick the series up like
    any other registry member. *)

val merge : into:Registry.t -> Registry.t -> unit
(** Fold the source registry's values into [into]: counters add,
    histograms (with identical buckets) add bucket-wise, gauges take the
    source's value. Metrics absent from [into] are created. Merging
    registries that observed disjoint event streams yields the same
    counts as observing both streams into one registry.
    @raise Invalid_argument on kind or bucket mismatches. *)
