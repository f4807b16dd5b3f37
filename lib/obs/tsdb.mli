(** A fixed-memory in-process time-series store.

    A sampler snapshots every metric of a registry (counters, gauges,
    and histograms — the latter flattened into cumulative
    [<name>_bucket{le=...}] / [<name>_sum] / [<name>_count] series, the
    exact shape the Prometheus exposition uses) at a configurable
    cadence into bounded rings. Three downsampling tiers bound memory
    while keeping history: every sample lands in the raw ring, every 10
    raw samples are aggregated into one mid-tier point and every 60
    into one coarse point, so with the default capacities a 1 s
    interval retains 10 minutes raw, 100 minutes at 10 s and 10 hours
    at 1 min. An aggregated point keeps last/min/max/sum/samples, so
    counter deltas are conserved exactly across tiers (the [last] of a
    block is the counter's cumulative value) and gauge min/max/avg
    survive downsampling.

    Windowed queries ({!window}, {!quantile}, {!eval}) read a
    multi-resolution view: coarse points for the part of the window
    older than the mid ring's reach, mid points up to the raw ring's
    reach, raw points for the newest part — no sample is counted
    twice. Quantiles over a window are computed from histogram bucket
    deltas (cumulative count at window end minus window start), i.e.
    the quantile of what was observed {e during} the window, not since
    process start.

    The optional JSONL persistence sink reuses the {!Journal} machinery
    (seq numbers, injectable clock, resilient fail-open writes): one
    ["sample"] event per tick carrying every scalar series, so
    telemetry survives the process and [rebalance postmortem] can join
    it with the op journals.

    Concurrency: every operation takes an internal lock; {!sample} is
    expected to run on one telemetry thread while sessions issue
    queries concurrently. *)

type point = {
  at_ns : int;  (** timestamp of the newest raw sample merged in *)
  last : float;
  min : float;
  max : float;
  sum : float;  (** sum of the raw sampled values *)
  samples : int;  (** raw samples merged into this point *)
}

type stats = {
  s_points : int;  (** points in the window *)
  s_first_ns : int;
  s_last_ns : int;
  s_first : float;
  s_last : float;
  s_min : float;
  s_max : float;
  s_avg : float;  (** sample-weighted mean *)
  s_delta : float;  (** last - first *)
  s_rate : float;  (** delta per second over the observed span; 0 on one point *)
}

type t

val create :
  ?raw_capacity:int ->
  ?mid_capacity:int ->
  ?coarse_capacity:int ->
  ?clock_ns:(unit -> int64) ->
  ?sink:Journal.sink ->
  ?meta:(string * Journal.json) list ->
  source:(unit -> Metrics.metric list) ->
  unit ->
  t
(** [source] is called once per {!sample} — typically a thunk building
    the merged exposition registry and snapshotting it. Capacities
    default to 600 points per tier. [clock_ns] defaults to the
    monotonic [Rebal_harness.Timer.now_ns]. When [sink] is given the
    telemetry header ([journal = "rebal-telemetry"], with [meta]) is
    written immediately and every tick appends one ["sample"] event.
    @raise Invalid_argument if a capacity is < 2. *)

val sample : t -> unit
(** Take one snapshot of [source] now. *)

val samples_taken : t -> int

val last_sample_ns : t -> int
(** Timestamp of the latest tick (0 before the first). Windowed
    queries anchor their window end here, which makes them
    deterministic under an injected clock. *)

val series_list : t -> (string * Metrics.labels) list
(** Every series seen so far, in first-seen order. *)

val points :
  t -> ?labels:Metrics.labels -> window_s:float -> string -> point list
(** The multi-resolution points covering the trailing window, oldest
    first; [] for an unknown series. *)

val window :
  t -> ?labels:Metrics.labels -> window_s:float -> string -> stats option
(** Aggregate the window's points; [None] for an unknown or empty
    series. *)

val quantile :
  t -> ?labels:Metrics.labels -> q:float -> window_s:float -> string -> float option
(** The [q]-quantile (nearest-rank over bucket deltas) of histogram
    [name] over the trailing window: the upper bound of the first
    bucket whose cumulative in-window count reaches [q] of the total
    (possibly [infinity]). [None] if the histogram is unknown or
    nothing was observed in the window.
    @raise Invalid_argument unless [0 <= q <= 1]. *)

(** {2 Selectors, durations and query functions}

    The little expression language shared by alert rules, the [TSDB]
    protocol verb and [GET /tsdb]. *)

val parse_selector : string -> (string * Metrics.labels, string) result
(** [name] or [name{k="v",...}] (labels end up canonically sorted). A
    value takes the [METRICS] escapes for a quote, a backslash and a
    newline. *)

val selector_string : string -> Metrics.labels -> string
(** The inverse of {!parse_selector}, rendered as [METRICS] renders a
    series ({!Expo.label_set}). *)

val parse_duration : string -> (float, string) result
(** Seconds from ["250ms"], ["30s"], ["5m"], ["1h"] or a bare number
    (seconds). Must be finite and >= 0. *)

val duration_string : float -> string

type func =
  | Value  (** last sampled value (window ignored) *)
  | Rate
  | Delta
  | Avg
  | Min
  | Max
  | Quantile of float  (** over a histogram's bucket deltas *)

val func_of_string : string -> (func, string) result
(** [value], [rate], [delta], [avg], [min], [max] or [p50] / [p99] /
    [p99.9] (quantile as a percentile). *)

val func_name : func -> string

val eval :
  t -> func -> ?labels:Metrics.labels -> window_s:float -> string -> float option
(** Apply a query function to the trailing window. For {!Quantile} the
    [name] is the histogram base name (no [_bucket] suffix). *)

(** {2 Rendering} *)

val render_lines :
  t -> selector:string -> window_s:float -> (string list, string) result
(** The [TSDB] verb reply body: a [SERIES ...] summary line followed by
    one [POINT at_ns=... last=... min=... max=... avg=... samples=...]
    line per in-window point (no [# EOF] trailer). [Error] on a
    malformed selector; an unknown series yields [points=0]. *)

val render_json :
  t -> selector:string -> window_s:float -> (string, string) result
(** The same data as a JSON object — the [GET /tsdb] response body. *)
