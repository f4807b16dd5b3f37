(** Monotonic time measurement. [time] backs the one-shot timings in the
    experiment tables; [now_ns] is the timestamp source for observability
    spans and latency histograms. Both read CLOCK_MONOTONIC, so elapsed
    values are immune to NTP adjustments and wall-clock steps (for
    statistically careful micro-benchmarks the bench executable uses
    Bechamel on the same clock). *)

val now_ns : unit -> int64
(** Nanoseconds on the monotonic clock. Only differences are meaningful;
    the epoch is unspecified (typically boot time). *)

val now_int_ns : unit -> int
(** {!now_ns} as an immediate [int]: a read allocates nothing. *)

val ns_to_s : int64 -> float
(** Nanoseconds to seconds. *)

val time : (unit -> 'a) -> 'a * float
(** Result and elapsed seconds (monotonic). *)

val time_median : ?repeats:int -> (unit -> 'a) -> 'a * float
(** Run [repeats] times (default 5) and report the median elapsed
    seconds of the runs together with the last result. *)
