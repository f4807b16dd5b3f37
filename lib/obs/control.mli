(** The master switch for the per-operation latency histograms.

    Metric counters are plain field increments and always count; what
    this flag gates is the per-event latency histograms in the online
    engine and the simulators, which read a clock twice per operation.
    Disabled (the default), those paths cost one atomic load and a
    branch, which is what keeps the instrumented hot loops within the
    < 5% overhead budget; the serve daemon and the bench experiments
    and ladder that need timings switch it on at startup. Spans are
    gated separately, by {!Optrace}'s head sampling. The flag is
    process-global and atomic — setting it on one domain is observed by
    all; [with_enabled] save/restore is not scoped per domain, so treat
    it as a whole-process toggle. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run with the switch forced to the given value, restoring the
    previous value afterwards (exception-safe). *)
