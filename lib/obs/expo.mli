(** Exposition formats for a metrics registry. Both snapshots run the
    registry's collectors first (via [Metrics.Registry.metrics]). *)

val prometheus : Metrics.Registry.t -> string
(** Prometheus text exposition: [# HELP] / [# TYPE] headers per metric
    family, one sample line per label set; histograms expose cumulative
    [_bucket{le=...}] series plus [_sum] and [_count]. *)

val json : Metrics.Registry.t -> string
(** One JSON object [{"metrics": [...]}], rendered by
    {!Journal.render_json}; histogram buckets are non-cumulative with
    ["le"] rendered as a string (["+Inf"] for the overflow bucket). A
    non-finite gauge value or histogram sum renders as [null]. *)

val fmt_le : float -> string
(** A bucket upper bound as Prometheus renders it (["+Inf"] for
    [infinity]) — exposed for tests and custom renderers. *)

(** {2 Parsing the text format back}

    The inverse of {!prometheus}, for consumers of a scrape — the
    [rebalance top] subcommand and the round-trip tests. *)

type sample = {
  sample_name : string;
  sample_labels : (string * string) list;
      (** canonical (sorted) order, escapes decoded *)
  value : float;
}

val parse : string -> (sample list, string) result
(** One {!sample} per non-comment, non-blank line. Decodes the label
    escapes {!prometheus} emits (backslash, quote, newline); label
    values may contain spaces. [Error] names the offending sample
    line. *)

val label_set : (string * string) list -> string
(** [{k="v",...}] with the label-value escapes {!prometheus} uses
    (backslash, quote, newline), or [""] for no labels. *)

val parse_labels : string -> ((string * string) list, string) result
(** The inverse of {!label_set} on the text between the braces: pairs in
    the order written, escapes decoded. *)

val find_sample : sample list -> string -> (string * string) list -> sample option
(** Lookup by name and label set (any label order). *)

(** {2 The single dump entry point}

    [rebalance profile --out], the serve daemon's [--metrics-file] dump
    and any other metric snapshot all route through {!write} /
    {!to_file} instead of hand-rolling channel plumbing. *)

type format = Prometheus | Json

val render : format -> Metrics.Registry.t -> string

val write : ?trailer:string -> format -> out_channel -> Metrics.Registry.t -> unit
(** Render, terminate with a newline if missing, append [trailer] on its
    own line if given (the serve dump uses ["# EOF"]), and flush. *)

val to_file : ?trailer:string -> format -> path:string -> Metrics.Registry.t -> (unit, string) result
(** {!write} to a fresh file, mapping [Sys_error] to [Error]. *)
