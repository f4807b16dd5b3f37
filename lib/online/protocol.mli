(** The line-delimited command protocol spoken by [rebalance serve].

    Requests, one per line, case-insensitive verbs:
    {v
    ADD <id> <size>      place a new job
    REMOVE <id>          retire a job
    RESIZE <id> <size>   change a job's size
    REBALANCE <k>        run a bounded-move repair pass
    STATS                one-line engine telemetry
    SHARDS               per-shard telemetry (sharded serve only)
    HEALTH               per-shard health and failover counters (supervised serve only)
    SNAPSHOT             write a state snapshot into the journal(s)
    METRICS              Prometheus text exposition of the metrics registry
    JOURNAL [<n>]        tail of the flight-recorder journal (default 10)
    TRACES [<n>]         span trees of the last n slow ops (default 10)
    ALERTS               alert rule states and transitions (telemetry serve only)
    TSDB <series> [<w>]  windowed time-series points (telemetry serve only)
    HELP                 list the commands
    QUIT                 end this client session
    SHUTDOWN             end this client session and stop the daemon
    v}

    Responses stream back one event per line: [PLACED]/[REMOVED]/[RESIZED]
    acknowledge single-job events and carry the current makespan; each
    relocation performed by a repair pass (manual or trigger-fired) is a
    [MOVE <id> <src> <dst>] line followed by a [REBALANCED] summary;
    malformed or inapplicable requests get [ERR <reason>] without
    disturbing the engine. Argument validation happens at parse time —
    a non-positive [ADD]/[RESIZE] size or a negative [REBALANCE] budget
    is a protocol error (prefixed ["line %d:"] when the daemon supplies
    the session line number), not an engine error. [METRICS] exports the
    live counters into the current metrics registry and streams the
    Prometheus text exposition, terminated by a literal [# EOF] line so
    clients know where the multi-line reply ends; a sharded serve
    exports one series per shard carrying a [shard="<i>"] label plus
    [rebal_cluster_*] aggregates. [SNAPSHOT] writes the current engine
    state into the attached journal(s) — the compaction point [compact]
    truncates to. [JOURNAL n] streams the last [n] flight-recorder lines
    (per shard, under [# shard <i>] markers, when sharded), framed by
    the same [# EOF]. [TRACES n] streams the causal span trees of the
    last [n] ops captured by the slow-op ring (see
    [Rebal_obs.Optrace]): per op a [# trace <id> verb=<v> duration=<d>]
    header, then one indented line per span, [# EOF] framed. A span
    whose records were evicted shows [# spans evicted] — truncation is
    visible, never silent. Blank lines and lines starting with [#] are
    ignored. The module is pure string-in/strings-out so the daemon loop
    and the tests share one implementation.

    A supervised serve ({!Supervised}) extends the replies
    {e append-only}: [STATS] gains health and failover counters after
    the cluster fields, each [SHARD] line gains [health=... weight=...],
    the [READY] banner gains [serving=<n>], and [HEALTH] answers a
    summary line plus one [HEALTH <i> <state> weight=... jobs=...] line
    per shard. Mutations are routed through the supervisor's watchdog
    and degraded-mode guards, so an op touching a job stranded on a
    down shard gets an [ERR] instead of reaching the dead engine. *)

type command =
  | Add of { id : string; size : int }
  | Remove of string
  | Resize of { id : string; size : int }
  | Rebalance of int
  | Stats
  | Shards_info
  | Health
  | Snapshot_now
  | Metrics_dump
  | Journal_tail of int
  | Traces of int
  | Alerts_status
  | Tsdb_query of { selector : string; window_s : float }
  | Help
  | Quit
  | Shutdown

type verdict =
  | Continue  (** keep reading commands *)
  | Close  (** end this client session *)
  | Stop  (** end the session and shut the daemon down *)

(** What the protocol operates: one engine, a sharded {!Cluster}, or a
    cluster under health supervision. [Cluster] and [Parallel] carry
    the same runtime and answer identically; [rebalance serve] builds
    only [Cluster]. A cluster with worker domains adds [domains=<d>] to
    the [READY] banner and [rebal_cluster_domains] plus the per-worker
    latency histograms to [METRICS], and is safe to drive from many
    sessions concurrently — every command is routed through the
    cluster's owner-domain mailboxes. An inline cluster (no worker
    domains) and a supervised target need their callers serialized. *)
type target =
  | Single of Engine.t
  | Cluster of Cluster.t
  | Supervised of Supervisor.t
  | Parallel of Cluster.t

val cluster_of : target -> Cluster.t option
(** The cluster underneath a sharded target (supervised or not);
    [None] for {!Single}. *)

val parse : string -> (command option, string) result
(** [Ok None] for blank/comment lines; [Error] explains a malformed
    request. Sizes must be positive and budgets non-negative — rejected
    here, before any engine is touched. *)

val execute : target -> command -> string list
(** Response lines for one command (never raises on user input). *)

val handle_line : ?line:int -> target -> string -> string list * verdict
(** [parse] + [execute], turning parse errors into [ERR] lines —
    prefixed ["line %d:"] when [line] (the 1-based session line number)
    is given. This is the op boundary: every parsed command runs under
    [Rebal_obs.Optrace.with_op] (head sampling plus slow-op tail
    capture) and lands one observation in the
    [rebal_session_latency_seconds{verb=...}] histogram of the calling
    thread's current registry. *)

val handle_lines : ?start_line:int -> target -> string list -> string list * verdict
(** {!handle_line} over a pipeline of lines, coalescing runs of
    consecutive mutating commands (ADD / REMOVE / RESIZE) into one
    [Engine.apply_bulk] (a {!Single} target) or [Cluster.apply_bulk]
    (a cluster target) call — one dispatch and one journal flush per
    run instead of per line. Replies come back in line order and are
    identical to the one-by-one path, except that a cluster's
    [makespan=] fields report the value as of the end of the op's
    chunk; a run of a single mutation takes exactly the unbatched path
    (same per-verb latency series), while a genuine pipeline runs under
    one [BATCH] span and one [verb="batch"] latency observation.
    {!Supervised} targets process every line individually (the
    watchdog times each op). Processing stops at the
    first [QUIT]/[SHUTDOWN]; the returned verdict is that command's.
    [start_line] (default 1) numbers the first line for [ERR]
    prefixes. *)

val verb_name : command -> string
(** Lowercase metric-label name of a command ([add], [traces], ...). *)

val export_metrics : Engine.t -> unit
(** Export one engine's live stats into the current metrics registry as
    gauges and counters (idempotent — uses set, not add). *)

val export_target : target -> unit
(** {!export_metrics} for a whole target: a cluster exports per-shard
    series labeled [shard="<i>"] plus [rebal_cluster_*] aggregates.
    [METRICS] replies and the daemon's [--metrics-file] dump both run
    this before rendering through [Rebal_obs.Expo]. *)

val metrics_registry : target -> Rebal_obs.Metrics.Registry.t
(** The registry a metrics reply renders: for a cluster target a fresh
    registry holding the exported aggregates plus the cluster's owner
    registries and the default registry merged in (fresh each call —
    merging into a reused registry would double count); for {!Single}
    the current registry after {!export_target}. *)

val metrics_lines : target -> string list
(** The [METRICS] reply: {!metrics_registry} rendered as Prometheus
    text line by line, terminated by ["# EOF"]. Also used by the
    daemon's [--metrics-file] dump. *)

val metrics_text : target -> string
(** {!metrics_registry} rendered as one Prometheus text blob (no
    [# EOF] trailer) — the body of the HTTP [GET /metrics] scrape. *)

val traces_lines : target -> int -> string list
(** The [TRACES n] reply (see the header). Worker-domain spans are
    collected on the workers via [Cluster.recorded_spans]; a shut-down
    cluster contributes none rather than raising. *)

val greeting : target -> string
(** The [READY ...] banner sent when a session opens. *)

val set_telemetry : ?alerts:Rebal_obs.Alerts.t -> Rebal_obs.Tsdb.t -> unit
(** Register the daemon's time-series store (and rule engine, if rules
    were loaded) as the backing for the [ALERTS] / [TSDB] verbs and the
    HTTP [/alerts] / [/tsdb] routes. Process-global, like the
    [Rebal_obs.Optrace] knobs: the daemon owns one telemetry pipeline.
    Without it both verbs answer [ERR telemetry not enabled]. *)

val clear_telemetry : unit -> unit

val alerts_status_lines : unit -> string list
(** The [ALERTS] reply ([# EOF]-framed; an [ERR] line when telemetry or
    rules are absent). Shared with the HTTP [/alerts] route. *)

val tsdb_query_lines : selector:string -> window_s:float -> string list
(** The [TSDB] reply, same contract. *)
