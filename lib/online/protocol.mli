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
    header, then one indented line per span, [# EOF] framed. An op
    whose tree was evicted from the op-trace ring shows
    [# spans evicted] — truncation is visible, never silent. Blank lines and lines starting with [#] are
    ignored. The module is pure string-in/strings-out so the daemon loop
    and the tests share one implementation.

    A supervised cluster ({!Supervisor}) extends the replies
    {e append-only}: [STATS] gains health and failover counters after
    the cluster fields, each [SHARD] line gains [health=... weight=...],
    the [READY] banner gains [serving=<n>], and [HEALTH] answers a
    summary line plus one [HEALTH <i> <state> weight=... jobs=...] line
    per shard. Its mutations meet the cluster's watchdog and
    degraded-mode guard, so an op touching a job stranded on a down
    shard gets an [ERR] instead of reaching the dead engine.

    Below the parser a mutation is an [Engine.op]: an [ADD], [REMOVE]
    or [RESIZE] becomes one, and the target's one per-op function
    ([Engine.apply] or [Cluster.apply]) or its batch function applies
    it. The parser reads a line by index, in
    place, and builds a pipelined run's [Engine.op] array directly. One
    renderer writes every reply with [Buffer] writes — the
    [PLACED]/[REMOVED]/[RESIZED] acknowledgements, automatic [MOVE] and
    [REBALANCED] lines and [ERR] — for both paths. [METRICS] also
    exports the process's GC counters ([rebal_gc_*], from
    [Gc.quick_stat] at render time). *)

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

(** What the protocol operates: one engine or a sharded {!Cluster}.
    [Cluster], [Supervised] and [Parallel] carry the same [Cluster.t]
    and answer identically: the health parts of the replies appear
    when the cluster carries a supervision policy, and a cluster with
    session domains adds [domains=<d>] to the [READY] banner and
    [rebal_cluster_domains] to [METRICS]. A cluster, supervised or not,
    at any domain count, is safe to drive from many sessions
    concurrently; a single engine needs its callers serialized. *)
type target =
  | Single of Engine.t
  | Cluster of Cluster.t
  | Supervised of Supervisor.t
  | Parallel of Cluster.t

val cluster_of : target -> Cluster.t option
(** The cluster of a sharded target; [None] for {!Single}. *)

val parse : string -> (command option, string) result
(** [Ok None] for blank/comment lines; [Error] explains a malformed
    request. Sizes must be positive and budgets non-negative — rejected
    here, before any engine is touched. *)

val handle_line : ?line:int -> target -> string -> string list * verdict
(** [parse], then the response lines for the command (never raises on
    user input), turning parse errors into [ERR] lines —
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
    (a cluster target, whose watchdog, when supervised, times each
    chunk per shard) call — one dispatch and one journal flush per
    shard per run instead of per line. Replies come back in line order
    and are identical to the one-by-one path, except that a cluster's
    [makespan=] fields report the value as of the end of the op's
    chunk; a run of a single mutation takes exactly the unbatched path
    (same per-verb latency series), while a genuine pipeline runs under
    one [BATCH] span and one [verb="batch"] latency observation.
    Processing stops at the
    first [QUIT]/[SHUTDOWN]; the returned verdict is that command's.
    [start_line] (default 1) numbers the first line for [ERR]
    prefixes. *)

val handle_lines_into : ?start_line:int -> target -> Buffer.t -> string list -> verdict
(** {!handle_lines}, with every reply line appended to the buffer, each
    ended by ['\n']: the renderer the daemon session uses, writing into
    one buffer it owns and writes once per round. {!handle_line} and
    {!handle_lines} render into a fresh buffer and split it into lines. *)

val metrics_registry : target -> Rebal_obs.Metrics.Registry.t
(** The registry a metrics reply renders. The target's live stats are
    first exported as gauges and counters (idempotent — set, not add):
    a cluster exports per-shard series labeled [shard="<i>"] plus
    [rebal_cluster_*] aggregates into a fresh registry, and the
    cluster's shard and session-domain registries and the default
    registry are merged in (fresh each call — merging into a reused
    registry would double count); {!Single} exports into the current
    registry and returns it. *)

val metrics_lines : target -> string list
(** The [METRICS] reply: {!metrics_registry} rendered as Prometheus
    text line by line, terminated by ["# EOF"]. Also used by the
    daemon's [--metrics-file] dump. *)

val metrics_text : target -> string
(** {!metrics_registry} rendered as one Prometheus text blob (no
    [# EOF] trailer) — the body of the HTTP [GET /metrics] scrape. *)

val greeting : target -> string
(** The [READY ...] banner sent when a session opens. *)

val set_telemetry : ?alerts:Rebal_obs.Alerts.t -> Rebal_obs.Tsdb.t -> unit
(** Register the daemon's time-series store (and rule engine, if rules
    were loaded) as the backing for the [ALERTS] / [TSDB] verbs and the
    HTTP [/alerts] / [/tsdb] routes. Process-global, like the
    [Rebal_obs.Optrace] knobs: the daemon owns one telemetry pipeline.
    Without it both verbs answer [ERR telemetry not enabled]. *)

val clear_telemetry : unit -> unit
