(** The [rebalance serve] daemon as a library, built from one validated
    {!config} record.

    {!create} checks the flags and builds the serving target — one
    engine, a sharded {!Rebal_online.Cluster} (with [domains] session
    domains), or a cluster under {!Rebal_online.Supervisor} — resuming
    every shard from its journal when one exists, and wires the
    telemetry store and alert rules. {!run} serves the line protocol on
    stdin/stdout, or through {!Server} on a TCP port or a Unix domain
    socket, until the input ends, a client sends [SHUTDOWN], or
    SIGTERM/SIGINT arrives; then it runs the finalizer ({!close}).

    With [domains = D > 0], {!Server} accepts on [D] domains, each under
    the cluster's registry for it, and runs each socket session on the
    domain that accepted it; at [D = 0] sessions run on the main domain.
    Every thread that touches a single
    engine — sessions, the telemetry sampler, a metrics scrape — runs
    under one operation lock; a cluster, supervised or not, takes none,
    at any domain count, since each of its shards is guarded by its own
    lock and its directory, weights and health by the directory lock.
    Blocking reads happen outside the lock, so an idle session never
    starves the others. *)

module Journal = Rebal_obs.Journal

(** One field per [serve] flag, same names and defaults. *)
type config = {
  procs : int;
  shards : int;
  socket : string option;
  domains : int;
  tcp : int option;
  auto_events : int option;
  auto_imbalance : float option;
  auto_seconds : float option;
  auto_k : int;
  metrics_file : string option;
  journal : string option;
  journal_format : Journal.format;
  supervise : bool;
  evac_budget : int option;
  trace_sample : int;
  trace_slow_ms : float;
  telemetry_interval : float option;
  telemetry_out : string option;
  alert_rules : string option;
}

val default : config

val validate : config -> (unit, string) result
(** The flag checks that need no I/O, first failure wins; the message
    is what [serve] prints after ["error: "]. *)

type t

val create : config -> (t, string) result
(** {!validate}, then resume or create the journals (refusing one
    recorded over another processor count), build the target, open
    the telemetry output and load the alert rules (refusing an
    unreadable, malformed or empty file); a file that cannot be opened
    is an [Error] too. Sets the process-wide tracing knobs and the GC's
    [space_overhead] (80, where the runtime's default is 120). Logs each
    resumed journal and the loaded rules on stderr. On [Error]
    everything opened so far is released. *)

val target : t -> Rebal_online.Protocol.target

val run :
  ?io:in_channel * out_channel -> ?on_listen:(Unix.sockaddr -> unit) -> t -> (unit, string) result
(** Serve until stopped, then {!close}. Without [tcp] or [socket], one
    session on [io] (default stdin/stdout). With either, print the
    [rebalance serve: listening on ...] line, call [on_listen] with the
    bound address and serve concurrent sessions; on TCP a connection
    that opens with an HTTP request gets the scrape routes instead.
    SIGTERM/SIGINT stop the server — the handler takes no lock, since
    it may run on any thread of any domain — and live sessions drain
    for up to 5 s; in stdin mode they end the session. The previous
    signal handlers are restored on return. [Error] only when the
    address cannot be bound. *)

val close : t -> unit
(** The finalizer, in order: stop the sampler, write a final snapshot
    into the journals, dump the metrics file, shut the cluster down,
    close the journal and telemetry channels, unlink the socket.
    Idempotent. *)

val telemetry :
  ?sink:Journal.sink ->
  ?rules:string ->
  meta:(string * Journal.json) list ->
  Rebal_online.Protocol.target ->
  (Rebal_obs.Tsdb.t * Rebal_obs.Alerts.t option, string) result
(** The time-series store over the target's metrics and, given a rules
    file, the alert engine over it, both journaling to [sink]; turns the
    engine latency histograms on. [Error] when the rules file cannot be
    read, does not parse, holds no rule or repeats a name. [serve] ticks
    the pair on a timer, [chaos-serve] once per driven step. *)
