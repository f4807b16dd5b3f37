(** The multi-client socket front-end (TCP or Unix domain): one accept
    loop, run on the calling thread or on [D] domains sharing the
    listener, handing each connection to its own session thread.

    Sessions speak whatever line protocol the [session] callback
    implements — the daemon passes {!Rebal_online.Protocol} sessions,
    so each connection gets the [READY] banner, per-session line
    numbering for [ERR], and free pipelining (a client may write many
    commands before reading; replies come back in order on its own
    connection because the session thread processes its input
    sequentially).

    Concurrency model: each session is a systhread on the domain that
    accepted its connection. With [D] acceptor domains all blocked in
    [accept(2)] on the one listener, the kernel's wake-up decides which
    domain takes a connection, so sessions spread over the domains
    without any round-robin bookkeeping here. The server assumes the
    target behind [session] is safe to drive from many threads
    ({!Daemon} serializes a single engine's sessions under its
    operation lock).

    Shutdown: a session returning [Stop] (the [SHUTDOWN] verb) or a
    {!stop} request — the daemon's SIGTERM handler makes one — ends
    every accept loop and returns {!run}; {!drain} then waits out live
    sessions for a grace period, shuts down the sockets of any
    stragglers and joins the acceptor domains, before the daemon's
    ordinary finalizer (final snapshot, metrics dump, cluster shutdown)
    runs. *)

type t

val create : ?backlog:int -> addr:Unix.sockaddr -> unit -> t
(** Bind (with [SO_REUSEADDR]) and listen. Raises [Unix.Unix_error]
    if the address is unavailable. *)

val bound_addr : t -> Unix.sockaddr
(** The actual listening address — useful with port 0. *)

val run :
  t ->
  domains:Rebal_obs.Metrics.Registry.t array ->
  session:(in_channel -> out_channel -> Rebal_online.Protocol.verdict) ->
  unit
(** Accept until stopped. With [domains = [||]] the accept loop runs on
    the calling thread; otherwise one acceptor domain per element, each
    running the loop under that metrics registry, while the calling
    thread waits for the stop. Each connection runs [session] on its
    own systhread on the accepting domain; a session's exceptions end
    only that session, and a connection no thread can be started for
    is closed. Returns once stopped; live sessions may still be
    running — follow with {!drain}, also when [run] raises (an acceptor
    domain that cannot be started stops the server and re-raises). *)

val stop : t -> unit
(** Request the stop: every accept loop ends and {!run} returns. Takes
    no lock, so a signal handler may call it on any thread;
    idempotent. *)

val drain : ?grace:float -> t -> unit
(** {!stop}, wait up to [grace] seconds (default 5) for live sessions
    to finish, force-shutdown the sockets of any that remain, join the
    acceptor domains (which waits for their session threads) and close
    the listener. Call it from the thread that called {!run}. *)
