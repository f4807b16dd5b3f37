(** The multi-client socket front-end (TCP or Unix domain): an accept
    loop handing each connection to its own session thread.

    Sessions speak whatever line protocol the [session] callback
    implements — the daemon passes {!Rebal_online.Protocol} sessions,
    so each connection gets the [READY] banner, per-session line
    numbering for [ERR], and free pipelining (a client may write many
    commands before reading; replies come back in order on its own
    connection because the session thread processes its input
    sequentially).

    Concurrency model: each session is a systhread started by the
    [spawn] function {!run} is given — the daemon passes the cluster's
    [Cluster.spawn], so sessions spread over its hosting domains and
    run their shard work themselves, under shard locks. The server
    itself assumes the target behind [session] is safe to drive from
    many threads ({!Daemon} serializes a single engine's sessions
    under its operation lock).

    Shutdown: a session returning [Stop] (the [SHUTDOWN] verb) stops
    the accept loop, as does the daemon's SIGTERM handler by raising in
    the accepting thread; {!drain} then waits out live sessions for a
    grace period and shuts down the sockets of any stragglers — reusing
    the daemon's ordinary finalizer path (final snapshot, metrics dump,
    cluster shutdown) after it returns. *)

type t

val create : ?backlog:int -> addr:Unix.sockaddr -> unit -> t
(** Bind (with [SO_REUSEADDR]) and listen. Raises [Unix.Unix_error]
    if the address is unavailable. *)

val bound_addr : t -> Unix.sockaddr
(** The actual listening address — useful with port 0. *)

val run :
  t ->
  spawn:((unit -> unit) -> unit) ->
  session:(in_channel -> out_channel -> Rebal_online.Protocol.verdict) ->
  unit
(** Accept until stopped. Each connection runs [session] on its own
    thread, started by [spawn]; a session's exceptions end only that
    session, and a connection [spawn] refuses (by raising) is closed.
    Returns once a session answered [Stop]; live sessions may still be
    running — follow with {!drain}. *)

val drain : ?grace:float -> t -> unit
(** Stop accepting new connections (idempotent, callable from any
    thread), wait up to [grace] seconds (default 5) for live
    sessions to finish, force-shutdown the sockets of any that
    remain, and close the listener. *)
