module Protocol = Rebal_online.Protocol
module Metrics = Rebal_obs.Metrics

type t = {
  sock : Unix.file_descr;
  (* Set once, without a lock: a signal handler may request the stop
     on a thread that holds [mu]. *)
  stopping : bool Atomic.t;
  (* Set by [drain] before it shuts any session's read side down. *)
  draining : bool Atomic.t;
  mu : Mutex.t;
  mutable live : Unix.file_descr list;  (* fds of active sessions *)
  mutable sessions : int;
  mutable acceptors : unit Domain.t list;  (* started by [run], joined by [drain] *)
}

let create ?(backlog = 64) ~addr () =
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock addr;
     Unix.listen sock backlog
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  {
    sock;
    stopping = Atomic.make false;
    draining = Atomic.make false;
    mu = Mutex.create ();
    live = [];
    sessions = 0;
    acceptors = [];
  }

let bound_addr t = Unix.getsockname t.sock

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let session_count t = locked t (fun () -> t.sessions)
let draining t = Atomic.get t.draining

let stop t =
  if Atomic.compare_and_set t.stopping false true then
    (* shutdown, not close: closing an fd other threads are blocked in
       accept(2) on does not reliably wake them; shutdown makes every
       accept fail at once (EINVAL on Linux). The fd itself is closed at
       the end of [drain]. *)
    try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let register t fd =
  locked t (fun () ->
      t.live <- fd :: t.live;
      t.sessions <- t.sessions + 1)

let unregister t fd =
  locked t (fun () ->
      t.live <- List.filter (fun f -> f != fd) t.live;
      t.sessions <- t.sessions - 1)

(* One connection: channels over the fd, the protocol session, then
   close. [close_out] flushes and closes the shared fd; the input
   channel must not be closed as well (double close). A session that
   dies however it likes — EOF, broken pipe, an exception — ends only
   itself. *)
let handle t session fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let verdict = try session ic oc with _ -> Protocol.Close in
  (try close_out oc with Sys_error _ -> ());
  unregister t fd;
  if verdict = Protocol.Stop then stop t

(* The accept loop, the same on every domain that runs it: each
   connection gets a systhread on the accepting domain. *)
let accept_loop t session =
  let rec loop () =
    if not (Atomic.get t.stopping) then
      match Unix.accept t.sock with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.EINVAL | Unix.EBADF | Unix.ECONNABORTED), _, _) ->
        () (* listener shut down underneath us: a stop request *)
      | fd, _ ->
        register t fd;
        (match Thread.create (fun () -> handle t session fd) () with
        | (_ : Thread.t) -> ()
        | exception _ ->
          (* No thread to run the session: drop the connection. *)
          (try Unix.close fd with Unix.Unix_error _ -> ());
          unregister t fd);
        loop ()
  in
  loop ()

let run t ~domains ~session =
  if Array.length domains = 0 then accept_loop t session
  else begin
    (* A session still running after its domain's loop has ended
       records into the default registry, which exposition merges
       too. If a domain cannot be started, the ones that were are
       stopped (and [drain] joins them). *)
    Array.iter
      (fun registry ->
        match
          Domain.spawn (fun () ->
              Metrics.Registry.with_registry registry (fun () -> accept_loop t session))
        with
        | d -> t.acceptors <- d :: t.acceptors
        | exception e ->
          stop t;
          raise e)
      domains;
    (* Polled, not blocked on: a thread parked in a blocking wait never
       runs the OCaml signal handlers, and a SIGTERM must be able to
       land on this one. *)
    while not (Atomic.get t.stopping) do
      Thread.delay 0.02
    done
  end

let drain ?(grace = 5.0) t =
  stop t;
  (* Stop reading: a session blocked in read with nothing unread sees
     EOF and ends now. Bytes already received are still read first, and
     replies can still be written, so a session inside an op, or with
     lines waiting, finishes and replies before it sees the EOF. The
     flag goes up first, so every session that meets this EOF knows a
     line it was reading was cut by it, not ended by the client. *)
  Atomic.set t.draining true;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    (locked t (fun () -> t.live));
  (* Grace period: only a session that cannot deliver its replies (its
     client is not reading) is still here after that (OCaml's Condition
     has no timed wait, so this polls — drain is a once-per-process
     path, 20ms granularity is plenty). *)
  let deadline = Unix.gettimeofday () +. grace in
  while session_count t > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  (* Stragglers get their sockets shut down: their next read sees EOF,
     the session returns and its thread closes the fd itself. *)
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    (locked t (fun () -> t.live));
  let hard = Unix.gettimeofday () +. 1.0 in
  while session_count t > 0 && Unix.gettimeofday () < hard do
    Thread.delay 0.02
  done;
  (* Joining an acceptor domain waits for the session threads it
     started, so nothing of a session outlives [drain]. *)
  List.iter Domain.join t.acceptors;
  t.acceptors <- [];
  try Unix.close t.sock with Unix.Unix_error _ -> ()
