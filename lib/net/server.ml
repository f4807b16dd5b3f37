module Protocol = Rebal_online.Protocol

type t = {
  sock : Unix.file_descr;
  mu : Mutex.t;
  mutable live : Unix.file_descr list;  (* fds of active sessions *)
  mutable sessions : int;
  mutable stopping : bool;
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
  { sock; mu = Mutex.create (); live = []; sessions = 0; stopping = false }

let bound_addr t = Unix.getsockname t.sock

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let stopping t = locked t (fun () -> t.stopping)
let session_count t = locked t (fun () -> t.sessions)

let request_stop t =
  let first =
    locked t (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          true
        end)
  in
  if first then
    (* shutdown, not close: closing an fd another thread is blocked in
       accept(2) on does not reliably wake it; shutdown makes the
       accept fail immediately (EINVAL on Linux). The fd itself is
       closed at the end of [drain]. *)
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
  if verdict = Protocol.Stop then request_stop t

let run t ~spawn ~session =
  let rec loop () =
    if stopping t then ()
    else
      match Unix.accept t.sock with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.EINVAL | Unix.EBADF | Unix.ECONNABORTED), _, _) ->
        () (* listener shut down underneath us: a stop request *)
      | fd, _ ->
        register t fd;
        (match spawn (fun () -> handle t session fd) with
        | () -> ()
        | exception _ ->
          (* No thread to run the session: drop the connection. *)
          (try Unix.close fd with Unix.Unix_error _ -> ());
          unregister t fd);
        loop ()
  in
  loop ()

let drain ?(grace = 5.0) t =
  request_stop t;
  (* Grace period: let in-flight sessions finish what they are doing
     (OCaml's Condition has no timed wait, so this polls — drain is a
     once-per-process path, 20ms granularity is plenty). *)
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
  try Unix.close t.sock with Unix.Unix_error _ -> ()
