(* Signal-safe line I/O over raw file descriptors.

   OCaml channels hide their buffer: there is no way to ask "is a
   complete line already buffered?", which the batched protocol session
   needs (it coalesces every already-arrived line into one
   [Protocol.handle_lines_into] call without ever blocking mid-batch).
   This reader owns its buffer, so [read_lines] takes exactly the lines
   already there and [has_line] is an exact, syscall-free answer — and
   every syscall in the module retries [EINTR] and waits
   out [EAGAIN]/[EWOULDBLOCK], so a SIGTERM landing mid-drain (or a
   socket with a receive timeout) never tears down a session that the
   peer has not actually closed. *)

type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int; (* first unconsumed byte *)
  mutable len : int; (* unconsumed bytes from [start] *)
  mutable eof : bool;
  cut : unit -> bool;  (* asked at EOF: did this side impose it? *)
  mutable rest_is_line : bool;  (* at EOF: the unterminated remainder is a line *)
}

let reader ?(initial_size = 4096) ?(cut = fun () -> false) fd =
  if initial_size < 1 then invalid_arg "Lineio.reader: need a positive buffer size";
  { fd; buf = Bytes.create initial_size; start = 0; len = 0; eof = false; cut; rest_is_line = true }

(* EOF the peer sent ends its last line; EOF this side imposed cuts the
   line it was in the middle of, and a cut line is never returned. *)
let hit_eof r =
  r.eof <- true;
  r.rest_is_line <- not (r.cut ())

(* Wait until [fd] is readable/writable, retrying interrupted selects. *)
let rec wait_fd ~read fd =
  let r, w = if read then ([ fd ], []) else ([], [ fd ]) in
  match Unix.select r w [] (-1.0) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_fd ~read fd
  | _ -> ()

(* One refill. 0 bytes (or a peer reset) marks EOF; EINTR retries
   immediately; EAGAIN waits for readability and retries. *)
let rec refill r =
  if Bytes.length r.buf - (r.start + r.len) = 0 then begin
    if r.start > 0 then begin
      (* compact: reclaim the consumed prefix *)
      Bytes.blit r.buf r.start r.buf 0 r.len;
      r.start <- 0
    end
    else begin
      (* one line larger than the whole buffer: grow *)
      let bigger = Bytes.create (2 * Bytes.length r.buf) in
      Bytes.blit r.buf r.start bigger 0 r.len;
      r.buf <- bigger;
      r.start <- 0
    end
  end;
  let off = r.start + r.len in
  match Unix.read r.fd r.buf off (Bytes.length r.buf - off) with
  | 0 -> hit_eof r
  | n -> r.len <- r.len + n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill r
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    wait_fd ~read:true r.fd;
    refill r
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> hit_eof r

(* The first '\n' in [buf.[i .. stop - 1]], or -1. *)
let rec scan buf i stop =
  if i >= stop then -1 else if Bytes.unsafe_get buf i = '\n' then i else scan buf (i + 1) stop

let newline_at r = scan r.buf r.start (r.start + r.len)
(* At EOF, whether the unconsumed bytes make a last line. *)
let final r = r.eof && r.len > 0 && r.rest_is_line
let has_line r = newline_at r >= 0 || final r

let take r stop consume =
  let line = Bytes.sub_string r.buf r.start (stop - r.start) in
  r.len <- r.len - (consume - r.start);
  r.start <- consume;
  line

(* The unconsumed bytes as a final line, once [final] holds. *)
let take_rest r = take r (r.start + r.len) (r.start + r.len)

let rec read_line r =
  match newline_at r with
  | i when i >= 0 -> Some (take r i (i + 1))
  | _ ->
    if r.eof then if final r then Some (take_rest r) else None
    else begin
      refill r;
      read_line r
    end

(* Every line already buffered, in order. Each scan starts where the
   previous line ended, so every byte is scanned once. *)
let[@tail_mod_cons] rec take_lines r =
  match newline_at r with
  | i when i >= 0 ->
    let line = take r i (i + 1) in
    line :: take_lines r
  | _ -> if final r then [ take_rest r ] else []

(* Refill until a line is complete; [seen] unconsumed bytes are already
   known to hold no '\n', so only the new bytes are scanned. *)
let rec read_lines_from r seen =
  match scan r.buf (r.start + seen) (r.start + r.len) with
  | i when i >= 0 ->
    let line = take r i (i + 1) in
    line :: take_lines r
  | _ ->
    if r.eof then if final r then [ take_rest r ] else []
    else begin
      let seen = r.len in
      refill r;
      read_lines_from r seen
    end

let read_lines r = read_lines_from r 0

(* ----- writing ----- *)

let write_substring fd s pos len =
  let rec go pos len =
    if len > 0 then
      match Unix.write_substring fd s pos len with
      | n -> go (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait_fd ~read:false fd;
        go pos len
  in
  go pos len

let write_string fd s = write_substring fd s 0 (String.length s)

(* ----- connecting ----- *)

(* connect(2) interrupted by a signal does NOT abort the attempt: the
   three-way handshake continues in the kernel, and calling connect
   again races it (EALREADY/EISCONN). The portable recovery is to wait
   for writability and read the disposition out of SO_ERROR. *)
let connect fd addr =
  match Unix.connect fd addr with
  | () -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> (
    wait_fd ~read:false fd;
    match Unix.getsockopt_error fd with
    | None -> ()
    | Some err -> raise (Unix.Unix_error (err, "connect", "")))
