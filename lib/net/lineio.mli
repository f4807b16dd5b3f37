(** Signal-safe line I/O over raw file descriptors.

    The protocol session's read/write layer: a buffered line reader
    whose buffer is inspectable ({!read_lines} takes every
    already-arrived line in one scan — what lets the session coalesce
    them into one batched dispatch without risking a blocking read
    mid-batch; {!has_line} asks without taking), and writers that
    survive signals. Every syscall here retries [EINTR] and waits out
    [EAGAIN]/[EWOULDBLOCK], so a SIGTERM delivered during drain never
    tears down a session whose peer is still connected. *)

type reader

val reader : ?initial_size:int -> ?cut:(unit -> bool) -> Unix.file_descr -> reader
(** A buffered reader over [fd] (buffer grows as needed from
    [initial_size], default 4096). The reader owns the stream: do not
    mix it with channel reads on the same descriptor.

    [cut] is asked once, when the reader meets EOF. [true] says this
    side imposed the EOF (it shut the socket's read side down) rather
    than the peer sending it: an unterminated remainder is then a line
    cut off in transit, and it is dropped, never returned as a final
    line. Default: never, so every EOF ends the peer's last line. *)

val read_line : reader -> string option
(** The next line, without its ['\n'] (a ['\r'] is preserved, matching
    [input_line]). Blocks until a full line, EOF, or a hard error. A
    final unterminated line is returned as-is; [None] means EOF with
    nothing buffered. [EINTR] is retried, [EAGAIN] waited out,
    [ECONNRESET] reads as EOF; other [Unix_error]s propagate. *)

val read_lines : reader -> string list
(** The session's next batch: blocks as {!read_line} does until one
    line is complete (or EOF), then also takes every further complete
    line already buffered, in order, scanning each buffered byte once.
    At EOF an unterminated remainder is the last line, unless [cut]
    says the EOF cut it; [[]] means EOF with no line left. Errors as
    {!read_line}. *)

val has_line : reader -> bool
(** Whether {!read_line} would return a line without blocking: a
    complete line is already buffered (or a peer's EOF makes the
    remainder a line). No syscall — this is the batching probe. *)

val write_string : Unix.file_descr -> string -> unit
(** Write the whole string: short writes resumed, [EINTR] retried,
    [EAGAIN] waited out. [EPIPE]/[ECONNRESET] propagate — a vanished
    peer ends the session, it is not retryable. *)

val write_substring : Unix.file_descr -> string -> int -> int -> unit

val connect : Unix.file_descr -> Unix.sockaddr -> unit
(** [Unix.connect] that survives [EINTR]: an interrupted connect keeps
    handshaking in the kernel, so retrying the syscall races it —
    instead this waits for writability and reads the outcome from
    [SO_ERROR], raising the recorded error if the connect failed. *)
