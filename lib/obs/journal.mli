(** The flight recorder: a structured, versioned event journal, as
    JSONL text or length-prefixed binary frames.

    A journal is one JSON object per line. The first line is a header
    ([{"journal": <producer>, "version": 1, ...metadata}]); every later
    line is an event carrying a monotonically increasing sequence
    number, a monotonic nanosecond timestamp and a producer-defined
    kind plus fields ([{"seq": 0, "ts_ns": ..., "ev": "add", ...}]).
    Producers append through a {!sink}; consumers load whole journals
    back, or fold over them as they are read, with line-numbered errors
    in the [Rebal_core.Io] style, so a corrupted or truncated recording
    points at the offending line.

    The module is deliberately generic — it knows nothing about engines
    or simulations. [Rebal_online.Engine] emits its operation stream
    here and [Rebal_online.Replay] re-executes it; [Rebal_sim] journals
    fault-plan runs through the same codec. *)

(** A minimal JSON value. Integers and floats are kept distinct so
    sequence numbers, loads and budgets survive a round trip exactly;
    floats are rendered with 17 significant digits, which round-trips
    every finite [float]. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Encode_error of string
(** Raised when a value cannot be encoded — today, exactly the
    non-finite floats: ["nan"] is not JSON, and silently writing [null]
    (the old behaviour) produced journals that failed replay long after
    the producer was gone. {!emit} adds line/seq/kind context before
    re-raising. *)

val render_json : json -> string
(** Compact (single-line) JSON. Strings are escaped per RFC 8259.
    @raise Encode_error on non-finite floats. *)

val json_of_string : string -> (json, string) result
(** Strict parser for the subset {!render_json} emits (which is plain
    JSON: objects, arrays, strings with escapes, numbers, booleans,
    null). Rejects trailing garbage. The text is transcoded into the
    binary codec, then decoded: an out-of-range float such as [1e999]
    reads as [Float inf], an integer too large for [int] as a float. *)

val current_version : int
(** The journal format version this library writes (1). *)

type header = {
  journal : string;  (** producer tag, e.g. ["rebal-engine"] *)
  version : int;
  meta : (string * json) list;  (** every other header field *)
}

type event = {
  seq : int;
  ts_ns : int;
  kind : string;
  fields : (string * json) list;  (** every non-reserved field *)
  line : int;  (** 1-based journal line (0 on hand-built events) *)
}

(** {2 Writing} *)

(** On-disk form a sink writes. [Jsonl] is the portable interchange
    format (one JSON object per line); [Binary] is the length-prefixed
    frame codec of {!Binary} — same objects, ~5x cheaper to encode, for
    hot-path journaling. [journal-convert] translates both ways. *)
type format =
  | Jsonl
  | Binary

type sink

val create :
  ?format:format ->
  ?tail_capacity:int ->
  ?start_seq:int ->
  ?header_written:bool ->
  ?clock_ns:(unit -> int) ->
  write:(string -> unit) ->
  unit ->
  sink
(** A sink calling [write] with each rendered line (trailing newline
    included) or binary frame (length prefix included), one string per
    line or frame, or one string per outermost {!end_batch}.
    [clock_ns] defaults to the monotonic
    [Rebal_harness.Timer.now_int_ns], an immediate [int] read; inject a
    fake for deterministic tests. The sink keeps the last
    [tail_capacity] (default 512) lines or frames in a byte ring for
    {!tail}. [start_seq] (default 0)
    resumes an existing journal: the first event gets that sequence
    number, and when it is positive the sink considers the header
    already written (it is on disk), so {!write_header} is a no-op;
    [header_written] overrides that inference (resuming a journal that
    has a header but no events yet needs [~header_written:true] with
    [start_seq] 0).
    @raise Invalid_argument if [tail_capacity < 1] or [start_seq < 0]. *)

val to_channel :
  ?format:format ->
  ?tail_capacity:int ->
  ?start_seq:int ->
  ?header_written:bool ->
  ?line_flush:bool ->
  out_channel ->
  sink
(** A sink appending to a channel. [line_flush] (default [false])
    flushes after every line — what a crash-safe flight recorder wants;
    leave it off when journaling for throughput measurements. *)

val resilient :
  ?retries:int ->
  ?backoff:float ->
  ?sleep:(float -> unit) ->
  ?label:string ->
  (string -> unit) ->
  string ->
  unit
(** [resilient write] is a write function that contains I/O failure
    instead of propagating it into the engine hot path: a [Sys_error]
    from [write] is retried up to [retries] times (default 3) with
    exponential backoff starting at [backoff] seconds (default 0.01,
    doubling; [sleep] defaults to [Unix.sleepf] — inject a fake in
    tests). When the retries are exhausted the line is dropped from
    durable storage — it remains available in the sink's tail ring —
    and counted in [rebal_journal_dropped_total{journal=<label>}]
    (handle bound in the registry current at wrap time), with a
    warning on stderr. This is the fail-open policy: the daemon keeps
    serving, and the resulting sequence gap is caught loudly by
    replay's contiguity check rather than silently ignored. *)

val write_header : sink -> journal:string -> (string * json) list -> unit
(** Write the header line. Idempotent: only the first call writes, so
    an engine and the code that attached the sink cannot double-header
    a journal. *)

val emit : sink -> kind:string -> (string * json) list -> unit
(** Append one event: the sink assigns the next sequence number and
    stamps the clock. Reserved keys ([seq], [ts_ns], [ev]) in [fields]
    are skipped.
    @raise Encode_error on a non-finite float field, with line/seq/kind
    context. The event is rejected whole — no sequence number is
    consumed, so the journal stays contiguous. *)

val begin_batch : sink -> unit
(** Defer sink writes: until the matching {!end_batch}, emitted bytes
    accumulate in a buffer (the tail ring and sequence numbers advance
    normally) and are handed to the write function in a single call.
    Nestable; only the outermost [end_batch] flushes. [Engine.apply_bulk]
    brackets batches with this to amortize journal I/O. *)

val end_batch : sink -> unit
(** Flush and close one {!begin_batch} bracket. The flushed bytes are
    identical to what per-event writes would have produced. *)

(** Streamed emission, the one encode path per codec: {!emit} is
    [start], one {!Emit.value} per unreserved field, then [finish].
    The typed writers ([int], [str], [bool], [float]) skip the boxed
    [json] per field, so a steady-state event on a per-op hot site
    allocates nothing inside a {!begin_batch} bracket, and only the
    string handed to [write] outside one.

    Protocol: [start sink ~kind ~fields:n], then exactly [n] field
    calls, then [finish]. The produced bytes equal
    [emit sink ~kind fields] with the same fields in the same order.
    At most one streamed event may be open per sink; [emit] and
    [write_header] refuse ([Invalid_argument]) while one is open.
    Misuse — double [start], wrong arity, a reserved key — raises
    [Invalid_argument]. A non-finite [float] raises [Encode_error]
    with line/seq/kind context and aborts the whole event: no sequence
    number is consumed, matching [emit]'s rejection contract. *)
module Emit : sig
  val start : sink -> kind:string -> fields:int -> unit
  val int : sink -> string -> int -> unit
  val str : sink -> string -> string -> unit
  val bool : sink -> string -> bool -> unit
  val float : sink -> string -> float -> unit

  val value : sink -> string -> json -> unit
  (** Any value, nested ones included. *)

  val finish : sink -> unit
end

val events_written : sink -> int

val tail : sink -> int -> string list
(** The last [min n tail_capacity] rendered lines (header included if
    still in the ring), oldest first. Always JSONL text: a [Binary]
    sink decodes its frames on demand, so the [JOURNAL] verb stays
    human-readable whatever the on-disk format. *)

(** {2 Rendering and parsing} *)

val render_header : header -> string
val render_event : event -> string

(** The length-prefixed binary frame codec: magic ["RBJB\x01\n"], then
    [u32 LE length | payload] frames, each payload one tag-prefixed
    value (null 0x00, bool 0x01, zigzag-varint int 0x02, 8-byte IEEE 754
    LE float 0x03, str 0x04, list 0x05, obj 0x06). Frame 1 is the
    header, later frames are events — the same objects as the JSONL
    form, so conversion is lossless both ways. *)
module Binary : sig
  val magic : string

  val encode_header : header -> string
  (** One complete frame (length prefix included), magic not included. *)

  val encode_event : event -> string
  (** @raise Encode_error on non-finite floats. *)
end

val load_string : string -> (header * event list, string) result
(** Parse a whole journal held in memory, auto-detecting its codec: a
    leading {!Binary.magic} selects the binary frames, anything else is
    read as JSONL text. Errors are ["line %d: ..."] — a binary frame is
    a "line", header 1 and first event 2, matching the JSONL numbering:
    malformed JSON or frames, a missing or malformed header,
    non-contiguous sequence numbers (evidence of truncation or
    tampering) and wrong-type reserved fields are all rejected. Blank
    JSONL lines are skipped but numbered. *)

val load_file : string -> (header * event list, string) result
(** {!load_string} on the journal at a path. What every consumer of
    user-supplied journal paths (replay, snapshot, compact, explain,
    serve resume, convert) should call, unless it can consume the
    journal as it is read: then see {!fold_file}. *)

(** {2 Streaming}

    The loaders above are these folds accumulating every event; used
    directly, the folds hand each event to the caller as it is read,
    and no list is built. There is one reader underneath all of them,
    and it reads binary frames: a binary journal's frames in place,
    from a string or through one reusable buffer; each JSONL line
    transcoded straight into a frame; each event of a parsed journal
    encoded into one. The event object's members are indexed where they
    sit, and fields are read by key on demand. Every check and
    ["line %d: ..."] error of the loaders applies, but a fold stops at
    the first bad line, so a journal with a corrupt tail has had its
    head folded. *)

exception Field_error of string
(** Raised by the {!Frame} field readers with {!int_field}'s message; a
    fold returns it as its [Error]. *)

(** A cursor over one binary-encoded value, for walking large nested
    values (a snapshot's jobs) without building them. Each reader
    consumes what it reads and answers [false] or [-1], or raises
    [Not_found], when the value here is not of the expected shape,
    after which the position is unspecified: {!seek} back. *)
module Cursor : sig
  type t

  val pos : t -> int
  val seek : t -> int -> unit

  val list : t -> int
  (** A list here: its element count, then the cursor is at the first. *)

  val obj : t -> int
  (** An object here: its member count, then the cursor is at the first
      key. *)

  val key_is : t -> string -> bool
  (** Reads an object key; [true] when it equals the string. *)

  val int : t -> int
  val str : t -> string

  val str_is : t -> string -> bool
  (** A string here, compared in place with the given one. *)

  val value : t -> json
  (** The value here, decoded whole. *)

  val member : t -> string -> bool
  (** An object here: move to the value of its first member with this
      key, as [List.assoc] would find it. *)

  val of_json : json -> t
  (** A cursor over the encoding of a value built in memory. *)
end

(** One event of a journal being folded. Only valid during the step
    call that receives it: the fold reuses it for the next event. *)
module Frame : sig
  type t

  val line : t -> int
  val seq : t -> int

  val kind : t -> string
  (** Interned: after the first event of each kind, allocates nothing. *)

  val int : t -> string -> int
  (** Decoded where it sits; allocates nothing.
      @raise Field_error when missing or not an integer. *)

  val str : t -> string -> string
  val bool : t -> string -> bool

  val list : t -> string -> json list
  (** Decoded on demand. *)

  val cursor : t -> string -> Cursor.t option
  (** A field's value, to walk without decoding it. Reserved keys are
      not fields. *)

  val to_event : t -> event
  (** The whole event, every field decoded. *)
end

val fold_file :
  string -> header:(header -> 'a) -> ('a -> Frame.t -> 'a) -> ('a, string) result
(** [fold_file path ~header step] reads the journal at [path], auto-
    detecting its codec like {!load_file}: [header] builds the
    accumulator from the header, then [step] is called on each event in
    order. Exceptions raised by [header] and [step] propagate, except
    {!Field_error}. *)

val fold_string :
  string -> header:(header -> 'a) -> ('a -> Frame.t -> 'a) -> ('a, string) result
(** {!fold_file} over a journal held in memory, read in place. *)

val fold_parsed :
  header * event list -> header:(header -> 'a) -> ('a -> Frame.t -> 'a) -> ('a, string) result
(** The same fold over an already-parsed journal, each event encoded
    into a binary frame and read like any other, so one step function
    serves every source. Errors name each event's own [line]; the
    events must be numbered from 0 like a journal on disk. *)

val sniff_file : string -> format
(** The on-disk format of a journal file: [Binary] when it opens with
    {!Binary.magic}, [Jsonl] otherwise (an empty, short or unreadable
    file included). A resumed journal is appended to in this format. *)

val encode : format -> header * event list -> string
(** A whole journal in [format]: header line then one line per event
    (JSONL), or the magic, the header frame and one frame per event
    (binary). The bytes a sink of that format would have written. *)

val write_file : format -> string -> header * event list -> (unit, string) result
(** [write_file format path journal] writes {!encode} to [path ^ ".tmp"]
    and renames it over [path], so an interrupted write never destroys
    an existing file. [Error] carries the [Sys_error] message. *)

(** {2 Typed field access} *)

val field : event -> string -> json option

val int_field : event -> string -> (int, string) result
val str_field : event -> string -> (string, string) result
val float_field : event -> string -> (float, string) result
(** Accepts [Int] too — JSON does not distinguish [2] from [2.0]. *)

val bool_field : event -> string -> (bool, string) result
val list_field : event -> string -> (json list, string) result
(** All errors are ["line %d: %s event: ..."] naming the field. *)
