module Timer = Rebal_harness.Timer

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let current_version = 1

(* A journal that cannot be read back is worse than no journal: the
   text renderer used to emit [null] for nan/inf (["nan"] is not JSON),
   so a non-finite metric value was written "successfully" and only
   discovered when replay failed on the mangled field. Both codecs now
   reject non-finite floats at encode time; {!emit} wraps the failure
   with the line/seq/kind context so the producer is pointed at. *)
exception Encode_error of string

let reject_non_finite f =
  if not (Float.is_finite f) then
    raise
      (Encode_error
         (Printf.sprintf "non-finite float %s has no journal encoding"
            (Float.to_string f)))

(* ----- rendering ----- *)

(* The byte writer under both codecs. [Buffer] pays a bounds check and
   an out-of-line call per byte, which at ~100-150 bytes per journal
   event was the single largest cost on the emit path. This writer
   ensures capacity in coarse per-token steps and pokes bytes with
   [unsafe_set]; every [put_byte] below is preceded by an [ensure] that
   covers it. *)
module Fb = struct
  type t = {
    mutable b : Bytes.t;
    mutable pos : int;
  }

  let create n = { b = Bytes.create (max 16 n); pos = 0 }
  let clear t = t.pos <- 0

  let ensure t n =
    let need = t.pos + n in
    if need > Bytes.length t.b then begin
      let cap = ref (2 * Bytes.length t.b) in
      while !cap < need do
        cap := 2 * !cap
      done;
      let nb = Bytes.create !cap in
      Bytes.blit t.b 0 nb 0 t.pos;
      t.b <- nb
    end

  (* capacity must already be ensured *)
  let put_byte t c =
    Bytes.unsafe_set t.b t.pos (Char.unsafe_chr c);
    t.pos <- t.pos + 1

  let put_char t c =
    Bytes.unsafe_set t.b t.pos c;
    t.pos <- t.pos + 1

  let put_string t s =
    let len = String.length s in
    ensure t len;
    Bytes.blit_string s 0 t.b t.pos len;
    t.pos <- t.pos + len

  (* Decimal render without the [string_of_int] allocation; emits the
     same bytes. Digits are generated from the negative absolute value
     so [min_int] needs no special case, then reversed in place. *)
  let put_int t n =
    ensure t 20;
    if n < 0 then begin
      Bytes.unsafe_set t.b t.pos '-';
      t.pos <- t.pos + 1
    end;
    let m = ref (if n > 0 then -n else n) in
    let d0 = t.pos in
    let p = ref t.pos in
    let continue = ref true in
    while !continue do
      (* OCaml [mod] follows the dividend's sign: [!m mod 10] <= 0 *)
      Bytes.unsafe_set t.b !p (Char.unsafe_chr (Char.code '0' - (!m mod 10)));
      incr p;
      m := !m / 10;
      if !m = 0 then continue := false
    done;
    t.pos <- !p;
    let i = ref d0 and j = ref (!p - 1) in
    while !i < !j do
      let c = Bytes.unsafe_get t.b !i in
      Bytes.unsafe_set t.b !i (Bytes.unsafe_get t.b !j);
      Bytes.unsafe_set t.b !j c;
      incr i;
      decr j
    done

  let contents t = Bytes.sub_string t.b 0 t.pos
end

let escape_string b s =
  (* worst case every char escapes to [\uXXXX]: 6 bytes, plus quotes *)
  Fb.ensure b ((6 * String.length s) + 2);
  Fb.put_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' ->
        Fb.put_char b '\\';
        Fb.put_char b '"'
      | '\\' ->
        Fb.put_char b '\\';
        Fb.put_char b '\\'
      | '\n' ->
        Fb.put_char b '\\';
        Fb.put_char b 'n'
      | '\t' ->
        Fb.put_char b '\\';
        Fb.put_char b 't'
      | '\r' ->
        Fb.put_char b '\\';
        Fb.put_char b 'r'
      | c when Char.code c < 0x20 ->
        String.iter (Fb.put_char b) (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Fb.put_char b c)
    s;
  Fb.put_char b '"'

(* The text codec's scalars, one writer each ([Fb.put_int] and
   [escape_string] cover ints and strings); [render_into] and the
   streamed [Emit] writers both go through them. *)
let render_bool b v = Fb.put_string b (if v then "true" else "false")

let render_float b f =
  reject_non_finite f;
  (* %.17g round-trips every finite binary64 through
     [float_of_string] exactly. *)
  let s = Printf.sprintf "%.17g" f in
  Fb.put_string b s;
  (* "2" would parse back as Int; force a float marker. *)
  if not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s) then
    Fb.put_string b ".0"

let rec render_into b = function
  | Null -> Fb.put_string b "null"
  | Bool v -> render_bool b v
  | Int i -> Fb.put_int b i
  | Float f -> render_float b f
  | Str s -> escape_string b s
  | List xs ->
    Fb.ensure b 1;
    Fb.put_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then begin
          Fb.ensure b 1;
          Fb.put_char b ','
        end;
        render_into b x)
      xs;
    Fb.ensure b 1;
    Fb.put_char b ']'
  | Obj kvs ->
    Fb.ensure b 1;
    Fb.put_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then begin
          Fb.ensure b 1;
          Fb.put_char b ','
        end;
        escape_string b k;
        Fb.ensure b 1;
        Fb.put_char b ':';
        render_into b v)
      kvs;
    Fb.ensure b 1;
    Fb.put_char b '}'

let render_json v =
  let b = Fb.create 128 in
  render_into b v;
  Fb.contents b

(* ----- parsing ----- *)

exception Parse_error of string

let parse_json_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos >= n || s.[!pos] <> c then fail "expected %C at offset %d" c !pos;
    advance ()
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let hex = String.sub s (!pos + 1) 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c -> c
            | None -> fail "bad \\u escape %S" hex
          in
          (* The journal only ever escapes control characters this way;
             decode the BMP code point as UTF-8 so foreign journals with
             plain \uXXXX escapes still parse. *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end;
          pos := !pos + 4
        | c -> fail "bad escape \\%c" c);
        advance ();
        loop ()
      | c ->
        Buffer.add_char b c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_float = ref false in
    let digits () =
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number %S" text
    else begin
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number %S" text)
    end
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}' at offset %d" !pos
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']' at offset %d" !pos
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail "unexpected character %C at offset %d" c !pos
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage at offset %d" !pos;
  v

let json_of_string s =
  match parse_json_exn s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ----- headers and events ----- *)

type header = {
  journal : string;
  version : int;
  meta : (string * json) list;
}

type event = {
  seq : int;
  ts_ns : int;
  kind : string;
  fields : (string * json) list;
  line : int;
}

let reserved = [ "seq"; "ts_ns"; "ev" ]

let header_obj h =
  Obj (("journal", Str h.journal) :: ("version", Int h.version) :: h.meta)

let event_obj e =
  let fields = List.filter (fun (k, _) -> not (List.mem k reserved)) e.fields in
  Obj (("seq", Int e.seq) :: ("ts_ns", Int e.ts_ns) :: ("ev", Str e.kind) :: fields)

let render_header h = render_json (header_obj h)
let render_event e = render_json (event_obj e)

(* ----- binary frame codec -----

   Length-prefixed binary frames, the journal's fast on-disk form. The
   file opens with the 6-byte magic ["RBJB\x01\n"], then one frame per
   logical journal line:

     +-------------------+---------------------------+
     | u32 LE payload len| payload (one value below) |
     +-------------------+---------------------------+

   A payload is one tag-prefixed value:

     0x00  null
     0x01  bool    1 byte (0x00 / 0x01)
     0x02  int     zigzag LEB128 varint
     0x03  float   8-byte IEEE 754 binary64, little-endian
     0x04  str     uvarint byte length, raw bytes
     0x05  list    uvarint count, then the values
     0x06  obj     uvarint count, then (uvarint key len, key, value)*

   Frame 1 carries the header object, later frames the events, with the
   same reserved fields and ordering as the JSONL form — the two codecs
   carry identical objects and convert both ways without loss. Floats
   travel as raw bits (bit-exact, no Printf on the hot path); non-finite
   floats are rejected at encode time exactly like the text codec. *)

let binary_magic = "RBJB\x01\n"

(* capacity for the varint must be ensured by the caller (10 bytes) *)
let put_uvarint b n =
  let n = ref n in
  while !n land lnot 0x7f <> 0 do
    Fb.put_byte b (0x80 lor (!n land 0x7f));
    n := !n lsr 7
  done;
  Fb.put_byte b !n

let put_key b k =
  Fb.ensure b 10;
  put_uvarint b (String.length k);
  Fb.put_string b k

(* The binary codec's scalars, one writer each; [encode_value], the
   event prelude and the streamed [Emit] writers all go through them. *)
let encode_bool b v =
  Fb.ensure b 2;
  Fb.put_byte b 0x01;
  Fb.put_byte b (if v then 0x01 else 0x00)

let encode_int b i =
  (* Zigzag maps the sign bit into bit 0 so small magnitudes of either
     sign stay one byte. *)
  Fb.ensure b 11;
  Fb.put_byte b 0x02;
  put_uvarint b ((i lsl 1) lxor (i asr 62))

let encode_float b f =
  reject_non_finite f;
  Fb.ensure b 9;
  Fb.put_byte b 0x03;
  Bytes.set_int64_le b.Fb.b b.Fb.pos (Int64.bits_of_float f);
  b.Fb.pos <- b.Fb.pos + 8

let encode_str b s =
  Fb.ensure b 10;
  Fb.put_byte b 0x04;
  put_uvarint b (String.length s);
  Fb.put_string b s

let rec encode_value b = function
  | Null ->
    Fb.ensure b 1;
    Fb.put_byte b 0x00
  | Bool v -> encode_bool b v
  | Int i -> encode_int b i
  | Float f -> encode_float b f
  | Str s -> encode_str b s
  | List xs ->
    Fb.ensure b 11;
    Fb.put_byte b 0x05;
    put_uvarint b (List.length xs);
    List.iter (encode_value b) xs
  | Obj kvs ->
    Fb.ensure b 11;
    Fb.put_byte b 0x06;
    put_uvarint b (List.length kvs);
    List.iter
      (fun (k, v) ->
        put_key b k;
        encode_value b v)
      kvs

let frame_of_payload payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.unsafe_to_string b

(* ----- reading binary values in place -----

   One decoder for the binary codec, over a cursor into a byte buffer:
   [decode_value] builds a [json] tree, [skip_value] validates a value
   without building anything, and the frame reader below indexes an
   event object's members so fields are read where they sit. Errors are
   [Parse_error] with the messages the whole-journal parsers put after
   "line N: ". *)

type cursor = {
  mutable b : Bytes.t;
  mutable pos : int;
  mutable lim : int;
}

let truncated () = raise (Parse_error "truncated frame")

let get_byte c =
  if c.pos >= c.lim then truncated ();
  let v = Char.code (Bytes.unsafe_get c.b c.pos) in
  c.pos <- c.pos + 1;
  v

(* At most 9 bytes: 9 x 7 bits cover OCaml's 63-bit ints, all the
   encoder ever writes. A longer run of continuation bytes would shift
   past the word and decode a garbage int. *)
let get_uvarint_slow c =
  let acc = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let byte = get_byte c in
    acc := !acc lor ((byte land 0x7f) lsl !shift);
    if byte land 0x80 = 0 then continue := false
    else if !shift >= 56 then raise (Parse_error "malformed varint")
    else shift := !shift + 7
  done;
  !acc

(* Keys and counts are one byte long: read those inline. *)
let get_uvarint c =
  let p = c.pos in
  if p < c.lim && Bytes.unsafe_get c.b p < '\x80' then begin
    c.pos <- p + 1;
    Char.code (Bytes.unsafe_get c.b p)
  end
  else get_uvarint_slow c

let get_zigzag c =
  let zz = get_uvarint c in
  (zz lsr 1) lxor (- (zz land 1))

(* Step over [len] bytes; their start offset. *)
let advance c len =
  if len < 0 || len > c.lim - c.pos then truncated ();
  let start = c.pos in
  c.pos <- c.pos + len;
  start

(* A list/object count; a negative one cannot fit in any frame. *)
let get_count c =
  let n = get_uvarint c in
  if n < 0 then truncated ();
  n

let unknown_tag tag = raise (Parse_error (Printf.sprintf "unknown value tag 0x%02x" tag))

let rec skip_value c =
  match get_byte c with
  | 0x00 -> ()
  | 0x01 -> ignore (get_byte c)
  | 0x02 -> ignore (get_uvarint c)
  | 0x03 -> ignore (advance c 8)
  | 0x04 -> ignore (advance c (get_uvarint c))
  | 0x05 ->
    for _ = 1 to get_count c do
      skip_value c
    done
  | 0x06 ->
    for _ = 1 to get_count c do
      ignore (advance c (get_uvarint c));
      skip_value c
    done
  | tag -> unknown_tag tag

let get_str c =
  let len = get_uvarint c in
  let p = advance c len in
  Bytes.sub_string c.b p len

let rec decode_value c =
  match get_byte c with
  | 0x00 -> Null
  | 0x01 -> Bool (get_byte c <> 0)
  | 0x02 -> Int (get_zigzag c)
  | 0x03 -> Float (Int64.float_of_bits (Bytes.get_int64_le c.b (advance c 8)))
  | 0x04 -> Str (get_str c)
  | 0x05 -> List (decode_values c (get_count c) [])
  | 0x06 -> Obj (decode_members c (get_count c) [])
  | tag -> unknown_tag tag

and decode_values c k acc =
  if k = 0 then List.rev acc
  else begin
    let v = decode_value c in
    decode_values c (k - 1) (v :: acc)
  end

and decode_members c k acc =
  if k = 0 then List.rev acc
  else begin
    let key = get_str c in
    let v = decode_value c in
    decode_members c (k - 1) ((key, v) :: acc)
  end

let check_consumed c = if c.pos <> c.lim then raise (Parse_error "trailing bytes in frame")

let decode_payload s =
  let c = { b = Bytes.unsafe_of_string s; pos = 0; lim = String.length s } in
  let v = decode_value c in
  check_consumed c;
  v

let encode_payload json =
  let b = Fb.create 128 in
  encode_value b json;
  Fb.contents b

(* ----- event preludes -----

   Every event opens with the reserved triple, written straight into
   the writer; with the fields [Emit] appends, the bytes equal
   [encode_value (event_obj e)] / [render_into (event_obj e)], which
   the codec tests pin down.

   [is_reserved] dispatches on the first character before paying for a
   full string compare: three compares per field added up to ~20% of
   emit on a five-field event, and no engine field key starts the same
   way as a reserved one beyond its first letter. *)

let is_reserved k =
  String.length k > 0
  && (match String.unsafe_get k 0 with
     | 's' -> k = "seq"
     | 't' -> k = "ts_ns"
     | 'e' -> k = "ev"
     | _ -> false)

let count_unreserved fields =
  let rec go n = function
    | [] -> n
    | (k, _) :: tl -> go (if is_reserved k then n else n + 1) tl
  in
  go 0 fields

let encode_event_prelude b ~seq ~ts_ns ~kind ~count =
  Fb.ensure b 11;
  Fb.put_byte b 0x06;
  put_uvarint b (3 + count);
  put_key b "seq";
  encode_int b seq;
  put_key b "ts_ns";
  encode_int b ts_ns;
  put_key b "ev";
  encode_str b kind

let render_event_prelude b ~seq ~ts_ns ~kind =
  Fb.put_string b "{\"seq\":";
  Fb.put_int b seq;
  Fb.put_string b ",\"ts_ns\":";
  Fb.put_int b ts_ns;
  Fb.put_string b ",\"ev\":";
  escape_string b kind

(* ----- sinks ----- *)

type format =
  | Jsonl
  | Binary

type sink = {
  format : format;
  write : string -> unit;
  clock_ns : unit -> int64;
  mutable next_seq : int;
  mutable header_written : bool;
  (* Rendered JSONL lines, or binary frame payloads (length prefix
     stripped) — [tail] decodes the latter back to JSONL text. *)
  ring : string Ring.t;
  scratch : Fb.t; (* encode scratch, reused per event *)
  batch : Buffer.t; (* deferred bytes while [batching > 0] *)
  mutable batching : int;
  (* One streamed event (see [Emit]) may be open at a time; it owns
     [scratch] until [Emit.finish] commits it or an encode error
     aborts it. *)
  mutable stream_open : bool;
  mutable stream_left : int; (* declared fields not yet written *)
  mutable stream_seq : int;
  mutable stream_kind : string;
}

let create ?(format = Jsonl) ?(tail_capacity = 512) ?(start_seq = 0) ?header_written
    ?clock_ns ~write () =
  if tail_capacity < 1 then invalid_arg "Journal.create: need a positive tail capacity";
  if start_seq < 0 then invalid_arg "Journal.create: negative start_seq";
  let clock_ns = match clock_ns with Some c -> c | None -> Timer.now_ns in
  {
    format;
    write;
    clock_ns;
    next_seq = start_seq;
    (* A sink resuming an existing journal appends to a file whose
       header line is already on disk: writing a second one would
       corrupt it. Resuming right after a header with no events yet
       needs the explicit override, since start_seq is 0 there too. *)
    header_written = (match header_written with Some b -> b | None -> start_seq > 0);
    ring = Ring.create tail_capacity "";
    scratch = Fb.create 256;
    batch = Buffer.create 256;
    batching = 0;
    stream_open = false;
    stream_left = 0;
    stream_seq = 0;
    stream_kind = "";
  }

let to_channel ?format ?tail_capacity ?start_seq ?header_written ?(line_flush = false)
    oc =
  create ?format ?tail_capacity ?start_seq ?header_written
    ~write:(fun line ->
      output_string oc line;
      if line_flush then flush oc)
    ()

(* A journal append must never take the daemon down with it: a full
   disk or a yanked volume raises [Sys_error] from deep inside a serve
   session, long after anyone can handle it sensibly. [resilient]
   wraps a raw write with bounded retry-with-exponential-backoff;
   when the retries are exhausted the line is dropped from durable
   storage (it is still in the sink's tail ring — [push_line] records
   it before the write runs) and the drop is counted in
   [rebal_journal_dropped_total{journal=...}] so the gap is loud.
   This is a fail-open policy: serving continues, and the hole in the
   on-disk journal is detected by replay's contiguous-seq check. *)
let resilient ?(retries = 3) ?(backoff = 0.01) ?(sleep = Unix.sleepf)
    ?(label = "journal") write =
  let dropped =
    Metrics.counter
      ~labels:[ ("journal", label) ]
      ~help:"Journal lines dropped after write retries were exhausted"
      "rebal_journal_dropped_total"
  in
  fun line ->
    let rec attempt n delay =
      match write line with
      | () -> ()
      | exception Sys_error msg ->
        if n >= retries then begin
          Metrics.Counter.inc dropped;
          Printf.eprintf
            "rebal journal %s: append failed after %d retries (%s); line dropped (kept in tail ring)\n%!"
            label retries msg
        end
        else begin
          sleep delay;
          attempt (n + 1) (delay *. 2.0)
        end
    in
    attempt 0 backoff

(* All sink bytes funnel through here so a bulk batch can defer the
   actual write: while [batching > 0] the bytes accumulate and are
   handed to [write] in one call at [end_batch] — byte-identical to
   per-event writes, so replay and resume see the same journal. *)
let sink_out sink s =
  if sink.batching > 0 then Buffer.add_string sink.batch s else sink.write s

let begin_batch sink = sink.batching <- sink.batching + 1

let end_batch sink =
  if sink.batching > 0 then begin
    sink.batching <- sink.batching - 1;
    if sink.batching = 0 && Buffer.length sink.batch > 0 then begin
      let out = Buffer.contents sink.batch in
      Buffer.clear sink.batch;
      sink.write out
    end
  end

(* When a batch is open the line/frame bytes go straight into the batch
   buffer — same bytes, one copy fewer than building the framed string
   first. Unbatched sinks still get exactly one [write] per line. *)
let push_line sink line =
  Ring.push sink.ring line;
  if sink.batching > 0 then begin
    Buffer.add_string sink.batch line;
    Buffer.add_char sink.batch '\n'
  end
  else sink.write (line ^ "\n")

let push_payload sink payload =
  Ring.push sink.ring payload;
  if sink.batching > 0 then begin
    Buffer.add_int32_le sink.batch (Int32.of_int (String.length payload));
    Buffer.add_string sink.batch payload
  end
  else sink.write (frame_of_payload payload)

let write_header sink ~journal meta =
  if sink.stream_open then
    invalid_arg "Journal.write_header: a streamed event is open on this sink";
  if not sink.header_written then begin
    sink.header_written <- true;
    let h = { journal; version = current_version; meta } in
    match sink.format with
    | Jsonl -> push_line sink (render_header h)
    | Binary ->
      sink_out sink binary_magic;
      Fb.clear sink.scratch;
      encode_value sink.scratch (header_obj h);
      push_payload sink (Fb.contents sink.scratch)
  end

(* ----- emission -----

   One encode path per codec. [Emit] writes fields straight into the
   sink's scratch writer — the caller declares the field count up front
   (it goes in the binary object header) and then pushes each field
   with a monomorphic call, so a steady-state event allocates nothing
   but the final payload string. [emit] is the same protocol driven
   from a field list: [Emit.start], one [Emit.value] per unreserved
   field, [Emit.finish].

   Contract: [start] .. exactly [fields] field calls .. [finish].
   Misuse (double start, wrong arity, reserved key) raises
   [Invalid_argument]. A non-finite float raises [Encode_error] with
   line/seq context, aborts the whole event and burns no seq: the
   sequence number is committed only by [finish], so a rejected event
   cannot tear a hole replay would trip on. *)

let stream_error sink msg =
  sink.stream_open <- false;
  raise
    (Encode_error
       (Printf.sprintf "line %d (event seq %d, ev %S): %s"
          (Ring.pushed sink.ring + 1) sink.stream_seq sink.stream_kind msg))

module Emit = struct
  let start sink ~kind ~fields =
    if sink.stream_open then
      invalid_arg "Journal.Emit.start: a streamed event is already open";
    if fields < 0 then invalid_arg "Journal.Emit.start: negative field count";
    sink.stream_open <- true;
    sink.stream_left <- fields;
    sink.stream_seq <- sink.next_seq;
    sink.stream_kind <- kind;
    let ts_ns = Int64.to_int (sink.clock_ns ()) in
    let b = sink.scratch in
    Fb.clear b;
    match sink.format with
    | Binary ->
      encode_event_prelude b ~seq:sink.stream_seq ~ts_ns ~kind ~count:fields
    | Jsonl -> render_event_prelude b ~seq:sink.stream_seq ~ts_ns ~kind

  (* Writes the field separator + key; the caller appends the value. *)
  let field_key sink k =
    if not sink.stream_open then
      invalid_arg "Journal.Emit: no streamed event is open";
    if sink.stream_left = 0 then
      invalid_arg "Journal.Emit: more fields than declared in start";
    if is_reserved k then
      invalid_arg "Journal.Emit: reserved key (seq/ts_ns/ev)";
    sink.stream_left <- sink.stream_left - 1;
    let b = sink.scratch in
    match sink.format with
    | Binary -> put_key b k
    | Jsonl ->
      Fb.ensure b 1;
      Fb.put_char b ',';
      escape_string b k;
      Fb.ensure b 1;
      Fb.put_char b ':'

  let int sink k v =
    field_key sink k;
    match sink.format with
    | Binary -> encode_int sink.scratch v
    | Jsonl -> Fb.put_int sink.scratch v

  let str sink k v =
    field_key sink k;
    match sink.format with
    | Binary -> encode_str sink.scratch v
    | Jsonl -> escape_string sink.scratch v

  let bool sink k v =
    field_key sink k;
    match sink.format with
    | Binary -> encode_bool sink.scratch v
    | Jsonl -> render_bool sink.scratch v

  let float sink k v =
    field_key sink k;
    try
      match sink.format with
      | Binary -> encode_float sink.scratch v
      | Jsonl -> render_float sink.scratch v
    with Encode_error msg -> stream_error sink msg

  let value sink k v =
    field_key sink k;
    try
      match sink.format with
      | Binary -> encode_value sink.scratch v
      | Jsonl -> render_into sink.scratch v
    with Encode_error msg -> stream_error sink msg

  let finish sink =
    if not sink.stream_open then
      invalid_arg "Journal.Emit.finish: no streamed event is open";
    if sink.stream_left <> 0 then
      invalid_arg "Journal.Emit.finish: fewer fields than declared in start";
    sink.stream_open <- false;
    let b = sink.scratch in
    (match sink.format with
    | Jsonl ->
      Fb.ensure b 1;
      Fb.put_char b '}'
    | Binary -> ());
    let payload = Fb.contents b in
    sink.next_seq <- sink.stream_seq + 1;
    match sink.format with
    | Jsonl -> push_line sink payload
    | Binary -> push_payload sink payload
end

let emit sink ~kind fields =
  Emit.start sink ~kind ~fields:(count_unreserved fields);
  List.iter (fun (k, v) -> if not (is_reserved k) then Emit.value sink k v) fields;
  Emit.finish sink

let events_written sink = sink.next_seq

let tail sink n =
  List.map
    (fun entry ->
      match sink.format with
      | Jsonl -> entry
      | Binary -> render_json (decode_payload entry))
    (Ring.last sink.ring n)

(* ----- reading journals -----

   One reader per codec, both driving the same fold: the header goes to
   [header], then each event, as a {!Frame.t}, to the step function.
   The binary reader takes one length-prefixed frame at a time — in
   place from a string, or from a channel through one reusable buffer —
   and indexes the event object's members where they sit: the reserved
   fields are decoded straight off the bytes, and the step reads the
   rest by key on demand, comparing keys in place. The text reader
   parses one line at a time into an [event]. The whole-journal parsers
   are this fold accumulating {!Frame.to_event}. *)

exception Field_error of string

let field_msg ~line ~kind key what =
  Printf.sprintf "line %d: %s event: field %S missing or not %s" line kind key what

(* ----- typed field access ----- *)

let field (e : event) key = List.assoc_opt key e.fields

let field_err (e : event) key what = Error (field_msg ~line:e.line ~kind:e.kind key what)

let int_field e key =
  match field e key with
  | Some (Int v) -> Ok v
  | _ -> field_err e key "an integer"

let str_field e key =
  match field e key with
  | Some (Str v) -> Ok v
  | _ -> field_err e key "a string"

let float_field e key =
  match field e key with
  | Some (Float v) -> Ok v
  | Some (Int v) -> Ok (float_of_int v)
  | _ -> field_err e key "a number"

let bool_field e key =
  match field e key with
  | Some (Bool v) -> Ok v
  | _ -> field_err e key "a boolean"

let list_field e key =
  match field e key with
  | Some (List v) -> Ok v
  | _ -> field_err e key "a list"

type backing =
  | Bin (* the payload in [c], indexed below *)
  | Parsed of event

type frame = {
  mutable line : int;
  mutable seq : int;
  mutable ts_ns : int;
  mutable kind : string;
  mutable backing : backing;
  c : cursor; (* [Bin]: the payload is [c.b] up to [c.lim] *)
  mutable n : int; (* members of the event object *)
  mutable koff : int array; (* member i's key starts here ... *)
  mutable klen : int array; (* ... and is this long; *)
  mutable voff : int array; (* its value starts here *)
  mutable kinds : string list; (* every kind seen so far, interned *)
}

let new_frame () =
  {
    line = 0;
    seq = 0;
    ts_ns = 0;
    kind = "";
    backing = Bin;
    c = { b = Bytes.empty; pos = 0; lim = 0 };
    n = 0;
    koff = Array.make 8 0;
    klen = Array.make 8 0;
    voff = Array.make 8 0;
    kinds = [];
  }

let set_parsed fr (ev : event) =
  fr.line <- ev.line;
  fr.seq <- ev.seq;
  fr.ts_ns <- ev.ts_ns;
  fr.kind <- ev.kind;
  fr.backing <- Parsed ev

let bytes_eq b off s =
  let len = String.length s in
  let i = ref 0 in
  while !i < len && Bytes.unsafe_get b (off + !i) = String.unsafe_get s !i do
    incr i
  done;
  !i = len

let key_is_at fr i key = fr.klen.(i) = String.length key && bytes_eq fr.c.b fr.koff.(i) key

(* The first member named [key], or -1. *)
let member_index fr key =
  let i = ref 0 in
  while !i < fr.n && not (key_is_at fr !i key) do
    incr i
  done;
  if !i < fr.n then !i else -1

let tag_at fr i = Char.code (Bytes.unsafe_get fr.c.b fr.voff.(i))

(* Point the cursor past member [i]'s tag. *)
let enter fr i = fr.c.pos <- fr.voff.(i) + 1

let grow_index fr =
  let grow a =
    let a' = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 a' 0 fr.n;
    a'
  in
  fr.koff <- grow fr.koff;
  fr.klen <- grow fr.klen;
  fr.voff <- grow fr.voff

(* Validate the payload in [fr.c] — the same walk and errors as
   [decode_value] — and index the members of its object. *)
let index_frame fr =
  let c = fr.c in
  fr.n <- 0;
  if c.pos < c.lim && Bytes.unsafe_get c.b c.pos = '\x06' then begin
    c.pos <- c.pos + 1;
    for _ = 1 to get_count c do
      if fr.n = Array.length fr.koff then grow_index fr;
      let len = get_uvarint c in
      fr.koff.(fr.n) <- advance c len;
      fr.klen.(fr.n) <- len;
      fr.voff.(fr.n) <- c.pos;
      skip_value c;
      fr.n <- fr.n + 1
    done;
    check_consumed c
  end
  else begin
    skip_value c;
    check_consumed c;
    raise (Parse_error "expected an object frame")
  end

let header_of_kvs kvs =
  match (List.assoc_opt "journal" kvs, List.assoc_opt "version" kvs) with
  | Some (Str journal), Some (Int version) ->
    let meta = List.filter (fun (k, _) -> k <> "journal" && k <> "version") kvs in
    { journal; version; meta }
  | None, _ -> raise (Parse_error "header is missing the \"journal\" field")
  | _, None -> raise (Parse_error "header is missing the \"version\" field")
  | _ -> raise (Parse_error "header \"journal\"/\"version\" fields have the wrong type")

(* The reserved triple, checked alike by both codecs: a well-typed
   [seq]/[ts_ns]/[ev] with the expected sequence number, or else the
   first missing key, or else a wrong type. *)
let check_seq ~expect_seq seq =
  if seq <> expect_seq then
    raise
      (Parse_error
         (Printf.sprintf "sequence number %d, expected %d (truncated or tampered journal)" seq
            expect_seq))

let reserved_error ~seq ~ts_ns ~ev =
  raise
    (Parse_error
       (if not seq then "event is missing the \"seq\" field"
        else if not ts_ns then "event is missing the \"ts_ns\" field"
        else if not ev then "event is missing the \"ev\" field"
        else "event \"seq\"/\"ts_ns\"/\"ev\" fields have the wrong type"))

let event_of_kvs ~line ~expect_seq kvs =
  match (List.assoc_opt "seq" kvs, List.assoc_opt "ts_ns" kvs, List.assoc_opt "ev" kvs) with
  | Some (Int seq), Some (Int ts_ns), Some (Str kind) ->
    check_seq ~expect_seq seq;
    let fields = List.filter (fun (k, _) -> not (List.mem k reserved)) kvs in
    { seq; ts_ns; kind; fields; line }
  | seq, ts_ns, ev ->
    reserved_error ~seq:(Option.is_some seq) ~ts_ns:(Option.is_some ts_ns)
      ~ev:(Option.is_some ev)

let rec find_interned b off len = function
  | [] -> raise Not_found
  | k :: tl -> if String.length k = len && bytes_eq b off k then k else find_interned b off len tl

(* Kinds are few: after the first frame of each, reading one allocates
   nothing. *)
let intern fr off len =
  match find_interned fr.c.b off len fr.kinds with
  | k -> k
  | exception Not_found ->
    let k = Bytes.sub_string fr.c.b off len in
    if List.compare_length_with fr.kinds 32 < 0 then fr.kinds <- k :: fr.kinds;
    k

let read_reserved fr ~expect_seq =
  let si = member_index fr "seq" and ti = member_index fr "ts_ns" and ei = member_index fr "ev" in
  if si < 0 || ti < 0 || ei < 0
     || tag_at fr si <> 0x02 || tag_at fr ti <> 0x02 || tag_at fr ei <> 0x04
  then reserved_error ~seq:(si >= 0) ~ts_ns:(ti >= 0) ~ev:(ei >= 0);
  enter fr si;
  fr.seq <- get_zigzag fr.c;
  check_seq ~expect_seq fr.seq;
  enter fr ti;
  fr.ts_ns <- get_zigzag fr.c;
  enter fr ei;
  let len = get_uvarint fr.c in
  fr.kind <- intern fr (advance fr.c len) len;
  fr.backing <- Bin

(* The cursor API reads no floats, so a non-finite one — parsed JSON can
   hold it, the binary codec refuses it — may as well read as null. *)
let rec finite_only = function
  | Float f when not (Float.is_finite f) -> Null
  | List l -> List (List.map finite_only l)
  | Obj kvs -> Obj (List.map (fun (k, v) -> (k, finite_only v)) kvs)
  | v -> v

let cursor_of_json v =
  let b = Fb.create 64 in
  (try encode_value b v
   with Encode_error _ ->
     Fb.clear b;
     encode_value b (finite_only v));
  { b = b.Fb.b; pos = 0; lim = b.Fb.pos }

module Cursor = struct
  type t = cursor

  let pos c = c.pos
  let seek c p = c.pos <- p

  let tagged c tag =
    c.pos < c.lim
    && Char.code (Bytes.unsafe_get c.b c.pos) = tag
    &&
    (c.pos <- c.pos + 1;
     true)

  let list c = if tagged c 0x05 then get_count c else -1
  let obj c = if tagged c 0x06 then get_count c else -1

  (* Reads a length-prefixed byte run whatever it holds. *)
  let bytes_are c s =
    let len = get_uvarint c in
    let p = advance c len in
    len = String.length s && bytes_eq c.b p s

  let key_is = bytes_are
  let str_is c s = tagged c 0x04 && bytes_are c s
  let int_is c v = tagged c 0x02 && get_zigzag c = v

  let member c key =
    let n = obj c in
    let found = ref false and i = ref 0 in
    while (not !found) && !i < n do
      if bytes_are c key then found := true
      else begin
        skip_value c;
        incr i
      end
    done;
    !found
end

module Frame = struct
  type t = frame

  let line fr = fr.line
  let seq fr = fr.seq
  let kind fr = fr.kind
  let missing fr key what = raise (Field_error (field_msg ~line:fr.line ~kind:fr.kind key what))

  (* The member holding field [key] of a [Bin] frame, or -1: reserved
     keys are not fields, as in [event.fields]. *)
  let field_index fr key = if is_reserved key then -1 else member_index fr key

  let scalar fr key tag what =
    let i = field_index fr key in
    if i < 0 || tag_at fr i <> tag then missing fr key what;
    enter fr i

  let get = function Ok v -> v | Error msg -> raise (Field_error msg)

  let int fr key =
    match fr.backing with
    | Parsed ev -> get (int_field ev key)
    | Bin ->
      scalar fr key 0x02 "an integer";
      get_zigzag fr.c

  let str fr key =
    match fr.backing with
    | Parsed ev -> get (str_field ev key)
    | Bin ->
      scalar fr key 0x04 "a string";
      get_str fr.c

  let bool fr key =
    match fr.backing with
    | Parsed ev -> get (bool_field ev key)
    | Bin ->
      scalar fr key 0x01 "a boolean";
      get_byte fr.c <> 0

  let field fr key =
    match fr.backing with
    | Parsed ev -> field ev key
    | Bin ->
      let i = field_index fr key in
      if i < 0 then None
      else begin
        fr.c.pos <- fr.voff.(i);
        Some (decode_value fr.c)
      end

  let list fr key = match field fr key with Some (List l) -> l | _ -> missing fr key "a list"

  let cursor fr key =
    match fr.backing with
    | Parsed _ -> Option.map cursor_of_json (field fr key)
    | Bin ->
      let i = field_index fr key in
      if i < 0 then None else Some { fr.c with pos = fr.voff.(i) }

  let to_event fr =
    match fr.backing with
    | Parsed ev -> ev
    | Bin ->
      let fields = ref [] in
      for i = fr.n - 1 downto 0 do
        if not (key_is_at fr i "seq" || key_is_at fr i "ts_ns" || key_is_at fr i "ev") then begin
          let key = Bytes.sub_string fr.c.b fr.koff.(i) fr.klen.(i) in
          fr.c.pos <- fr.voff.(i);
          fields := (key, decode_value fr.c) :: !fields
        end
      done;
      { seq = fr.seq; ts_ns = fr.ts_ns; kind = fr.kind; fields = !fields; line = fr.line }
end

(* Parse errors get the line they were found on; field errors carry it. *)
let with_line fr f =
  match f () with
  | r -> r
  | exception Parse_error msg -> Error (Printf.sprintf "line %d: %s" fr.line msg)
  | exception Field_error msg -> Error msg

(* The binary fold. [next] loads the next frame's payload into [fr.c],
   or answers [false] at a clean end of input. A frame is a "line":
   header 1, event seq [s] on line [s + 2], as in the JSONL rendering. *)
let fold_frames fr next ~header step =
  with_line fr (fun () ->
      fr.line <- 1;
      if not (next ()) then Error "empty journal: missing header frame"
      else begin
        let v = decode_value fr.c in
        check_consumed fr.c;
        let h =
          match v with
          | Obj kvs -> header_of_kvs kvs
          | _ -> raise (Parse_error "expected an object frame")
        in
        let acc = ref (header h) in
        fr.line <- 2;
        while next () do
          index_frame fr;
          read_reserved fr ~expect_seq:(fr.line - 2);
          acc := step !acc fr;
          fr.line <- fr.line + 1
        done;
        Ok !acc
      end)

(* The text fold over [next_line]'s lines; blank lines are skipped but
   numbered. *)
let fold_lines fr next_line ~header step =
  let obj_of_line line =
    match json_of_string line with
    | Error msg -> raise (Parse_error msg)
    | Ok (Obj kvs) -> kvs
    | Ok _ -> raise (Parse_error "expected a JSON object")
  in
  let rec next_obj () =
    match next_line () with
    | None -> None
    | Some line ->
      fr.line <- fr.line + 1;
      if String.trim line = "" then next_obj () else Some (obj_of_line line)
  in
  with_line fr (fun () ->
      fr.line <- 0;
      match next_obj () with
      | None -> Error "empty journal: missing header line"
      | Some kvs ->
        let acc = ref (header (header_of_kvs kvs)) in
        let rec go expect_seq =
          match next_obj () with
          | None -> Ok !acc
          | Some kvs ->
            set_parsed fr (event_of_kvs ~line:fr.line ~expect_seq kvs);
            acc := step !acc fr;
            go (expect_seq + 1)
        in
        go 0)

let starts_with_magic s =
  String.length s >= String.length binary_magic
  && String.sub s 0 (String.length binary_magic) = binary_magic

(* A frame's u32 LE length; -1 past [Int32.max_int], which no frame
   can be. *)
let get_len b off =
  let v =
    Char.code (Bytes.get b off)
    lor (Char.code (Bytes.get b (off + 1)) lsl 8)
    lor (Char.code (Bytes.get b (off + 2)) lsl 16)
    lor (Char.code (Bytes.get b (off + 3)) lsl 24)
  in
  if v > 0x7fffffff then -1 else v

let string_frames fr s =
  let n = String.length s and b = Bytes.unsafe_of_string s in
  let pos = ref (String.length binary_magic) in
  fun () ->
    if !pos >= n then false
    else if !pos + 4 > n then raise (Parse_error "truncated frame length")
    else begin
      let len = get_len b !pos in
      if len < 0 || len > n - !pos - 4 then truncated ();
      fr.c.b <- b;
      fr.c.pos <- !pos + 4;
      fr.c.lim <- !pos + 4 + len;
      pos := fr.c.lim;
      true
    end

(* Bytes actually read into [b] from [off], up to [len]. *)
let rec input_full ic b off len =
  if len = 0 then off
  else begin
    match input ic b off len with
    | 0 -> off
    | r -> input_full ic b (off + r) (len - r)
  end

(* Frames are read in place from one buffer refilled in large reads; a
   frame cut by the buffer's end is moved to its front first, and the
   buffer only grows for a frame larger than itself. [left] bytes of the
   file are unread: a frame claiming more is truncated, which is found
   before any buffer is sized for it. *)
let channel_frames fr ic ~left =
  let buf = ref (Bytes.create 65536) and lo = ref 0 and hi = ref 0 and left = ref left in
  (* [need] bytes from [lo] in the buffer, or [false] at end of file *)
  let fill need =
    if !hi - !lo < need then begin
      if !lo + need > Bytes.length !buf then begin
        let cap = Bytes.length !buf in
        let b = if need > cap then Bytes.create (max need (2 * cap)) else !buf in
        Bytes.blit !buf !lo b 0 (!hi - !lo);
        hi := !hi - !lo;
        lo := 0;
        buf := b
      end;
      hi := input_full ic !buf !hi (Bytes.length !buf - !hi)
    end;
    !hi - !lo >= need
  in
  fun () ->
    if not (fill 4) then
      if !hi = !lo then false else raise (Parse_error "truncated frame length")
    else begin
      let len = get_len !buf !lo in
      if len < 0 || len > !left - 4 || not (fill (4 + len)) then truncated ();
      fr.c.b <- !buf;
      fr.c.pos <- !lo + 4;
      fr.c.lim <- !lo + 4 + len;
      lo := fr.c.lim;
      left := !left - 4 - len;
      true
    end

let list_lines lines =
  let rest = ref lines in
  fun () ->
    match !rest with
    | [] -> None
    | l :: tl ->
      rest := tl;
      Some l

let fold_string s ~header step =
  let fr = new_frame () in
  if starts_with_magic s then fold_frames fr (string_frames fr s) ~header step
  else fold_lines fr (list_lines (String.split_on_char '\n' s)) ~header step

let fold_file path ~header step =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match in_channel_length ic with
        | exception Sys_error _ ->
          (* A pipe can be neither measured nor rewound: read it whole. *)
          fold_string (In_channel.input_all ic) ~header step
        | size ->
          let fr = new_frame () in
          let magic = String.length binary_magic in
          let head = Bytes.create magic in
          if input_full ic head 0 magic = magic && Bytes.to_string head = binary_magic then
            fold_frames fr (channel_frames fr ic ~left:(size - magic)) ~header step
          else begin
            seek_in ic 0;
            fold_lines fr (fun () -> In_channel.input_line ic) ~header step
          end)

let fold_events (h, evs) ~header step =
  let fr = new_frame () in
  with_line fr (fun () ->
      Ok
        (List.fold_left
           (fun acc ev ->
             set_parsed fr ev;
             step acc fr)
           (header h) evs))

(* ----- whole-journal parsing: the folds, accumulating events ----- *)

let collect fold =
  Result.map
    (fun (h, rev) -> (h, List.rev rev))
    (fold ~header:(fun h -> (h, [])) (fun (h, rev) fr -> (h, Frame.to_event fr :: rev)))

let parse_lines lines = collect (fold_lines (new_frame ()) (list_lines lines))
let parse_string s = parse_lines (String.split_on_char '\n' s)

let parse_binary_string s =
  if starts_with_magic s then collect (fold_string s) else Error "not a binary journal (bad magic)"

module Binary = struct
  let magic = binary_magic
  let encode_header h = frame_of_payload (encode_payload (header_obj h))
  let encode_event e = frame_of_payload (encode_payload (event_obj e))
  let parse_string = parse_binary_string
end

(* Auto-detecting loaders: a binary journal announces itself with the
   magic, anything else is treated as JSONL text. Every consumer that
   accepts user-supplied journal paths (replay, snapshot, compact,
   explain, convert, serve resume) goes through these or the folds. *)
let load_string s = collect (fold_string s)
let load_file path = collect (fold_file path)

(* ----- whole-journal files ----- *)

let sniff_file path =
  match open_in_bin path with
  | exception Sys_error _ -> Jsonl
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match really_input_string ic (String.length binary_magic) with
        | head when starts_with_magic head -> Binary
        | _ | (exception End_of_file) -> Jsonl)

let encode format (h, evs) =
  let b = Buffer.create 4096 in
  (match format with
  | Binary ->
    Buffer.add_string b binary_magic;
    Buffer.add_string b (Binary.encode_header h);
    List.iter (fun e -> Buffer.add_string b (Binary.encode_event e)) evs
  | Jsonl ->
    let line s =
      Buffer.add_string b s;
      Buffer.add_char b '\n'
    in
    line (render_header h);
    List.iter (fun e -> line (render_event e)) evs);
  Buffer.contents b

(* Write-then-rename: an interrupted write (or one over the input file
   itself) never leaves a half-written journal behind. *)
let write_file format path parsed =
  let tmp = path ^ ".tmp" in
  match
    Out_channel.with_open_bin tmp (fun oc -> output_string oc (encode format parsed));
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg
