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

  let put_sub t s off len =
    ensure t len;
    Bytes.blit_string s off t.b t.pos len;
    t.pos <- t.pos + len

  let put_string t s = put_sub t s 0 (String.length s)

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

exception Parse_error of string

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

(* Raw bits: the reader's transcoder keeps whatever float the text
   spelled, [1e999] included; the encoders below refuse non-finite ones. *)
let put_float_bits b f =
  Fb.ensure b 9;
  Fb.put_byte b 0x03;
  Bytes.set_int64_le b.Fb.b b.Fb.pos (Int64.bits_of_float f);
  b.Fb.pos <- b.Fb.pos + 8

let encode_float b f =
  reject_non_finite f;
  put_float_bits b f

let encode_str b s =
  Fb.ensure b 10;
  Fb.put_byte b 0x04;
  put_uvarint b (String.length s);
  Fb.put_string b s

(* [raw] writes non-finite floats instead of refusing them: a value
   already read from a journal is re-encoded as it was read. *)
let rec encode_json ~raw b = function
  | Null ->
    Fb.ensure b 1;
    Fb.put_byte b 0x00
  | Bool v -> encode_bool b v
  | Int i -> encode_int b i
  | Float f -> if raw then put_float_bits b f else encode_float b f
  | Str s -> encode_str b s
  | List xs ->
    Fb.ensure b 11;
    Fb.put_byte b 0x05;
    put_uvarint b (List.length xs);
    List.iter (encode_json ~raw b) xs
  | Obj kvs ->
    Fb.ensure b 11;
    Fb.put_byte b 0x06;
    put_uvarint b (List.length kvs);
    List.iter
      (fun (k, v) ->
        put_key b k;
        encode_json ~raw b v)
      kvs

let encode_value b v = encode_json ~raw:false b v

let frame_of_payload payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.unsafe_to_string b

(* ----- JSON text, transcoded into the binary codec -----

   The one JSON parser. Text is read straight into a binary value in an
   [Fb] — the bytes [encode_value] writes for the same JSON — so a JSONL
   line becomes a frame payload in place and the frame reader takes it
   from there. Floats go in as raw bits: [1e999] reads back as
   [Float inf], as [float_of_string] spells it, and an integer literal
   too large for [int] reads as a float. A container's count and a
   string's length precede their contents, so each is written as one
   byte and widened in place in the rare case it needs more. *)

type text = {
  s : string;
  mutable at : int;
  out : Fb.t;
}

let text_fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt
let peek_is t c = t.at < String.length t.s && String.unsafe_get t.s t.at = c

let skip_ws t =
  while
    t.at < String.length t.s
    && match String.unsafe_get t.s t.at with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    t.at <- t.at + 1
  done

let expect t c =
  if not (peek_is t c) then text_fail "expected %C at offset %d" c t.at;
  t.at <- t.at + 1

let literal t word =
  let l = String.length word in
  let i = ref 0 in
  while !i < l && t.at + !i < String.length t.s && t.s.[t.at + !i] = word.[!i] do
    incr i
  done;
  if !i < l then text_fail "bad literal at offset %d" t.at;
  t.at <- t.at + l

let push_byte b v =
  Fb.ensure b 1;
  Fb.put_byte b v

(* Reserve a one-byte count (or length) slot; its offset. *)
let open_count b =
  push_byte b 0;
  b.Fb.pos - 1

(* Fill the slot at [slot] with [n], widening it when [n] takes more
   than one varint byte. *)
let close_count b slot n =
  let rec width n w = if n < 0x80 then w else width (n lsr 7) (w + 1) in
  let extra = width n 1 - 1 in
  if extra > 0 then begin
    Fb.ensure b extra;
    Bytes.blit b.Fb.b (slot + 1) b.Fb.b (slot + 1 + extra) (b.Fb.pos - slot - 1)
  end;
  let stop = b.Fb.pos + extra in
  b.Fb.pos <- slot;
  put_uvarint b n;
  b.Fb.pos <- stop

let put_utf8 b code =
  (* The journal only ever escapes control characters as \uXXXX; decode
     the BMP code point as UTF-8 so foreign journals still parse. *)
  Fb.ensure b 3;
  if code < 0x80 then Fb.put_byte b code
  else if code < 0x800 then begin
    Fb.put_byte b (0xC0 lor (code lsr 6));
    Fb.put_byte b (0x80 lor (code land 0x3F))
  end
  else begin
    Fb.put_byte b (0xE0 lor (code lsr 12));
    Fb.put_byte b (0x80 lor ((code lsr 6) land 0x3F));
    Fb.put_byte b (0x80 lor (code land 0x3F))
  end

(* The bytes of a string up to and past its closing quote, unescaped. *)
let rec string_bytes t b =
  let s = t.s and n = String.length t.s in
  let run = t.at in
  while t.at < n && (let c = String.unsafe_get s t.at in c <> '"' && c <> '\\') do
    t.at <- t.at + 1
  done;
  Fb.put_sub b s run (t.at - run);
  if t.at >= n then text_fail "unterminated string";
  if s.[t.at] = '"' then t.at <- t.at + 1
  else begin
    t.at <- t.at + 1;
    if t.at >= n then text_fail "unterminated escape";
    (match s.[t.at] with
    | ('"' | '\\' | '/') as c -> push_byte b (Char.code c)
    | 'n' -> push_byte b 0x0a
    | 't' -> push_byte b 0x09
    | 'r' -> push_byte b 0x0d
    | 'b' -> push_byte b 0x08
    | 'f' -> push_byte b 0x0c
    | 'u' ->
      if t.at + 4 >= n then text_fail "truncated \\u escape";
      let hex = String.sub s (t.at + 1) 4 in
      (match int_of_string_opt ("0x" ^ hex) with
      | Some code -> put_utf8 b code
      | None -> text_fail "bad \\u escape %S" hex);
      t.at <- t.at + 4
    | c -> text_fail "bad escape \\%c" c);
    t.at <- t.at + 1;
    string_bytes t b
  end

(* A string's length, then its unescaped bytes. *)
let text_string t =
  expect t '"';
  let b = t.out in
  let slot = open_count b in
  let start = b.Fb.pos in
  string_bytes t b;
  close_count b slot (b.Fb.pos - start)

let is_digit c = c >= '0' && c <= '9'

let skip_digits t =
  while t.at < String.length t.s && is_digit (String.unsafe_get t.s t.at) do
    t.at <- t.at + 1
  done

let text_number t =
  let s = t.s in
  let start = t.at in
  if peek_is t '-' then t.at <- t.at + 1;
  let d0 = t.at in
  skip_digits t;
  let d1 = t.at in
  let is_float = peek_is t '.' || peek_is t 'e' || peek_is t 'E' in
  if peek_is t '.' then begin
    t.at <- t.at + 1;
    skip_digits t
  end;
  if peek_is t 'e' || peek_is t 'E' then begin
    t.at <- t.at + 1;
    if peek_is t '+' || peek_is t '-' then t.at <- t.at + 1;
    skip_digits t
  end;
  if (not is_float) && d1 > d0 && d1 - d0 <= 18 then begin
    (* Eighteen digits always fit: no text copy on the common path. *)
    let v = ref 0 in
    for i = d0 to d1 - 1 do
      v := (10 * !v) + Char.code (String.unsafe_get s i) - Char.code '0'
    done;
    encode_int t.out (if d0 > start then - !v else !v)
  end
  else begin
    let text = String.sub s start (t.at - start) in
    match if is_float then None else int_of_string_opt text with
    | Some i -> encode_int t.out i
    | None -> (
      match float_of_string_opt text with
      | Some f -> put_float_bits t.out f
      | None -> text_fail "bad number %S" text)
  end

let rec text_value t =
  skip_ws t;
  if t.at >= String.length t.s then text_fail "unexpected end of input";
  match t.s.[t.at] with
  | '{' -> text_container t 0x06 '}'
  | '[' -> text_container t 0x05 ']'
  | '"' ->
    push_byte t.out 0x04;
    text_string t
  | 't' ->
    literal t "true";
    encode_bool t.out true
  | 'f' ->
    literal t "false";
    encode_bool t.out false
  | 'n' ->
    literal t "null";
    push_byte t.out 0x00
  | '-' | '0' .. '9' -> text_number t
  | c -> text_fail "unexpected character %C at offset %d" c t.at

(* An object (closed by '}', members are key: value) or a list. *)
and text_container t tag close =
  t.at <- t.at + 1;
  push_byte t.out tag;
  let slot = open_count t.out in
  skip_ws t;
  if peek_is t close then t.at <- t.at + 1
  else begin
    let count = ref 0 and more = ref true in
    while !more do
      if close = '}' then begin
        skip_ws t;
        text_string t;
        skip_ws t;
        expect t ':'
      end;
      text_value t;
      skip_ws t;
      incr count;
      if peek_is t ',' then t.at <- t.at + 1
      else if peek_is t close then begin
        t.at <- t.at + 1;
        more := false
      end
      else text_fail "expected ',' or %C at offset %d" close t.at
    done;
    close_count t.out slot !count
  end

(* Append the binary encoding of the JSON text [s] to [out].
   @raise Parse_error *)
let transcode out s =
  let t = { s; at = 0; out } in
  text_value t;
  skip_ws t;
  if t.at <> String.length s then text_fail "trailing garbage at offset %d" t.at

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

let json_of_string s =
  let b = Fb.create 64 in
  match transcode b s with
  | () -> Ok (decode_value { b = b.Fb.b; pos = 0; lim = b.Fb.pos })
  | exception Parse_error msg -> Error msg

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

(* ----- the tail: the last frames, in one byte ring -----

   A sink keeps its last [cap] frames (JSONL lines without the newline,
   binary payloads without the length prefix) for {!tail}, copied into
   one circular byte buffer. A steady stream of frames allocates
   nothing; the buffer grows only when the kept frames outgrow it (one
   large [rebalance] frame), and halves again once they fill a quarter
   of it, so that frame is not kept alive for ever. *)
module Tail = struct
  type t = {
    cap : int; (* frames kept *)
    off : int array; (* frame slot i starts at byte [off.(i)] of [buf] ... *)
    len : int array; (* ... and holds [len.(i)] bytes, wrapping at the end *)
    mutable buf : Bytes.t;
    min_bytes : int;
    mutable first : int; (* slot of the oldest kept frame *)
    mutable count : int;
    mutable used : int; (* bytes the kept frames hold *)
    mutable pushed : int;
  }

  (* Room for [cap] frames of 128 bytes (a binary op event is ~110, its
     JSONL line ~150), up to 64 KiB; larger frames grow it. *)
  let create cap =
    let min_bytes = max 256 (min (128 * cap) (1 lsl 16)) in
    {
      cap;
      off = Array.make cap 0;
      len = Array.make cap 0;
      buf = Bytes.create min_bytes;
      min_bytes;
      first = 0;
      count = 0;
      used = 0;
      pushed = 0;
    }

  let pushed t = t.pushed

  (* The slot [i] places after the oldest, for [0 <= i <= cap]. *)
  let slot t i =
    let s = t.first + i in
    if s >= t.cap then s - t.cap else s

  let blit_out t pos dst dst_off n =
    let a = min n (Bytes.length t.buf - pos) in
    Bytes.blit t.buf pos dst dst_off a;
    if a < n then Bytes.blit t.buf 0 dst (dst_off + a) (n - a)

  (* Copy the kept frames, oldest first, to the start of a buffer of
     [size] bytes. *)
  let resize t size =
    let nb = Bytes.create size in
    let p = ref 0 in
    for i = 0 to t.count - 1 do
      let s = slot t i in
      blit_out t t.off.(s) nb !p t.len.(s);
      t.off.(s) <- !p;
      p := !p + t.len.(s)
    done;
    t.buf <- nb

  let push t src src_off n =
    if t.count = t.cap then begin
      t.used <- t.used - t.len.(t.first);
      t.first <- slot t 1;
      t.count <- t.count - 1
    end;
    let size = Bytes.length t.buf in
    if t.used + n > size then begin
      let size = ref (2 * size) in
      while !size < t.used + n do
        size := 2 * !size
      done;
      resize t !size
    end
    else if size > t.min_bytes && 4 * (t.used + n) <= size then resize t (size / 2);
    let size = Bytes.length t.buf in
    let pos =
      if t.count = 0 then 0
      else begin
        let l = slot t (t.count - 1) in
        let e = t.off.(l) + t.len.(l) in
        if e >= size then e - size else e
      end
    in
    let a = min n (size - pos) in
    Bytes.blit src src_off t.buf pos a;
    if a < n then Bytes.blit src (src_off + a) t.buf 0 (n - a);
    let s = slot t t.count in
    t.off.(s) <- pos;
    t.len.(s) <- n;
    t.count <- t.count + 1;
    t.used <- t.used + n;
    t.pushed <- t.pushed + 1

  (* The newest [n] frames (all of them when fewer), oldest first. *)
  let last t n =
    let n = max 0 (min n t.count) in
    List.init n (fun i ->
        let s = slot t (t.count - n + i) in
        let b = Bytes.create t.len.(s) in
        blit_out t t.off.(s) b 0 t.len.(s);
        Bytes.unsafe_to_string b)
end

(* ----- sinks ----- *)

type format =
  | Jsonl
  | Binary

type sink = {
  format : format;
  write : string -> unit;
  clock_ns : unit -> int;
  mutable next_seq : int;
  mutable header_written : bool;
  (* Rendered JSONL lines, or binary frame payloads (length prefix
     stripped) — [tail] decodes the latter back to JSONL text. *)
  ring : Tail.t;
  (* The frame being encoded, exactly as it goes to disk: a binary
     frame's 4-byte length prefix (patched when the event is complete)
     and payload, or a JSONL line and its newline. Reused per event. *)
  scratch : Fb.t;
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
  let clock_ns = match clock_ns with Some c -> c | None -> Timer.now_int_ns in
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
    ring = Tail.create tail_capacity;
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
   storage (it is still in the sink's tail ring — [commit_frame]
   records it before the write runs) and the drop is counted in
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

(* Open a frame in the scratch writer: a binary frame starts with room
   for its length prefix. *)
let open_frame sink =
  let b = sink.scratch in
  Fb.clear b;
  match sink.format with
  | Jsonl -> ()
  | Binary ->
    Fb.ensure b 4;
    b.Fb.pos <- 4

(* Close the frame in the scratch writer and hand it on: its bytes are
   copied once into the tail ring and once into the batch buffer, or,
   unbatched, into the one string [write] receives per frame. *)
let commit_frame sink =
  let b = sink.scratch in
  (match sink.format with
  | Jsonl ->
    Tail.push sink.ring b.Fb.b 0 b.Fb.pos;
    Fb.ensure b 1;
    Fb.put_char b '\n'
  | Binary ->
    let n = b.Fb.pos - 4 in
    for i = 0 to 3 do
      Bytes.unsafe_set b.Fb.b i (Char.unsafe_chr ((n lsr (8 * i)) land 0xff))
    done;
    Tail.push sink.ring b.Fb.b 4 n);
  if sink.batching > 0 then Buffer.add_subbytes sink.batch b.Fb.b 0 b.Fb.pos
  else sink.write (Fb.contents b)

let write_header sink ~journal meta =
  if sink.stream_open then
    invalid_arg "Journal.write_header: a streamed event is open on this sink";
  if not sink.header_written then begin
    sink.header_written <- true;
    let h = { journal; version = current_version; meta } in
    open_frame sink;
    (match sink.format with
    | Jsonl -> render_into sink.scratch (header_obj h)
    | Binary ->
      sink_out sink binary_magic;
      encode_value sink.scratch (header_obj h));
    commit_frame sink
  end

(* ----- emission -----

   One encode path per codec. [Emit] writes fields straight into the
   sink's scratch writer — the caller declares the field count up front
   (it goes in the binary object header) and then pushes each field
   with a monomorphic call, so a steady-state event in a batch
   allocates nothing (unbatched, only the string [write] receives).
   [emit] is the same protocol driven from a field list:
   [Emit.start], one [Emit.value] per unreserved field, [Emit.finish].

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
          (Tail.pushed sink.ring + 1) sink.stream_seq sink.stream_kind msg))

module Emit = struct
  let start sink ~kind ~fields =
    if sink.stream_open then
      invalid_arg "Journal.Emit.start: a streamed event is already open";
    if fields < 0 then invalid_arg "Journal.Emit.start: negative field count";
    sink.stream_open <- true;
    sink.stream_left <- fields;
    sink.stream_seq <- sink.next_seq;
    sink.stream_kind <- kind;
    let ts_ns = sink.clock_ns () in
    open_frame sink;
    let b = sink.scratch in
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
    sink.next_seq <- sink.stream_seq + 1;
    commit_frame sink
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
    (Tail.last sink.ring n)

(* ----- reading journals -----

   One reader for both codecs. Every journal is read as a sequence of
   binary frame payloads: a binary journal's frames in place, from a
   string or from a channel through one reusable buffer; a JSONL line
   transcoded into a reusable writer; an already-parsed event list
   encoded one event at a time. The header frame goes to [header], and
   each event frame is indexed where it sits — the reserved fields are
   decoded straight off the bytes, and the step reads the rest by key on
   demand, comparing keys in place. The whole-journal loaders are this
   fold accumulating {!Frame.to_event}. *)

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

type frame = {
  mutable line : int;
  mutable seq : int;
  mutable ts_ns : int;
  mutable kind : string;
  c : cursor; (* the payload is [c.b] up to [c.lim] *)
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
    c = { b = Bytes.empty; pos = 0; lim = 0 };
    n = 0;
    koff = Array.make 8 0;
    klen = Array.make 8 0;
    voff = Array.make 8 0;
    kinds = [];
  }

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

let read_header fr =
  let v = decode_value fr.c in
  check_consumed fr.c;
  match v with Obj kvs -> header_of_kvs kvs | _ -> raise (Parse_error "expected an object frame")

(* The reserved triple: a well-typed [seq]/[ts_ns]/[ev] with the
   expected sequence number, or else the first missing key, or else a
   wrong type. *)
let reserved_error ~seq ~ts_ns ~ev =
  raise
    (Parse_error
       (if not seq then "event is missing the \"seq\" field"
        else if not ts_ns then "event is missing the \"ts_ns\" field"
        else if not ev then "event is missing the \"ev\" field"
        else "event \"seq\"/\"ts_ns\"/\"ev\" fields have the wrong type"))

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
  if fr.seq <> expect_seq then
    raise
      (Parse_error
         (Printf.sprintf "sequence number %d, expected %d (truncated or tampered journal)" fr.seq
            expect_seq));
  enter fr ti;
  fr.ts_ns <- get_zigzag fr.c;
  enter fr ei;
  let len = get_uvarint fr.c in
  fr.kind <- intern fr (advance fr.c len) len

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
  let int c = if tagged c 0x02 then get_zigzag c else raise Not_found
  let str c = if tagged c 0x04 then get_str c else raise Not_found
  let value = decode_value

  (* Reads a length-prefixed byte run whatever it holds. *)
  let key_is c s =
    let len = get_uvarint c in
    let p = advance c len in
    len = String.length s && bytes_eq c.b p s

  let str_is c s = tagged c 0x04 && key_is c s

  let member c key =
    let n = obj c in
    let found = ref false and i = ref 0 in
    while (not !found) && !i < n do
      if key_is c key then found := true
      else begin
        skip_value c;
        incr i
      end
    done;
    !found

  let of_json v =
    let b = Fb.create 64 in
    encode_json ~raw:true b v;
    { b = b.Fb.b; pos = 0; lim = b.Fb.pos }
end

module Frame = struct
  type t = frame

  let line fr = fr.line
  let seq fr = fr.seq
  let kind fr = fr.kind
  let missing fr key what = raise (Field_error (field_msg ~line:fr.line ~kind:fr.kind key what))

  (* The member holding field [key], or -1: reserved keys are not
     fields, as in [event.fields]. *)
  let field_index fr key = if is_reserved key then -1 else member_index fr key

  let scalar fr key tag what =
    let i = field_index fr key in
    if i < 0 || tag_at fr i <> tag then missing fr key what;
    enter fr i

  let int fr key =
    scalar fr key 0x02 "an integer";
    get_zigzag fr.c

  let str fr key =
    scalar fr key 0x04 "a string";
    get_str fr.c

  let bool fr key =
    scalar fr key 0x01 "a boolean";
    get_byte fr.c <> 0

  let list fr key =
    scalar fr key 0x05 "a list";
    decode_values fr.c (get_count fr.c) []

  let cursor fr key =
    let i = field_index fr key in
    if i < 0 then None else Some { fr.c with pos = fr.voff.(i) }

  let to_event fr =
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

(* The fold. [source fr] is the [next] function that loads the next
   frame's payload into [fr.c] and sets [fr.line], or answers [false] at
   a clean end of input; [empty] is the error for an input with no
   header. *)
let fold_frames source ~empty ~header step =
  let fr = new_frame () in
  let next = source fr in
  with_line fr (fun () ->
      if not (next ()) then Error empty
      else begin
        let acc = ref (header (read_header fr)) in
        let expect_seq = ref 0 in
        while next () do
          index_frame fr;
          read_reserved fr ~expect_seq:!expect_seq;
          acc := step !acc fr;
          incr expect_seq
        done;
        Ok !acc
      end)

let load_payload fr b =
  fr.c.b <- b.Fb.b;
  fr.c.pos <- 0;
  fr.c.lim <- b.Fb.pos

(* JSONL: each non-blank line of [next_line] transcoded into one frame.
   Blank lines are skipped but numbered. *)
let line_frames next_line fr =
  let b = Fb.create 256 in
  let rec next () =
    match next_line () with
    | None -> false
    | Some line ->
      fr.line <- fr.line + 1;
      if String.trim line = "" then next ()
      else begin
        Fb.clear b;
        transcode b line;
        if Bytes.get b.Fb.b 0 <> '\x06' then raise (Parse_error "expected a JSON object");
        load_payload fr b;
        true
      end
  in
  next

let fold_lines next_line =
  fold_frames (line_frames next_line) ~empty:"empty journal: missing header line"

(* A parsed journal, each event encoded into one frame on its own line,
   as [Emit] writes it: no event object is built. *)
let fold_parsed ((h : header), evs) =
  let source fr =
    let b = Fb.create 256 and rest = ref None in
    let load line = load_payload fr b; fr.line <- line; true in
    fun () ->
      Fb.clear b;
      match !rest with
      | None ->
        rest := Some evs;
        encode_json ~raw:true b (header_obj h);
        load 1
      | Some [] -> false
      | Some ((e : event) :: tl) ->
        rest := Some tl;
        let fields = e.fields in
        encode_event_prelude b ~seq:e.seq ~ts_ns:e.ts_ns ~kind:e.kind
          ~count:(count_unreserved fields);
        List.iter
          (fun (k, v) -> if not (is_reserved k) then (put_key b k; encode_json ~raw:true b v))
          fields;
        load e.line
  in
  fold_frames source ~empty:"empty journal"

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

(* Binary frames are numbered as lines: header 1, event seq [s] on line
   [s + 2], as in the JSONL rendering. *)
let string_frames s fr =
  let n = String.length s and b = Bytes.unsafe_of_string s in
  let pos = ref (String.length binary_magic) in
  fun () ->
    fr.line <- fr.line + 1;
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
let channel_frames ic ~left fr =
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
    fr.line <- fr.line + 1;
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

let binary_empty = "empty journal: missing header frame"

let fold_string s ~header step =
  if String.starts_with ~prefix:binary_magic s then
    fold_frames (string_frames s) ~empty:binary_empty ~header step
  else fold_lines (Seq.to_dispenser (List.to_seq (String.split_on_char '\n' s))) ~header step

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
          let magic = String.length binary_magic in
          let head = Bytes.create magic in
          if input_full ic head 0 magic = magic && Bytes.to_string head = binary_magic then
            fold_frames (channel_frames ic ~left:(size - magic)) ~empty:binary_empty ~header step
          else begin
            seek_in ic 0;
            fold_lines (fun () -> In_channel.input_line ic) ~header step
          end)

(* ----- loading whole journals: the folds, accumulating events ----- *)

let collect fold =
  Result.map
    (fun (h, rev) -> (h, List.rev rev))
    (fold ~header:(fun h -> (h, [])) (fun (h, rev) fr -> (h, Frame.to_event fr :: rev)))

module Binary = struct
  let magic = binary_magic
  let encode_header h = frame_of_payload (encode_payload (header_obj h))
  let encode_event e = frame_of_payload (encode_payload (event_obj e))
end

(* Auto-detecting loaders: a binary journal announces itself with the
   magic, anything else is treated as JSONL text. Every consumer that
   accepts user-supplied journal paths (replay, snapshot, compact,
   explain, convert, serve resume) goes through these or the folds. *)
let load_string s = collect (fold_string s)
let load_file path = collect (fold_file path)

(* ----- whole-journal files ----- *)

let sniff_file path =
  match
    In_channel.with_open_bin path (fun ic ->
        In_channel.really_input_string ic (String.length binary_magic))
  with
  | Some head when head = binary_magic -> Binary
  | _ | (exception Sys_error _) -> Jsonl

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
