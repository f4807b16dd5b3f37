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

let decode_payload s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt in
  let byte () =
    if !pos >= n then fail "truncated frame"
    else begin
      let c = Char.code s.[!pos] in
      incr pos;
      c
    end
  in
  let uvarint () =
    let rec go shift acc =
      let c = byte () in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 <> 0 then go (shift + 7) acc else acc
    in
    go 0 0
  in
  let take len =
    if len < 0 || !pos + len > n then fail "truncated frame"
    else begin
      let r = String.sub s !pos len in
      pos := !pos + len;
      r
    end
  in
  let rec value () =
    match byte () with
    | 0x00 -> Null
    | 0x01 -> Bool (byte () <> 0)
    | 0x02 ->
      let zz = uvarint () in
      Int ((zz lsr 1) lxor (- (zz land 1)))
    | 0x03 -> Float (Int64.float_of_bits (String.get_int64_le (take 8) 0))
    | 0x04 -> Str (take (uvarint ()))
    | 0x05 ->
      let count = uvarint () in
      List (values count [])
    | 0x06 ->
      let count = uvarint () in
      Obj (members count [])
    | tag -> fail "unknown value tag 0x%02x" tag
  and values k acc =
    if k = 0 then List.rev acc
    else begin
      let v = value () in
      values (k - 1) (v :: acc)
    end
  and members k acc =
    if k = 0 then List.rev acc
    else begin
      let key = take (uvarint ()) in
      let v = value () in
      members (k - 1) ((key, v) :: acc)
    end
  in
  let v = value () in
  if !pos <> n then fail "trailing bytes in frame";
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
  ring : string array;
  mutable ring_written : int;
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
    ring = Array.make tail_capacity "";
    ring_written = 0;
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
  sink.ring.(sink.ring_written mod Array.length sink.ring) <- line;
  sink.ring_written <- sink.ring_written + 1;
  if sink.batching > 0 then begin
    Buffer.add_string sink.batch line;
    Buffer.add_char sink.batch '\n'
  end
  else sink.write (line ^ "\n")

let push_payload sink payload =
  sink.ring.(sink.ring_written mod Array.length sink.ring) <- payload;
  sink.ring_written <- sink.ring_written + 1;
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
          (sink.ring_written + 1) sink.stream_seq sink.stream_kind msg))

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
  let cap = Array.length sink.ring in
  let total = sink.ring_written in
  let avail = min total cap in
  let take = max 0 (min n avail) in
  List.init take (fun j ->
      let entry = sink.ring.((total - take + j) mod cap) in
      match sink.format with
      | Jsonl -> entry
      | Binary -> render_json (decode_payload entry))

(* ----- whole-journal parsing ----- *)

let err lineno fmt = Printf.ksprintf (fun msg -> Error (Printf.sprintf "line %d: %s" lineno msg)) fmt

let parse_header_obj lineno kvs =
  match (List.assoc_opt "journal" kvs, List.assoc_opt "version" kvs) with
  | Some (Str journal), Some (Int version) ->
    let meta = List.filter (fun (k, _) -> k <> "journal" && k <> "version") kvs in
    Ok { journal; version; meta }
  | None, _ -> err lineno "header is missing the \"journal\" field"
  | _, None -> err lineno "header is missing the \"version\" field"
  | _ -> err lineno "header \"journal\"/\"version\" fields have the wrong type"

let parse_event_obj lineno ~expect_seq kvs =
  match
    ( List.assoc_opt "seq" kvs,
      List.assoc_opt "ts_ns" kvs,
      List.assoc_opt "ev" kvs )
  with
  | Some (Int seq), Some (Int ts_ns), Some (Str kind) ->
    if seq <> expect_seq then
      err lineno "sequence number %d, expected %d (truncated or tampered journal)" seq
        expect_seq
    else begin
      let fields = List.filter (fun (k, _) -> not (List.mem k reserved)) kvs in
      Ok { seq; ts_ns; kind; fields; line = lineno }
    end
  | None, _, _ -> err lineno "event is missing the \"seq\" field"
  | _, None, _ -> err lineno "event is missing the \"ts_ns\" field"
  | _, _, None -> err lineno "event is missing the \"ev\" field"
  | _ -> err lineno "event \"seq\"/\"ts_ns\"/\"ev\" fields have the wrong type"

let parse_lines lines =
  let rec go lineno ~header ~expect_seq acc = function
    | [] -> (
      match header with
      | None -> Error "empty journal: missing header line"
      | Some h -> Ok (h, List.rev acc))
    | line :: rest ->
      if String.trim line = "" then go (lineno + 1) ~header ~expect_seq acc rest
      else begin
        match json_of_string line with
        | Error msg -> err lineno "%s" msg
        | Ok (Obj kvs) -> (
          match header with
          | None -> (
            match parse_header_obj lineno kvs with
            | Error _ as e -> e
            | Ok h -> go (lineno + 1) ~header:(Some h) ~expect_seq acc rest)
          | Some _ -> (
            match parse_event_obj lineno ~expect_seq kvs with
            | Error _ as e -> e
            | Ok ev -> go (lineno + 1) ~header ~expect_seq:(expect_seq + 1) (ev :: acc) rest))
        | Ok _ -> err lineno "expected a JSON object"
      end
  in
  go 1 ~header:None ~expect_seq:0 [] lines

let parse_string s = parse_lines (String.split_on_char '\n' s)

(* ----- binary journals ----- *)

let starts_with_magic s =
  String.length s >= String.length binary_magic
  && String.sub s 0 (String.length binary_magic) = binary_magic

(* Same discipline as [parse_lines] — header first, contiguous sequence
   numbers, "line %d" errors (a frame is a line here: the header is
   line 1, the first event line 2, matching the JSONL rendering). *)
let parse_binary_string s =
  if not (starts_with_magic s) then Error "not a binary journal (bad magic)"
  else begin
    let n = String.length s in
    let rec go pos lineno ~header ~expect_seq acc =
      if pos >= n then
        match header with
        | None -> Error "empty journal: missing header frame"
        | Some h -> Ok (h, List.rev acc)
      else if pos + 4 > n then err lineno "truncated frame length"
      else begin
        let len = Int32.to_int (String.get_int32_le s pos) in
        if len < 0 || pos + 4 + len > n then err lineno "truncated frame"
        else begin
          let payload = String.sub s (pos + 4) len in
          match decode_payload payload with
          | exception Parse_error msg -> err lineno "%s" msg
          | Obj kvs -> (
            let next = pos + 4 + len in
            match header with
            | None -> (
              match parse_header_obj lineno kvs with
              | Error _ as e -> e
              | Ok h -> go next (lineno + 1) ~header:(Some h) ~expect_seq acc)
            | Some _ -> (
              match parse_event_obj lineno ~expect_seq kvs with
              | Error _ as e -> e
              | Ok ev ->
                go next (lineno + 1) ~header ~expect_seq:(expect_seq + 1) (ev :: acc)))
          | _ -> err lineno "expected an object frame"
        end
      end
    in
    go (String.length binary_magic) 1 ~header:None ~expect_seq:0 []
  end

let read_whole_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Ok (In_channel.input_all ic))

module Binary = struct
  let magic = binary_magic
  let encode_header h = frame_of_payload (encode_payload (header_obj h))
  let encode_event e = frame_of_payload (encode_payload (event_obj e))
  let parse_string = parse_binary_string
end

(* Auto-detecting loaders: a binary journal announces itself with the
   magic, anything else is treated as JSONL text. Every consumer that
   accepts user-supplied journal paths (replay, snapshot, compact,
   explain, convert, serve resume) goes through these. *)
let load_string s =
  if starts_with_magic s then parse_binary_string s else parse_string s

let load_file path = Result.bind (read_whole_file path) load_string

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

(* ----- typed field access ----- *)

let field e key = List.assoc_opt key e.fields

let field_err e key what =
  Error (Printf.sprintf "line %d: %s event: field %S missing or not %s" e.line e.kind key what)

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
