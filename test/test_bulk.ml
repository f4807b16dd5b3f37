(* PR-10 regression suite: the batched hot path and its companions.

   - Float boundary round trips through BOTH journal codecs (max_float,
     subnormals, -0.) and the non-finite rejection contract (encode
     error with line/seq context, no sequence number burned).
   - Binary frame codec: convert-equivalence with JSONL, truncation and
     corruption rejected with frame-numbered errors.
   - The qcheck equivalence property: [Engine.apply_bulk] must leave
     state, stats and journal bytes bit-identical to one-by-one
     application, for batch sizes {1, 7, 1024} and every trigger mode.
   - [Cluster.apply_bulk] against the one-by-one router.
   - [Protocol.handle_lines]: pipelined replies identical to the
     unbatched session, parse errors flushed in order, QUIT drops the
     pipelined remainder.
   - Lineio under adversity: EAGAIN (nonblocking fds) on both the read
     and write paths, signals landing mid-session, [has_line] as an
     exact batching probe.
   - The HTTP sniffer: a delayed first byte (the "HE" of a slow HELP
     client) must fall back to the protocol session, never classify as
     HTTP. *)

module Engine = Rebal_online.Engine
module Cluster = Rebal_online.Cluster
module Protocol = Rebal_online.Protocol
module Journal = Rebal_obs.Journal
module Lineio = Rebal_net.Lineio
module Http = Rebal_net.Http
open QCheck2

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  k = 0 || go 0

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

(* ----- float boundaries through both codecs ----- *)

let boundary_floats =
  [
    max_float;
    min_float (* smallest positive normal *);
    4.9e-324 (* smallest positive subnormal *);
    2.225073858507201e-308 (* largest subnormal *);
    -0.;
    0.;
    1.5;
    -1.7976931348623157e308;
    3.141592653589793;
  ]

let bits = Int64.bits_of_float

let header = { Journal.journal = "test"; version = 1; meta = [] }

let event_with_floats fs =
  {
    Journal.seq = 0;
    ts_ns = 42;
    kind = "f";
    fields = List.mapi (fun i f -> (Printf.sprintf "x%d" i, Journal.Float f)) fs;
    line = 2;
  }

let floats_of_event (e : Journal.event) =
  List.filter_map (function _, Journal.Float f -> Some f | _ -> None) e.Journal.fields

let test_float_round_trip_jsonl () =
  let ev = event_with_floats boundary_floats in
  let text = Journal.render_header header ^ "\n" ^ Journal.render_event ev ^ "\n" in
  match Journal.parse_string text with
  | Error e -> Alcotest.failf "jsonl parse failed: %s" e
  | Ok (_, [ ev' ]) ->
    List.iter2
      (fun f f' ->
        check (Alcotest.int64) (Printf.sprintf "jsonl bits of %h" f) (bits f) (bits f'))
      boundary_floats (floats_of_event ev')
  | Ok _ -> Alcotest.fail "expected exactly one event"

let test_float_round_trip_binary () =
  let ev = event_with_floats boundary_floats in
  let blob =
    Journal.Binary.magic ^ Journal.Binary.encode_header header
    ^ Journal.Binary.encode_event ev
  in
  match Journal.Binary.parse_string blob with
  | Error e -> Alcotest.failf "binary parse failed: %s" e
  | Ok (_, [ ev' ]) ->
    List.iter2
      (fun f f' ->
        check (Alcotest.int64) (Printf.sprintf "binary bits of %h" f) (bits f) (bits f'))
      boundary_floats (floats_of_event ev')
  | Ok _ -> Alcotest.fail "expected exactly one event"

let test_negative_zero_stays_negative () =
  (* -0. is the classic casualty of printf round trips: check the sign
     bit explicitly in both codecs. *)
  let ev = event_with_floats [ -0. ] in
  let via_jsonl =
    match Journal.parse_string (Journal.render_header header ^ "\n" ^ Journal.render_event ev) with
    | Ok (_, [ e ]) -> List.hd (floats_of_event e)
    | _ -> Alcotest.fail "jsonl round trip failed"
  in
  check Alcotest.int64 "jsonl -0. sign bit" (bits (-0.)) (bits via_jsonl)

let test_non_finite_rejected () =
  List.iter
    (fun bad ->
      let raised =
        try
          ignore (Journal.render_json (Journal.Float bad));
          false
        with Journal.Encode_error _ -> true
      in
      check_bool (Printf.sprintf "render rejects %h" bad) true raised;
      let raised_bin =
        try
          ignore (Journal.Binary.encode_event (event_with_floats [ bad ]));
          false
        with Journal.Encode_error _ -> true
      in
      check_bool (Printf.sprintf "binary rejects %h" bad) true raised_bin)
    [ nan; infinity; neg_infinity ]

let test_emit_rejection_burns_no_seq () =
  let buf = Buffer.create 256 in
  let sink =
    Journal.create ~clock_ns:(fun () -> 7L) ~write:(Buffer.add_string buf) ()
  in
  Journal.write_header sink ~journal:"test" [];
  Journal.emit sink ~kind:"ok" [ ("v", Journal.Int 1) ];
  let msg =
    try
      Journal.emit sink ~kind:"bad" [ ("v", Journal.Float nan) ];
      Alcotest.fail "emit accepted nan"
    with Journal.Encode_error m -> m
  in
  (* The error names the would-be line so a producer can log where the
     poison came from. *)
  check_bool "error carries context" true (contains msg "line");
  (* The rejected event consumed no sequence number: the next emit is
     seq 1 and the journal parses as contiguous. *)
  Journal.emit sink ~kind:"ok" [ ("v", Journal.Int 2) ];
  match Journal.parse_string (Buffer.contents buf) with
  | Error e -> Alcotest.failf "journal not contiguous after rejection: %s" e
  | Ok (_, events) ->
    check_int "two events" 2 (List.length events);
    check_int "seq resumes at 1" 1 (List.nth events 1).Journal.seq

(* ----- binary codec: convert equivalence, truncation ----- *)

let sample_journal () =
  let buf = Buffer.create 512 in
  let tick = ref 0 in
  let sink =
    Journal.create
      ~clock_ns:(fun () ->
        incr tick;
        Int64.of_int (!tick * 1000))
      ~write:(Buffer.add_string buf) ()
  in
  Journal.write_header sink ~journal:"sample" [ ("m", Journal.Int 4) ];
  Journal.emit sink ~kind:"add"
    [ ("id", Journal.Str "a"); ("size", Journal.Int 10); ("f", Journal.Float 0.25) ];
  Journal.emit sink ~kind:"weird"
    [
      ("s", Journal.Str "quote\" back\\ slash \t tab \xf0\x9f\x90\xab");
      ("l", Journal.List [ Journal.Null; Journal.Bool true; Journal.Int (-7) ]);
      ("o", Journal.Obj [ ("nested", Journal.Int max_int) ]);
    ];
  Buffer.contents buf

let binary_of (h, events) =
  let b = Buffer.create 512 in
  Buffer.add_string b Journal.Binary.magic;
  Buffer.add_string b (Journal.Binary.encode_header h);
  List.iter (fun e -> Buffer.add_string b (Journal.Binary.encode_event e)) events;
  Buffer.contents b

let test_convert_equivalence () =
  let text = sample_journal () in
  let parsed = match Journal.parse_string text with Ok p -> p | Error e -> Alcotest.fail e in
  let blob = binary_of parsed in
  (match Journal.Binary.parse_string blob with
  | Error e -> Alcotest.failf "binary re-parse: %s" e
  | Ok (h', events') ->
    let h, events = parsed in
    check_string "header journal" h.Journal.journal h'.Journal.journal;
    check_bool "header meta" true (h.Journal.meta = h'.Journal.meta);
    check_int "event count" (List.length events) (List.length events');
    List.iter2
      (fun (a : Journal.event) (b : Journal.event) ->
        check_int "seq" a.seq b.seq;
        check_int "ts" a.ts_ns b.ts_ns;
        check_string "kind" a.kind b.kind;
        check_bool "fields" true (a.fields = b.fields))
      events events');
  (* auto-detect dispatches on the magic *)
  check_bool "load_string detects binary" true (Result.is_ok (Journal.load_string blob));
  check_bool "load_string detects jsonl" true (Result.is_ok (Journal.load_string text))

let test_binary_truncation_rejected () =
  let text = sample_journal () in
  let parsed = match Journal.parse_string text with Ok p -> p | Error e -> Alcotest.fail e in
  let blob = binary_of parsed in
  (* chop mid-frame: every proper prefix that ends inside a frame must
     be rejected, and the error must name a frame ("line"). *)
  let truncated = String.sub blob 0 (String.length blob - 3) in
  (match Journal.Binary.parse_string truncated with
  | Ok _ -> Alcotest.fail "truncated journal accepted"
  | Error e -> check_bool "truncation error names a line" true (contains e "line"));
  (* a frame whose payload opens with an invalid tag byte *)
  let corrupt = blob ^ "\x01\x00\x00\x00\xff" in
  (match Journal.Binary.parse_string corrupt with
  | Ok _ -> Alcotest.fail "corrupted journal accepted"
  | Error _ -> ());
  match Journal.Binary.parse_string "RBXX" with
  | Ok _ -> Alcotest.fail "bad magic accepted"
  | Error _ -> ()

(* ----- apply_bulk == one-by-one (the tentpole property) ----- *)

let op_gen =
  Gen.(
    let id = map (fun i -> Printf.sprintf "j%d" i) (int_range 0 20) in
    oneof
      [
        map2 (fun id size -> Engine.Add { id; size }) id (int_range 1 60);
        map (fun id -> Engine.Remove { id }) id;
        map2 (fun id size -> Engine.Resize { id; size }) id (int_range 1 60);
      ])

let trigger_gen =
  Gen.oneofl
    [
      Engine.Manual;
      Engine.Every_events { events = 5; k = 3 };
      Engine.Imbalance_above { threshold = 1.2; k = 4 };
      Engine.Every_seconds { seconds = 0.5; k = 2 };
    ]

let stream_gen =
  Gen.(
    let* m = int_range 1 8 in
    let* ops = list_size (int_range 0 80) op_gen in
    let* trigger = trigger_gen in
    return (m, ops, trigger))

(* A deterministic engine pair: same fake wall clock (advancing 0.1s a
   tick, so Every_seconds fires identically), same fake journal clock. *)
let engine_with_buffer ~trigger m =
  let buf = Buffer.create 1024 in
  let jtick = ref 0 in
  let wall = ref 0.0 in
  let sink =
    Journal.create
      ~clock_ns:(fun () ->
        incr jtick;
        Int64.of_int (!jtick * 1000))
      ~write:(Buffer.add_string buf) ()
  in
  let eng =
    Engine.create ~trigger
      ~clock:(fun () ->
        wall := !wall +. 0.1;
        !wall)
      ~journal:sink ~m ()
  in
  (eng, buf)

let apply_one eng = function
  | Engine.Add { id; size } -> Engine.add_job eng ~id ~size
  | Engine.Remove { id } -> Engine.remove_job eng ~id
  | Engine.Resize { id; size } -> Engine.resize_job eng ~id ~size

let chunks size arr =
  let n = Array.length arr in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let len = min size (n - i) in
      go (i + len) (Array.sub arr i len :: acc)
  in
  go 0 []

let render_state eng = Journal.render_json (Engine.snapshot eng)

let bulk_equivalence_prop batch_size =
  Test.make ~count:120
    ~name:(Printf.sprintf "apply_bulk(batch=%d) == one-by-one" batch_size)
    ~print:(fun (m, ops, trigger) ->
      Printf.sprintf "m=%d trigger=%s ops=%d" m (Engine.trigger_name trigger)
        (List.length ops))
    stream_gen
    (fun (m, ops, trigger) ->
      let ops = Array.of_list ops in
      let seq_eng, seq_buf = engine_with_buffer ~trigger m in
      let seq_results = Array.map (fun op -> apply_one seq_eng op) ops in
      let bulk_eng, bulk_buf = engine_with_buffer ~trigger m in
      let bulk_results = Array.make (Array.length ops) (Error "never ran") in
      let base = ref 0 in
      List.iter
        (fun chunk ->
          Engine.apply_bulk bulk_eng
            ~on_result:(fun i _op r -> bulk_results.(!base + i) <- r)
            chunk;
          base := !base + Array.length chunk)
        (chunks batch_size ops);
      (* state, stats, per-op results and journal BYTES all bit-match *)
      render_state seq_eng = render_state bulk_eng
      && Engine.stats seq_eng = Engine.stats bulk_eng
      && seq_results = bulk_results
      && Buffer.contents seq_buf = Buffer.contents bulk_buf)

let test_bulk_rejects_mixed_validity_correctly () =
  (* Invalid ops inside a batch change nothing and later ops see the
     state the earlier ones produced. *)
  let eng, _ = engine_with_buffer ~trigger:Engine.Manual 2 in
  let results = ref [] in
  Engine.apply_bulk eng
    ~on_result:(fun _ _ r -> results := r :: !results)
    [|
      Engine.Add { id = "a"; size = 10 };
      Engine.Add { id = "a"; size = 5 } (* duplicate *);
      Engine.Remove { id = "ghost" } (* absent *);
      Engine.Resize { id = "a"; size = 20 };
    |];
  (match List.rev !results with
  | [ Ok _; Error e1; Error e2; Ok _ ] ->
    check_string "duplicate message" "job a already present" e1;
    check_string "absent message" "job ghost not found" e2
  | _ -> Alcotest.fail "unexpected result shapes");
  check_int "only a lives" 1 (Engine.job_count eng);
  check_int "resize landed" 20 (Engine.makespan eng)

(* ----- Cluster.apply_bulk == one-by-one router ----- *)

let test_cluster_bulk_equivalence () =
  let ops =
    Array.init 60 (fun i ->
        let id = Printf.sprintf "j%d" (i mod 17) in
        match i mod 4 with
        | 0 | 1 -> Engine.Add { id; size = 1 + (i mod 9) }
        | 2 -> Engine.Resize { id; size = 1 + (i mod 5) }
        | _ -> Engine.Remove { id })
  in
  let apply_one_cluster c = function
    | Engine.Add { id; size } -> Cluster.add_job c ~id ~size
    | Engine.Remove { id } -> Cluster.remove_job c ~id
    | Engine.Resize { id; size } -> Cluster.resize_job c ~id ~size
  in
  let run_seq domains =
    let c = Cluster.create ~m:8 ~shards:2 ~domains () in
    Fun.protect ~finally:(fun () -> Cluster.shutdown c) @@ fun () ->
    let rs = Array.map (fun op -> apply_one_cluster c op) ops in
    (rs, Cluster.loads c, Cluster.makespan c, Cluster.job_count c)
  in
  let run_bulk domains =
    let c = Cluster.create ~m:8 ~shards:2 ~domains () in
    Fun.protect ~finally:(fun () -> Cluster.shutdown c) @@ fun () ->
    let rs = Array.make (Array.length ops) (Error "never ran") in
    Cluster.apply_bulk c ~on_result:(fun i _ r -> rs.(i) <- r) ops;
    (rs, Cluster.loads c, Cluster.makespan c, Cluster.job_count c)
  in
  (* Both executors, each batched against one-by-one on itself. *)
  List.iter
    (fun domains ->
      let rs_a, loads_a, mk_a, jc_a = run_seq domains in
      let rs_b, loads_b, mk_b, jc_b = run_bulk domains in
      check_bool "results match" true (rs_a = rs_b);
      check_bool "loads match" true (loads_a = loads_b);
      check_int "makespan" mk_a mk_b;
      check_int "job count" jc_a jc_b)
    [ 0; 2 ]

(* ----- Protocol.handle_lines ----- *)

let script =
  [
    "ADD a 10";
    "ADD b 20";
    "RESIZE a 15";
    "# a comment mid-batch";
    "REMOVE b";
    "ADD c 0" (* parse error *);
    "ADD d 7";
    "STATS";
    "ADD e 3";
  ]

let test_handle_lines_matches_one_by_one () =
  let eng1 = Engine.create ~m:4 () in
  let expect =
    List.concat
      (List.mapi
         (fun i l -> fst (Protocol.handle_line ~line:(i + 1) (Protocol.Single eng1) l))
         script)
  in
  let eng2 = Engine.create ~m:4 () in
  let got, verdict = Protocol.handle_lines (Protocol.Single eng2) script in
  check_bool "pipelined replies identical" true (expect = got);
  check_bool "still open" true (verdict = Protocol.Continue);
  check_string "same final state" (render_state eng1) (render_state eng2)

let test_handle_lines_quit_drops_remainder () =
  let eng = Engine.create ~m:4 () in
  let got, verdict =
    Protocol.handle_lines (Protocol.Single eng) [ "ADD a 1"; "QUIT"; "ADD b 2" ]
  in
  check_bool "closes" true (verdict = Protocol.Close);
  check_bool "BYE last" true (List.exists (fun l -> l = "BYE") got);
  check_int "b never placed" 1 (Engine.job_count eng)

let test_handle_lines_start_line_numbers_errors () =
  let eng = Engine.create ~m:4 () in
  let got, _ =
    Protocol.handle_lines ~start_line:41 (Protocol.Single eng) [ "ADD a 1"; "BOGUS" ]
  in
  check_bool "error carries absolute line" true
    (List.exists
       (fun l ->
         String.length l >= 11 && String.sub l 0 11 = "ERR line 42")
       got)

(* ----- Lineio: EAGAIN, signals, has_line ----- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_lineio_nonblocking_read () =
  with_socketpair @@ fun a b ->
  Unix.set_nonblock a;
  let r = Lineio.reader a in
  let got = ref None in
  let t = Thread.create (fun () -> got := Lineio.read_line r) () in
  Thread.delay 0.02 (* let the reader hit EAGAIN and park in select *);
  ignore (Unix.write_substring b "hello\nrest" 0 10);
  Thread.join t;
  check_bool "line through EAGAIN" true (!got = Some "hello");
  (* the trailing partial line is buffered but not a line yet *)
  check_bool "no complete line buffered" false (Lineio.has_line r);
  ignore (Unix.write_substring b "!\n" 0 2);
  check_bool "second line arrives" true (Lineio.read_line r = Some "rest!")

let test_lineio_has_line_batching_probe () =
  with_socketpair @@ fun a b ->
  ignore (Unix.write_substring b "one\ntwo\nthr" 0 11);
  let r = Lineio.reader a in
  check_bool "first line" true (Lineio.read_line r = Some "one");
  check_bool "second already buffered" true (Lineio.has_line r);
  check_bool "second line" true (Lineio.read_line r = Some "two");
  (* "thr" is buffered but unterminated: has_line must be false, or the
     session would block mid-batch. *)
  check_bool "partial is not a line" false (Lineio.has_line r);
  ignore (Unix.write_substring b "ee\n" 0 3);
  check_bool "completed line" true (Lineio.read_line r = Some "three");
  Unix.close b;
  (* EOF with empty buffer *)
  check_bool "eof" true (Lineio.read_line r = None)

let test_lineio_write_survives_backpressure () =
  (* A payload far larger than the socket buffer, written through a
     nonblocking fd: Lineio must resume short writes and wait out
     EAGAIN until every byte lands. *)
  with_socketpair @@ fun a b ->
  Unix.set_nonblock a;
  let n = 1 lsl 20 in
  let payload = String.init n (fun i -> Char.chr (32 + (i mod 90))) in
  let writer = Thread.create (fun () -> Lineio.write_string a payload) () in
  let buf = Bytes.create 65536 in
  let received = ref 0 in
  while !received < n do
    let k = Unix.read b buf 0 (Bytes.length buf) in
    if k = 0 then Alcotest.fail "peer closed early";
    received := !received + k
  done;
  Thread.join writer;
  check_int "every byte delivered" n !received

let test_lineio_survives_signals () =
  (* SIGUSR1 rains on the process while a session reads and writes.
     Before the EINTR audit this tore sessions down mid-drain; now the
     line must arrive intact. The handler is a no-op installed with
     [Signal_handle], which is what makes syscalls return EINTR at
     all. *)
  let previous = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect ~finally:(fun () -> ignore (Sys.signal Sys.sigusr1 previous))
  @@ fun () ->
  with_socketpair @@ fun a b ->
  let r = Lineio.reader a in
  let got = ref None in
  let reader = Thread.create (fun () -> got := Lineio.read_line r) () in
  let pid = Unix.getpid () in
  for _ = 1 to 20 do
    Unix.kill pid Sys.sigusr1;
    Thread.delay 0.002
  done;
  ignore (Unix.write_substring b "survived\n" 0 9);
  for _ = 1 to 5 do
    Unix.kill pid Sys.sigusr1;
    Thread.delay 0.002
  done;
  Thread.join reader;
  check_bool "read survived the signal storm" true (!got = Some "survived")

let test_lineio_connect_refused_reports () =
  (* connect to a port nobody listens on: the EINTR-safe wrapper must
     still surface the real error, not swallow it. *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, 1) in
  match Lineio.connect sock addr with
  | () -> Alcotest.fail "connect to port 1 succeeded?"
  | exception Unix.Unix_error _ -> ()

(* ----- HTTP sniffer: delayed first byte ----- *)

let test_sniff_delayed_prefix_falls_back () =
  (* The regression: a client that writes "HE" (prefix of "HEAD ") and
     stalls used to classify as HTTP and get a 400. It must sniff as
     NOT-HTTP (fall back to the protocol banner) once the full "HELP"
     resolves — and the peeked bytes must still be readable. *)
  with_socketpair @@ fun a b ->
  let writer =
    Thread.create
      (fun () ->
        ignore (Unix.write_substring b "HE" 0 2);
        Thread.delay 0.03;
        ignore (Unix.write_substring b "LP\n" 0 3))
      ()
  in
  let verdict = Http.sniff ~timeout:0.5 a in
  Thread.join writer;
  check_bool "HELP is not HTTP" false verdict;
  let buf = Bytes.create 5 in
  let n = Unix.read a buf 0 5 in
  check_string "bytes not consumed" "HELP\n" (Bytes.sub_string buf 0 n)

let test_sniff_delayed_http_still_classifies () =
  with_socketpair @@ fun a b ->
  let writer =
    Thread.create
      (fun () ->
        ignore (Unix.write_substring b "G" 0 1);
        Thread.delay 0.03;
        ignore (Unix.write_substring b "ET /metrics HTTP/1.0\r\n" 0 22))
      ()
  in
  let verdict = Http.sniff ~timeout:0.5 a in
  Thread.join writer;
  check_bool "slow GET is HTTP" true verdict

let test_sniff_timeout_is_protocol () =
  (* An inconclusive prefix that never resolves: the deadline expires
     and the answer is protocol, not an HTTP error. *)
  with_socketpair @@ fun a b ->
  ignore (Unix.write_substring b "G" 0 1);
  check_bool "unresolved prefix times out to protocol" false (Http.sniff ~timeout:0.08 a);
  (* And a silent client (a protocol client awaiting the banner). *)
  with_socketpair @@ fun c _d -> check_bool "silence is protocol" false (Http.sniff ~timeout:0.05 c)

(* ----- suite ----- *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "bulk"
    [
      ( "float-boundaries",
        [
          Alcotest.test_case "jsonl round trip" `Quick test_float_round_trip_jsonl;
          Alcotest.test_case "binary round trip" `Quick test_float_round_trip_binary;
          Alcotest.test_case "-0. keeps its sign" `Quick test_negative_zero_stays_negative;
          Alcotest.test_case "non-finite rejected" `Quick test_non_finite_rejected;
          Alcotest.test_case "rejection burns no seq" `Quick test_emit_rejection_burns_no_seq;
        ] );
      ( "binary-codec",
        [
          Alcotest.test_case "convert equivalence" `Quick test_convert_equivalence;
          Alcotest.test_case "truncation rejected" `Quick test_binary_truncation_rejected;
        ] );
      ( "apply-bulk",
        qsuite
          [
            bulk_equivalence_prop 1;
            bulk_equivalence_prop 7;
            bulk_equivalence_prop 1024;
          ]
        @ [
            Alcotest.test_case "mixed validity" `Quick
              test_bulk_rejects_mixed_validity_correctly;
            Alcotest.test_case "cluster bulk equivalence" `Quick
              test_cluster_bulk_equivalence;
          ] );
      ( "handle-lines",
        [
          Alcotest.test_case "pipelined == one-by-one" `Quick
            test_handle_lines_matches_one_by_one;
          Alcotest.test_case "quit drops remainder" `Quick
            test_handle_lines_quit_drops_remainder;
          Alcotest.test_case "absolute line numbers" `Quick
            test_handle_lines_start_line_numbers_errors;
        ] );
      ( "lineio",
        [
          Alcotest.test_case "nonblocking read" `Quick test_lineio_nonblocking_read;
          Alcotest.test_case "has_line probe" `Quick test_lineio_has_line_batching_probe;
          Alcotest.test_case "write backpressure" `Quick
            test_lineio_write_survives_backpressure;
          Alcotest.test_case "signal storm" `Quick test_lineio_survives_signals;
          Alcotest.test_case "connect error surfaces" `Quick
            test_lineio_connect_refused_reports;
        ] );
      ( "http-sniff",
        [
          Alcotest.test_case "delayed prefix falls back" `Quick
            test_sniff_delayed_prefix_falls_back;
          Alcotest.test_case "delayed HTTP classifies" `Quick
            test_sniff_delayed_http_still_classifies;
          Alcotest.test_case "timeout is protocol" `Quick test_sniff_timeout_is_protocol;
        ] );
    ]
