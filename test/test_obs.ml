(* Tests for the observability layer: metric identity and registry
   scoping, histogram bucketing (property-based), registry merging,
   Prometheus exposition round-tripped through a line parser, span-tree
   nesting and the span ring, and the flight-recorder journal codec
   (render/parse round trip, corruption rejection, tail ring, and the
   list and streamed emit paths writing the same bytes). *)

module Metrics = Rebal_obs.Metrics
module Optrace = Rebal_obs.Optrace
module Expo = Rebal_obs.Expo
module Journal = Rebal_obs.Journal
module Ring = Rebal_obs.Ring
open QCheck2

(* ----- metric identity and registry scoping ----- *)

let test_counter_identity () =
  let reg = Metrics.Registry.create () in
  Metrics.Registry.with_registry reg @@ fun () ->
  let c1 = Metrics.counter ~labels:[ ("a", "1"); ("b", "2") ] "id_total" in
  let c2 = Metrics.counter ~labels:[ ("b", "2"); ("a", "1") ] "id_total" in
  Metrics.Counter.inc c1;
  Metrics.Counter.inc c2;
  (* Label order is canonicalized, so both handles are the same metric. *)
  Alcotest.(check int) "one series, two increments" 2 (Metrics.Counter.value c1);
  Alcotest.(check int) "series count" 1 (List.length (Metrics.Registry.metrics reg));
  let c3 = Metrics.counter ~labels:[ ("a", "1") ] "id_total" in
  Metrics.Counter.inc c3;
  Alcotest.(check int) "different labels, new series" 2
    (List.length (Metrics.Registry.metrics reg))

let test_kind_mismatch () =
  let reg = Metrics.Registry.create () in
  Metrics.Registry.with_registry reg @@ fun () ->
  ignore (Metrics.counter "clash");
  let raised =
    try
      ignore (Metrics.gauge "clash");
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "kind mismatch rejected" true raised

let test_invalid_name () =
  let raised =
    try
      ignore (Metrics.counter ~registry:(Metrics.Registry.create ()) "9starts_with_digit");
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "invalid name rejected" true raised

let test_with_registry_scoping () =
  let scoped = Metrics.Registry.create () in
  Metrics.Registry.with_registry scoped (fun () ->
      Metrics.Counter.inc (Metrics.counter "scoped_only_total"));
  let names reg =
    List.map (fun (m : Metrics.metric) -> m.Metrics.name) (Metrics.Registry.metrics reg)
  in
  Alcotest.(check bool) "present in scoped registry" true
    (List.mem "scoped_only_total" (names scoped));
  Alcotest.(check bool) "absent from default registry" false
    (List.mem "scoped_only_total" (names Metrics.Registry.default))

let test_negative_counter_add () =
  let reg = Metrics.Registry.create () in
  Metrics.Registry.with_registry reg @@ fun () ->
  let c = Metrics.counter "neg_total" in
  let raised = try Metrics.Counter.add c (-1); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative add rejected" true raised

(* ----- histogram properties (qcheck) ----- *)

(* Integer-valued observations keep float sums exact, so the merge
   property below can compare sums with (=). *)
let obs_gen = Gen.list_size (Gen.int_range 0 200) (Gen.map float_of_int (Gen.int_range 0 40))

let prop_histogram_buckets_sum_to_total =
  Test.make ~count:200 ~name:"histogram bucket counts sum to observations" obs_gen
    (fun xs ->
      let reg = Metrics.Registry.create () in
      Metrics.Registry.with_registry reg @@ fun () ->
      let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0 |] "h_sum" in
      List.iter (Metrics.Histogram.observe h) xs;
      let bucket_total =
        List.fold_left (fun acc (_, c) -> acc + c) 0 (Metrics.Histogram.buckets h)
      in
      bucket_total = List.length xs
      && Metrics.Histogram.observations h = List.length xs
      && Metrics.Histogram.sum h = List.fold_left ( +. ) 0.0 xs)

let prop_merge_equals_sequential =
  Test.make ~count:200 ~name:"merged registries equal sequential observation"
    (Gen.pair obs_gen obs_gen) (fun (xs, ys) ->
      let buckets = [| 1.0; 2.0; 4.0; 8.0; 16.0 |] in
      let observe reg stream =
        Metrics.Registry.with_registry reg (fun () ->
            let h = Metrics.histogram ~buckets "m_hist" in
            let c = Metrics.counter "m_total" in
            List.iter
              (fun x ->
                Metrics.Histogram.observe h x;
                Metrics.Counter.inc c)
              stream)
      in
      let r1 = Metrics.Registry.create () and r2 = Metrics.Registry.create () in
      observe r1 xs;
      observe r2 ys;
      let merged = Metrics.Registry.create () in
      Metrics.merge ~into:merged r1;
      Metrics.merge ~into:merged r2;
      let seq = Metrics.Registry.create () in
      observe seq xs;
      observe seq ys;
      let snapshot reg =
        Metrics.Registry.with_registry reg (fun () ->
            let h = Metrics.histogram ~buckets "m_hist" in
            let c = Metrics.counter "m_total" in
            ( Metrics.Histogram.buckets h,
              Metrics.Histogram.sum h,
              Metrics.Histogram.observations h,
              Metrics.Counter.value c ))
      in
      snapshot merged = snapshot seq)

let prop_merge_bucket_mismatch_rejected =
  Test.make ~count:50 ~name:"merge rejects differing buckets" Gen.unit (fun () ->
      let mk buckets =
        let reg = Metrics.Registry.create () in
        Metrics.Registry.with_registry reg (fun () ->
            ignore (Metrics.histogram ~buckets "mm_hist"));
        reg
      in
      let a = mk [| 1.0; 2.0 |] and b = mk [| 1.0; 3.0 |] in
      try
        Metrics.merge ~into:a b;
        false
      with Invalid_argument _ -> true)

(* ----- Prometheus exposition round trip ----- *)

(* The text-format parser lives in the library now (Expo.parse, the
   inverse the top subcommand consumes); the tests drive it through
   these thin wrappers and qcheck the round trip on hostile labels
   below. *)
let parse_exposition text =
  match Expo.parse text with
  | Ok samples -> samples
  | Error e -> Alcotest.failf "Expo.parse: %s" e

let find_sample samples name labels =
  match Expo.find_sample samples name labels with
  | Some s -> s.Expo.value
  | None ->
    Alcotest.failf "sample %s{%s} not found" name
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

(* Label values drawn from the characters that can break the text
   format: the escaped set (backslash, quote, newline) plus the
   structural ones (space, comma, equals, braces). Whatever the
   renderer emits, the parser must decode back to the same value. *)
let hostile_label =
  Gen.string_size ~gen:(Gen.oneofl [ '\\'; '"'; '\n'; ' '; ','; '='; '{'; '}'; 'a'; '9' ])
    (Gen.int_range 0 12)

let prop_exposition_round_trip =
  Test.make ~count:300 ~name:"prometheus exposition round-trips hostile labels"
    Gen.(pair hostile_label hostile_label)
    (fun (va, vb) ->
      let reg = Metrics.Registry.create () in
      Metrics.Registry.with_registry reg (fun () ->
          Metrics.Counter.add
            (Metrics.counter ~labels:[ ("a", va); ("b", vb) ] "ht_total")
            3;
          Metrics.Histogram.observe
            (Metrics.histogram ~labels:[ ("a", va) ] ~buckets:[| 1.0 |] "ht_hist")
            0.5);
      match Expo.parse (Expo.prometheus reg) with
      | Error e -> Test.fail_reportf "parse failed: %s" e
      | Ok samples ->
        (match Expo.find_sample samples "ht_total" [ ("b", vb); ("a", va) ] with
        | Some s when s.Expo.value = 3.0 -> ()
        | Some s -> Test.fail_reportf "counter value %f" s.Expo.value
        | None -> Test.fail_reportf "counter lost for %S %S" va vb);
        (* Histogram series gain an [le] label next to the hostile one. *)
        (match Expo.find_sample samples "ht_hist_bucket" [ ("a", va); ("le", "1") ] with
        | Some s when s.Expo.value = 1.0 -> ()
        | _ -> Test.fail_reportf "bucket lost for %S" va);
        true)

let test_prometheus_round_trip () =
  let reg = Metrics.Registry.create () in
  Metrics.Registry.with_registry reg @@ fun () ->
  (* Label values exercising every escape: backslash, quote, newline,
     and an embedded space. *)
  let awkward = [ ("path", "/a b"); ("q", "say \"hi\"\\now\nnext") ] in
  let c = Metrics.counter ~labels:awkward ~help:"round trip" "rt_total" in
  Metrics.Counter.add c 7;
  Metrics.Gauge.set (Metrics.gauge "rt_gauge") 2.5;
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 5.0 |] "rt_hist" in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 1.5; 9.0 ];
  let samples = parse_exposition (Expo.prometheus reg) in
  let sorted_awkward = List.sort compare awkward in
  Alcotest.(check (float 0.0)) "counter" 7.0 (find_sample samples "rt_total" sorted_awkward);
  Alcotest.(check (float 0.0)) "gauge" 2.5 (find_sample samples "rt_gauge" []);
  let bucket le = find_sample samples "rt_hist_bucket" [ ("le", le) ] in
  Alcotest.(check (float 0.0)) "le=1 cumulative" 1.0 (bucket "1");
  Alcotest.(check (float 0.0)) "le=2 cumulative" 2.0 (bucket "2");
  Alcotest.(check (float 0.0)) "le=5 cumulative" 2.0 (bucket "5");
  Alcotest.(check (float 0.0)) "le=+Inf cumulative" 3.0 (bucket "+Inf");
  Alcotest.(check (float 0.0)) "sum" 11.0 (find_sample samples "rt_hist_sum" []);
  Alcotest.(check (float 0.0)) "count" 3.0 (find_sample samples "rt_hist_count" []);
  Alcotest.(check string) "+Inf formatting" "+Inf" (Expo.fmt_le infinity)

let test_json_renders () =
  let reg = Metrics.Registry.create () in
  Metrics.Registry.with_registry reg @@ fun () ->
  Metrics.Counter.inc (Metrics.counter ~labels:[ ("k", "v\"q") ] "j_total");
  ignore (Metrics.histogram "j_hist");
  let out = Expo.json reg in
  Alcotest.(check bool) "object shape" true
    (String.length out > 0 && out.[0] = '{');
  (* The quote in the label value must be escaped, or the output is not
     JSON at all. *)
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "escaped quote" true (contains "v\\\"q" out)

(* Non-finite values have no JSON number: they render as null, and the
   whole document parses back. *)
let test_json_parses () =
  let reg = Metrics.Registry.create () in
  Metrics.Registry.with_registry reg @@ fun () ->
  Metrics.Gauge.set (Metrics.gauge "j_nan") Float.nan;
  Metrics.Gauge.set (Metrics.gauge ~labels:[ ("k", "a\nb") ] "j_inf") Float.infinity;
  Metrics.Gauge.set (Metrics.gauge "j_half") 0.5;
  Metrics.Histogram.observe (Metrics.histogram "j_hist") Float.neg_infinity;
  let value name =
    match Journal.json_of_string (Expo.json reg) with
    | Error e -> Alcotest.failf "Expo.json does not parse: %s" e
    | Ok (Journal.Obj [ ("metrics", Journal.List ms) ]) ->
      List.find_map
        (function
          | Journal.Obj kvs when List.assoc_opt "name" kvs = Some (Journal.Str name) ->
            Some (List.assoc (if name = "j_hist" then "sum" else "value") kvs)
          | _ -> None)
        ms
    | Ok _ -> Alcotest.fail "not a {\"metrics\": [...]} object"
  in
  Alcotest.(check bool) "nan gauge is null" true (value "j_nan" = Some Journal.Null);
  Alcotest.(check bool) "infinite gauge is null" true (value "j_inf" = Some Journal.Null);
  Alcotest.(check bool) "infinite sum is null" true (value "j_hist" = Some Journal.Null);
  Alcotest.(check bool) "finite gauge kept" true (value "j_half" = Some (Journal.Float 0.5))

(* ----- the bounded ring ----- *)

(* [Ring] against a list model: pushes past capacity evict oldest
   first, [pop] takes the oldest, [last n] is the newest [n] oldest
   first, and [pushed] counts every push since the last [clear]. *)
let prop_ring_model =
  Test.make ~count:300 ~name:"ring matches a bounded-queue model"
    Gen.(pair (int_range 1 6) (list_size (int_range 0 60) (int_range 0 9)))
    (fun (cap, script) ->
      let r = Ring.create cap (-1) in
      let model = ref [] and pushed = ref 0 in
      List.iteri
        (fun i op ->
          (match op with
          | 0 ->
            let expect = match !model with [] -> None | x :: _ -> Some x in
            if Ring.pop r <> expect then Test.fail_reportf "pop at step %d" i;
            model := (match !model with [] -> [] | _ :: tl -> tl)
          | 1 ->
            Ring.clear r;
            model := [];
            pushed := 0
          | _ ->
            Ring.push r i;
            incr pushed;
            model := !model @ [ i ];
            if List.length !model > cap then model := List.tl !model);
          let n = op mod 4 in
          let len = List.length !model in
          if Ring.to_list r <> !model then Test.fail_reportf "contents at step %d" i;
          if Ring.length r <> len || Ring.is_full r <> (len = cap) then
            Test.fail_reportf "length at step %d" i;
          if Ring.pushed r <> !pushed then Test.fail_reportf "pushed at step %d" i;
          if Ring.oldest r <> (match !model with [] -> None | x :: _ -> Some x) then
            Test.fail_reportf "oldest at step %d" i;
          if Ring.last r n <> List.filteri (fun j _ -> j >= len - n) !model then
            Test.fail_reportf "last %d at step %d" n i)
        script;
      true)

(* ----- span tracing ----- *)

(* Optrace state is global (knobs, the op-trace and slow-op rings);
   every tracing test runs inside this bracket. *)
let with_sampling every f =
  Optrace.reset ();
  Optrace.set_sample_every every;
  Fun.protect
    ~finally:(fun () ->
      Optrace.set_sample_every 0;
      Optrace.set_slow_threshold_ns (-1);
      Optrace.set_ring_capacity 4096;
      Optrace.reset ())
    f

let span_name (sp : Optrace.span) = sp.name

let the_op () =
  match Optrace.traces () with
  | [ op ] -> op.root
  | traces -> Alcotest.failf "expected exactly one op tree, got %d" (List.length traces)

let test_span_nesting () =
  with_sampling 1 @@ fun () ->
  let result =
    Optrace.with_op ~verb:"op" (fun () ->
        Optrace.with_span "root" ~attrs:[ ("n", "3") ] (fun () ->
            Optrace.with_span "first" (fun () -> Optrace.add_attr "hit" "true");
            Optrace.with_span "second" (fun () -> ());
            17))
  in
  Alcotest.(check int) "with_span returns f's value" 17 result;
  match (the_op ()).children with
  | [ root ] ->
    Alcotest.(check string) "root name" "root" (span_name root);
    Alcotest.(check (list string)) "children in start order" [ "first"; "second" ]
      (List.map span_name root.children);
    Alcotest.(check bool) "root attr kept" true (List.mem_assoc "n" root.attrs);
    let first = List.hd root.children in
    Alcotest.(check bool) "child attr attached to child" true
      (List.assoc_opt "hit" first.attrs = Some "true" && not (List.mem_assoc "hit" root.attrs));
    Alcotest.(check bool) "durations non-negative" true (Optrace.duration_ns root >= 0L);
    Alcotest.(check bool) "root at least as long as children" true
      (Optrace.duration_ns root
      >= List.fold_left
           (fun acc (c : Optrace.span) -> Int64.add acc (Optrace.duration_ns c))
           0L root.children)
  | spans -> Alcotest.failf "expected exactly one root, got %d" (List.length spans)

let test_span_disabled_is_noop () =
  with_sampling 0 @@ fun () ->
  let r =
    Optrace.with_op ~verb:"op" (fun () ->
        Optrace.with_span "invisible" (fun () ->
            Optrace.add_attr "ignored" "x";
            5))
  in
  Alcotest.(check int) "value passes through" 5 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Optrace.traces ()))

let test_span_survives_exception () =
  with_sampling 1 @@ fun () ->
  (try
     Optrace.with_op ~verb:"op" (fun () ->
         Optrace.with_span "boom" (fun () -> failwith "expected"))
   with Failure _ -> ());
  Alcotest.(check bool) "context restored" false (Optrace.active ());
  match (the_op ()).children with
  | [ sp ] ->
    Alcotest.(check string) "span closed on raise" "boom" (span_name sp);
    Alcotest.(check bool) "stop stamped" true (sp.stop_ns >= sp.start_ns)
  | _ -> Alcotest.fail "span not recorded after exception"

let test_ring_buffer_wrap () =
  with_sampling 1 @@ fun () ->
  Optrace.set_ring_capacity 4;
  for i = 0 to 5 do
    Optrace.with_op ~verb:(Printf.sprintf "e%d" i) (fun () -> ())
  done;
  let names = List.map (fun (tr : Optrace.trace) -> tr.root.name) (Optrace.traces ()) in
  Alcotest.(check (list string)) "keeps newest, oldest first" [ "e2"; "e3"; "e4"; "e5" ]
    names

(* The [rebal_trace_dropped_total{kind}] count in [reg]. *)
let trace_dropped reg kind =
  match
    List.find_opt
      (fun (m : Metrics.metric) ->
        m.Metrics.name = "rebal_trace_dropped_total" && m.Metrics.labels = [ ("kind", kind) ])
      (Metrics.Registry.metrics reg)
  with
  | Some { Metrics.kind = Metrics.Counter c; _ } -> Metrics.Counter.value c
  | _ -> 0

let test_trace_dropped_counter () =
  (* Scoped registry: the wrap counter increments into whatever registry
     is current at overwrite time. *)
  let reg = Metrics.Registry.create () in
  Metrics.Registry.with_registry reg @@ fun () ->
  with_sampling 1 @@ fun () ->
  Optrace.set_ring_capacity 4;
  for i = 0 to 9 do
    Optrace.with_op ~verb:(Printf.sprintf "d%d" i) (fun () -> ())
  done;
  (* 10 spans into a 4-span ring: 6 evicted. *)
  Alcotest.(check int) "overwrites counted" 6 (trace_dropped reg "op_span")

(* The ring is bounded in spans, not ops: three-span traces into a
   ten-span ring keep three whole traces (nine spans), evict the rest
   oldest first and count every evicted span; a trace larger than the
   whole bound is dropped on arrival and counted too. *)
let test_ring_span_bound () =
  let reg = Metrics.Registry.create () in
  Metrics.Registry.with_registry reg @@ fun () ->
  with_sampling 1 @@ fun () ->
  Optrace.set_ring_capacity 10;
  for i = 0 to 9 do
    Optrace.with_op ~verb:(Printf.sprintf "op%d" i) (fun () ->
        Optrace.with_span "a" (fun () -> ());
        Optrace.with_span "b" (fun () -> ()))
  done;
  let kept = Optrace.traces () in
  let spans = List.fold_left (fun n (tr : Optrace.trace) -> n + tr.spans) 0 kept in
  Alcotest.(check (list string)) "newest whole traces kept" [ "op7"; "op8"; "op9" ]
    (List.map (fun (tr : Optrace.trace) -> tr.root.name) kept);
  Alcotest.(check int) "retained spans within the bound" 9 spans;
  Alcotest.(check int) "evicted spans counted" 21 (trace_dropped reg "op_span");
  Optrace.with_op ~verb:"huge" (fun () ->
      for _ = 1 to 10 do
        Optrace.with_span "s" (fun () -> ())
      done);
  Alcotest.(check int) "an oversized trace is dropped whole" 32 (trace_dropped reg "op_span");
  Alcotest.(check int) "the ring is untouched by it" 3 (List.length (Optrace.traces ()))

(* An unsampled fast op under the daemon's knobs (1-in-64 head
   sampling, 10 ms tail) reads the int clock twice and builds nothing:
   0 words, measured. With an [int64] clock the two boxed reads cost 6
   words; the flat-record design drew two ids and allocated a root span
   record, a finish closure and the protect wrapper for every op: 34. *)
let test_unsampled_op_allocation () =
  with_sampling 64 @@ fun () ->
  Optrace.set_slow_threshold_ns 10_000_000;
  let f () = () in
  let calib =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let worst = ref 0. in
  for _ = 1 to 5 do
    Optrace.reset ();
    (* op 0 of each 64 is sampled; ops 1..63 are not. *)
    Optrace.with_op ~verb:"ADD" f;
    let before = Gc.minor_words () in
    for _ = 1 to 63 do
      Optrace.with_op ~verb:"ADD" f
    done;
    let after = Gc.minor_words () in
    worst := Float.max !worst ((after -. before -. calib) /. 63.)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "unsampled op allocates %.1f words (pinned at <= 0.5)" !worst)
    true (!worst <= 0.5)

(* ----- the flight-recorder journal codec ----- *)

(* Field names must dodge the reserved keys (seq/ts_ns/ev), which emit
   silently skips. *)
let field_name_gen =
  Gen.map (fun s -> "f_" ^ s) (Gen.string_size ~gen:(Gen.char_range 'a' 'z') (Gen.int_range 1 6))

let json_gen =
  let scalar =
    Gen.oneof
      [
        Gen.return Journal.Null;
        Gen.map (fun b -> Journal.Bool b) Gen.bool;
        Gen.map (fun i -> Journal.Int i) (Gen.int_range (-1_000_000) 1_000_000);
        (* Finite floats only: the renderer maps nan/inf to null by design,
           which would not round-trip. Ratios of ints are always finite. *)
        Gen.map
          (fun (a, b) -> Journal.Float (float_of_int a /. float_of_int b))
          (Gen.pair (Gen.int_range (-100_000) 100_000) (Gen.int_range 1 999));
        Gen.map (fun s -> Journal.Str s) (Gen.string_size ~gen:Gen.printable (Gen.int_range 0 12));
      ]
  in
  Gen.oneof
    [
      scalar;
      Gen.map (fun l -> Journal.List l) (Gen.list_size (Gen.int_range 0 4) scalar);
      Gen.map
        (fun ps -> Journal.Obj ps)
        (Gen.list_size (Gen.int_range 0 4) (Gen.pair field_name_gen scalar));
    ]

let journal_events_gen =
  Gen.list_size (Gen.int_range 0 25)
    (Gen.pair
       (Gen.string_size ~gen:(Gen.char_range 'a' 'z') (Gen.int_range 1 8))
       (Gen.list_size (Gen.int_range 0 5) (Gen.pair field_name_gen json_gen)))

let prop_journal_round_trip =
  Test.make ~count:300 ~name:"journal render/parse round trip" journal_events_gen
    (fun events ->
      let buf = Buffer.create 512 in
      let tick = ref 0 in
      let sink =
        Journal.create
          ~clock_ns:(fun () ->
            incr tick;
            !tick * 17)
          ~write:(Buffer.add_string buf) ()
      in
      Journal.write_header sink ~journal:"qcheck" [ ("m", Journal.Int 4) ];
      List.iter (fun (kind, fields) -> Journal.emit sink ~kind fields) events;
      match Journal.load_string (Buffer.contents buf) with
      | Error _ -> false
      | Ok (h, evs) ->
        h.Journal.journal = "qcheck"
        && h.Journal.version = Journal.current_version
        && h.Journal.meta = [ ("m", Journal.Int 4) ]
        && List.length evs = List.length events
        && List.for_all2
             (fun (kind, fields) (ev : Journal.event) ->
               ev.Journal.kind = kind && ev.Journal.fields = fields)
             events evs)

(* Corrupted journals as JSONL lines, with the fragment each error
   must name. *)
let corpus_header = {|{"journal":"t","version":1}|}
let corpus_event seq = Printf.sprintf {|{"seq":%d,"ts_ns":%d,"ev":"x"}|} seq (seq + 1)

let reject_corpus =
  [
    ("event before header", [ corpus_event 0 ], "line 1");
    ("malformed JSON", [ corpus_header; "{\"seq\":0," ], "line 2");
    ("sequence gap", [ corpus_header; corpus_event 0; corpus_event 2 ], "line 3");
    ("wrong seq type", [ corpus_header; {|{"seq":"zero","ts_ns":1,"ev":"x"}|} ], "line 2");
  ]

let test_journal_rejects () =
  List.iter
    (fun (name, lines, fragment) ->
      match Journal.load_string (String.concat "\n" lines) with
      | Ok _ -> Alcotest.failf "%s: expected an error mentioning %S" name fragment
      | Error e ->
        let contains needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) (name ^ ": error is " ^ e) true (contains fragment e))
    reject_corpus;
  match
    Journal.load_string (String.concat "\n" [ corpus_header; corpus_event 0; corpus_event 1 ])
  with
  | Ok (_, evs) -> Alcotest.(check int) "clean journal parses" 2 (List.length evs)
  | Error e -> Alcotest.failf "clean journal rejected: %s" e

(* The binary codec written out by hand, independently of [Journal]. *)
let binary_payload v =
  let b = Buffer.create 64 in
  let rec uvarint n =
    if n land lnot 0x7f = 0 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      uvarint (n lsr 7)
    end
  in
  let bytes s =
    uvarint (String.length s);
    Buffer.add_string b s
  in
  let rec value = function
    | Journal.Null -> Buffer.add_char b '\x00'
    | Journal.Bool v -> Buffer.add_string b (if v then "\x01\x01" else "\x01\x00")
    | Journal.Int i ->
      Buffer.add_char b '\x02';
      uvarint ((i lsl 1) lxor (i asr 62))
    | Journal.Float f ->
      Buffer.add_char b '\x03';
      Buffer.add_int64_le b (Int64.bits_of_float f)
    | Journal.Str s ->
      Buffer.add_char b '\x04';
      bytes s
    | Journal.List l ->
      Buffer.add_char b '\x05';
      uvarint (List.length l);
      List.iter value l
    | Journal.Obj kvs ->
      Buffer.add_char b '\x06';
      uvarint (List.length kvs);
      List.iter
        (fun (k, v) ->
          bytes k;
          value v)
        kvs
  in
  value v;
  Buffer.contents b

let binary_frame v =
  let p = binary_payload v in
  let len = String.length p in
  String.init 4 (fun i -> Char.chr ((len lsr (8 * i)) land 0xff)) ^ p

(* Every corrupted journal of the corpus that the other sources can
   express fails the same way through them: as binary frames, and, when
   its lines are well-formed events, as a parsed event list. *)
let test_journal_rejects_alike () =
  let count s = Journal.fold_string s ~header:(fun _ -> 0) (fun n _ -> n + 1) in
  List.iter
    (fun (name, lines, _) ->
      let jsonl = count (String.concat "\n" lines) in
      match List.map Journal.json_of_string lines with
      | values when List.for_all Result.is_ok values ->
        let values = List.map Result.get_ok values in
        let binary = Journal.Binary.magic ^ String.concat "" (List.map binary_frame values) in
        Alcotest.(check (result int string)) (name ^ ": binary") jsonl (count binary);
        let as_event line = function
          | Journal.Obj kvs -> (
            match (List.assoc "seq" kvs, List.assoc "ts_ns" kvs, List.assoc "ev" kvs) with
            | Journal.Int seq, Journal.Int ts_ns, Journal.Str kind ->
              let fields = List.filter (fun (k, _) -> not (List.mem k [ "seq"; "ts_ns"; "ev" ])) kvs in
              Some { Journal.seq; ts_ns; kind; fields; line }
            | _ | (exception Not_found) -> None)
          | _ -> None
        in
        (match (Result.get_ok (Journal.load_string (List.hd lines)), List.tl values) with
        | (header, []), events -> (
          match List.mapi (fun i v -> as_event (i + 2) v) events with
          | evs when List.for_all Option.is_some evs ->
            Alcotest.(check (result int string)) (name ^ ": parsed") jsonl
              (Journal.fold_parsed (header, List.map Option.get evs) ~header:(fun _ -> 0)
                 (fun n _ -> n + 1))
          | _ -> ())
        | _ | (exception Invalid_argument _) -> ())
      | _ -> ())
    reject_corpus

(* Long containers and strings take more than one varint byte for their
   count or length, which the transcoder widens in place. *)
let prop_json_text_round_trip =
  let str = Gen.string_size ~gen:Gen.char (Gen.int_range 0 300) in
  let leaf =
    Gen.oneof
      [
        Gen.map (fun i -> Journal.Int i) Gen.int;
        Gen.map (fun s -> Journal.Str s) str;
        Gen.map (fun f -> Journal.Float f) (Gen.float_range (-1e6) 1e6);
        Gen.return Journal.Null;
      ]
  in
  let value =
    Gen.oneof
      [
        Gen.map (fun l -> Journal.List l) (Gen.list_size (Gen.int_range 0 300) leaf);
        Gen.map
          (fun kvs -> Journal.Obj kvs)
          (Gen.list_size (Gen.int_range 0 200) (Gen.pair str leaf));
      ]
  in
  Test.make ~count:200 ~name:"JSON text transcodes to the value it renders" value (fun v ->
      Journal.json_of_string (Journal.render_json v) = Ok v
      && Journal.json_of_string (Journal.render_json (Journal.List [ v; v ]))
         = Ok (Journal.List [ v; v ]))

let test_journal_tail () =
  let sink = Journal.create ~tail_capacity:3 ~clock_ns:(fun () -> 0) ~write:(fun _ -> ()) () in
  Journal.write_header sink ~journal:"t" [];
  for i = 0 to 5 do
    Journal.emit sink ~kind:"e" [ ("i", Journal.Int i) ]
  done;
  Alcotest.(check int) "events counted" 6 (Journal.events_written sink);
  let tl = Journal.tail sink 3 in
  Alcotest.(check int) "ring keeps tail_capacity lines" 3 (List.length tl);
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "oldest surviving line first" true
    (contains "\"i\":3" (List.nth tl 0));
  Alcotest.(check bool) "newest line last" true (contains "\"i\":5" (List.nth tl 2));
  Alcotest.(check int) "asking for more than capacity" 3
    (List.length (Journal.tail sink 100))

let test_json_value_round_trip () =
  (* The parser is strict: trailing garbage and bare values that are not
     JSON must be rejected with a useful message. *)
  (match Journal.json_of_string "{\"a\": [1, 2.5, \"x\"]} tail" with
  | Error e -> Alcotest.(check bool) ("strict: " ^ e) true (String.length e > 0)
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  (match Journal.json_of_string "{\"a\": [1, 2.5, true, null, \"x\"]}" with
  | Ok v ->
    Alcotest.(check string) "reparse equals render"
      "{\"a\":[1,2.5,true,null,\"x\"]}" (Journal.render_json v)
  | Error e -> Alcotest.failf "valid JSON rejected: %s" e);
  (* Counts and lengths past 16383 take three varint bytes. *)
  (let big =
     Journal.Obj
       [ ("l", Journal.List (List.init 20_000 (fun i -> Journal.Int i))); ("s", Journal.Str (String.make 20_000 'x')) ]
   in
   Alcotest.(check bool) "long list and string" true
     (Journal.json_of_string (Journal.render_json big) = Ok big));
  (* An out-of-range float is infinite; an int too large for [int] is a
     float. *)
  (match (Journal.json_of_string "1e999", Journal.json_of_string "-99999999999999999999") with
  | Ok (Journal.Float f), Ok (Journal.Float g) ->
    Alcotest.(check bool) "1e999 is inf" true (f = Float.infinity);
    Alcotest.(check (float 0.)) "big int as float" (-1e20) g
  | _ -> Alcotest.fail "1e999 / big int not read as floats");
  (* Int/float distinction survives: 2 and 2.0 are different values. *)
  match (Journal.json_of_string "2", Journal.json_of_string "2.0") with
  | Ok (Journal.Int 2), Ok (Journal.Float 2.0) -> ()
  | _ -> Alcotest.fail "int/float distinction lost"

(* ----- one encoder per codec: [emit] and streamed [Emit] agree ----- *)

(* Scalar-only field lists, the shape [Emit]'s typed writers can carry.
   Strings include the characters the text codec escapes; floats
   include integral values, which need the forced ".0" marker. *)
let scalar_gen =
  Gen.oneof
    [
      Gen.map (fun b -> Journal.Bool b) Gen.bool;
      Gen.map (fun i -> Journal.Int i)
        (Gen.oneof [ Gen.int; Gen.oneofl [ 0; -1; min_int; max_int ] ]);
      Gen.map
        (fun (a, b) -> Journal.Float (float_of_int a /. float_of_int b))
        (Gen.pair (Gen.int_range (-100_000) 100_000) (Gen.int_range 1 999));
      Gen.map (fun f -> Journal.Float f) (Gen.oneofl [ 0.0; -0.0; 2.0; 1e300; 5e-324 ]);
      Gen.map
        (fun s -> Journal.Str s)
        (Gen.string_size
           ~gen:(Gen.oneof [ Gen.printable; Gen.oneofl [ '"'; '\\'; '\n'; '\t'; '\001' ] ])
           (Gen.int_range 0 12));
    ]

let scalar_events_gen =
  Gen.list_size (Gen.int_range 0 12)
    (Gen.pair
       (Gen.string_size ~gen:(Gen.char_range 'a' 'z') (Gen.int_range 1 8))
       (Gen.list_size (Gen.int_range 0 6) (Gen.pair field_name_gen scalar_gen)))

let ticking_clock () =
  let tick = ref 0 in
  fun () ->
    incr tick;
    !tick * 31

let emit_streamed sink ~kind fields =
  Journal.Emit.start sink ~kind ~fields:(List.length fields);
  List.iter
    (fun (k, v) ->
      match v with
      | Journal.Int i -> Journal.Emit.int sink k i
      | Journal.Str s -> Journal.Emit.str sink k s
      | Journal.Bool b -> Journal.Emit.bool sink k b
      | Journal.Float f -> Journal.Emit.float sink k f
      | _ -> invalid_arg "emit_streamed: not a scalar")
    fields;
  Journal.Emit.finish sink

let prop_emit_paths_agree =
  Test.make ~count:300 ~name:"emit and streamed Emit write identical bytes"
    scalar_events_gen (fun events ->
      List.for_all
        (fun format ->
          let bytes_of push =
            let buf = Buffer.create 512 in
            let sink =
              Journal.create ~format ~clock_ns:(ticking_clock ())
                ~write:(Buffer.add_string buf) ()
            in
            List.iter (fun (kind, fields) -> push sink ~kind fields) events;
            Buffer.contents buf
          in
          let via_list = bytes_of (fun sink ~kind fields -> Journal.emit sink ~kind fields) in
          let via_stream = bytes_of emit_streamed in
          (* The reference: the whole-event renderers over the same
             records, stamped by the same clock. *)
          let clock = ticking_clock () in
          let expected =
            String.concat ""
              (List.mapi
                 (fun seq (kind, fields) ->
                   let e =
                     {
                       Journal.seq;
                       ts_ns = clock ();
                       kind;
                       fields;
                       line = 0;
                     }
                   in
                   match format with
                   | Journal.Jsonl -> Journal.render_event e ^ "\n"
                   | Journal.Binary -> Journal.Binary.encode_event e)
                 events)
          in
          via_list = expected && via_stream = expected)
        [ Journal.Jsonl; Journal.Binary ])

let test_emit_misuse () =
  List.iter
    (fun format ->
      let buf = Buffer.create 256 in
      let sink =
        Journal.create ~format ~clock_ns:(ticking_clock ()) ~write:(Buffer.add_string buf) ()
      in
      let refused name f =
        match f () with
        | () -> Alcotest.failf "%s accepted" name
        | exception Invalid_argument _ -> ()
      in
      refused "negative arity" (fun () -> Journal.Emit.start sink ~kind:"x" ~fields:(-1));
      refused "field before start" (fun () -> Journal.Emit.int sink "a" 1);
      refused "finish before start" (fun () -> Journal.Emit.finish sink);
      Journal.Emit.start sink ~kind:"x" ~fields:2;
      refused "double start" (fun () -> Journal.Emit.start sink ~kind:"y" ~fields:0);
      refused "emit while streaming" (fun () -> Journal.emit sink ~kind:"z" []);
      refused "reserved key" (fun () -> Journal.Emit.int sink "seq" 1);
      Journal.Emit.int sink "a" 1;
      refused "too few fields" (fun () -> Journal.Emit.finish sink);
      Journal.Emit.bool sink "b" true;
      refused "too many fields" (fun () -> Journal.Emit.str sink "c" "no room");
      Journal.Emit.finish sink;
      (* A NaN aborts the open event and burns no sequence number. *)
      Journal.Emit.start sink ~kind:"bad" ~fields:2;
      Journal.Emit.int sink "a" 2;
      (match Journal.Emit.float sink "f" nan with
      | () -> Alcotest.fail "Emit.float accepted nan"
      | exception Journal.Encode_error msg ->
        Alcotest.(check bool) ("context in " ^ msg) true
          (String.length msg > 0 && String.sub msg 0 5 = "line "));
      Alcotest.(check int) "no seq burnt" 1 (Journal.events_written sink);
      Journal.Emit.start sink ~kind:"ok" ~fields:1;
      Journal.Emit.float sink "f" 0.5;
      Journal.Emit.finish sink;
      Journal.emit sink ~kind:"tail" [ ("seq", Journal.Int 99); ("v", Journal.Int 3) ];
      let out = Buffer.contents buf in
      let parsed =
        match format with
        | Journal.Jsonl -> Journal.load_string ({|{"journal":"t","version":1}|} ^ "\n" ^ out)
        | Journal.Binary ->
          Journal.load_string
            (Journal.Binary.magic
            ^ Journal.Binary.encode_header { Journal.journal = "t"; version = 1; meta = [] }
            ^ out)
      in
      match parsed with
      | Error e -> Alcotest.failf "journal after misuse does not parse: %s" e
      | Ok (_, evs) ->
        Alcotest.(check (list string)) "only the committed events" [ "x"; "ok"; "tail" ]
          (List.map (fun (e : Journal.event) -> e.Journal.kind) evs);
        Alcotest.(check (list int)) "contiguous seqs" [ 0; 1; 2 ]
          (List.map (fun (e : Journal.event) -> e.Journal.seq) evs);
        Alcotest.(check bool) "first event kept both fields" true
          ((List.hd evs).Journal.fields = [ ("a", Journal.Int 1); ("b", Journal.Bool true) ]);
        Alcotest.(check bool) "emit skipped the reserved key" true
          ((List.nth evs 2).Journal.fields = [ ("v", Journal.Int 3) ]))
    [ Journal.Jsonl; Journal.Binary ]

(* ----- render tree ----- *)

let test_render_tree () =
  with_sampling 1 @@ fun () ->
  Optrace.with_op ~verb:"outer" (fun () -> Optrace.with_span "inner" (fun () -> ()));
  let out = Optrace.render_tree (the_op ()) in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  match lines with
  | [ l1; l2 ] ->
    Alcotest.(check bool) "outer first" true (String.length l1 >= 5 && String.sub l1 0 5 = "outer");
    Alcotest.(check bool) "inner indented" true
      (String.length l2 >= 7 && String.sub l2 0 7 = "  inner")
  | _ -> Alcotest.failf "expected two lines, got %d" (List.length lines)

let () =
  Alcotest.run "rebal_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter identity" `Quick test_counter_identity;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "invalid name" `Quick test_invalid_name;
          Alcotest.test_case "with_registry scoping" `Quick test_with_registry_scoping;
          Alcotest.test_case "negative add" `Quick test_negative_counter_add;
        ] );
      ( "histograms",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_histogram_buckets_sum_to_total;
            prop_merge_equals_sequential;
            prop_merge_bucket_mismatch_rejected;
          ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus round trip" `Quick test_prometheus_round_trip;
          Alcotest.test_case "json escaping" `Quick test_json_renders;
          Alcotest.test_case "json parses, non-finite as null" `Quick test_json_parses;
          QCheck_alcotest.to_alcotest prop_exposition_round_trip;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled is a no-op" `Quick test_span_disabled_is_noop;
          Alcotest.test_case "exception safety" `Quick test_span_survives_exception;
          Alcotest.test_case "ring buffer wrap" `Quick test_ring_buffer_wrap;
          Alcotest.test_case "dropped counter on wrap" `Quick test_trace_dropped_counter;
          Alcotest.test_case "ring bound counts spans" `Quick test_ring_span_bound;
          Alcotest.test_case "unsampled op allocation pinned" `Quick
            test_unsampled_op_allocation;
          Alcotest.test_case "render tree" `Quick test_render_tree;
          QCheck_alcotest.to_alcotest prop_ring_model;
        ] );
      ( "journal",
        [
          QCheck_alcotest.to_alcotest prop_journal_round_trip;
          Alcotest.test_case "rejects corrupted journals" `Quick test_journal_rejects;
          Alcotest.test_case "tail ring" `Quick test_journal_tail;
          Alcotest.test_case "strict JSON values" `Quick test_json_value_round_trip;
          Alcotest.test_case "rejects alike in every codec" `Quick test_journal_rejects_alike;
          QCheck_alcotest.to_alcotest prop_json_text_round_trip;
          QCheck_alcotest.to_alcotest prop_emit_paths_agree;
          Alcotest.test_case "Emit misuse is refused" `Quick test_emit_misuse;
        ] );
    ]
