(* Self-tests of the benchmark's own code: stream determinism and
   validity, the live-set band, and the statistics the metrics are
   computed with. *)

open Perfbench

let mixes =
  [
    ("stream-single", Workloads.single_mix);
    ("rpc-parallel", Workloads.rpc_mix 0);
    ("restart-sharded", Workloads.restart_mix);
  ]

let stream_text ~seed mix =
  let g = Gen.create ~seed mix in
  let pre = Gen.preload g in
  Gen.to_string pre ^ Gen.to_string (Gen.steady g 20_000)

let test_deterministic () =
  List.iter
    (fun (name, mix) ->
      let a = stream_text ~seed:7 mix and b = stream_text ~seed:7 mix in
      Alcotest.(check bool) (name ^ ": same seed, same bytes") true (String.equal a b);
      Alcotest.(check bool) (name ^ ": other seed, other bytes") false (String.equal a (stream_text ~seed:8 mix)))
    mixes

let test_valid_and_banded () =
  List.iter
    (fun (name, mix) ->
      let g = Gen.create ~seed:3 mix in
      let shadow = Shadow.create () in
      Shadow.apply_stream shadow (Gen.preload g);
      Alcotest.(check int) (name ^ ": preload reaches the target") mix.Gen.live (Shadow.jobs shadow);
      let lo, hi = Gen.band g in
      let steady = Gen.steady g 50_000 in
      let repairs = ref 0 in
      Gen.iter_lines steady (fun line ->
          (match Shadow.apply shadow line with Ok () -> () | Error e -> Alcotest.fail (name ^ ": " ^ e));
          if String.length line > 9 && String.sub line 0 9 = "REBALANCE" then incr repairs;
          let n = Shadow.jobs shadow in
          if n < lo || n > hi then Alcotest.failf "%s: live set %d left the band [%d, %d]" name n lo hi);
      Alcotest.(check int) (name ^ ": generator and shadow agree") (Gen.live_count g) (Shadow.jobs shadow);
      let expected = if mix.Gen.rebalance_every = 0 then 0 else 50_000 / mix.Gen.rebalance_every in
      Alcotest.(check int) (name ^ ": REBALANCE cadence") expected !repairs)
    mixes

let test_shadow_rejects () =
  let s = Shadow.create () in
  Shadow.apply_exn s "ADD a 5";
  let bad l = Alcotest.(check bool) l true (Result.is_error (Shadow.apply s l)) in
  bad "ADD a 3";
  bad "ADD b 0";
  bad "REMOVE z";
  bad "RESIZE a -1";
  bad "FROB"

let test_prefix () =
  let g = Gen.create ~seed:1 (Workloads.rpc_mix 1) in
  let s = Gen.steady g 1000 in
  let all = Gen.to_string s in
  List.iter
    (fun k ->
      let p = Gen.prefix s k in
      let text = Gen.to_string p in
      let lines = List.length (String.split_on_char '\n' text) - 1 in
      Alcotest.(check int) (Printf.sprintf "prefix %d: line count" k) k lines;
      Alcotest.(check string) (Printf.sprintf "prefix %d: leading bytes" k) (String.sub all 0 (String.length text)) text)
    [ 0; 1; 255; 256; 257; 999; 1000 ]

let test_lower_bound () =
  let s = Shadow.create () in
  List.iter (Shadow.apply_exn s) [ "ADD a 5"; "ADD b 3"; "ADD c 3" ];
  Alcotest.(check int) "ceil (11 / 2) beats the largest job" 6 (Shadow.lower_bound s ~m:2);
  Alcotest.(check int) "the largest job beats ceil (11 / 4)" 5 (Shadow.lower_bound s ~m:4);
  Shadow.apply_exn s "REMOVE a";
  Alcotest.(check int) "largest job recomputed after removal" 3 (Shadow.lower_bound s ~m:4);
  Shadow.apply_exn s "RESIZE b 9";
  Alcotest.(check int) "resize raises the largest job" 9 (Shadow.lower_bound s ~m:4);
  Alcotest.(check int) "total follows resizes" 12 (Shadow.total s)

let test_percentile () =
  let ns = Array.init 100 (fun i -> (100 - i) * 1000) in
  Alcotest.(check (float 1e-9)) "p50 is the 50th smallest" 50.0 (Report.percentile_us ns 0.50);
  Alcotest.(check (float 1e-9)) "p99 is the 99th smallest" 99.0 (Report.percentile_us ns 0.99);
  Alcotest.(check (float 1e-9)) "p100 is the maximum" 100.0 (Report.percentile_us ns 1.0);
  Alcotest.(check (float 1e-9)) "one sample" 7.0 (Report.percentile_us [| 7000 |] 0.99)

let span id ~parent start stop = { Spans.id; name = "s"; start; stop; parent; workload = "w" }

let test_self_time () =
  let spans =
    [|
      span 0 ~parent:(-1) 0 100;
      span 1 ~parent:0 10 30;
      span 2 ~parent:0 20 50;
      span 3 ~parent:0 60 70;
      span 4 ~parent:3 61 69;
      span 5 ~parent:0 95 120;
    |]
  in
  (* Children cover [10,50) + [60,70) + [95,100) of the root. *)
  Alcotest.(check int) "overlapping and clipped children" 45 (Spans.self_time spans spans.(0));
  Alcotest.(check int) "grandchildren count only against their parent" 2 (Spans.self_time spans spans.(3));
  Alcotest.(check int) "a leaf's self time is its duration" 20 (Spans.self_time spans spans.(1));
  let t = Spans.create () in
  let inner = ref (-2) in
  Spans.with_span t ~workload:"w" "outer" (fun id ->
      Spans.with_span t ~parent:id ~workload:"w" "inner" (fun i -> inner := i));
  let rec_ = Spans.recorded t in
  Alcotest.(check int) "two spans recorded" 2 (Array.length rec_);
  Alcotest.(check int) "child points at its parent" 0 rec_.(!inner).Spans.parent;
  t.Spans.on <- false;
  Spans.with_span t ~workload:"w" "off" (fun id -> Alcotest.(check int) "no id while off" (-1) id);
  Alcotest.(check int) "nothing recorded while off" 2 (Array.length (Spans.recorded t))

let test_slices () =
  let c = Series.create () in
  (* Ten samples, one every 100 ns from t = 100 to 1000. *)
  for i = 1 to 10 do
    Series.add c (i * 100) (i * 10)
  done;
  let bounds = Series.slices ~t0:0 ~t1:1000 2 in
  Alcotest.(check (array (pair int int))) "equal halves" [| (0, 500); (500, 1000) |] bounds;
  let buckets = Series.bucket [ c ] bounds in
  Alcotest.(check (array int)) "samples fall in their slice" [| 40; 30; 20; 10 |] buckets.(0);
  Alcotest.(check int) "the end of the window is outside it" 5 (Array.length buckets.(1))

let () =
  Alcotest.run "perfbench"
    [
      ( "streams",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_deterministic;
          Alcotest.test_case "valid against the shadow, live set in band" `Quick test_valid_and_banded;
          Alcotest.test_case "shadow rejects invalid ops" `Quick test_shadow_rejects;
          Alcotest.test_case "prefix" `Quick test_prefix;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "shadow lower bound" `Quick test_lower_bound;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "window slices" `Quick test_slices;
        ] );
    ]
