(* Tests for the continuous-telemetry layer: the time-series store
   (downsampling conservation, multi-resolution windows, oldest-first
   ring eviction, quantile-over-window), the alert rule engine (grammar,
   threshold and burn-rate evaluation, the Pending -> Firing -> Resolved
   state machine checked against a reference automaton), the telemetry
   journal sink, the build-info metric and the HTTP /alerts + /tsdb
   routes. *)

module Metrics = Rebal_obs.Metrics
module Journal = Rebal_obs.Journal
module Tsdb = Rebal_obs.Tsdb
module Alerts = Rebal_obs.Alerts
module Http = Rebal_net.Http
open QCheck2

let sec_ns = 1_000_000_000L

(* A store over a private registry with an injected 1 Hz clock: [tick]
   advances one second and takes one sample. *)
let make_store ?(raw = 6) ?(mid = 6) ?(coarse = 600) () =
  let reg = Metrics.Registry.create () in
  let now = ref 0L in
  let tsdb =
    Tsdb.create ~raw_capacity:raw ~mid_capacity:mid ~coarse_capacity:coarse
      ~clock_ns:(fun () -> !now)
      ~source:(fun () -> Metrics.Registry.metrics reg)
      ()
  in
  let tick () =
    now := Int64.add !now sec_ns;
    Tsdb.sample tsdb
  in
  (reg, tsdb, tick)

(* Sample k of these properties is taken at k seconds, so a point's
   timestamp names the newest raw sample merged into it and
   [at_sec p - p.samples + 1 .. at_sec p] is the block of raw samples
   it aggregates. *)
let at_sec p = p.Tsdb.at_ns / 1_000_000_000

(* The multi-resolution view promises disjoint blocks in time order:
   no raw sample is ever counted twice, whatever tier it is read
   from. *)
let check_tiling pts =
  if pts = [] then Test.fail_report "no points retained";
  let rec go = function
    | a :: (b :: _ as rest) ->
      if at_sec b - b.Tsdb.samples < at_sec a then
        Test.fail_reportf "blocks overlap: ..%d and %d-wide ..%d" (at_sec a)
          b.Tsdb.samples (at_sec b);
      go rest
    | _ -> ()
  in
  go pts

(* ----- downsampling conserves counter totals ----- *)

(* Tiny raw/mid rings force the full-window read through all three
   tiers. A block's [last] must be the exact cumulative counter at its
   end and its [min] the exact value at its start — aggregation loses
   no increments — so window deltas telescope exactly, both over the
   whole downsampled history and over a short raw-only window. *)
let prop_downsampling_conserves_counter =
  Test.make ~count:100 ~name:"counter deltas survive downsampling exactly"
    Gen.(list_size (int_range 20 400) (int_range 0 50))
    (fun increments ->
      let reg, tsdb, tick = make_store ~raw:10 ~mid:6 () in
      let c = Metrics.counter ~registry:reg "t_events_total" in
      tick ();
      List.iter
        (fun n ->
          Metrics.Counter.add c n;
          tick ())
        increments;
      let n = List.length increments in
      (* [value.(k)] = counter value captured by the sample at k
         seconds (the k-th sample; the first predates all increments). *)
      let value = Array.make (n + 2) 0 in
      List.iteri (fun i inc -> value.(i + 2) <- value.(i + 1) + inc) increments;
      let total = value.(n + 1) in
      let window_s = float_of_int (n + 10) in
      let pts = Tsdb.points tsdb ~window_s "t_events_total" in
      check_tiling pts;
      List.iter
        (fun p ->
          let k = at_sec p in
          if p.Tsdb.last <> float_of_int value.(k) then
            Test.fail_reportf "block ending at %ds: last=%g, counter was %d" k
              p.Tsdb.last value.(k);
          if p.Tsdb.min <> float_of_int value.(k - p.Tsdb.samples + 1) then
            Test.fail_reportf "block ending at %ds: min=%g, start value %d" k p.Tsdb.min
              value.(k - p.Tsdb.samples + 1))
        pts;
      (match Tsdb.window tsdb ~window_s "t_events_total" with
      | None -> Test.fail_report "no window stats for a sampled series"
      | Some st ->
        if st.Tsdb.s_last <> float_of_int total then
          Test.fail_reportf "window last %g <> final total %d" st.Tsdb.s_last total;
        let first = at_sec (List.hd pts) in
        if st.Tsdb.s_delta <> float_of_int (total - value.(first)) then
          Test.fail_reportf "window delta %g <> %d" st.Tsdb.s_delta
            (total - value.(first)));
      (* A window inside the raw ring is gap-free: its delta is exactly
         the increments applied during it. *)
      match Tsdb.eval tsdb Tsdb.Delta ~window_s:5.0 "t_events_total" with
      | Some d -> d = float_of_int (total - value.(n - 4))
      | None -> false)

(* A window within the raw ring's reach counts every sample exactly
   once. *)
let prop_raw_window_counts_every_sample_once =
  Test.make ~count:100 ~name:"raw-window reads count every sample once"
    Gen.(int_range 12 400)
    (fun n ->
      let reg, tsdb, tick = make_store ~raw:10 () in
      let g = Metrics.gauge ~registry:reg "t_level" in
      for i = 1 to n do
        Metrics.Gauge.set g (float_of_int i);
        tick ()
      done;
      let pts = Tsdb.points tsdb ~window_s:9.0 "t_level" in
      check_tiling pts;
      List.length pts = 10
      && List.for_all (fun p -> p.Tsdb.samples = 1) pts
      && List.fold_left (fun acc p -> acc + p.Tsdb.samples) 0 pts = 10)

(* ----- ring eviction is oldest-first ----- *)

(* Identity series: sample k carries gauge = k, so every retained
   point must satisfy last = at_sec and min = at_sec - samples + 1 —
   any reordering, corruption or newest-first eviction breaks the
   identity. The newest sample is always retained; only the oldest
   history falls off the coarse ring (4 blocks of 60 samples here, so
   nothing older than 300 samples can survive, and nothing newer than
   the rings' total reach may be missing entirely). *)
let prop_ring_eviction_oldest_first =
  Test.make ~count:60 ~name:"ring eviction drops oldest points first"
    Gen.(int_range 1 1200)
    (fun n ->
      let reg, tsdb, tick = make_store ~raw:4 ~mid:4 ~coarse:4 () in
      let g = Metrics.gauge ~registry:reg "t_seq" in
      for i = 1 to n do
        Metrics.Gauge.set g (float_of_int i);
        tick ()
      done;
      let pts = Tsdb.points tsdb ~window_s:(float_of_int (n + 10)) "t_seq" in
      check_tiling pts;
      List.iter
        (fun p ->
          let k = at_sec p in
          if p.Tsdb.last <> float_of_int k then
            Test.fail_reportf "point at %ds: last=%g, expected %d" k p.Tsdb.last k;
          if p.Tsdb.min <> float_of_int (k - p.Tsdb.samples + 1) then
            Test.fail_reportf "point at %ds: min=%g with %d samples" k p.Tsdb.min
              p.Tsdb.samples)
        pts;
      let oldest = List.hd pts in
      if n > 300 && at_sec oldest - oldest.Tsdb.samples + 1 <= n - 300 then
        Test.fail_reportf "sample %d outlived the coarse ring (newest is %d)"
          (at_sec oldest - oldest.Tsdb.samples + 1)
          n;
      let newest = List.nth pts (List.length pts - 1) in
      newest.Tsdb.at_ns = n * 1_000_000_000 && newest.Tsdb.last = float_of_int n)

(* ----- quantile over a window ----- *)

let q_buckets = [| 0.01; 0.1; 0.5; 1.0 |]

(* Nearest-rank over the in-window bucket deltas must land in the same
   bucket as the exact nearest-rank of the raw observations (the store
   only keeps bucket counts, so one bucket is its full resolution). *)
let prop_quantile_within_bucket_resolution =
  Test.make ~count:150 ~name:"windowed quantile is bucket-exact"
    Gen.(
      pair
        (list_size (int_range 1 60) (float_bound_exclusive 1.5))
        (float_range 0.05 1.0))
    (fun (obs, q) ->
      let obs = List.map (fun v -> Float.max 1e-6 v) obs in
      let reg, tsdb, tick = make_store () in
      let h = Metrics.histogram ~registry:reg ~buckets:q_buckets "t_lat_seconds" in
      tick ();
      List.iter (Metrics.Histogram.observe h) obs;
      tick ();
      match Tsdb.quantile tsdb ~q ~window_s:10.0 "t_lat_seconds" with
      | None -> Test.fail_report "no quantile for observed histogram"
      | Some reported ->
        let sorted = List.sort compare obs in
        let n = List.length sorted in
        let k = max 1 (int_of_float (ceil (q *. float_of_int n))) in
        let exact = List.nth sorted (min (n - 1) (k - 1)) in
        let bucket_of v =
          match Array.to_list q_buckets |> List.find_opt (fun b -> v <= b) with
          | Some b -> b
          | None -> infinity
        in
        let expected = bucket_of exact in
        (* One bucket of slack absorbs the float rank rounding at exact
           integer ranks (q * n landing on a bucket boundary count). *)
        let bounds = Array.to_list q_buckets @ [ infinity ] in
        let idx b =
          let rec go i = function
            | [] -> i
            | x :: rest -> if x = b then i else go (i + 1) rest
          in
          go 0 bounds
        in
        abs (idx reported - idx expected) <= 1)

(* ----- alert state machine vs a reference automaton ----- *)

type ref_state = {
  mutable r_st : Alerts.state;
  mutable r_pending_at : int;
}

let ref_step r ~now ~for_ns active =
  match (r.r_st, active) with
  | (Alerts.Inactive | Alerts.Resolved), true ->
    if for_ns <= 0 then r.r_st <- Alerts.Firing
    else begin
      r.r_pending_at <- now;
      r.r_st <- Alerts.Pending
    end
  | Alerts.Pending, true -> if now - r.r_pending_at >= for_ns then r.r_st <- Alerts.Firing
  | Alerts.Pending, false -> r.r_st <- Alerts.Inactive
  | Alerts.Firing, false -> r.r_st <- Alerts.Resolved
  | _ -> ()

let threshold_rule ~for_s =
  {
    Alerts.rule_name = "hot";
    condition =
      Alerts.Threshold
        {
          func = Tsdb.Value;
          series = "t_level";
          labels = [];
          window_s = 5.0;
          cmp = Alerts.Gt;
          bound = 0.5;
        };
    for_s;
    suspect = None;
  }

let prop_alert_state_machine =
  Test.make ~count:200 ~name:"alert state machine matches the reference automaton"
    Gen.(pair (int_range 0 3) (list_size (int_range 1 40) bool))
    (fun (for_ticks, actives) ->
      let reg, tsdb, tick = make_store () in
      let g = Metrics.gauge ~registry:reg "t_level" in
      let areg = Metrics.Registry.create () in
      let alerts =
        Alerts.create ~registry:areg
          ~rules:[ threshold_rule ~for_s:(float_of_int for_ticks) ]
          tsdb
      in
      let reference = { r_st = Alerts.Inactive; r_pending_at = 0 } in
      let for_ns = for_ticks * 1_000_000_000 in
      let history = ref [] in
      List.iteri
        (fun i active ->
          Metrics.Gauge.set g (if active then 1.0 else 0.0);
          tick ();
          ignore (Alerts.eval alerts);
          history := active :: !history;
          ref_step reference ~now:(Tsdb.last_sample_ns tsdb) ~for_ns active;
          let got = Option.get (Alerts.state alerts "hot") in
          if got <> reference.r_st then
            Test.fail_reportf "tick %d: state %s, reference %s" i (Alerts.state_name got)
              (Alerts.state_name reference.r_st);
          (* No Firing without the for-duration served: the last
             for_ticks+1 ticks must all have been active. *)
          if got = Alerts.Firing then begin
            let rec held n = function
              | [] -> n <= 0
              | a :: rest -> if n <= 0 then true else a && held (n - 1) rest
            in
            if not (held (for_ticks + 1) !history) then
              Test.fail_reportf "tick %d: firing without %d active ticks" i (for_ticks + 1)
          end)
        actives;
      (* Transition provenance: timestamps monotone, edges legal,
         Resolved entered only from Firing. *)
      let legal = function
        | Alerts.Inactive, (Alerts.Pending | Alerts.Firing)
        | Alerts.Pending, (Alerts.Firing | Alerts.Inactive)
        | Alerts.Firing, Alerts.Resolved
        | Alerts.Resolved, (Alerts.Pending | Alerts.Firing) ->
          true
        | _ -> false
      in
      let trs = Alerts.transitions alerts in
      let rec check prev_ns = function
        | [] -> true
        | tr :: rest ->
          tr.Alerts.t_at_ns >= prev_ns
          && legal (tr.Alerts.t_from, tr.Alerts.t_to)
          && (tr.Alerts.t_to <> Alerts.Resolved || tr.Alerts.t_from = Alerts.Firing)
          && check tr.Alerts.t_at_ns rest
      in
      check 0 trs)

(* One-hot state gauges: exactly one rebal_alert_state series per rule
   is 1, and it names the current state. *)
let test_alert_state_gauges () =
  let reg, tsdb, tick = make_store () in
  let g = Metrics.gauge ~registry:reg "t_level" in
  let areg = Metrics.Registry.create () in
  let alerts = Alerts.create ~registry:areg ~rules:[ threshold_rule ~for_s:0.0 ] tsdb in
  Metrics.Gauge.set g 1.0;
  tick ();
  ignore (Alerts.eval alerts);
  let one_hot =
    List.filter_map
      (fun (m : Metrics.metric) ->
        match m.Metrics.kind with
        | Metrics.Gauge gg when m.Metrics.name = "rebal_alert_state" ->
          if Metrics.Gauge.value gg = 1.0 then List.assoc_opt "state" m.Metrics.labels
          else None
        | _ -> None)
      (Metrics.Registry.metrics areg)
  in
  Alcotest.(check (list string)) "one-hot state" [ "firing" ] one_hot

(* ----- rule grammar ----- *)

let test_parse_threshold () =
  match Alerts.parse_rule "alert hot p99(lat_seconds[30s]) >= 0.25 for 10s suspect 2" with
  | Error e -> Alcotest.fail e
  | Ok None -> Alcotest.fail "rule parsed as blank"
  | Ok (Some r) ->
    Alcotest.(check string) "name" "hot" r.Alerts.rule_name;
    Alcotest.(check (float 1e-9)) "for" 10.0 r.Alerts.for_s;
    Alcotest.(check (option int)) "suspect" (Some 2) r.Alerts.suspect;
    (match r.Alerts.condition with
    | Alerts.Threshold { func = Tsdb.Quantile q; series; window_s; cmp = Alerts.Ge; bound; _ }
      ->
      Alcotest.(check (float 1e-9)) "quantile" 0.99 q;
      Alcotest.(check string) "series" "lat_seconds" series;
      Alcotest.(check (float 1e-9)) "window" 30.0 window_s;
      Alcotest.(check (float 1e-9)) "bound" 0.25 bound
    | _ -> Alcotest.fail "wrong condition shape")

let test_parse_burnrate () =
  match
    Alerts.parse_rule
      "burnrate slo bad=errs_total{shard=\"1\"} total=ops_total budget=0.01 factor=14.4 \
       short=5m long=1h for=2m suspect=1"
  with
  | Error e -> Alcotest.fail e
  | Ok None -> Alcotest.fail "rule parsed as blank"
  | Ok (Some r) ->
    Alcotest.(check string) "name" "slo" r.Alerts.rule_name;
    Alcotest.(check (float 1e-9)) "for" 120.0 r.Alerts.for_s;
    Alcotest.(check (option int)) "suspect" (Some 1) r.Alerts.suspect;
    (match r.Alerts.condition with
    | Alerts.Burnrate { bad = (bn, bl); total = (tn, _); budget; factor; short_s; long_s }
      ->
      Alcotest.(check string) "bad series" "errs_total" bn;
      Alcotest.(check (list (pair string string))) "bad labels" [ ("shard", "1") ] bl;
      Alcotest.(check string) "total series" "ops_total" tn;
      Alcotest.(check (float 1e-9)) "budget" 0.01 budget;
      Alcotest.(check (float 1e-9)) "factor" 14.4 factor;
      Alcotest.(check (float 1e-9)) "short" 300.0 short_s;
      Alcotest.(check (float 1e-9)) "long" 3600.0 long_s
    | _ -> Alcotest.fail "wrong condition shape")

let test_parse_rejects () =
  let bad line =
    match Alerts.parse_rule line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted: %s" line
  in
  bad "alert x frobnicate(a[5s]) > 1 for 0s";
  bad "alert x rate(a[5s]) > 1";
  bad "alert x rate(a) > 1 for 5s";
  bad "alert x rate(a[5s]) ~ 1 for 5s";
  bad "burnrate x bad=a total=b budget=0.1 factor=2 short=1h long=5m";
  bad "burnrate x bad=a total=b budget=0.1 factor=2 short=5m long=1h frob=1";
  (match Alerts.parse_rule "# a comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment should parse as blank");
  match Alerts.parse_rules "alert a value(x) > 1 for 0s\nalert a value(x) > 2 for 0s" with
  | Error e ->
    Alcotest.(check bool) "names the line" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "duplicate rule names accepted"

(* ----- burn-rate evaluation ----- *)

(* Both windows must burn: a short spike alone does not fire, a
   sustained one does, and stopping the errors resolves it. *)
let test_burnrate_fires_and_resolves () =
  let reg, tsdb, tick = make_store ~raw:20 () in
  let bad = Metrics.counter ~registry:reg "t_bad_total" in
  let total = Metrics.counter ~registry:reg "t_total" in
  let rule =
    {
      Alerts.rule_name = "slo";
      condition =
        Alerts.Burnrate
          {
            bad = ("t_bad_total", []);
            total = ("t_total", []);
            budget = 0.01;
            factor = 2.0;
            short_s = 3.0;
            long_s = 10.0;
          };
      for_s = 0.0;
      suspect = None;
    }
  in
  let areg = Metrics.Registry.create () in
  let alerts = Alerts.create ~registry:areg ~rules:[ rule ] tsdb in
  let step nbad =
    Metrics.Counter.add bad nbad;
    Metrics.Counter.add total 100;
    tick ();
    ignore (Alerts.eval alerts);
    Option.get (Alerts.state alerts "slo")
  in
  (* Clean traffic baseline fills the long window. *)
  for _ = 1 to 12 do ignore (step 0) done;
  Alcotest.(check bool) "clean traffic inactive" true (step 0 = Alerts.Inactive);
  (* One bad tick: the 3 s window burns, the 10 s window does not. *)
  let after_spike = step 10 in
  Alcotest.(check bool) "short spike alone does not fire"
    true
    (after_spike = Alerts.Inactive);
  (* Sustained 10% errors push both windows over 2 * 1% budget. *)
  let sustained = ref after_spike in
  for _ = 1 to 6 do sustained := step 10 done;
  Alcotest.(check bool) "sustained burn fires" true (!sustained = Alerts.Firing);
  let healed = ref !sustained in
  for _ = 1 to 15 do healed := step 0 done;
  Alcotest.(check bool) "clean traffic resolves" true (!healed = Alerts.Resolved)

(* ----- telemetry journal sink ----- *)

let test_sink_writes_samples_and_alerts () =
  let buf = Buffer.create 1024 in
  let sink = Journal.create ~write:(Buffer.add_string buf) () in
  let reg = Metrics.Registry.create () in
  let now = ref 0L in
  let tsdb =
    Tsdb.create
      ~clock_ns:(fun () -> !now)
      ~sink
      ~meta:[ ("who", Journal.Str "test") ]
      ~source:(fun () -> Metrics.Registry.metrics reg)
      ()
  in
  let g = Metrics.gauge ~registry:reg "t_level" in
  let alerts =
    Alerts.create ~registry:(Metrics.Registry.create ()) ~sink
      ~rules:[ threshold_rule ~for_s:0.0 ]
      tsdb
  in
  Metrics.Gauge.set g 1.0;
  now := Int64.add !now sec_ns;
  Tsdb.sample tsdb;
  ignore (Alerts.eval alerts);
  match Journal.load_string (Buffer.contents buf) with
  | Error e -> Alcotest.fail e
  | Ok (header, events) ->
    Alcotest.(check string) "journal tag" "rebal-telemetry" header.Journal.journal;
    let kinds = List.map (fun e -> e.Journal.kind) events in
    Alcotest.(check (list string)) "one sample then one alert" [ "sample"; "alert" ] kinds;
    let alert = List.nth events 1 in
    Alcotest.(check string) "provenance rule" "hot"
      (Result.get_ok (Journal.str_field alert "rule"));
    Alcotest.(check string) "provenance to" "firing"
      (Result.get_ok (Journal.str_field alert "to"))

(* ----- build info ----- *)

let test_build_info () =
  let reg = Metrics.Registry.create () in
  let now = ref 100.0 in
  Metrics.register_build_info ~registry:reg ~clock:(fun () -> !now) ~version:"9.9.9" ();
  now := 107.5;
  let ms = Metrics.Registry.metrics reg in
  let find name =
    List.find_opt (fun (m : Metrics.metric) -> m.Metrics.name = name) ms
  in
  (match find "rebal_build_info" with
  | None -> Alcotest.fail "no rebal_build_info"
  | Some m ->
    Alcotest.(check (option string)) "version label" (Some "9.9.9")
      (List.assoc_opt "version" m.Metrics.labels);
    Alcotest.(check (option string)) "ocaml label" (Some Sys.ocaml_version)
      (List.assoc_opt "ocaml" m.Metrics.labels);
    (match m.Metrics.kind with
    | Metrics.Gauge g -> Alcotest.(check (float 0.0)) "value 1" 1.0 (Metrics.Gauge.value g)
    | _ -> Alcotest.fail "build info is not a gauge"));
  match find "rebal_uptime_seconds" with
  | None -> Alcotest.fail "no rebal_uptime_seconds"
  | Some m -> (
    match m.Metrics.kind with
    | Metrics.Gauge g ->
      Alcotest.(check (float 1e-9)) "uptime follows the clock" 7.5 (Metrics.Gauge.value g)
    | _ -> Alcotest.fail "uptime is not a gauge")

(* ----- HTTP routes ----- *)

let metrics_stub () = "# HELP x\nx 1\n"

let test_http_alerts_route () =
  let body = "ALERTS rules=1 firing=0\n" in
  let r = Http.respond ~metrics:metrics_stub ~alerts:(fun () -> body) "GET /alerts HTTP/1.0" in
  Alcotest.(check int) "status" 200 r.Http.status;
  Alcotest.(check string) "body" body r.Http.body;
  Alcotest.(check int) "404 without telemetry" 404
    (Http.respond ~metrics:metrics_stub "GET /alerts HTTP/1.0").Http.status

let test_http_tsdb_route () =
  let seen = ref None in
  let tsdb ~series ~window =
    seen := Some (series, window);
    Ok "{\"points\":[]}"
  in
  let r =
    Http.respond ~metrics:metrics_stub ~tsdb
      "GET /tsdb?series=a_total%7Bshard%3D%220%22%7D&window=30s HTTP/1.0"
  in
  Alcotest.(check int) "status" 200 r.Http.status;
  Alcotest.(check string) "json content type" "application/json" r.Http.content_type;
  (match !seen with
  | Some (series, window) ->
    Alcotest.(check string) "series percent-decoded" "a_total{shard=\"0\"}" series;
    Alcotest.(check (option string)) "window passed through" (Some "30s") window
  | None -> Alcotest.fail "handler not called");
  Alcotest.(check int) "missing series is 400" 400
    (Http.respond ~metrics:metrics_stub ~tsdb "GET /tsdb HTTP/1.0").Http.status;
  let failing ~series:_ ~window:_ = Error "bad selector" in
  Alcotest.(check int) "handler error is 400" 400
    (Http.respond ~metrics:metrics_stub ~tsdb:failing "GET /tsdb?series=%5D HTTP/1.0")
      .Http.status;
  Alcotest.(check int) "404 without telemetry" 404
    (Http.respond ~metrics:metrics_stub "GET /tsdb?series=x HTTP/1.0").Http.status

(* ----- selector / duration helpers ----- *)

let test_selector_round_trip () =
  let check s =
    match Tsdb.parse_selector s with
    | Error e -> Alcotest.failf "%s: %s" s e
    | Ok (name, labels) ->
      Alcotest.(check string) "round trip" s (Tsdb.selector_string name labels)
  in
  check "plain_series";
  check "with_labels{a=\"1\",b=\"two\"}";
  (* Label values holding a quote, a backslash and a newline use the
     METRICS escapes, in both directions. *)
  check {|rebal_journal_dropped_total{journal="say \"hi\".log"}|};
  check {|escapes{a="C:\\logs\\j",b="two\nlines"}|};
  (match Tsdb.parse_selector {|escapes{a="q\"",b="b\\",c="n\n"}|} with
  | Ok (_, labels) ->
    Alcotest.(check (list (pair string string)))
      "decoded values"
      [ ("a", "q\""); ("b", "b\\"); ("c", "n\n") ]
      labels
  | Error e -> Alcotest.fail e);
  Alcotest.(check string)
    "rendered escapes" {|s{v="\"\\\n"}|}
    (Tsdb.selector_string "s" [ ("v", "\"\\\n") ]);
  (match Tsdb.parse_selector "bad{unclosed" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unclosed selector accepted");
  match Tsdb.parse_duration "5m" with
  | Ok s -> Alcotest.(check (float 1e-9)) "5m" 300.0 s
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "rebal_telemetry"
    [
      ( "tsdb",
        [
          QCheck_alcotest.to_alcotest prop_downsampling_conserves_counter;
          QCheck_alcotest.to_alcotest prop_raw_window_counts_every_sample_once;
          QCheck_alcotest.to_alcotest prop_ring_eviction_oldest_first;
          QCheck_alcotest.to_alcotest prop_quantile_within_bucket_resolution;
          Alcotest.test_case "selectors and durations" `Quick test_selector_round_trip;
        ] );
      ( "alerts",
        [
          QCheck_alcotest.to_alcotest prop_alert_state_machine;
          Alcotest.test_case "one-hot state gauges" `Quick test_alert_state_gauges;
          Alcotest.test_case "threshold grammar" `Quick test_parse_threshold;
          Alcotest.test_case "burnrate grammar" `Quick test_parse_burnrate;
          Alcotest.test_case "grammar rejections" `Quick test_parse_rejects;
          Alcotest.test_case "burnrate fires and resolves" `Quick
            test_burnrate_fires_and_resolves;
        ] );
      ( "integration",
        [
          Alcotest.test_case "telemetry journal sink" `Quick
            test_sink_writes_samples_and_alerts;
          Alcotest.test_case "build info metric" `Quick test_build_info;
          Alcotest.test_case "GET /alerts" `Quick test_http_alerts_route;
          Alcotest.test_case "GET /tsdb" `Quick test_http_tsdb_route;
        ] );
    ]
