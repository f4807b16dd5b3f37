(* Online engine tests: single-event placement against brute force, the
   consistency-with-batch invariant (the engine's bounded-move repair pass
   must reach exactly the makespan of the batch GREEDY on the materialized
   instance), trigger policies, and a protocol round-trip. *)

module Engine = Rebal_online.Engine
module Protocol = Rebal_online.Protocol
module Replay = Rebal_online.Replay
module Journal = Rebal_obs.Journal
module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Greedy = Rebal_algo.Greedy
module Rng = Rebal_workloads.Rng

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected engine error: %s" e

let add eng id size = ok (Engine.add_job eng ~id ~size)

(* --- single-event updates ------------------------------------------------ *)

let test_greedy_placement () =
  let rng = Rng.create 42 in
  for _ = 1 to 50 do
    let m = Rng.int_range rng 1 8 in
    let eng = Engine.create ~m () in
    let loads = Array.make m 0 in
    for j = 0 to 40 do
      let size = Rng.int_range rng 1 50 in
      let p, _ = add eng (string_of_int j) size in
      (* Brute-force argmin with smallest-index tie-break. *)
      let best = ref 0 in
      for q = 1 to m - 1 do
        if loads.(q) < loads.(!best) then best := q
      done;
      check_int "least-loaded placement" !best p;
      loads.(p) <- loads.(p) + size;
      check Alcotest.(array int) "loads tracked" loads (Engine.loads eng);
      check_int "makespan = max load" (Array.fold_left max 0 loads) (Engine.makespan eng)
    done
  done

let test_remove_resize () =
  let eng = Engine.create ~m:2 () in
  ignore (add eng "a" 10);
  ignore (add eng "b" 20);
  ignore (add eng "c" 5);
  (* a -> 0, b -> 1, c -> 0. *)
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int)) "find c" (Some (5, 0))
    (Engine.find eng "c");
  let p, _ = ok (Engine.remove_job eng ~id:"a") in
  check_int "a was on 0" 0 p;
  check_int "jobs" 2 (Engine.job_count eng);
  ignore (ok (Engine.resize_job eng ~id:"b" ~size:3));
  check Alcotest.(array int) "loads after remove+resize" [| 5; 3 |] (Engine.loads eng);
  check_int "makespan" 5 (Engine.makespan eng)

let test_errors () =
  let eng = Engine.create ~m:2 () in
  ignore (add eng "a" 10);
  let is_err = function Error _ -> true | Ok _ -> false in
  check_bool "duplicate add" true (is_err (Engine.add_job eng ~id:"a" ~size:5));
  check_bool "non-positive size" true (is_err (Engine.add_job eng ~id:"b" ~size:0));
  check_bool "remove missing" true (is_err (Engine.remove_job eng ~id:"zz"));
  check_bool "resize missing" true (is_err (Engine.resize_job eng ~id:"zz" ~size:4));
  check_bool "resize to zero" true (is_err (Engine.resize_job eng ~id:"a" ~size:0));
  check_int "errors left no trace" 1 (Engine.job_count eng);
  Alcotest.check_raises "negative m" (Invalid_argument "Engine.create: need at least one processor")
    (fun () -> ignore (Engine.create ~m:0 ()))

(* --- the consistency-with-batch invariant -------------------------------- *)

let test_rebalance_matches_batch () =
  let eng = Engine.create ~m:4 () in
  List.iteri (fun i size -> ignore (add eng (Printf.sprintf "j%d" i) size))
    [ 60; 50; 10; 5; 40; 8; 3; 70 ];
  let inst, _ = Engine.to_instance eng in
  let moves = Engine.rebalance eng ~k:max_int in
  let batch = Assignment.makespan inst (Greedy.solve inst ~k:max_int) in
  check_int "makespan bit-matches batch greedy" batch (Engine.makespan eng);
  check_bool "repair reported some moves" true (List.length moves > 0)

let test_check_consistency_is_pure () =
  let eng = Engine.create ~m:3 () in
  List.iteri (fun i size -> ignore (add eng (Printf.sprintf "j%d" i) size))
    [ 9; 14; 3; 3; 21; 7 ];
  let before_loads = Engine.loads eng in
  let before_span = Engine.makespan eng in
  for k = 0 to 7 do
    check_bool "consistent at every k" true (Engine.check_consistency eng ~k)
  done;
  check Alcotest.(array int) "probe did not perturb loads" before_loads (Engine.loads eng);
  check_int "probe did not perturb makespan" before_span (Engine.makespan eng);
  let s = Engine.stats eng in
  check_int "checks counted" 8 s.Engine.consistency_checks;
  check_int "no failures" 0 s.Engine.consistency_failures

(* qcheck: arbitrary event sequences, then a full repair pass, must land
   exactly on the batch GREEDY makespan of the materialized instance. *)
let event_sequence_gen =
  let open QCheck2 in
  Gen.(
    let* m = int_range 1 6 in
    let id = map (fun i -> Printf.sprintf "j%d" i) (int_range 0 14) in
    let* events =
      list_size (int_range 0 60)
        (oneof
           [
             map2 (fun id size -> `Add (id, size)) id (int_range 1 60);
             map (fun id -> `Remove id) id;
             map2 (fun id size -> `Resize (id, size)) id (int_range 1 60);
             map (fun k -> `Rebalance k) (int_range 0 8);
           ])
    in
    let* k = int_range 0 20 in
    return (m, events, k))

let apply_events eng events =
  List.iter
    (fun ev ->
      (* Errors (duplicate adds, missing removes) are part of the stream:
         the engine must reject them without corrupting state. *)
      match ev with
      | `Add (id, size) -> ignore (Engine.add_job eng ~id ~size)
      | `Remove id -> ignore (Engine.remove_job eng ~id)
      | `Resize (id, size) -> ignore (Engine.resize_job eng ~id ~size)
      | `Rebalance k -> ignore (Engine.rebalance eng ~k))
    events

let prop_full_repair_matches_batch =
  QCheck2.Test.make ~name:"after any events, rebalance k=inf bit-matches batch greedy"
    ~count:400 event_sequence_gen
    (fun (m, events, _) ->
      let eng = Engine.create ~m () in
      apply_events eng events;
      let inst, _ = Engine.to_instance eng in
      ignore (Engine.rebalance eng ~k:max_int);
      Engine.makespan eng = Assignment.makespan inst (Greedy.solve inst ~k:max_int))

let prop_bounded_repair_matches_batch =
  QCheck2.Test.make ~name:"bounded repair (any k) bit-matches batch greedy" ~count:400
    event_sequence_gen
    (fun (m, events, k) ->
      let eng = Engine.create ~m () in
      apply_events eng events;
      Engine.check_consistency eng ~k)

let prop_state_matches_materialization =
  QCheck2.Test.make ~name:"engine loads/makespan agree with materialized instance"
    ~count:400 event_sequence_gen
    (fun (m, events, _) ->
      let eng = Engine.create ~m () in
      apply_events eng events;
      let inst, ids = Engine.to_instance eng in
      Instance.n inst = Engine.job_count eng
      && Instance.initial_loads inst = Engine.loads eng
      && Instance.initial_makespan inst = Engine.makespan eng
      && Array.for_all (fun id -> Engine.mem eng id) ids)

(* qcheck: the consistency probe's repair scratch is its own. A stream
   of events with [check_consistency] at budgets up to the job count
   interleaved gives the same replies, placements, makespans and journal
   as the same stream without the checks: a probe that grew scratch the
   engine then read (or the other way round) would show up as a
   different move list, a different journal line or an index out of
   bounds. Journals are compared with their [check] lines dropped and
   each line's [seq] cut off, since the checks take sequence numbers. *)
let checked_stream_gen =
  let open QCheck2 in
  Gen.(
    let* m = int_range 1 6 in
    let* auto = bool in
    let id = map (fun i -> Printf.sprintf "j%d" i) (int_range 0 29) in
    let* events =
      list_size (int_range 0 120)
        (frequency
           [
             (4, map2 (fun id size -> `Add (id, size)) id (int_range 1 60));
             (1, map (fun id -> `Remove id) id);
             (1, map2 (fun id size -> `Resize (id, size)) id (int_range 1 60));
             (1, map (fun k -> `Rebalance k) (int_range 0 30));
             (2, map (fun k -> `Check k) (int_range 0 40));
           ])
    in
    return (m, auto, events))

let prop_checks_leave_no_trace =
  QCheck2.Test.make ~name:"check_consistency leaves no trace in the engine" ~count:300
    checked_stream_gen
    (fun (m, auto, events) ->
      let trigger = if auto then Some (Engine.Every_events { events = 5; k = 6 }) else None in
      let run ~checks =
        let buf = Buffer.create 1024 in
        let sink = Journal.create ~clock_ns:(fun () -> 0) ~write:(Buffer.add_string buf) () in
        let eng = Engine.create ?trigger ~journal:sink ~m () in
        let replies =
          List.filter_map
            (fun ev ->
              let reply =
                match ev with
                | `Add (id, size) -> Some (Engine.add_job eng ~id ~size)
                | `Remove id -> Some (Engine.remove_job eng ~id)
                | `Resize (id, size) -> Some (Engine.resize_job eng ~id ~size)
                | `Rebalance k -> Some (Ok (-1, Engine.rebalance eng ~k))
                | `Check k ->
                  if checks && not (Engine.check_consistency eng ~k) then
                    QCheck2.Test.fail_reportf "check_consistency ~k:%d failed" k;
                  None
              in
              Option.map (fun r -> (r, Engine.loads eng, Engine.makespan eng)) reply)
            events
        in
        let lines =
          String.split_on_char '\n' (Buffer.contents buf)
          |> List.filter (fun l -> not (contains "\"ev\":\"check\"" l))
          |> List.map (fun l ->
                 match String.index_opt l ',' with
                 | Some i when starts_with "{\"seq\":" l -> String.sub l i (String.length l - i)
                 | _ -> l)
        in
        (replies, lines)
      in
      run ~checks:true = run ~checks:false)

(* --- trigger policies ---------------------------------------------------- *)

let test_trigger_event_count () =
  let eng = Engine.create ~trigger:(Engine.Every_events { events = 3; k = 8 }) ~m:2 () in
  let _, auto1 = add eng "a" 10 in
  let _, auto2 = add eng "b" 20 in
  check_bool "no repair before the epoch fills" true (auto1 = [] && auto2 = []);
  check_int "nothing yet" 0 (Engine.stats eng).Engine.auto_rebalances;
  ignore (add eng "c" 30);
  check_int "fires on the third event" 1 (Engine.stats eng).Engine.auto_rebalances;
  ignore (add eng "d" 5);
  ignore (add eng "e" 5);
  check_int "epoch was reset" 1 (Engine.stats eng).Engine.auto_rebalances;
  ignore (add eng "f" 5);
  check_int "fires again" 2 (Engine.stats eng).Engine.auto_rebalances

let test_trigger_imbalance () =
  let eng =
    Engine.create ~trigger:(Engine.Imbalance_above { threshold = 1.4; k = 10 }) ~m:2 ()
  in
  (* One job alone is NOT imbalance: the lower bound is the job itself,
     so the trigger must not thrash on an unfixable placement. *)
  let _, moves0 = add eng "a" 5 in
  check_int "single job: no repair" 0 (Engine.stats eng).Engine.auto_rebalances;
  check_bool "no moves" true (moves0 = []);
  ignore (add eng "b" 5);
  check_int "balanced: no repair" 0 (Engine.stats eng).Engine.auto_rebalances;
  let _, moves = add eng "c" 10 in
  (* Loads (15, 5), bound max(10, 10) = 10: imbalance 1.5 > 1.4 fires;
     repair levels to (10, 10). *)
  check_int "imbalance fired" 1 (Engine.stats eng).Engine.auto_rebalances;
  check_bool "repair moved something" true (moves <> []);
  check_int "levelled" 10 (Engine.makespan eng)

(* qcheck: the lower bound's facts against a model. The model keeps
   each live job's size, applies exactly the ops the engine accepts, and
   reads placements from [fold_jobs]. After every step the engine's
   [max_job_size] and [imbalance] must equal the model's, bit for bit.
   Beside the manual engine runs a twin whose [Imbalance_above]
   threshold is re-set before each op: to the ratio the op will leave
   (which must not fire), to the float just below it (which must), or to
   a fixed value. The twin fires on exactly the ops where the model's
   ratio exceeds the threshold, and its repair is the manual engine's
   [rebalance] at the same budget. A [`Snapshot] step swaps both
   engines for their [of_snapshot] copies. *)
let model_stream_gen =
  let open QCheck2 in
  Gen.(
    let* m = int_range 1 6 in
    let* k = int_range 0 8 in
    let id = map (fun i -> Printf.sprintf "j%d" i) (int_range 0 14) in
    let size = oneof [ int_range 1 8; int_range 1 60 ] in
    let* events =
      list_size (int_range 0 80)
        (frequency
           [
             (4, map2 (fun id size -> `Add (id, size)) id size);
             (2, map (fun id -> `Remove id) id);
             (3, map2 (fun id size -> `Resize (id, size)) id size);
             (1, map (fun k -> `Rebalance k) (int_range 0 8));
             (1, return `Snapshot);
           ])
    in
    let* thresholds = list_repeat (List.length events) (int_range 0 3) in
    return (m, k, List.combine events thresholds))

let model_ratio m sizes loads =
  let total = Hashtbl.fold (fun _ s acc -> acc + s) sizes 0 in
  let largest = Hashtbl.fold (fun _ s acc -> max acc s) sizes 0 in
  let makespan = Array.fold_left max 0 loads in
  if total = 0 then 1.0
  else
    float_of_int makespan
    /. Float.max (float_of_int total /. float_of_int m) (float_of_int largest)

let prop_lower_bound_model =
  QCheck2.Test.make ~name:"lower-bound facts match a model" ~count:400 model_stream_gen
    (fun (m, k, events) ->
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let sizes = Hashtbl.create 16 in
      let restore ?trigger e =
        Result.get_ok (Engine.of_snapshot ?trigger (Journal.Cursor.of_json (Engine.snapshot e)))
      in
      let eng = ref (Engine.create ~m ()) in
      let trig = ref (Engine.create ~trigger:(Engine.Imbalance_above { threshold = 1.0; k }) ~m ()) in
      let placed e =
        let loads = Array.make m 0 and largest = ref 0 and n = ref 0 in
        Engine.fold_jobs e
          (fun () ~id ~size ~proc ->
            if Hashtbl.find_opt sizes id <> Some size then fail "job %s: size %d off the model" id size;
            loads.(proc) <- loads.(proc) + size;
            largest := max !largest size;
            incr n)
          ();
        if !n <> Hashtbl.length sizes then fail "%d jobs, model has %d" !n (Hashtbl.length sizes);
        (loads, !largest)
      in
      let check_facts e =
        let loads, largest = placed e in
        if Engine.max_job_size e <> largest then
          fail "max_job_size %d, largest in fold_jobs %d" (Engine.max_job_size e) largest;
        let want = model_ratio m sizes loads in
        if not (Float.equal (Engine.imbalance e) want) then
          fail "imbalance %h, model %h" (Engine.imbalance e) want
      in
      let same_state () =
        if Engine.loads !eng <> Engine.loads !trig then fail "twin loads diverged"
      in
      List.iter
        (fun (ev, mode) ->
          (match ev with
          | `Snapshot ->
            eng := restore !eng;
            trig := restore ~trigger:(Engine.trigger !trig) !trig
          | `Rebalance k ->
            let a = Engine.rebalance !eng ~k and b = Engine.rebalance !trig ~k in
            if a <> b then fail "REBALANCE %d: twin moved differently" k
          | (`Add _ | `Remove _ | `Resize _) as ev ->
            let op =
              match ev with
              | `Add (id, size) -> Engine.Add { id; size }
              | `Remove id -> Engine.Remove { id }
              | `Resize (id, size) -> Engine.Resize { id; size }
            in
            let valid =
              match ev with
              | `Add (id, _) -> not (Hashtbl.mem sizes id)
              | `Remove id | `Resize (id, _) -> Hashtbl.mem sizes id
            in
            let reply = Engine.apply !eng op in
            if Result.is_ok reply <> valid then fail "%s: validity off the model" (Engine.op_id op);
            (match ev with
            | `Add (id, size) | `Resize (id, size) -> if valid then Hashtbl.replace sizes id size
            | `Remove id -> Hashtbl.remove sizes id);
            let ratio = model_ratio m sizes (fst (placed !eng)) in
            let threshold =
              match mode with
              | 0 -> ratio
              | 1 -> Float.pred ratio
              | 2 -> 1.25
              | _ -> 1.5
            in
            Engine.set_trigger !trig (Engine.Imbalance_above { threshold; k });
            let firings () = (Engine.stats !trig).Engine.trigger_firings in
            let before = firings () in
            let twin_reply = Engine.apply !trig op in
            let fired = firings () > before in
            if fired <> (valid && ratio > threshold) then
              fail "%s at ratio %h, threshold %h: fired=%b" (Engine.op_id op) ratio threshold fired;
            (match (reply, twin_reply) with
            | Ok (p, []), Ok (q, auto) when p = q ->
              if fired && Engine.rebalance !eng ~k <> auto then fail "auto repair moves differ"
            | Error _, Error _ -> ()
            | _ -> fail "%s: twin replied differently" (Engine.op_id op)));
          same_state ();
          check_facts !eng;
          check_facts !trig)
        events;
      true)

let test_trigger_wall_clock () =
  let now = ref 0.0 in
  let eng =
    Engine.create
      ~trigger:(Engine.Every_seconds { seconds = 10.0; k = 4 })
      ~clock:(fun () -> !now)
      ~m:2 ()
  in
  ignore (add eng "a" 10);
  check_int "too early" 0 (Engine.stats eng).Engine.auto_rebalances;
  now := 11.0;
  ignore (add eng "b" 10);
  check_int "fires after the interval" 1 (Engine.stats eng).Engine.auto_rebalances;
  now := 12.0;
  ignore (add eng "c" 10);
  check_int "interval restarts at the repair" 1 (Engine.stats eng).Engine.auto_rebalances

(* --- the serve protocol -------------------------------------------------- *)

let run_session eng lines =
  List.concat_map (fun l -> fst (Protocol.handle_line (Protocol.Single eng) l)) lines

let test_protocol_round_trip () =
  let eng = Engine.create ~m:2 () in
  let out =
    run_session eng
      [ "ADD a 10"; ""; "# comment"; "add b 20"; "REBALANCE 1"; "REMOVE a"; "RESIZE b 7" ]
  in
  check (Alcotest.list Alcotest.string) "session transcript"
    [
      "PLACED a 0 makespan=10";
      "PLACED b 1 makespan=20";
      "REBALANCED moves=0 makespan=20";
      "REMOVED a 0 makespan=20";
      "RESIZED b 1 makespan=7";
    ]
    out;
  let stats_out = run_session eng [ "STATS" ] in
  check_int "one stats line" 1 (List.length stats_out);
  check_bool "stats line shape" true
    (String.length (List.hd stats_out) > 5
    && String.sub (List.hd stats_out) 0 5 = "STATS");
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let stats = List.hd stats_out in
  check_bool "stats has auto_triggers" true (contains " auto_triggers=0" stats);
  check_bool "stats has last_rebalance_moves" true (contains " last_rebalance_moves=0" stats)

let test_protocol_metrics () =
  (* A scoped registry so the engine's histogram handles, and the gauges
     METRICS exports, do not leak into other tests. *)
  let module Metrics = Rebal_obs.Metrics in
  let reg = Metrics.Registry.create () in
  Metrics.Registry.with_registry reg @@ fun () ->
  let eng = Engine.create ~m:2 () in
  ignore (run_session eng [ "ADD a 10"; "ADD b 20"; "REBALANCE 1" ]);
  let out = run_session eng [ "METRICS" ] in
  check_bool "non-empty reply" true (List.length out > 1);
  check (Alcotest.string) "terminated by # EOF" "# EOF" (List.nth out (List.length out - 1));
  let has_line p =
    List.exists
      (fun l -> String.length l >= String.length p && String.sub l 0 (String.length p) = p)
      out
  in
  check_bool "engine gauge exported" true (has_line "rebal_engine_jobs 2");
  check_bool "engine counter exported" true (has_line "rebal_engine_rebalances_total 1");
  check_bool "moves histogram exported" true (has_line "rebal_engine_moves_per_rebalance_count");
  check_bool "type headers present" true (has_line "# TYPE rebal_engine_jobs gauge");
  (* A second METRICS must re-export, not double-count. *)
  let again = run_session eng [ "METRICS" ] in
  check_bool "idempotent export" true
    (List.exists (fun l -> l = "rebal_engine_rebalances_total 1") again)

let test_protocol_errors_and_verdicts () =
  let eng = Engine.create ~m:2 () in
  let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let err line =
    match Protocol.handle_line (Protocol.Single eng) line with
    | [ msg ], Protocol.Continue -> starts_with "ERR " msg
    | _ -> false
  in
  check_bool "unknown verb" true (err "FROB x");
  check_bool "bad arity" true (err "ADD x");
  check_bool "bad integer" true (err "ADD x lots");
  check_bool "negative k" true (err "REBALANCE -1");
  check_bool "missing job" true (err "REMOVE ghost");
  check_bool "engine untouched by errors" true (Engine.job_count eng = 0);
  (match Protocol.handle_line (Protocol.Single eng) "QUIT" with
  | [ "BYE" ], Protocol.Close -> ()
  | _ -> Alcotest.fail "QUIT must close the session");
  (match Protocol.handle_line (Protocol.Single eng) "SHUTDOWN" with
  | [ "BYE" ], Protocol.Stop -> ()
  | _ -> Alcotest.fail "SHUTDOWN must stop the daemon");
  (* REBALANCE with no argument means an unbounded repair. *)
  match Protocol.parse "rebalance" with
  | Ok (Some (Protocol.Rebalance k)) -> check_bool "default k unbounded" true (k = max_int)
  | _ -> Alcotest.fail "bare REBALANCE must parse"

let test_protocol_auto_moves_stream () =
  let eng = Engine.create ~trigger:(Engine.Every_events { events = 3; k = 8 }) ~m:4 () in
  let out = run_session eng [ "ADD x 50"; "ADD y 10"; "ADD z 60" ] in
  (* The third ADD fires the trigger: its acknowledgement is followed by
     MOVE lines and an auto REBALANCED summary. *)
  let has_prefix p = List.exists (fun l -> String.length l >= String.length p && String.sub l 0 (String.length p) = p) out in
  check_bool "auto repair streamed MOVE lines" true (has_prefix "MOVE ");
  check_bool "auto repair summarised" true (has_prefix "REBALANCED auto ")

(* --- the flight recorder and replay -------------------------------------- *)

(* A deterministic in-memory journal: Buffer sink plus a fake monotonic
   clock, so recordings are byte-stable across runs. *)
let journaled_engine ?format ?trigger m =
  let buf = Buffer.create 512 in
  let tick = ref 0 in
  let sink =
    Journal.create ?format
      ~clock_ns:(fun () ->
        incr tick;
        !tick * 1000)
      ~write:(Buffer.add_string buf) ()
  in
  (Engine.create ?trigger ~journal:sink ~m (), buf)

(* The tail ring keeps frames as bytes in both codecs; a binary sink's
   tail decodes them back to JSONL text. One stream through a JSONL and
   a binary sink must give the same [tail] for every n, before and after
   the ring wraps, across batches, and around a [rebalance] frame many
   times the size of the others (it grows the byte ring; once evicted,
   the ring shrinks back). The JSONL lines written are the reference. *)
let test_one_tail_for_both_codecs () =
  let cap = 16 in
  let sink format buf =
    Journal.create ~format ~tail_capacity:cap ~clock_ns:(fun () -> 0)
      ~write:(Buffer.add_string buf) ()
  in
  let text = Buffer.create 4096 and bin = Buffer.create 4096 in
  let jsonl = Engine.create ~journal:(sink Journal.Jsonl text) ~m:4 ()
  and binary = Engine.create ~journal:(sink Journal.Binary bin) ~m:4 () in
  let both f = f jsonl; f binary in
  let written () =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents text))
  in
  let last n l = List.filteri (fun i _ -> i >= List.length l - n) l in
  let tails_agree what =
    let lines = written () in
    List.iter
      (fun n ->
        let tail e = Journal.tail (Option.get (Engine.journal e)) n in
        let expected = last (min n cap) lines in
        check Alcotest.(list string) (Printf.sprintf "%s: JSONL tail %d" what n) expected (tail jsonl);
        check Alcotest.(list string) (Printf.sprintf "%s: binary tail %d" what n) expected
          (tail binary))
      [ 0; 1; 5; cap - 1; cap; cap + 1; 10 * cap ]
  in
  tails_agree "header only";
  for i = 0 to 9 do
    both (fun e -> ignore (add e (Printf.sprintf "t%d" i) (1 + (i mod 7))))
  done;
  tails_agree "before the ring fills";
  for i = 10 to 14 do
    both (fun e -> ignore (add e (Printf.sprintf "t%d" i) (1 + (i mod 7))))
  done;
  check_int "the header and 15 adds fill the ring" cap (List.length (written ()));
  tails_agree "at capacity";
  for i = 15 to 119 do
    both (fun e -> ignore (add e (Printf.sprintf "t%d" i) (1 + (i * 13 mod 50))))
  done;
  tails_agree "wrapped";
  (* Skew every job onto one processor's worth of load, then repair. *)
  both (fun e ->
      let sink = Option.get (Engine.journal e) in
      Journal.begin_batch sink;
      for i = 0 to 39 do
        ignore (Engine.resize_job e ~id:(Printf.sprintf "t%d" (3 * i)) ~size:(100 + i))
      done;
      Journal.end_batch sink);
  tails_agree "after a batch";
  both (fun e -> ignore (Engine.rebalance e ~k:max_int));
  let lines = written () in
  let big = String.length (List.nth lines (List.length lines - 1)) in
  let avg = List.fold_left (fun a l -> a + String.length l) 0 lines / List.length lines in
  check_bool (Printf.sprintf "rebalance line %d bytes, average %d" big avg) true (big > 10 * avg);
  tails_agree "after the rebalance frame";
  for i = 0 to (2 * cap) - 1 do
    both (fun e -> ignore (Engine.resize_job e ~id:(Printf.sprintf "t%d" i) ~size:(1 + i)));
    if i = cap / 2 || i = cap || i = (2 * cap) - 1 then tails_agree (Printf.sprintf "%d frames later" i)
  done

let prop_replay_reconstructs =
  QCheck2.Test.make
    ~name:"journaled session replays to bit-identical state (check_consistency)" ~count:300
    event_sequence_gen
    (fun (m, events, k) ->
      let eng, buf = journaled_engine m in
      apply_events eng events;
      ignore (Engine.rebalance eng ~k);
      ignore (Engine.check_consistency eng ~k:5);
      match Journal.load_string (Buffer.contents buf) with
      | Error _ -> false
      | Ok j -> begin
        match Replay.run j with
        | Error _ -> false
        | Ok o ->
          o.Replay.final_makespan = Engine.makespan eng
          && o.Replay.final_jobs = Engine.job_count eng
          && o.Replay.m = m
          && o.Replay.consistency_ok
      end)

let prop_replay_deterministic =
  QCheck2.Test.make ~name:"two replays of one journal agree" ~count:100 event_sequence_gen
    (fun (m, events, k) ->
      let eng, buf = journaled_engine m in
      apply_events eng events;
      ignore (Engine.rebalance eng ~k);
      match Journal.load_string (Buffer.contents buf) with
      | Error _ -> false
      | Ok j -> begin
        match (Replay.run j, Replay.run j) with
        | Ok a, Ok b ->
          Replay.summary a = Replay.summary b
          && a.Replay.final_makespan = b.Replay.final_makespan
          && a.Replay.moves = b.Replay.moves
          && a.Replay.rebalances = b.Replay.rebalances
        | _ -> false
      end)

let test_auto_trigger_session_replays () =
  (* Auto repairs are journaled as rebalance events with auto=true and
     replayed as explicit passes on a Manual engine — the recording, not
     the wall clock, drives the reconstruction. *)
  let eng, buf = journaled_engine ~trigger:(Engine.Every_events { events = 3; k = 2 }) 4 in
  List.iteri
    (fun i size -> ignore (add eng (Printf.sprintf "j%d" i) size))
    [ 60; 50; 10; 5; 40; 8 ];
  (match Journal.load_string (Buffer.contents buf) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (_, evs) ->
    check_bool "trigger events recorded" true
      (List.exists (fun (ev : Journal.event) -> ev.Journal.kind = "trigger") evs));
  match Replay.run_file "/nonexistent/journal.jsonl" with
  | Ok _ -> Alcotest.fail "missing file must be an error"
  | Error _ -> begin
    match Replay.run (Result.get_ok (Journal.load_string (Buffer.contents buf))) with
    | Error e -> Alcotest.failf "replay failed: %s" e
    | Ok o ->
      check_int "makespan reconstructed" (Engine.makespan eng) o.Replay.final_makespan;
      check_int "job count reconstructed" (Engine.job_count eng) o.Replay.final_jobs;
      check_bool "replayed the auto repairs" true (o.Replay.rebalances >= 2);
      check_bool "summary says OK" true (starts_with "replay OK" (Replay.summary o))
  end

let replace_once ~sub ~by s =
  let sl = String.length sub and n = String.length s in
  let rec go i =
    if i + sl > n then s
    else if String.sub s i sl = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + sl) (n - i - sl)
    else go (i + 1)
  in
  go 0

let test_replay_rejects_corruption () =
  let eng, buf = journaled_engine 3 in
  ignore (add eng "a" 10);
  ignore (add eng "b" 20);
  ignore (add eng "c" 5);
  ignore (Engine.rebalance eng ~k:2);
  let text = Buffer.contents buf in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  (* Truncation in the middle: the sequence gap names the first bad line. *)
  let dropped = List.filteri (fun i _ -> i <> 2) lines in
  (match Journal.load_string (String.concat "\n" dropped) with
  | Ok _ -> Alcotest.fail "sequence gap accepted"
  | Error e ->
    check_bool ("gap names line 3: " ^ e) true (contains "line 3" e);
    check_bool "gap mentions sequence" true (contains "sequence" e));
  (* Malformed JSON on a specific line. *)
  let mangled =
    List.mapi (fun i l -> if i = 1 then String.sub l 0 (String.length l - 3) else l) lines
  in
  (match Journal.load_string (String.concat "\n" mangled) with
  | Ok _ -> Alcotest.fail "malformed JSON accepted"
  | Error e -> check_bool ("malformed names line 2: " ^ e) true (contains "line 2" e));
  (* A value tamper that parses fine must still fail replay: the recorded
     load_after no longer matches the re-executed engine. *)
  let tampered = replace_once ~sub:{|"size":20|} ~by:{|"size":21|} text in
  check_bool "tamper changed the text" true (tampered <> text);
  match Journal.load_string tampered with
  | Error e -> Alcotest.failf "tampered journal should still parse: %s" e
  | Ok j -> begin
    match Replay.run j with
    | Ok _ -> Alcotest.fail "tampered journal replayed clean"
    | Error e -> check_bool ("tamper detected: " ^ e) true (contains "diverged" e)
  end

(* HELP and the parser agree: every verb [Protocol.parse] accepts has
   a HELP line and every HELP line names a verb it accepts. The match
   is exhaustive over [Protocol.command], so a new command does not
   compile until it is named here with a request that parses to it;
   [EXIT] is [QUIT]'s alias and shares its line. *)
let test_protocol_help_lists_every_verb () =
  let request : Protocol.command -> string * string = function
    | Add _ -> ("ADD", "ADD a 1")
    | Remove _ -> ("REMOVE", "REMOVE a")
    | Resize _ -> ("RESIZE", "RESIZE a 2")
    | Rebalance _ -> ("REBALANCE", "REBALANCE 1")
    | Stats -> ("STATS", "STATS")
    | Shards_info -> ("SHARDS", "SHARDS")
    | Health -> ("HEALTH", "HEALTH")
    | Snapshot_now -> ("SNAPSHOT", "SNAPSHOT")
    | Metrics_dump -> ("METRICS", "METRICS")
    | Journal_tail _ -> ("JOURNAL", "JOURNAL 3")
    | Traces _ -> ("TRACES", "TRACES 3")
    | Alerts_status -> ("ALERTS", "ALERTS")
    | Tsdb_query _ -> ("TSDB", "TSDB x 30s")
    | Help -> ("HELP", "HELP")
    | Quit -> ("QUIT", "QUIT")
    | Shutdown -> ("SHUTDOWN", "SHUTDOWN")
  in
  let commands : Protocol.command list =
    [
      Add { id = "a"; size = 1 };
      Remove "a";
      Resize { id = "a"; size = 2 };
      Rebalance 1;
      Stats;
      Shards_info;
      Health;
      Snapshot_now;
      Metrics_dump;
      Journal_tail 3;
      Traces 3;
      Alerts_status;
      Tsdb_query { selector = "x"; window_s = 30. };
      Help;
      Quit;
      Shutdown;
    ]
  in
  let parses line = match Protocol.parse line with Ok (Some c) -> Some c | _ -> None in
  List.iter
    (fun cmd ->
      let _, line = request cmd in
      check_bool (line ^ " parses to its command") true (parses line = Some cmd))
    commands;
  check_bool "EXIT is QUIT" true (parses "EXIT" = Some Protocol.Quit);
  let help, _ = Protocol.handle_line (Protocol.Single (Engine.create ~m:2 ())) "HELP" in
  let help_verbs =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | "OK" :: "" :: "" :: verb :: _ when verb <> "" -> Some verb
        | _ -> None)
      help
  in
  Alcotest.(check (list string))
    "HELP lists exactly the parsed verbs"
    (List.sort compare (List.map (fun c -> fst (request c)) commands))
    (List.sort compare help_verbs)

let test_protocol_journal_verb () =
  let bare = Engine.create ~m:2 () in
  (match Protocol.handle_line (Protocol.Single bare) "JOURNAL" with
  | [ msg ], Protocol.Continue ->
    check_bool "ERR without a sink" true (starts_with "ERR no journal" msg)
  | _ -> Alcotest.fail "JOURNAL without sink must ERR");
  let eng, _buf = journaled_engine 2 in
  ignore (run_session eng [ "ADD a 10"; "ADD b 20" ]);
  (match run_session eng [ "JOURNAL 2" ] with
  | [ l1; l2; eof ] ->
    check Alcotest.string "framed by # EOF" "# EOF" eof;
    check_bool "tail is the newest events" true
      (contains {|"id":"a"|} l1 && contains {|"id":"b"|} l2)
  | out -> Alcotest.failf "expected 2 lines + EOF, got %d lines" (List.length out));
  match run_session eng [ "JOURNAL -1" ] with
  | [ msg ] -> check_bool "negative n rejected" true (starts_with "ERR " msg)
  | _ -> Alcotest.fail "JOURNAL -1 must ERR"

(* --- snapshots and compaction -------------------------------------------- *)

let prop_snapshot_roundtrip =
  QCheck2.Test.make ~name:"snapshot |> of_snapshot bit-matches the engine" ~count:300
    event_sequence_gen
    (fun (m, events, k) ->
      let eng = Engine.create ~m () in
      apply_events eng events;
      ignore (Engine.rebalance eng ~k);
      let s = Engine.snapshot eng in
      match Engine.of_snapshot (Journal.Cursor.of_json s) with
      | Error _ -> false
      | Ok eng' ->
        Engine.loads eng' = Engine.loads eng
        && Engine.makespan eng' = Engine.makespan eng
        && Engine.job_count eng' = Engine.job_count eng
        && Engine.stats eng' = Engine.stats eng
        (* The restored engine must be byte-stable: snapshotting it again
           yields the identical document (job seqs survived, so repair
           tie-breaks will too). *)
        && Journal.render_json (Engine.snapshot eng') = Journal.render_json s
        (* And it must keep behaving identically: the same repair budget
           produces the same moves on both. *)
        && Engine.rebalance eng' ~k = Engine.rebalance eng ~k
        && Engine.check_consistency eng' ~k:max_int)

(* The snapshot without its counters: the state a check must not touch. *)
let state_doc eng =
  match Engine.snapshot eng with
  | Journal.Obj fields -> Journal.render_json (Journal.Obj (List.remove_assoc "counters" fields))
  | other -> Journal.render_json other

let clone eng = Result.get_ok (Engine.of_snapshot (Journal.Cursor.of_json (Engine.snapshot eng)))

(* [check_consistency] pinned against a reference built from public
   functions only — [to_instance] plus [Greedy.solve] for the batch
   side, [rebalance] on an [of_snapshot] clone for the repair side — at
   the generated budget and at 0, 1, n/2, n and n+5. Its verdict and the
   makespans its [check] event journals must equal the reference's; the
   checked engine's state and stats (bar the check counters) must not
   move; and a later REBALANCE on it must make the moves a twin that
   never ran a check makes, so the probe's shared scratch is harmless. *)
let prop_check_consistency_pinned =
  QCheck2.Test.make ~name:"check_consistency = public reference, engine untouched" ~count:300
    event_sequence_gen
    (fun (m, events, k) ->
      let eng, buf = journaled_engine m in
      apply_events eng events;
      let twin = clone eng in
      let n = Engine.job_count eng in
      let checked kk =
        let inst, _ = Engine.to_instance eng in
        let batch = Assignment.makespan inst (Greedy.solve inst ~k:kk) in
        let probe = clone eng in
        ignore (Engine.rebalance probe ~k:kk);
        let repair = Engine.makespan probe in
        let state = state_doc eng and stats = Engine.stats eng in
        let ok = Engine.check_consistency eng ~k:kk in
        let after = Engine.stats eng in
        let journaled =
          match Journal.load_string (Buffer.contents buf) with
          | Error e -> QCheck2.Test.fail_reportf "journal: %s" e
          | Ok (_, evs) ->
            let ev = List.nth evs (List.length evs - 1) in
            ( ev.Journal.kind,
              Journal.int_field ev "k",
              Journal.bool_field ev "ok",
              Journal.int_field ev "batch_makespan",
              Journal.int_field ev "repair_makespan" )
        in
        ok = (batch = repair)
        && journaled = ("check", Ok kk, Ok ok, Ok batch, Ok repair)
        && state_doc eng = state
        && after.Engine.consistency_checks = stats.Engine.consistency_checks + 1
        && { after with Engine.consistency_checks = 0; consistency_failures = 0 }
           = { stats with Engine.consistency_checks = 0; consistency_failures = 0 }
      in
      List.for_all checked [ k; 0; 1; n / 2; n; n + 5 ]
      && Engine.rebalance eng ~k = Engine.rebalance twin ~k
      && state_doc eng = state_doc twin)

(* The repair pass as the paper's GREEDY, from public state alone: the
   snapshot's jobs with their sequence numbers. k times, lift the largest
   job (earliest sequence on ties) off the most-loaded processor
   (smallest index on ties); stable-sort the lifted jobs by size desc;
   place each on the least-loaded processor (smallest index on ties). The
   moves are the placements that changed processor, in placement order. *)
let reference_moves eng ~k =
  let jobs =
    match Engine.snapshot eng with
    | Journal.Obj fields -> (
      match List.assoc "jobs" fields with
      | Journal.List jobs ->
        List.map
          (function
            | Journal.Obj
                [
                  ("id", Journal.Str id);
                  ("seq", Journal.Int seq);
                  ("size", Journal.Int size);
                  ("proc", Journal.Int proc);
                ] -> (id, seq, size, proc)
            | _ -> Alcotest.fail "snapshot job shape")
          jobs
      | _ -> Alcotest.fail "snapshot jobs")
    | _ -> Alcotest.fail "snapshot shape"
  in
  let m = Engine.m eng in
  let load = Engine.loads eng in
  let on = Array.make m [] in
  List.iter (fun ((_, _, _, p) as j) -> on.(p) <- j :: on.(p)) jobs;
  let order (_, q1, s1, _) (_, q2, s2, _) = if s1 <> s2 then compare s2 s1 else compare q1 q2 in
  Array.iteri (fun p js -> on.(p) <- List.sort order js) on;
  let best better =
    let b = ref 0 in
    Array.iteri (fun p l -> if better l load.(!b) then b := p) load;
    !b
  in
  let rec lift n acc =
    let p = best ( > ) in
    if n = 0 || load.(p) = 0 then List.rev acc
    else
      match on.(p) with
      | [] -> List.rev acc
      | ((_, _, size, _) as j) :: rest ->
        on.(p) <- rest;
        load.(p) <- load.(p) - size;
        lift (n - 1) (j :: acc)
  in
  let lifted = List.stable_sort (fun (_, _, s1, _) (_, _, s2, _) -> compare s2 s1) (lift k []) in
  List.filter_map
    (fun (id, _, size, src) ->
      let dst = best ( < ) in
      load.(dst) <- load.(dst) + size;
      if dst <> src then Some { Engine.id; src; dst } else None)
    lifted

(* Few distinct sizes, so lifts and placements meet ties. *)
let tied_events_gen =
  let open QCheck2 in
  Gen.(
    let* m = int_range 1 5 in
    let id = map (fun i -> Printf.sprintf "j%d" i) (int_range 0 24) in
    let* events =
      list_size (int_range 0 80)
        (frequency
           [
             (5, map2 (fun id size -> `Add (id, size)) id (int_range 1 4));
             (1, map (fun id -> `Remove id) id);
             (1, map2 (fun id size -> `Resize (id, size)) id (int_range 1 4));
             (1, map (fun k -> `Rebalance k) (int_range 0 6));
           ])
    in
    let* k = int_range 0 30 in
    return (m, events, k))

let prop_repair_moves_pinned =
  QCheck2.Test.make ~name:"rebalance moves = GREEDY from the snapshot" ~count:400 tied_events_gen
    (fun (m, events, k) ->
      let eng = Engine.create ~m () in
      apply_events eng events;
      let want = reference_moves eng ~k in
      Engine.rebalance eng ~k = want)

(* A lift order far from size order: one processor holds [a] jobs of
   size 2, the other [2a] of size 1, so the full-budget pass lifts
   2,1,1,2,1,1,... and every size-2 job must pass every size-1 job lifted
   before it. The placement order (hence the moves) still equals
   GREEDY's, the full-budget check agrees, and the sort stays
   O(n log n): a quadratic one would need ~a^2 steps here. *)
let test_repair_adversarial_lift_order () =
  let a = 2000 in
  let eng = Engine.create ~m:2 () in
  let add id size = ignore (Result.get_ok (Engine.add_job eng ~id ~size)) in
  add "x" (2 * a);
  for i = 1 to 2 * a do
    add (Printf.sprintf "one%d" i) 1
  done;
  ignore (Result.get_ok (Engine.remove_job eng ~id:"x"));
  for i = 1 to a do
    add (Printf.sprintf "two%d" i) 2
  done;
  check_int "proc 0 holds the twos" (2 * a) (Engine.load eng 0);
  check_int "proc 1 holds the ones" (2 * a) (Engine.load eng 1);
  let n = Engine.job_count eng in
  check_bool "the full-budget check agrees" true (Engine.check_consistency eng ~k:n);
  let want = reference_moves eng ~k:n in
  check_bool "moves = GREEDY's" true (Engine.rebalance eng ~k:n = want)

let prop_compacted_replay_equals_full =
  QCheck2.Test.make ~name:"compacted-journal replay equals full-journal replay" ~count:200
    event_sequence_gen
    (fun (m, events, k) ->
      let eng, buf = journaled_engine m in
      (* Split the stream around a mid-session snapshot, the way a live
         daemon periodically checkpoints. *)
      let half = List.length events / 2 in
      apply_events eng (List.filteri (fun i _ -> i < half) events);
      (match Engine.journal_snapshot eng with Ok _ -> () | Error e -> failwith e);
      apply_events eng (List.filteri (fun i _ -> i >= half) events);
      ignore (Engine.rebalance eng ~k);
      let parsed = Result.get_ok (Journal.load_string (Buffer.contents buf)) in
      match (Replay.run parsed, Replay.compact parsed) with
      | Ok full, Ok (compacted, dropped, kept) -> begin
        match Journal.load_string (Journal.encode Journal.Jsonl compacted) with
        | Error _ -> false
        | Ok compacted -> begin
          match Replay.run compacted with
          | Error _ -> false
          | Ok resumed ->
            resumed.Replay.final_makespan = full.Replay.final_makespan
            && resumed.Replay.final_jobs = full.Replay.final_jobs
            && resumed.Replay.consistency_ok && full.Replay.consistency_ok
            && resumed.Replay.resumed
            && resumed.Replay.events = kept
            && full.Replay.events = dropped + kept
            && resumed.Replay.final_makespan = Engine.makespan eng
        end
      end
      | _ -> false)

let test_trigger_rearm_from_header () =
  (* A journal recorded under an auto trigger must not replay as Manual:
     the header's trigger_config is re-armed on the replayed engine. *)
  let trigger = Engine.Every_events { events = 3; k = 2 } in
  let eng, buf = journaled_engine ~trigger 4 in
  List.iteri (fun i size -> ignore (add eng (Printf.sprintf "j%d" i) size)) [ 60; 50; 10; 5 ];
  let parsed = Result.get_ok (Journal.load_string (Buffer.contents buf)) in
  (match Replay.run parsed with
  | Error e -> Alcotest.failf "replay failed: %s" e
  | Ok o ->
    check_bool "outcome carries the recorded trigger" true (o.Replay.trigger = trigger);
    check_bool "summary mentions the re-arm" true
      (contains "re-armed every_events trigger" (Replay.summary o)));
  match Replay.resume parsed with
  | Error e -> Alcotest.failf "resume failed: %s" e
  | Ok (eng', o) ->
    check_bool "resumed engine is armed" true (Engine.trigger eng' = trigger);
    check_int "resumed engine state matches" o.Replay.final_makespan (Engine.makespan eng');
    (* The re-armed trigger must actually fire on the resumed engine. *)
    ignore (add eng' "n1" 7);
    ignore (add eng' "n2" 9);
    ignore (add eng' "n3" 11);
    check_bool "trigger fires after resume" true
      ((Engine.stats eng').Engine.auto_rebalances >= 1)

let test_protocol_parse_validation () =
  let eng = Engine.create ~m:2 () in
  let err line =
    match Protocol.handle_line (Protocol.Single eng) line with
    | [ msg ], Protocol.Continue -> msg
    | _ -> Alcotest.failf "expected a single ERR for %S" line
  in
  (* Non-positive sizes are rejected at parse time — before the engine
     sees them — and the session line number is in the message. *)
  check_bool "ADD size 0" true (contains "size must be positive" (err "ADD x 0"));
  check_bool "ADD size negative" true (contains "size must be positive" (err "ADD x -5"));
  check_bool "RESIZE size 0" true (contains "size must be positive" (err "RESIZE x 0"));
  check_int "parse errors left no job behind" 0 (Engine.job_count eng);
  (match Protocol.handle_line ~line:7 (Protocol.Single eng) "ADD x 0" with
  | [ msg ], Protocol.Continue ->
    check_bool ("line-numbered: " ^ msg) true (starts_with "ERR line 7: " msg)
  | _ -> Alcotest.fail "expected a line-numbered ERR");
  match Protocol.handle_line ~line:9 (Protocol.Single eng) "ADD ok 5" with
  | [ msg ], Protocol.Continue -> check_bool "success lines are unprefixed" true (starts_with "PLACED" msg)
  | _ -> Alcotest.fail "valid ADD must succeed"

let test_protocol_snapshot_verb () =
  let bare = Engine.create ~m:2 () in
  (match Protocol.handle_line (Protocol.Single bare) "SNAPSHOT" with
  | [ msg ], Protocol.Continue ->
    check_bool "ERR without a sink" true (starts_with "ERR no journal" msg)
  | _ -> Alcotest.fail "SNAPSHOT without sink must ERR");
  let eng, buf = journaled_engine 2 in
  ignore (run_session eng [ "ADD a 10"; "ADD b 20" ]);
  (match run_session eng [ "SNAPSHOT" ] with
  | [ msg ] -> check_bool ("acknowledged: " ^ msg) true (starts_with "SNAPSHOTTED seq=" msg)
  | _ -> Alcotest.fail "SNAPSHOT must answer one line");
  (* The snapshot lands in the journal and compaction collapses to it. *)
  let parsed = Result.get_ok (Journal.load_string (Buffer.contents buf)) in
  match Replay.compact parsed with
  | Error e -> Alcotest.failf "compact failed: %s" e
  | Ok (((_, evs) as compacted), dropped, kept) ->
    check_int "both adds dropped" 2 dropped;
    check_int "snapshot kept" 1 kept;
    check_int "only the snapshot event" 1 (List.length evs);
    let binary = Journal.encode Journal.Binary compacted in
    check_bool "binary encoding opens with the magic" true
      (starts_with Journal.Binary.magic binary);
    (match Replay.run (Result.get_ok (Journal.load_string binary)) with
    | Error e -> Alcotest.failf "compacted replay failed: %s" e
    | Ok o ->
      check_bool "resumed from the snapshot" true o.Replay.resumed;
      check_int "state preserved" (Engine.makespan eng) o.Replay.final_makespan)

(* --- streaming resume ------------------------------------------------------ *)

let with_journal_file contents f =
  let path = Filename.temp_file "rebal_stream" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

(* The two ways to resume a journal file: streamed frame by frame, and
   parsed into an event list first. *)
let both_resumes path =
  (Replay.resume_file path, Result.bind (Journal.load_file path) Replay.resume)

let prop_streaming_resume_equals_list =
  QCheck2.Test.make ~name:"resume_file equals load_file + resume in both codecs" ~count:150
    QCheck2.Gen.(pair event_sequence_gen bool)
    (fun ((m, events, k), binary) ->
      let format = if binary then Journal.Binary else Journal.Jsonl in
      let first = List.filteri (fun i _ -> i < List.length events / 2) events in
      let rest = List.filteri (fun i _ -> i >= List.length events / 2) events in
      (* Genesis, a recorded check, a mid-journal snapshot, rebalances. *)
      let eng, buf = journaled_engine ~format m in
      apply_events eng first;
      ignore (Engine.check_consistency eng ~k);
      ignore (Engine.journal_snapshot eng);
      apply_events eng rest;
      ignore (Engine.rebalance eng ~k);
      let full = Buffer.contents buf in
      (* Compacted: the snapshot at seq 0, then a tail appended by the
         engine resumed from it. *)
      let compacted, tail_eng =
        let parsed = Result.get_ok (Journal.load_string full) in
        let journal, _, _ = Result.get_ok (Replay.compact parsed) in
        let b = Buffer.create 512 in
        Buffer.add_string b (Journal.encode format journal);
        let eng', _ =
          Result.get_ok (Replay.resume_appending ~format ~write:(Buffer.add_string b) journal)
        in
        apply_events eng' first;
        (Buffer.contents b, eng')
      in
      List.for_all
        (fun (journal, live) ->
          with_journal_file journal (fun path ->
              match both_resumes path with
              | Ok (a, oa), Ok (b, ob) ->
                oa = ob && Replay.same_state a b && Replay.same_state a live
                && oa.Replay.consistency_ok
                && oa.Replay.resumed = (journal != full)
              | _ -> false))
        [ (full, eng); (compacted, tail_eng) ])

(* Every corruption, in both codecs, fails the same way through both
   entry points: same message, same line. *)
let test_streaming_rejects_like_list () =
  List.iter
    (fun format ->
      let eng, buf = journaled_engine ~format 3 in
      ignore (add eng "a" 10);
      ignore (add eng "b" 20);
      ignore (add eng "c" 5);
      ignore (Engine.rebalance eng ~k:2);
      ignore (Engine.journal_snapshot eng);
      ignore (add eng "d" 7);
      let journal = Buffer.contents buf in
      let header, evs = Result.get_ok (Journal.load_string journal) in
      let encode evs = Journal.encode format (header, evs) in
      let update key f kvs = List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) kvs in
      let obj f = function Journal.Obj kvs -> Journal.Obj (f kvs) | v -> v in
      let succ = function Journal.Int i -> Journal.Int (i + 1) | v -> v in
      let map_field kind key f =
        encode
          (List.map
             (fun (ev : Journal.event) ->
               if ev.kind = kind then { ev with fields = update key f ev.fields } else ev)
             evs)
      in
      let map_state key f = map_field "snapshot" "state" (obj (update key f)) in
      let map_jobs f =
        map_state "jobs" (function Journal.List jobs -> Journal.List (f jobs) | v -> v)
      in
      let n = String.length journal in
      let jobs_differ = {|replay diverged: snapshot field "jobs"|} in
      let cases =
        [
          ("truncated tail", String.sub journal 0 (n - 3), "line 7: ");
          ("bad magic", "RBJX" ^ String.sub journal 4 (n - 4), "line 1: ");
          ( "sequence gap",
            encode (List.filteri (fun i _ -> i <> 1) evs),
            "line 3: sequence number 2, expected 1" );
          ("tampered size", map_field "add" "size" succ, "line 2: replay diverged");
          ( "tampered snapshot job",
            map_jobs (List.mapi (fun i j -> if i = 1 then obj (update "size" succ) j else j)),
            "line 6: " ^ jobs_differ );
          ("reordered snapshot jobs", map_jobs List.rev, jobs_differ);
          ( "extra key in a snapshot job",
            map_jobs (List.map (obj (fun kvs -> kvs @ [ ("x", Journal.Int 0) ]))),
            jobs_differ );
          ("tampered snapshot m", map_state "m" succ, {|snapshot field "m"|});
          ("snapshot m of the wrong type", map_state "m" (fun _ -> Journal.Float 3.0), {|snapshot field "m"|});
        ]
      in
      List.iter
        (fun (name, corrupt, want) ->
          with_journal_file corrupt (fun path ->
              match both_resumes path with
              | Error streamed, Error listed ->
                check Alcotest.string (name ^ ": same error") listed streamed;
                check_bool (Printf.sprintf "%s: %S names %S" name streamed want) true
                  (contains want streamed)
              | _ -> Alcotest.failf "%s: accepted by an entry point" name))
        cases)
    [ Journal.Jsonl; Journal.Binary ]

let frame_of_payload payload =
  let len = String.length payload in
  String.init 4 (fun i -> Char.chr ((len lsr (8 * i)) land 0xff)) ^ payload

let test_overlong_varint_rejected () =
  let header =
    Journal.Binary.encode_header
      { Journal.journal = "rebal-engine"; version = 1; meta = [ ("m", Journal.Int 1) ] }
  in
  (* {"seq": <an int with ten continuation bytes>} *)
  let event = "\x06\x01\x03seq\x02" ^ String.make 10 '\x80' ^ "\x01" in
  let blob = Journal.Binary.magic ^ header ^ frame_of_payload event in
  let want = "line 2: malformed varint" in
  (match Journal.load_string blob with
  | Ok _ -> Alcotest.fail "over-long varint accepted"
  | Error e -> check Alcotest.string "list parser" want e);
  with_journal_file blob (fun path ->
      match Replay.resume_file path with
      | Ok _ -> Alcotest.fail "over-long varint resumed"
      | Error e -> check Alcotest.string "streaming resume" want e)

(* A pipe can be neither measured nor rewound; it is read whole. *)
let test_resume_from_pipe () =
  List.iter
    (fun format ->
      let eng, buf = journaled_engine ~format 2 in
      ignore (add eng "a" 3);
      ignore (add eng "b" 4);
      let path = Filename.temp_file "rebal_pipe" ".journal" in
      Sys.remove path;
      Unix.mkfifo path 0o600;
      let writer =
        Thread.create
          (fun () -> Out_channel.with_open_bin path (fun oc -> output_string oc (Buffer.contents buf)))
          ()
      in
      let resumed = Replay.resume_file path in
      Thread.join writer;
      Sys.remove path;
      match resumed with
      | Ok (eng', _) -> check_bool "piped journal resumes" true (Replay.same_state eng eng')
      | Error e -> Alcotest.failf "piped journal: %s" e)
    [ Journal.Jsonl; Journal.Binary ]

(* What replay reads off an add/remove/resize frame allocates only the
   id: the count is pinned exactly (two runs agree) and bounded. *)
let test_streaming_decode_allocation () =
  let eng, buf = journaled_engine ~format:Journal.Binary 8 in
  let id i = Printf.sprintf "j%d" i in
  for i = 0 to 999 do
    ignore (add eng (id i) (1 + (i mod 97)))
  done;
  for i = 0 to 499 do
    ignore (Engine.resize_job eng ~id:(id i) ~size:(1 + (i mod 13)));
    ignore (Engine.remove_job eng ~id:(id (999 - i)))
  done;
  let frames = 2000. in
  let step () f =
    match Journal.Frame.kind f with
    | "add" | "remove" | "resize" ->
      ignore (Journal.Frame.str f "id");
      ignore (Journal.Frame.int f "size");
      ignore (Journal.Frame.int f "proc");
      ignore (Journal.Frame.int f "load_after");
      ignore (Journal.Frame.int f "makespan")
    | kind -> Alcotest.failf "unexpected %s frame" kind
  in
  let words fold =
    let before = Gc.minor_words () in
    (match fold ~header:ignore step with Ok () -> () | Error e -> Alcotest.fail e);
    Gc.minor_words () -. before
  in
  let journal = Buffer.contents buf in
  with_journal_file journal (fun path ->
      List.iter
        (fun (name, fold) ->
          let a = words fold in
          let b = words fold in
          check (Alcotest.float 0.) (name ^ ": the count repeats exactly") a b;
          check_bool (Printf.sprintf "%s: %.1f minor words per frame <= 32" name (a /. frames)) true
            (a <= 32. *. frames))
        [ ("fold_file", Journal.fold_file path); ("fold_string", Journal.fold_string journal) ])

(* --- one reader for every codec ------------------------------------------- *)

(* A session recording every kind of event replay reads: adds, removes
   and resizes, rebalances with move lists, checks, mid-journal
   snapshots and a supervisor's evacuation record. *)
let rich_session ?(snapshot_at = -1) (m, events, k) =
  let eng, buf = journaled_engine m in
  let sink = Option.get (Engine.journal eng) in
  let snapshot_here i = if i = snapshot_at then ignore (Engine.journal_snapshot eng) in
  List.iteri
    (fun i ev ->
      snapshot_here i;
      apply_events eng [ ev ];
      match i mod 7 with
      | 2 -> ignore (Engine.check_consistency eng ~k)
      | 4 -> ignore (Engine.journal_snapshot eng)
      | 5 ->
        Journal.emit sink ~kind:"evacuation"
          Journal.
            [
              ("shard", Int 0);
              ("reason", Str "probe");
              ("jobs", Int i);
              ("leftover", Int 0);
              ("budget", Int k);
            ]
      | _ -> ())
    events;
  snapshot_here (List.length events);
  ignore (Engine.rebalance eng ~k);
  (eng, Buffer.contents buf)

(* Everything a step can read off each frame: kind, seq, line, the whole
   event, and every field once more through its cursor. *)
let frame_reads fold =
  Result.map
    (fun (h, rev) -> (h, List.rev rev))
    (fold
       ~header:(fun h -> (h, []))
       (fun (h, rev) f ->
         let ev = Journal.Frame.to_event f in
         let cursors =
           List.map
             (fun (key, _) -> (key, Option.map Journal.Cursor.value (Journal.Frame.cursor f key)))
             ev.Journal.fields
         in
         (h, (Journal.Frame.kind f, Journal.Frame.seq f, Journal.Frame.line f, ev, cursors) :: rev)))

let prop_codecs_read_alike =
  QCheck2.Test.make ~name:"JSONL, binary and parsed journals read alike" ~count:150
    event_sequence_gen
    (fun ((m, _, _) as session) ->
      let _, jsonl = rich_session session in
      let parsed = Result.get_ok (Journal.load_string jsonl) in
      let binary = Journal.encode Journal.Binary parsed in
      let reads = frame_reads (Journal.fold_string jsonl) in
      let outcome = Replay.resume parsed in
      let same_outcome = function
        | Ok (e, o) -> (
          match outcome with
          | Ok (e', o') -> o = o' && Replay.same_state e e'
          | Error _ -> false)
        | Error msg -> outcome = Error msg
      in
      (match reads with
      | Ok (_, frames) ->
        List.for_all
          (fun (_, _, _, (ev : Journal.event), cursors) ->
            cursors = List.map (fun (k, v) -> (k, Some v)) ev.fields)
          frames
      | Error _ -> false)
      && frame_reads (Journal.fold_string binary) = reads
      && frame_reads (Journal.fold_parsed parsed) = reads
      && Journal.encode Journal.Jsonl parsed = jsonl
      && Result.is_ok outcome
      && (match outcome with Ok (_, o) -> o.Replay.m = m | Error _ -> false)
      && List.for_all
           (fun journal ->
             with_journal_file journal (fun path ->
                 frame_reads (Journal.fold_file path) = reads
                 && same_outcome (Replay.resume_file path)
                 && same_outcome (Result.bind (Journal.load_file path) Replay.resume)))
           [ jsonl; binary ])

(* Compacted at any recorded snapshot, a journal opens with it at seq 0,
   and resume walks it in place; the result is the engine a replay from
   genesis builds: the same jobs, seqs, counters and next seq. *)
let prop_snapshot_resume_equals_genesis =
  QCheck2.Test.make ~name:"seq-0 snapshot resume equals genesis replay" ~count:150
    QCheck2.Gen.(triple event_sequence_gen (int_range 0 60) bool)
    (fun (((_, events, _) as session), at, binary) ->
      let snapshot_at = min at (List.length events) in
      let _, jsonl = rich_session ~snapshot_at session in
      let parsed = Result.get_ok (Journal.load_string jsonl) in
      let compacted, _, _ = Result.get_ok (Replay.compact parsed) in
      let format = if binary then Journal.Binary else Journal.Jsonl in
      let document eng = Journal.render_json (Engine.snapshot eng) in
      match (Replay.resume parsed, Journal.load_string (Journal.encode format compacted)) with
      | Ok (genesis, g), Ok compacted -> (
        match Replay.resume compacted with
        | Ok (resumed, r) ->
          r.Replay.resumed
          && Replay.same_state genesis resumed
          && Engine.stats genesis = Engine.stats resumed
          && document genesis = document resumed
          && r.Replay.final_makespan = g.Replay.final_makespan
        | Error e -> QCheck2.Test.fail_reportf "compacted resume: %s" e)
      | _ -> false)

(* The one-op path allocates its result and the op its wrapper builds,
   nothing else. Steady state (slots reserved, no trigger, no journal,
   latency histograms off), the three verbs measured 11 minor words per
   [add_job], 11 per [resize_job] and 10 per [remove_job] (OCaml 5.1,
   64-bit) before they shared one kernel: the result plus the timing
   closure each verb built. Those are the ceilings. The quiet batch
   loop must stay under bench E24's 0.5 words per op. *)
let test_one_op_allocation () =
  Rebal_obs.Control.with_enabled false @@ fun () ->
  let eng = Engine.create ~m:8 () in
  Engine.reserve eng ~jobs:4096;
  let n = 1000 in
  let ids = Array.init n (Printf.sprintf "j%d") in
  let adds () =
    for i = 0 to n - 1 do
      ignore (Engine.add_job eng ~id:ids.(i) ~size:(1 + (i mod 97)))
    done
  in
  let resizes () =
    for i = 0 to n - 1 do
      ignore (Engine.resize_job eng ~id:ids.(i) ~size:(1 + (i mod 13)))
    done
  in
  let removes () =
    for i = 0 to n - 1 do
      ignore (Engine.remove_job eng ~id:ids.(i))
    done
  in
  let words_per_op ops f =
    let before = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. before) /. float_of_int ops
  in
  for _ = 1 to 2 do
    adds ();
    resizes ();
    removes ()
  done;
  List.iter
    (fun (name, f, ceiling) ->
      let w = words_per_op n f in
      check_bool (Printf.sprintf "%s: %.1f minor words per op <= %.0f" name w ceiling) true
        (w <= ceiling))
    [ ("add_job", adds, 11.); ("resize_job", resizes, 11.); ("remove_job", removes, 10.) ];
  let ops =
    Array.concat
      [
        Array.mapi (fun i id -> Engine.Add { id; size = 1 + (i mod 97) }) ids;
        Array.mapi (fun i id -> Engine.Resize { id; size = 1 + (i mod 13) }) ids;
        Array.map (fun id -> Engine.Remove { id }) ids;
      ]
  in
  Engine.apply_bulk eng ops;
  let w = words_per_op (Array.length ops) (fun () -> Engine.apply_bulk eng ops) in
  check_bool (Printf.sprintf "quiet apply_bulk: %.2f minor words per op <= 0.5" w) true (w <= 0.5)

let () =
  Alcotest.run "rebal_online"
    [
      ( "engine",
        [
          Alcotest.test_case "greedy placement vs brute force" `Quick test_greedy_placement;
          Alcotest.test_case "remove and resize" `Quick test_remove_resize;
          Alcotest.test_case "error cases" `Quick test_errors;
          Alcotest.test_case "one-op allocation pinned" `Quick test_one_op_allocation;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "full repair = batch greedy" `Quick test_rebalance_matches_batch;
          Alcotest.test_case "check_consistency is pure" `Quick test_check_consistency_is_pure;
          QCheck_alcotest.to_alcotest prop_full_repair_matches_batch;
          QCheck_alcotest.to_alcotest prop_bounded_repair_matches_batch;
          QCheck_alcotest.to_alcotest prop_state_matches_materialization;
          QCheck_alcotest.to_alcotest prop_checks_leave_no_trace;
        ] );
      ( "triggers",
        [
          Alcotest.test_case "event count epoch" `Quick test_trigger_event_count;
          Alcotest.test_case "imbalance threshold" `Quick test_trigger_imbalance;
          Alcotest.test_case "wall clock" `Quick test_trigger_wall_clock;
          QCheck_alcotest.to_alcotest prop_lower_bound_model;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "round trip" `Quick test_protocol_round_trip;
          Alcotest.test_case "errors and verdicts" `Quick test_protocol_errors_and_verdicts;
          Alcotest.test_case "auto repair streams moves" `Quick test_protocol_auto_moves_stream;
          Alcotest.test_case "metrics exposition" `Quick test_protocol_metrics;
          Alcotest.test_case "journal tail verb" `Quick test_protocol_journal_verb;
          Alcotest.test_case "HELP lists every verb" `Quick test_protocol_help_lists_every_verb;
        ] );
      ( "flight recorder",
        [
          QCheck_alcotest.to_alcotest prop_replay_reconstructs;
          QCheck_alcotest.to_alcotest prop_replay_deterministic;
          Alcotest.test_case "auto-trigger session replays" `Quick
            test_auto_trigger_session_replays;
          Alcotest.test_case "corruption rejected with line numbers" `Quick
            test_replay_rejects_corruption;
          Alcotest.test_case "one tail for both codecs" `Quick test_one_tail_for_both_codecs;
        ] );
      ( "snapshots",
        [
          QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
          QCheck_alcotest.to_alcotest prop_check_consistency_pinned;
          QCheck_alcotest.to_alcotest prop_repair_moves_pinned;
          Alcotest.test_case "repair, adversarial lift order" `Quick
            test_repair_adversarial_lift_order;
          QCheck_alcotest.to_alcotest prop_compacted_replay_equals_full;
          Alcotest.test_case "trigger re-armed from header" `Quick
            test_trigger_rearm_from_header;
          Alcotest.test_case "parse-time size validation" `Quick
            test_protocol_parse_validation;
          Alcotest.test_case "SNAPSHOT verb" `Quick test_protocol_snapshot_verb;
        ] );
      ( "stream resume",
        [
          QCheck_alcotest.to_alcotest prop_streaming_resume_equals_list;
          Alcotest.test_case "corruption fails alike" `Quick test_streaming_rejects_like_list;
          Alcotest.test_case "over-long varint rejected" `Quick test_overlong_varint_rejected;
          Alcotest.test_case "journal from a pipe" `Quick test_resume_from_pipe;
          Alcotest.test_case "decode allocation pinned" `Quick test_streaming_decode_allocation;
        ] );
      ( "codecs",
        [
          QCheck_alcotest.to_alcotest prop_codecs_read_alike;
          QCheck_alcotest.to_alcotest prop_snapshot_resume_equals_genesis;
        ] );
    ]
