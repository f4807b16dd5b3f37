(* Cross-domain tracing: well-formedness of assembled span trees under
   concurrent drivers, the slow-op ring's retention contract (driven
   through the injectable clock), and the HTTP scrape endpoint's
   response shapes. *)

open QCheck2
module Optrace = Rebal_obs.Optrace
module Metrics = Rebal_obs.Metrics
module Cluster = Rebal_online.Cluster
module Engine = Rebal_online.Engine
module Protocol = Rebal_online.Protocol
module Supervisor = Rebal_online.Supervisor
module Http = Rebal_net.Http

(* Optrace state is global (knobs, id counters, slow ring, the list of
   per-domain span rings); every test runs inside this bracket so the
   suite's tests cannot contaminate one another. *)
let with_tracing ~sample ~slow_ns f =
  Optrace.reset ();
  Optrace.set_sample_every sample;
  Optrace.set_slow_threshold_ns slow_ns;
  Fun.protect
    ~finally:(fun () ->
      Optrace.set_sample_every 0;
      Optrace.set_slow_threshold_ns (-1);
      Optrace.set_clock Rebal_harness.Timer.now_ns;
      Optrace.reset ())
    f

(* ----- the deterministic cross-shard move tree ----- *)

(* One traced op around one two-phase move must assemble into the full
   causal chain: op root -> move -> reserve, the journaled remove on
   the source shard, the journaled add on the destination shard, and
   the directory commit. This is the tree the TRACES verb shows and the
   CI smoke greps for. *)
let test_move_tree () =
  with_tracing ~sample:1 ~slow_ns:(-1) @@ fun () ->
  let c = Cluster.create ~m:4 ~shards:2 ~domains:2 () in
  Fun.protect ~finally:(fun () -> Cluster.shutdown c) @@ fun () ->
  (match Cluster.add_job c ~id:"mv" ~size:10 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "add failed: %s" e);
  let src = match Cluster.shard_of c "mv" with Some s -> s | None -> Alcotest.fail "lost job" in
  let dst = 1 - src in
  (match Optrace.with_op ~verb:"MOVE" (fun () -> Cluster.move c ~id:"mv" ~dst) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "move failed: %s" e);
  let spans = Optrace.recorded () in
  let trees = Optrace.assemble spans in
  let root =
    match List.filter (fun (t : Optrace.tree) -> t.span.name = "MOVE") trees with
    | [ t ] -> t
    | l -> Alcotest.failf "expected one MOVE root, got %d" (List.length l)
  in
  let mv =
    match root.Optrace.children with
    | [ m ] when m.Optrace.span.name = "move" -> m
    | _ -> Alcotest.fail "MOVE root should have exactly the move child"
  in
  let kid_names = List.map (fun (t : Optrace.tree) -> t.span.name) mv.Optrace.children in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true (List.mem expected kid_names))
    [ "move.reserve"; "shard.move.remove"; "shard.move.add"; "move.commit" ];
  (* The two legs really ran on the two shards. *)
  let shard_attr name =
    let t = List.find (fun (t : Optrace.tree) -> t.span.name = name) mv.Optrace.children in
    List.assoc "shard" t.Optrace.span.attrs
  in
  Alcotest.(check string) "remove leg on source" (string_of_int src)
    (shard_attr "shard.move.remove");
  Alcotest.(check string) "add leg on destination" (string_of_int dst)
    (shard_attr "shard.move.add");
  (* All one trace, and every span closed. *)
  List.iter
    (fun (sp : Optrace.span) ->
      Alcotest.(check int) "one trace" root.Optrace.span.trace_id sp.trace_id;
      Alcotest.(check bool) "span closed" true (sp.stop_ns >= sp.start_ns))
    spans

(* ----- the repair pass is a span of the op that ran it ----- *)

(* A sampled REBALANCE must show the engine's repair pass in its tree:
   directly under the op root on a single engine, under the shard's
   [shard.rebalance] span on a cluster. The post-hoc [moves] attribute
   lands on the repair span itself. *)
let test_repair_span () =
  let targets =
    [
      ("single", fun () -> Protocol.Single (Engine.create ~m:4 ()));
      ("cluster D=0", fun () -> Protocol.Cluster (Cluster.create ~m:4 ~shards:2 ~domains:0 ()));
      ("cluster D=1", fun () -> Protocol.Cluster (Cluster.create ~m:4 ~shards:2 ~domains:1 ()));
    ]
  in
  List.iter
    (fun (label, make) ->
      with_tracing ~sample:1 ~slow_ns:(-1) @@ fun () ->
      let target = make () in
      Fun.protect ~finally:(fun () -> Option.iter Cluster.shutdown (Protocol.cluster_of target))
      @@ fun () ->
      List.iter
        (fun line -> ignore (Protocol.handle_line target line))
        [ "ADD a 10"; "ADD b 10"; "ADD c 10"; "ADD d 10"; "RESIZE a 90"; "REBALANCE 3" ];
      let root =
        match
          List.filter
            (fun (t : Optrace.tree) -> t.span.name = "REBALANCE")
            (Optrace.assemble (Optrace.recorded ()))
        with
        | [ t ] -> t
        | l -> Alcotest.failf "%s: expected one REBALANCE root, got %d" label (List.length l)
      in
      let rec repairs (t : Optrace.tree) =
        (if t.span.name = "engine.repair" then [ t.span ] else [])
        @ List.concat_map repairs t.children
      in
      match repairs root with
      | [] -> Alcotest.failf "%s: no engine.repair span under the REBALANCE root" label
      | spans ->
        List.iter
          (fun (sp : Optrace.span) ->
            Alcotest.(check (list string))
              (label ^ ": repair attrs in order") [ "k"; "auto"; "moves" ]
              (List.map fst sp.attrs);
            Alcotest.(check string) (label ^ ": k") "3" (List.assoc "k" sp.attrs);
            Alcotest.(check string) (label ^ ": auto") "false" (List.assoc "auto" sp.attrs);
            Alcotest.(check bool) (label ^ ": moves is a count") true
              (int_of_string_opt (List.assoc "moves" sp.attrs) <> None);
            Alcotest.(check int) (label ^ ": same trace") root.span.trace_id sp.trace_id)
          spans)
    targets

(* ----- per-verb observability on every target ----- *)

(* With latency histograms on and every op sampled, a one-by-one
   ADD / RESIZE / REMOVE lands exactly one observation in
   [rebal_engine_op_latency_seconds] under its own [op] label — on a
   single engine, a cluster at D in {0, 2} and a supervised cluster —
   and on a cluster its shard task is a [shard.add] / [shard.resize] /
   [shard.remove] span. A pipelined run's shard tasks are
   [shard.apply_bulk] spans. *)
let test_per_verb_observability () =
  let cluster domains () = Cluster.create ~m:4 ~shards:2 ~domains () in
  let targets =
    [
      ("single", fun () -> Protocol.Single (Engine.create ~m:4 ()));
      ("cluster D=0", fun () -> Protocol.Cluster (cluster 0 ()));
      ("cluster D=2", fun () -> Protocol.Cluster (cluster 2 ()));
      ("supervised", fun () -> Protocol.Supervised (Supervisor.create (cluster 0 ())));
    ]
  in
  let latency target op =
    Metrics.Histogram.observations
      (Metrics.histogram ~registry:(Protocol.metrics_registry target) ~labels:[ ("op", op) ]
         "rebal_engine_op_latency_seconds")
  in
  let shard_spans () =
    List.filter_map
      (fun (sp : Optrace.span) ->
        if String.starts_with ~prefix:"shard." sp.name then Some sp.name else None)
      (Optrace.recorded ())
  in
  let no_err label replies =
    List.iter
      (fun l ->
        if String.starts_with ~prefix:"ERR" l then Alcotest.failf "%s: %s" label l)
      replies
  in
  List.iter
    (fun (label, make) ->
      with_tracing ~sample:1 ~slow_ns:(-1) @@ fun () ->
      Rebal_obs.Control.with_enabled true @@ fun () ->
      Metrics.Registry.with_registry (Metrics.Registry.create ()) @@ fun () ->
      let target = make () in
      let sharded = Protocol.cluster_of target <> None in
      Fun.protect ~finally:(fun () -> Option.iter Cluster.shutdown (Protocol.cluster_of target))
      @@ fun () ->
      List.iter
        (fun (line, op) ->
          let before = List.map (fun o -> (o, latency target o)) [ "add"; "remove"; "resize" ] in
          Optrace.reset ();
          no_err label (fst (Protocol.handle_line target line));
          List.iter
            (fun (o, n) ->
              Alcotest.(check int)
                (Printf.sprintf "%s: %s observes op=%s" label line o)
                (if o = op then n + 1 else n)
                (latency target o))
            before;
          if sharded then
            Alcotest.(check (list string))
              (Printf.sprintf "%s: %s shard span" label line)
              [ "shard." ^ op ] (shard_spans ()))
        [ ("ADD a 5", "add"); ("ADD b 7", "add"); ("RESIZE a 9", "resize"); ("REMOVE b", "remove") ];
      Optrace.reset ();
      no_err label (fst (Protocol.handle_lines target [ "ADD c 3"; "ADD d 4"; "RESIZE c 8" ]));
      if sharded then begin
        let spans = shard_spans () in
        Alcotest.(check bool) (label ^ ": pipelined run has shard spans") true (spans <> []);
        List.iter
          (fun name -> Alcotest.(check string) (label ^ ": pipelined span") "shard.apply_bulk" name)
          spans
      end)
    targets

(* ----- well-formed trees under concurrent drivers ----- *)

(* Concurrent session threads spread over D hosting domains, every op
   sampled: whatever interleaving happens, the flat records — spread
   over every domain's ring — must link up: every span id unique, every
   non-root span's parent recorded in the same trace. A context leak
   between session threads shows up here as a cross-trace edge, a ring
   the collection misses as an orphan. *)
let prop_trees_well_formed =
  Test.make ~count:4 ~name:"sampled span trees are well-formed for domains in {1,2,8}"
    Gen.(int_range 0 1000)
    (fun seed ->
      List.for_all
        (fun domains ->
          with_tracing ~sample:1 ~slow_ns:(-1) @@ fun () ->
          let c = Cluster.create ~m:16 ~shards:8 ~domains () in
          let threads =
            List.init 4 (fun t ->
                Cluster.spawn c
                  (fun () ->
                    let rng = Random.State.make [| seed; domains; t |] in
                    for i = 1 to 25 do
                      let id = Printf.sprintf "t%d.%d" t i in
                      Optrace.with_op ~verb:"ADD" (fun () ->
                          ignore (Cluster.add_job c ~id ~size:(1 + Random.State.int rng 50)));
                      if Random.State.bool rng then
                        Optrace.with_op ~verb:"MOVE" (fun () ->
                            ignore (Cluster.move c ~id ~dst:(Random.State.int rng 8)))
                    done))
          in
          List.iter (fun join -> join ()) threads;
          let spans = Optrace.recorded () in
          Cluster.shutdown c;
          let by_id = Hashtbl.create 256 in
          List.iter (fun (sp : Optrace.span) -> Hashtbl.replace by_id sp.span_id sp) spans;
          if Hashtbl.length by_id <> List.length spans then
            Test.fail_reportf "duplicate span ids (%d spans, %d distinct)" (List.length spans)
              (Hashtbl.length by_id);
          List.iter
            (fun (sp : Optrace.span) ->
              if sp.parent_id <> 0 then
                match Hashtbl.find_opt by_id sp.parent_id with
                | None ->
                  Test.fail_reportf "span %d (%s) orphaned: parent %d not recorded" sp.span_id
                    sp.name sp.parent_id
                | Some p ->
                  if p.trace_id <> sp.trace_id then
                    Test.fail_reportf "cross-trace edge: span %d trace %d under parent trace %d"
                      sp.span_id sp.trace_id p.trace_id)
            spans;
          true)
        [ 1; 2; 8 ])

(* ----- the slow-op ring's retention contract ----- *)

(* Durations driven through the injected clock: exactly the ops at or
   over the threshold land in the ring (in order), and — head sampling
   off — each leaves its root span behind for TRACES to show. *)
let prop_slow_ring_retention =
  Test.make ~count:100 ~name:"slow ring retains exactly the ops over the threshold"
    Gen.(list_size (int_range 0 40) (int_range 0 2000))
    (fun durations ->
      with_tracing ~sample:0 ~slow_ns:1000 @@ fun () ->
      let fake = ref 0L in
      Optrace.set_clock (fun () -> !fake);
      List.iter
        (fun d ->
          Optrace.with_op ~verb:(string_of_int d) (fun () ->
              fake := Int64.add !fake (Int64.of_int d)))
        durations;
      let slow = Optrace.slow_ops () in
      let expected = List.filter (fun d -> d >= 1000) durations in
      if List.length slow <> List.length expected then
        Test.fail_reportf "ring holds %d ops, expected %d" (List.length slow)
          (List.length expected);
      List.iter2
        (fun (s : Optrace.slow_op) d ->
          if s.slow_verb <> string_of_int d then
            Test.fail_reportf "order lost: got %s, expected %d" s.slow_verb d;
          if s.slow_duration_ns < 1000L then
            Test.fail_reportf "retained an op of %Ldns, under the threshold" s.slow_duration_ns)
        slow expected;
      (* Unsampled slow ops keep their root span (and only that). *)
      List.length (Optrace.recorded ()) = List.length expected)

(* ----- assembly promotes orphans instead of dropping them ----- *)

let test_orphan_promotion () =
  let sp ~trace_id ~span_id ~parent_id name =
    {
      Optrace.trace_id;
      span_id;
      parent_id;
      name;
      domain = 0;
      start_ns = Int64.of_int span_id;
      stop_ns = Int64.of_int (span_id + 1);
      attrs = [];
    }
  in
  (* Root evicted: the child must surface as a root, not vanish. *)
  let trees = Optrace.assemble [ sp ~trace_id:7 ~span_id:2 ~parent_id:1 "orphan" ] in
  Alcotest.(check int) "orphan promoted" 1 (List.length trees);
  (* Intact parent/child keeps its shape, children in start order. *)
  match
    Optrace.assemble
      [
        sp ~trace_id:7 ~span_id:1 ~parent_id:0 "root";
        sp ~trace_id:7 ~span_id:3 ~parent_id:1 "late";
        sp ~trace_id:7 ~span_id:2 ~parent_id:1 "early";
      ]
  with
  | [ { Optrace.span = { name = "root"; _ }; children = [ a; b ] } ] ->
    Alcotest.(check string) "start order" "early" a.Optrace.span.name;
    Alcotest.(check string) "start order" "late" b.Optrace.span.name
  | _ -> Alcotest.fail "expected one root with two children"

(* ----- the HTTP scrape endpoint ----- *)

let metrics_stub () = "rebal_up 1\n"

let test_http_dispatch () =
  Alcotest.(check bool) "request line recognized" true (Http.is_request "GET /metrics HTTP/1.1");
  Alcotest.(check bool) "protocol verb is not a request" false (Http.is_request "ADD j1 10");
  Alcotest.(check bool) "METRICS is not a request" false (Http.is_request "METRICS")

let test_http_metrics_route () =
  let r = Http.respond ~metrics:metrics_stub "GET /metrics HTTP/1.0" in
  Alcotest.(check int) "status" 200 r.Http.status;
  Alcotest.(check string) "content type" "text/plain; version=0.0.4; charset=utf-8"
    r.Http.content_type;
  Alcotest.(check string) "body is the exposition" (metrics_stub ()) r.Http.body

let test_http_errors () =
  Alcotest.(check int) "unknown path" 404
    (Http.respond ~metrics:metrics_stub "GET /nope HTTP/1.1").Http.status;
  Alcotest.(check int) "non-GET" 405
    (Http.respond ~metrics:metrics_stub "POST /metrics HTTP/1.1").Http.status;
  Alcotest.(check int) "garbage" 400 (Http.respond ~metrics:metrics_stub "GET HTTP/1.1").Http.status

let test_http_render () =
  let r = Http.respond ~metrics:metrics_stub "GET /metrics HTTP/1.0" in
  let out = Http.render r in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "status line" true (contains "HTTP/1.0 200 OK\r\n" out);
  Alcotest.(check bool) "content length" true
    (contains (Printf.sprintf "Content-Length: %d\r\n" (String.length r.Http.body)) out);
  Alcotest.(check bool) "connection close" true (contains "Connection: close\r\n" out);
  Alcotest.(check bool) "blank line before body" true (contains "\r\n\r\nrebal_up 1\n" out)

let () =
  Alcotest.run "optrace"
    [
      ( "trees",
        [
          Alcotest.test_case "cross-shard move tree" `Quick test_move_tree;
          Alcotest.test_case "orphan promotion" `Quick test_orphan_promotion;
          Alcotest.test_case "REBALANCE shows engine.repair" `Quick test_repair_span;
          Alcotest.test_case "one-by-one verbs observe per verb" `Quick
            test_per_verb_observability;
          QCheck_alcotest.to_alcotest prop_trees_well_formed;
        ] );
      ("slow ring", [ QCheck_alcotest.to_alcotest prop_slow_ring_retention ]);
      ( "http",
        [
          Alcotest.test_case "dispatch" `Quick test_http_dispatch;
          Alcotest.test_case "metrics route" `Quick test_http_metrics_route;
          Alcotest.test_case "error routes" `Quick test_http_errors;
          Alcotest.test_case "render" `Quick test_http_render;
        ] );
    ]
