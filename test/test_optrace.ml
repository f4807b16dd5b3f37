(* Op tracing: well-formedness of stored span trees under concurrent
   drivers, the slow-op ring's retention contract (driven
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

(* Optrace state is global (knobs, the op-trace and slow-op rings);
   every test runs inside this bracket so the suite's tests cannot
   contaminate one another. *)
let with_tracing ~sample ~slow_ns f =
  Optrace.reset ();
  Optrace.set_sample_every sample;
  Optrace.set_slow_threshold_ns slow_ns;
  Fun.protect
    ~finally:(fun () ->
      Optrace.set_sample_every 0;
      Optrace.set_slow_threshold_ns (-1);
      Optrace.set_clock Rebal_harness.Timer.now_int_ns;
      Optrace.reset ())
    f

(* Every span of the tree under [sp], [sp] included, in start order. *)
let rec flatten (sp : Optrace.span) = sp :: List.concat_map flatten sp.children

let all_spans () =
  List.concat_map (fun (tr : Optrace.trace) -> flatten tr.root) (Optrace.traces ())

(* ----- the deterministic cross-shard move tree ----- *)

(* One traced op around one two-phase move must record the full causal
   chain: op root -> move -> reserve, the journaled remove on
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
  let root =
    match Optrace.traces () with
    | [ tr ] when tr.root.name = "MOVE" -> tr.root
    | l -> Alcotest.failf "expected one MOVE trace, got %d traces" (List.length l)
  in
  let mv =
    match root.children with
    | [ m ] when m.name = "move" -> m
    | _ -> Alcotest.fail "MOVE root should have exactly the move child"
  in
  let kid_names = List.map (fun (sp : Optrace.span) -> sp.name) mv.children in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true (List.mem expected kid_names))
    [ "move.reserve"; "shard.move.remove"; "shard.move.add"; "move.commit" ];
  (* The two legs really ran on the two shards. *)
  let shard_attr name =
    let sp = List.find (fun (sp : Optrace.span) -> sp.name = name) mv.children in
    List.assoc "shard" sp.attrs
  in
  Alcotest.(check string) "remove leg on source" (string_of_int src)
    (shard_attr "shard.move.remove");
  Alcotest.(check string) "add leg on destination" (string_of_int dst)
    (shard_attr "shard.move.add");
  (* Every span closed, and the tree's span count is right. *)
  let spans = flatten root in
  Alcotest.(check int) "span count" (List.length spans) (List.hd (Optrace.traces ())).spans;
  List.iter
    (fun (sp : Optrace.span) ->
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
            (fun (tr : Optrace.trace) -> tr.root.name = "REBALANCE")
            (Optrace.traces ())
        with
        | [ tr ] -> tr.root
        | l -> Alcotest.failf "%s: expected one REBALANCE root, got %d" label (List.length l)
      in
      match List.filter (fun (sp : Optrace.span) -> sp.name = "engine.repair") (flatten root) with
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
            Alcotest.(check bool) (label ^ ": closed") true (sp.stop_ns >= sp.start_ns))
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
      (all_spans ())
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

(* Concurrent session threads spread over D session domains, every op
   sampled: whatever interleaving happens, each op must store exactly
   one tree, and each tree must hold only its own op's spans — an ADD
   its one [shard.add] task, a MOVE only the move chain — every span
   closed and inside its parent's interval, children in start order.
   A current-span leak between session threads shows up here as a
   span in the wrong op's tree, a lost tree as a count mismatch. *)
let move_spans = [ "move"; "move.reserve"; "shard.move.remove"; "shard.move.add"; "move.commit" ]

let rec well_formed (sp : Optrace.span) =
  if sp.stop_ns < sp.start_ns then Test.fail_reportf "span %s not closed" sp.name;
  ignore
    (List.fold_left
       (fun prev (c : Optrace.span) ->
         if c.start_ns < prev then Test.fail_reportf "children of %s out of start order" sp.name;
         if c.start_ns < sp.start_ns || c.stop_ns > sp.stop_ns then
           Test.fail_reportf "span %s outside its parent %s" c.name sp.name;
         well_formed c;
         c.start_ns)
       sp.start_ns sp.children)

let prop_trees_well_formed =
  Test.make ~count:4 ~name:"sampled span trees are well-formed for domains in {1,2,8}"
    Gen.(int_range 0 1000)
    (fun seed ->
      List.for_all
        (fun domains ->
          with_tracing ~sample:1 ~slow_ns:(-1) @@ fun () ->
          let c = Cluster.create ~m:16 ~shards:8 ~domains () in
          let ops = Atomic.make 0 in
          On_domains.run c
            (List.init 4 (fun t () ->
                 let rng = Random.State.make [| seed; domains; t |] in
                 for i = 1 to 25 do
                   let id = Printf.sprintf "t%d.%d" t i in
                   Atomic.incr ops;
                   Optrace.with_op ~verb:"ADD" (fun () ->
                       ignore (Cluster.add_job c ~id ~size:(1 + Random.State.int rng 50)));
                   if Random.State.bool rng then begin
                     Atomic.incr ops;
                     Optrace.with_op ~verb:"MOVE" (fun () ->
                         ignore (Cluster.move c ~id ~dst:(Random.State.int rng 8)))
                   end
                 done));
          let traces = Optrace.traces () in
          Cluster.shutdown c;
          if List.length traces <> Atomic.get ops then
            Test.fail_reportf "%d ops stored %d traces" (Atomic.get ops) (List.length traces);
          let ids = List.map (fun (tr : Optrace.trace) -> tr.trace_id) traces in
          if List.length (List.sort_uniq compare ids) <> List.length ids then
            Test.fail_reportf "duplicate trace ids";
          List.iter
            (fun (tr : Optrace.trace) ->
              well_formed tr.root;
              let below = List.tl (flatten tr.root) in
              if List.length below + 1 <> tr.spans then
                Test.fail_reportf "trace %d counts %d spans, holds %d" tr.trace_id tr.spans
                  (List.length below + 1);
              match tr.root.name with
              | "ADD" ->
                if List.map (fun (sp : Optrace.span) -> sp.name) below <> [ "shard.add" ] then
                  Test.fail_reportf "ADD trace %d holds [%s]" tr.trace_id
                    (String.concat "; " (List.map (fun (sp : Optrace.span) -> sp.name) below))
              | "MOVE" ->
                List.iter
                  (fun (sp : Optrace.span) ->
                    if not (List.mem sp.name move_spans) then
                      Test.fail_reportf "MOVE trace %d holds %s" tr.trace_id sp.name)
                  below
              | v -> Test.fail_reportf "unexpected root %s" v)
            traces;
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
      let fake = ref 0 in
      Optrace.set_clock (fun () -> !fake);
      List.iter
        (fun d ->
          Optrace.with_op ~verb:(string_of_int d) (fun () -> fake := !fake + d))
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
      List.length (all_spans ()) = List.length expected)

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
