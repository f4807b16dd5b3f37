(* The sharded runtime driven from the calling thread, without hosting
   domains (the default, [~domains:0]): the qcheck stream property
   (every shard's bounded-repair invariant plus directory integrity
   must hold for S ∈ {1, 2, 8}), S=1 against a bare engine, the move
   bound of a sharded REBALANCE, sticky routing, global-state
   accounting, the cross-shard move pass, and construction/validation
   edges. Equivalence across hosting-domain counts lives in the
   cluster suite. *)

module Engine = Rebal_online.Engine
module Cluster = Rebal_online.Cluster
module Supervisor = Rebal_online.Supervisor
module Protocol = Rebal_online.Protocol

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected cluster error: %s" e

(* The same adversarial stream shape as the engine suite, but with
   m >= 8 so an 8-way split is constructible. *)
let stream_gen =
  let open QCheck2 in
  Gen.(
    let* m = int_range 8 16 in
    let id = map (fun i -> Printf.sprintf "j%d" i) (int_range 0 24) in
    let* events =
      list_size (int_range 0 80)
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

let apply_events sh events =
  List.iter
    (fun ev ->
      (* Errors (duplicate adds, missing removes) are part of the stream:
         the router must reject them without corrupting the directory. *)
      match ev with
      | `Add (id, size) -> ignore (Cluster.add_job sh ~id ~size)
      | `Remove id -> ignore (Cluster.remove_job sh ~id)
      | `Resize (id, size) -> ignore (Cluster.resize_job sh ~id ~size)
      | `Rebalance k -> ignore (Cluster.rebalance sh ~k))
    events

let prop_sharded_stream_consistent =
  QCheck2.Test.make
    ~name:"sharded stream: check_consistency holds for S in {1,2,8}" ~count:200 stream_gen
    (fun (m, events, k) ->
      List.for_all
        (fun shards ->
          let sh = Cluster.create ~m ~shards () in
          apply_events sh events;
          let loads = Cluster.loads sh in
          Cluster.check_consistency sh ~k
          && Cluster.check_consistency sh ~k:max_int
          && Array.length loads = m
          && Array.fold_left ( + ) 0 loads = (Cluster.stats sh).Cluster.total_size
          && Array.fold_left max 0 loads = Cluster.makespan sh
          && Cluster.job_count sh
             = List.fold_left
                 (fun acc e -> acc + Engine.job_count e)
                 0
                 (Array.to_list (Array.init shards (Cluster.engine sh))))
        [ 1; 2; 8 ])

let prop_single_shard_matches_engine =
  QCheck2.Test.make ~name:"S=1 router behaves exactly like a bare engine" ~count:200
    stream_gen
    (fun (m, events, k) ->
      let sh = Cluster.create ~m ~shards:1 () in
      let eng = Engine.create ~m () in
      apply_events sh events;
      List.iter
        (fun ev ->
          match ev with
          | `Add (id, size) -> ignore (Engine.add_job eng ~id ~size)
          | `Remove id -> ignore (Engine.remove_job eng ~id)
          | `Resize (id, size) -> ignore (Engine.resize_job eng ~id ~size)
          | `Rebalance k -> ignore (Engine.rebalance eng ~k))
        events;
      ignore (Cluster.rebalance sh ~k);
      ignore (Engine.rebalance eng ~k);
      Cluster.loads sh = Engine.loads eng
      && Cluster.makespan sh = Engine.makespan eng
      && Cluster.job_count sh = Engine.job_count eng)

let test_routing_is_sticky () =
  let sh = Cluster.create ~m:8 ~shards:4 () in
  for i = 0 to 199 do
    ignore (ok (Cluster.add_job sh ~id:(Printf.sprintf "j%d" i) ~size:(1 + (i mod 17))))
  done;
  check_int "all jobs present" 200 (Cluster.job_count sh);
  for i = 0 to 199 do
    let id = Printf.sprintf "j%d" i in
    match Cluster.shard_of sh id with
    | None -> Alcotest.failf "%s lost by the directory" id
    | Some s ->
      check_bool "directory agrees with the shard" true (Engine.mem (Cluster.engine sh s) id);
      (* find translates the per-shard processor into the global index. *)
      (match Cluster.find sh id with
      | Some (_, p) ->
        check_bool "global proc in the shard's range" true
          (p >= Cluster.offset sh s && p < Cluster.offset sh s + Engine.m (Cluster.engine sh s))
      | None -> Alcotest.fail "find lost a live job")
  done;
  (* Re-adding after a remove lands back on the hash-home shard. *)
  let home = Option.get (Cluster.shard_of sh "j7") in
  ignore (ok (Cluster.remove_job sh ~id:"j7"));
  check_bool "removed from directory" false (Cluster.mem sh "j7");
  ignore (ok (Cluster.add_job sh ~id:"j7" ~size:3));
  check_int "hash routing is deterministic" home (Option.get (Cluster.shard_of sh "j7"))

let test_inter_shard_move () =
  (* Two single-processor shards, all load on the first: per-shard repair
     cannot help (one processor is trivially balanced), so only the
     cross-shard pass can lower the global peak. *)
  let e0 = Engine.create ~m:1 () and e1 = Engine.create ~m:1 () in
  ignore (Engine.add_job e0 ~id:"big" ~size:100);
  ignore (Engine.add_job e0 ~id:"small" ~size:60);
  let sh = ok (Cluster.of_engines ~shards:2 (fun i -> [| e0; e1 |].(i))) in
  check_int "peak before" 160 (Cluster.makespan sh);
  let moves = Cluster.rebalance sh ~k:8 in
  check_int "peak after the cross-shard transfer" 100 (Cluster.makespan sh);
  check_int "exactly one transfer" 1 (List.length moves);
  (match moves with
  | [ mv ] ->
    check Alcotest.string "the big job moved" "big" mv.Cluster.id;
    check_int "from global proc 0" 0 mv.Cluster.src;
    check_int "to global proc 1" 1 mv.Cluster.dst
  | _ -> Alcotest.fail "expected the single transfer as a move");
  check_int "directory follows the move" 1 (Option.get (Cluster.shard_of sh "big"));
  check_int "inter_moves counted" 1 (Cluster.stats sh).Cluster.inter_moves;
  check_bool "still consistent" true (Cluster.check_consistency sh ~k:8);
  (* No further improvement is possible: the pass must not thrash. *)
  check_int "idempotent" 0 (List.length (Cluster.rebalance sh ~k:8))

(* Weight 0 takes a shard out of routing and out of both repair
   passes; weight 1 routes exactly as the unweighted ring. *)
let test_weights () =
  let ids = List.init 200 (Printf.sprintf "w%d") in
  let sh = Cluster.create ~m:8 ~shards:4 () in
  Cluster.set_weight sh 2 0.0;
  List.iter (fun id -> ignore (ok (Cluster.add_job sh ~id ~size:3))) ids;
  check_int "a zero-weight shard takes no new id" 0 (Engine.job_count (Cluster.engine sh 2));
  Alcotest.check_raises "weights live in [0, 1]"
    (Invalid_argument "Cluster.set_weight: weight must be in [0, 1]") (fun () ->
      Cluster.set_weight sh 0 1.5);
  Cluster.set_weight sh 2 1.0;
  let fresh = Cluster.create ~m:8 ~shards:4 () in
  List.iter
    (fun id ->
      let id = "x" ^ id in
      ignore (ok (Cluster.add_job sh ~id ~size:1));
      ignore (ok (Cluster.add_job fresh ~id ~size:1));
      check Alcotest.(option int) "weight 1 routes like the unweighted ring"
        (Cluster.shard_of fresh id) (Cluster.shard_of sh id))
    ids;
  (* All load on shard 0; shards 1 and 2 are empty and tie. *)
  let skewed () =
    let engines = Array.init 3 (fun _ -> Engine.create ~m:1 ()) in
    ignore (Engine.add_job engines.(0) ~id:"big" ~size:100);
    ignore (Engine.add_job engines.(0) ~id:"small" ~size:60);
    ok (Cluster.of_engines ~shards:3 (fun i -> engines.(i)))
  in
  let sh = skewed () in
  Cluster.set_weight sh 1 0.0;
  ignore (Cluster.rebalance sh ~k:8);
  check Alcotest.(option int) "the transfer skips the zero-weight tie winner" (Some 2)
    (Cluster.shard_of sh "big");
  let sh = skewed () in
  Cluster.set_weight sh 0 0.0;
  check_int "a zero-weight source gives nothing up" 0 (List.length (Cluster.rebalance sh ~k:8));
  (* A failover drains through the same transfers: largest first,
     onto a positive-weight survivor, within its budget. *)
  let sh = skewed () in
  let sup =
    Supervisor.create ~config:{ Supervisor.default_config with evac_budget = 1 } sh
  in
  Cluster.set_weight sh 1 0.0;
  ignore (Supervisor.mark_down sup 0);
  check_int "the budget leaves one job behind" 1 (Supervisor.stats sup).stranded_jobs;
  check Alcotest.(option int) "largest first, onto a positive-weight survivor" (Some 2)
    (Cluster.shard_of sh "big");
  let sh = skewed () in
  let sup = Supervisor.create sh in
  Cluster.set_weight sh 1 0.0;
  Cluster.set_weight sh 2 0.0;
  ignore (Supervisor.mark_down sup 0);
  check_int "no routable survivor: every job stays" 2 (Supervisor.stats sup).stranded_jobs;
  check_bool "still consistent" true (Cluster.check_consistency sh ~k:8)

let test_of_engines_rejects_duplicates () =
  let e0 = Engine.create ~m:1 () and e1 = Engine.create ~m:1 () in
  ignore (Engine.add_job e0 ~id:"x" ~size:5);
  ignore (Engine.add_job e1 ~id:"x" ~size:7);
  match Cluster.of_engines ~shards:2 (fun i -> [| e0; e1 |].(i)) with
  | Ok _ -> Alcotest.fail "duplicate residency accepted"
  | Error e -> check_bool ("names the job: " ^ e) true (String.length e > 0)

let test_create_validation () =
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Cluster.create: need at least one shard") (fun () ->
      ignore (Cluster.create ~m:4 ~shards:0 ()));
  Alcotest.check_raises "more shards than processors"
    (Invalid_argument "Cluster.create: need at least one processor per shard") (fun () ->
      ignore (Cluster.create ~m:2 ~shards:3 ()));
  (* Uneven splits hand the remainder to the first shards. *)
  let sh = Cluster.create ~m:7 ~shards:3 () in
  check_int "shard 0 procs" 3 (Engine.m (Cluster.engine sh 0));
  check_int "shard 1 procs" 2 (Engine.m (Cluster.engine sh 1));
  check_int "shard 2 procs" 2 (Engine.m (Cluster.engine sh 2));
  check_int "offsets partition" 3 (Cluster.offset sh 1);
  check_int "offsets partition" 5 (Cluster.offset sh 2);
  match Cluster.journal_snapshot sh with
  | Ok _ -> Alcotest.fail "snapshot without journals must fail"
  | Error e -> check_bool "names the missing sinks" true (String.length e > 0)

let test_aggregated_stats () =
  let sh = Cluster.create ~m:8 ~shards:2 () in
  for i = 0 to 49 do
    ignore (ok (Cluster.add_job sh ~id:(Printf.sprintf "j%d" i) ~size:(1 + (i mod 9))))
  done;
  ignore (Cluster.rebalance sh ~k:4);
  let st = Cluster.stats sh in
  check_int "shards" 2 st.Cluster.shards;
  check_int "jobs" 50 st.Cluster.jobs;
  check_int "procs" 8 st.Cluster.procs;
  check_int "adds summed" 50 st.Cluster.adds;
  check_int "makespan is the global peak" (Cluster.makespan sh) st.Cluster.makespan;
  check_bool "imbalance sane" true (st.Cluster.imbalance >= 1.0 -. 1e-9);
  check_int "per-shard view has one entry per shard" 2
    (Array.length (Cluster.shard_stats sh))

(* A sharded REBALANCE k spends a budget of k on every shard's own
   repair plus up to k cross-shard transfers, so over S shards its
   reply reports at most (S + 1) * k moves — more than k. HELP and the
   README state this bound; one global budget of k would tighten it. *)
let prop_sharded_rebalance_bound =
  QCheck2.Test.make ~name:"sharded REBALANCE k reports at most (S+1)*k moves" ~count:100
    QCheck2.Gen.(
      let* shards = int_range 2 8 in
      let* m = int_range shards 16 in
      let* sizes = list_size (int_range 0 40) (int_range 1 100) in
      let* grow = list_size (int_range 0 10) (pair (int_range 0 39) (int_range 100 400)) in
      let* k = int_range 0 4 in
      return (shards, m, sizes, grow, k))
    (fun (shards, m, sizes, grow, k) ->
      let target = Protocol.Cluster (Cluster.create ~m ~shards ()) in
      let send line = fst (Protocol.handle_line target line) in
      List.iteri (fun i size -> ignore (send (Printf.sprintf "ADD j%d %d" i size))) sizes;
      (* Grown jobs leave their shards unbalanced, so repairs move. *)
      List.iter (fun (i, size) -> ignore (send (Printf.sprintf "RESIZE j%d %d" i size))) grow;
      let out = send (Printf.sprintf "REBALANCE %d" k) in
      let move_lines = List.length (List.filter (String.starts_with ~prefix:"MOVE ") out) in
      match List.rev out with
      | last :: _ ->
        Scanf.sscanf last "REBALANCED moves=%d makespan=%d" (fun moves _ ->
            if moves <> move_lines then
              QCheck2.Test.fail_reportf "moves=%d but %d MOVE lines" moves move_lines;
            if moves > (shards + 1) * k then
              QCheck2.Test.fail_reportf "moves=%d over %d shards at k=%d" moves shards k;
            true)
      | [] -> QCheck2.Test.fail_report "REBALANCE gave no reply")

let () =
  Alcotest.run "rebal_inline_cluster"
    [
      ( "stream properties",
        [
          QCheck_alcotest.to_alcotest prop_sharded_stream_consistent;
          QCheck_alcotest.to_alcotest prop_single_shard_matches_engine;
          QCheck_alcotest.to_alcotest prop_sharded_rebalance_bound;
        ] );
      ( "routing",
        [
          Alcotest.test_case "directory is sticky and global" `Quick test_routing_is_sticky;
          Alcotest.test_case "cross-shard move pass" `Quick test_inter_shard_move;
          Alcotest.test_case "weights gate routing and repair" `Quick test_weights;
        ] );
      ( "construction",
        [
          Alcotest.test_case "duplicate residency rejected" `Quick
            test_of_engines_rejects_duplicates;
          Alcotest.test_case "creation validation and splits" `Quick test_create_validation;
          Alcotest.test_case "aggregated stats" `Quick test_aggregated_stats;
        ] );
    ]
