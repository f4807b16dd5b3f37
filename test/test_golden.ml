(* Golden regression tests: fixed instances under data/ solved with fixed
   budgets must keep producing byte-identical results. Every algorithm in
   the library is deterministic, so any diff here means an intentional
   behaviour change (update the constants) or a regression (fix the bug).

   The constants were produced by the same code they pin; their role is
   change *detection*, while correctness is covered by the ratio and
   invariant suites. *)

module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Budget = Rebal_core.Budget
module Lower_bounds = Rebal_core.Lower_bounds

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match Rebal_core.Io.read_instance ic with
      | Ok inst -> inst
      | Error msg -> Alcotest.failf "fixture %s unreadable: %s" path msg)

type golden = {
  path : string;
  k : int;
  initial : int;
  lower_bound : int;
  greedy_makespan : int;
  greedy_moves : int;
  mp_makespan : int;
  mp_moves : int;
  mp_threshold : int;
  local_search_makespan : int;
  lpt_makespan : int;
  bp_makespan : int;
  bp_cost : int;
  bp_threshold : int;
}

let goldens =
  [
    {
      path = "../data/skewed_zipf_40x5.txt";
      k = 6;
      initial = 3205;
      lower_bound = 1079;
      greedy_makespan = 1205;
      greedy_moves = 5;
      mp_makespan = 1205;
      mp_moves = 4;
      mp_threshold = 1079;
      local_search_makespan = 1104;
      lpt_makespan = 1079;
      bp_makespan = 1205;
      bp_cost = 4;
      bp_threshold = 1079;
    };
    {
      path = "../data/drifted_uniform_60x8.txt";
      k = 10;
      initial = 558;
      lower_bound = 364;
      greedy_makespan = 387;
      greedy_moves = 9;
      mp_makespan = 387;
      mp_moves = 5;
      mp_threshold = 364;
      local_search_makespan = 371;
      lpt_makespan = 366;
      bp_makespan = 476;
      bp_cost = 9;
      bp_threshold = 487;
    };
    {
      (* M-PARTITION legitimately moves nothing here: the initial
         makespan 321 is already within 1.5x of the bound 262. *)
      path = "../data/random_bimodal_25x4.txt";
      k = 5;
      initial = 321;
      lower_bound = 262;
      greedy_makespan = 300;
      greedy_moves = 5;
      mp_makespan = 321;
      mp_moves = 0;
      mp_threshold = 262;
      local_search_makespan = 262;
      lpt_makespan = 262;
      bp_makespan = 321;
      bp_cost = 0;
      bp_threshold = 262;
    };
  ]

let check_one g () =
  let inst = load g.path in
  let ci = Alcotest.(check int) in
  ci "initial makespan" g.initial (Instance.initial_makespan inst);
  ci "lower bound" g.lower_bound (Lower_bounds.best inst ~budget:(Budget.Moves g.k));
  let greedy = Rebal_algo.Greedy.solve inst ~k:g.k in
  ci "greedy makespan" g.greedy_makespan (Assignment.makespan inst greedy);
  ci "greedy moves" g.greedy_moves (Assignment.moves inst greedy);
  let mp, t = Rebal_algo.M_partition.solve_with_threshold inst ~k:g.k in
  ci "m-partition makespan" g.mp_makespan (Assignment.makespan inst mp);
  ci "m-partition moves" g.mp_moves (Assignment.moves inst mp);
  ci "m-partition threshold" g.mp_threshold t;
  let ls = Rebal_algo.Local_search.solve inst ~k:g.k in
  ci "local-search makespan" g.local_search_makespan (Assignment.makespan inst ls);
  let lpt = Rebal_algo.Lpt.solve inst in
  ci "lpt makespan" g.lpt_makespan (Assignment.makespan inst lpt);
  let bp, bt = Rebal_algo.Budgeted_partition.solve inst ~budget:g.k in
  ci "budgeted makespan" g.bp_makespan (Assignment.makespan inst bp);
  ci "budgeted cost" g.bp_cost (Assignment.relocation_cost inst bp);
  ci "budgeted threshold" g.bp_threshold bt

(* Full assignments, pinned as digests of the job-to-processor map: a
   changed tie-break that keeps the makespan and the move count still
   shows here. The fixture's [k] is both the move budget and the cost
   budget. *)
let digest a =
  Assignment.to_array a |> Array.to_list |> List.map string_of_int |> String.concat ","
  |> Digest.string |> Digest.to_hex

let solvers k =
  let greedy order inst = Rebal_algo.Greedy.solve ~order inst ~k in
  [
    ("greedy as-removed", greedy Rebal_algo.Greedy.As_removed);
    ("greedy ascending", greedy Rebal_algo.Greedy.Ascending);
    ("greedy descending", greedy Rebal_algo.Greedy.Descending);
    ("m-partition", fun inst -> Rebal_algo.M_partition.solve inst ~k);
    ("budgeted-partition", fun inst -> fst (Rebal_algo.Budgeted_partition.solve inst ~budget:k));
    ("lpt", Rebal_algo.Lpt.solve);
  ]

let assignment_digests =
  [
    ( "../data/skewed_zipf_40x5.txt",
      6,
      [
        "c27dc2e93eac31ec6573c2236ef4df06";
        "ea2514d4e7ce58d627792818ea19cc43";
        "c988d8e636ae791f69b639959b866455";
        "518b1b2647ae5355ed44ec550e5a4b63";
        "518b1b2647ae5355ed44ec550e5a4b63";
        "ba6b9d83d88dcbf55d8ee572803d96db";
      ] );
    ( "../data/drifted_uniform_60x8.txt",
      10,
      [
        "9c2ebefb6bf00fee933135e0927adcf5";
        "0713d8cf12db4d304aa108ecfdaa13ac";
        "01a7d6e1d7a9a515b55c9b66fd99b3a3";
        "9403dfe58a0e51a18b877b0236fac983";
        "5efb812f2f10e5329efadd24edfcdead";
        "536f134bae927e561d0d1d6db453f161";
      ] );
    ( "../data/random_bimodal_25x4.txt",
      5,
      [
        "69c27b969c64dc5bd1e7f20a7ec9a6b8";
        "dc277c89a85dac2479b1765062019bc4";
        "69c27b969c64dc5bd1e7f20a7ec9a6b8";
        "3d7ca81ddc0267eacd0f8eca012dfb83";
        "3d7ca81ddc0267eacd0f8eca012dfb83";
        "0b8b2617bf8d1b79ab9f0fedc9ab2567";
      ] );
  ]

let check_digests (path, k, expected) () =
  let inst = load path in
  List.iter2
    (fun (name, solve) want -> Alcotest.(check string) name want (digest (solve inst)))
    (solvers k) expected

let test_drifted_start () =
  let rng = Rebal_workloads.Rng.create 42 in
  let dist = Rebal_workloads.Dist.prepare (Rebal_workloads.Dist.Uniform { lo = 1; hi = 100 }) in
  let inst = Rebal_workloads.Gen.drifted rng ~n:60 ~m:8 ~dist ~drift:0.1 () in
  Alcotest.(check string) "drifted initial placement" "a620280e59ed523e6e89d4f9ec4f3225"
    (digest (Assignment.identity inst))

(* PARTITION pairs several removed large jobs with large-free processors
   here, and the pairing order shows in the assignment: M-PARTITION pairs
   them in reverse discovery order, the budgeted build by ascending id. *)
let test_large_pairing () =
  let rng = Rebal_workloads.Rng.create 1 in
  let dist =
    Rebal_workloads.Dist.prepare
      (Rebal_workloads.Dist.Bimodal
         { small_lo = 1; small_hi = 20; big_lo = 100; big_hi = 200; big_prob = 0.2 })
  in
  let inst = Rebal_workloads.Gen.skewed rng ~n:40 ~m:8 ~dist ~skew:2.0 () in
  Alcotest.(check string) "m-partition" "2ccb039b74b5155ae924335099cce074"
    (digest (Rebal_algo.M_partition.solve inst ~k:12));
  Alcotest.(check string) "budgeted-partition" "fac7737497f9069cf236087209fb223d"
    (digest (fst (Rebal_algo.Budgeted_partition.solve inst ~budget:12)))

(* Solver counters and heap-hook counts for one fixed instance, each
   solver in a fresh registry with fresh hooks. [k = 60] on the 60-job
   fixture removes every job, so the removal runs until every processor
   is empty. *)
let work_profile solve =
  let reg = Rebal_obs.Metrics.Registry.create () in
  Rebal_obs.Metrics.Registry.with_registry reg @@ fun () ->
  let hc = Rebal_ds.Indexed_heap.fresh_counters () in
  Rebal_ds.Indexed_heap.install_counters hc;
  Fun.protect ~finally:Rebal_ds.Indexed_heap.remove_counters @@ fun () ->
  solve ();
  let counters =
    List.filter_map
      (fun (mtr : Rebal_obs.Metrics.metric) ->
        match mtr.kind with
        | Rebal_obs.Metrics.Counter c ->
          Some (Printf.sprintf "%s=%d" mtr.name (Rebal_obs.Metrics.Counter.value c))
        | _ -> None)
      (Rebal_obs.Metrics.Registry.metrics reg)
  in
  String.concat " "
    (List.sort compare counters
    @ [
        Printf.sprintf "sets=%d removes=%d pops=%d up=%d down=%d" hc.sets hc.removes hc.pops
          hc.sift_up_steps hc.sift_down_steps;
      ])

let counter_pins =
  [
    (* greedy as-removed k=10 *) "rebal_solver_comparisons_total=0 rebal_solver_heap_pops_total=20 rebal_solver_heap_pushes_total=36 rebal_solver_solves_total=1 sets=36 removes=0 pops=0 up=13 down=38";
    (* greedy ascending k=10 *) "rebal_solver_comparisons_total=23 rebal_solver_heap_pops_total=20 rebal_solver_heap_pushes_total=36 rebal_solver_solves_total=1 sets=36 removes=0 pops=0 up=13 down=38";
    (* greedy descending k=10 *) "rebal_solver_comparisons_total=21 rebal_solver_heap_pops_total=20 rebal_solver_heap_pushes_total=36 rebal_solver_solves_total=1 sets=36 removes=0 pops=0 up=13 down=39";
    (* m-partition k=10 *) "rebal_mpartition_candidates_total=130 rebal_mpartition_scan_iterations_total=0 rebal_mpartition_thresholds_tried_total=1 rebal_solver_solves_total=1 sets=34 removes=0 pops=0 up=11 down=34";
    (* budgeted-partition k=10 *) "sets=9 removes=0 pops=0 up=4 down=0";
    (* lpt k=10 *) "sets=68 removes=0 pops=0 up=0 down=117";
    (* greedy as-removed k=60 *) "rebal_solver_comparisons_total=0 rebal_solver_heap_pops_total=120 rebal_solver_heap_pushes_total=136 rebal_solver_solves_total=1 sets=136 removes=0 pops=0 up=7 down=254";
    (* greedy ascending k=60 *) "rebal_solver_comparisons_total=251 rebal_solver_heap_pops_total=120 rebal_solver_heap_pushes_total=136 rebal_solver_solves_total=1 sets=136 removes=0 pops=0 up=7 down=271";
    (* greedy descending k=60 *) "rebal_solver_comparisons_total=226 rebal_solver_heap_pops_total=120 rebal_solver_heap_pushes_total=136 rebal_solver_solves_total=1 sets=136 removes=0 pops=0 up=7 down=245";
    (* m-partition k=60 *) "rebal_mpartition_candidates_total=130 rebal_mpartition_scan_iterations_total=0 rebal_mpartition_thresholds_tried_total=1 rebal_solver_solves_total=1 sets=84 removes=0 pops=0 up=11 down=144";
    (* budgeted-partition k=60 *) "sets=20 removes=0 pops=0 up=5 down=17";
    (* lpt k=60 *) "sets=68 removes=0 pops=0 up=0 down=117";
    (* g1 k=10 *) "sets=18 removes=0 pops=0 up=7 down=18";
  ]

let test_counters () =
  let inst = load "../data/drifted_uniform_60x8.txt" in
  let runs =
    List.concat_map
      (fun k ->
        List.map
          (fun (name, solve) -> (Printf.sprintf "%s k=%d" name k, fun () -> ignore (solve inst)))
          (solvers k))
      [ 10; 60 ]
    @ [ ("g1 k=10", fun () -> ignore (Lower_bounds.g1 inst ~k:10)) ]
  in
  List.iter2
    (fun (name, run) want -> Alcotest.(check string) name want (work_profile run))
    runs counter_pins

let () =
  Alcotest.run "rebal_golden"
    [
      ( "fixtures",
        List.map
          (fun g -> Alcotest.test_case (Filename.basename g.path) `Quick (check_one g))
          goldens );
      ( "assignments",
        List.map
          (fun ((path, _, _) as d) ->
            Alcotest.test_case (Filename.basename path) `Quick (check_digests d))
          assignment_digests
        @ [
            Alcotest.test_case "drifted start" `Quick test_drifted_start;
            Alcotest.test_case "large-job pairing" `Quick test_large_pairing;
          ] );
      ("work", [ Alcotest.test_case "solver and heap counters" `Quick test_counters ]);
    ]
