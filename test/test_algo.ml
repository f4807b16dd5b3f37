(* Tests for the algorithm library: every guarantee the paper proves is
   checked against the exact branch-and-bound solver on randomized small
   instances, and the paper's tight examples are reproduced exactly. *)

module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Budget = Rebal_core.Budget
module Lower_bounds = Rebal_core.Lower_bounds
module Greedy = Rebal_algo.Greedy
module Lpt = Rebal_algo.Lpt
module Local_search = Rebal_algo.Local_search
module Partition = Rebal_algo.Partition
module M_partition = Rebal_algo.M_partition
module Exact = Rebal_algo.Exact
module Rng = Rebal_workloads.Rng
module Tight = Rebal_workloads.Tight

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* A small random instance suitable for the exact solver. *)
let random_small rng =
  let n = Rng.int_range rng 1 9 in
  let m = Rng.int_range rng 1 4 in
  let sizes = Array.init n (fun _ -> Rng.int_range rng 1 20) in
  let initial = Array.init n (fun _ -> Rng.int rng m) in
  let inst = Instance.create ~sizes ~m initial in
  let k = Rng.int_range rng 0 n in
  (inst, k)

let iterations = 300

(* --- GREEDY ------------------------------------------------------------ *)

let test_greedy_respects_budget () =
  let rng = Rng.create 42 in
  for _ = 1 to iterations do
    let inst, k = random_small rng in
    let a = Greedy.solve inst ~k in
    if Assignment.moves inst a > k then
      Alcotest.failf "greedy used %d moves with k=%d" (Assignment.moves inst a) k
  done

let test_greedy_two_approx () =
  let rng = Rng.create 43 in
  for _ = 1 to iterations do
    let inst, k = random_small rng in
    let opt = Exact.opt_makespan_exn inst ~budget:(Budget.Moves k) in
    List.iter
      (fun order ->
        let a = Greedy.solve ~order inst ~k in
        let ms = Assignment.makespan inst a in
        let m = Instance.m inst in
        (* Theorem 1: ms <= (2 - 1/m) OPT, i.e. ms * m <= (2m - 1) * OPT. *)
        if ms * m > ((2 * m) - 1) * opt then
          Alcotest.failf "greedy %d > (2-1/m) * opt=%d (m=%d)" ms opt m)
      [ Greedy.As_removed; Greedy.Ascending; Greedy.Descending ]
  done

let test_greedy_tight_instance () =
  for m = 2 to 12 do
    let t = Tight.greedy_tight ~m in
    let a = Greedy.solve ~order:Greedy.Ascending t.Tight.instance ~k:t.Tight.k in
    let ms = Assignment.makespan t.Tight.instance a in
    check_int (Printf.sprintf "adversarial greedy on m=%d" m) t.Tight.worst_makespan ms;
    (* The optimum really is m: the exact ratio is 2 - 1/m. *)
    check_int
      (Printf.sprintf "tight ratio numerator m=%d" m)
      ((2 * m) - 1)
      (ms * t.Tight.opt / t.Tight.opt)
  done

let test_greedy_two_tier_optimal () =
  List.iter
    (fun pairs ->
      let t = Tight.two_tier ~pairs ~size:7 in
      let a = Greedy.solve t.Tight.instance ~k:t.Tight.k in
      check_int
        (Printf.sprintf "two_tier pairs=%d" pairs)
        t.Tight.opt
        (Assignment.makespan t.Tight.instance a))
    [ 1; 2; 3; 5; 8 ]

(* --- PARTITION / M-PARTITION ------------------------------------------- *)

let test_partition_tight_instance () =
  List.iter
    (fun scale ->
      let t = Tight.partition_tight ~scale () in
      let a, threshold = M_partition.solve_with_threshold t.Tight.instance ~k:t.Tight.k in
      let ms = Assignment.makespan t.Tight.instance a in
      check_int (Printf.sprintf "1.5-tight scale=%d" scale) t.Tight.worst_makespan ms;
      check_bool "threshold <= opt" true (threshold <= t.Tight.opt);
      check_bool "within k" true (Assignment.moves t.Tight.instance a <= t.Tight.k))
    [ 1; 3; 10 ]

let test_m_partition_budget_and_ratio () =
  let rng = Rng.create 45 in
  for _ = 1 to iterations do
    let inst, k = random_small rng in
    let opt = Exact.opt_makespan_exn inst ~budget:(Budget.Moves k) in
    let a, threshold = M_partition.solve_with_threshold inst ~k in
    let ms = Assignment.makespan inst a in
    if Assignment.moves inst a > k then
      Alcotest.failf "m-partition used %d moves with k=%d" (Assignment.moves inst a) k;
    if threshold > opt then
      Alcotest.failf "m-partition threshold %d > opt %d" threshold opt;
    (* Theorem 3: ms <= 1.5 OPT, i.e. 2*ms <= 3*opt. *)
    if 2 * ms > 3 * opt then
      Alcotest.failf "m-partition makespan %d > 1.5 * opt=%d (n=%d m=%d k=%d)" ms opt
        (Instance.n inst) (Instance.m inst) k
  done

let test_partition_given_exact_opt () =
  let rng = Rng.create 46 in
  for _ = 1 to iterations do
    let inst, k = random_small rng in
    let opt = Exact.opt_makespan_exn inst ~budget:(Budget.Moves k) in
    match Partition.solve inst ~opt_guess:opt with
    | None -> Alcotest.fail "partition infeasible at the exact optimum"
    | Some a ->
      let ms = Assignment.makespan inst a in
      if 2 * ms > 3 * opt then
        Alcotest.failf "partition(opt) makespan %d > 1.5 * opt=%d" ms opt;
      if Assignment.moves inst a > k then
        Alcotest.failf "partition(opt) used %d moves with k=%d" (Assignment.moves inst a) k
  done

let test_partition_moves_monotone_vs_optimal () =
  (* Lemma 4: at threshold = OPT the plan never uses more moves than the
     optimum did. *)
  let rng = Rng.create 47 in
  for _ = 1 to iterations do
    let inst, k = random_small rng in
    let budget = Budget.Moves k in
    let opt_assign = Option.get (Exact.solve inst ~budget) in
    let opt = Assignment.makespan inst opt_assign in
    let views = Instance.sorted_views inst in
    match Partition.plan inst ~views ~threshold:opt with
    | None -> Alcotest.fail "plan infeasible at exact optimum"
    | Some plan ->
      if plan.Partition.moves > k then
        Alcotest.failf "plan at opt needs %d moves but k=%d suffices for opt" plan.Partition.moves k
  done

let test_candidate_thresholds_sorted_unique () =
  let rng = Rng.create 48 in
  for _ = 1 to 50 do
    let inst, _ = random_small rng in
    let c = M_partition.candidate_thresholds inst in
    for i = 1 to Array.length c - 1 do
      check_bool "strictly increasing" true (c.(i - 1) < c.(i))
    done
  done

let test_piecewise_constant_between_thresholds () =
  (* Lemma 5: between consecutive candidate thresholds the plan's move
     count does not change. Sample midpoints and endpoints. *)
  let rng = Rng.create 49 in
  for _ = 1 to 50 do
    let inst, _ = random_small rng in
    let views = Instance.sorted_views inst in
    let c = M_partition.candidate_thresholds inst in
    let moves_at t =
      match Partition.plan inst ~views ~threshold:t with
      | None -> -1
      | Some p -> p.Partition.moves
    in
    for i = 0 to Array.length c - 2 do
      let lo = c.(i) and hi = c.(i + 1) in
      if hi - lo >= 2 then begin
        let mid = lo + ((hi - lo) / 2) in
        check_int "plateau" (moves_at lo) (moves_at mid);
        check_int "plateau end" (moves_at lo) (moves_at (hi - 1))
      end
    done
  done

let test_m_partition_k_zero () =
  let rng = Rng.create 50 in
  for _ = 1 to 100 do
    let inst, _ = random_small rng in
    let a = M_partition.solve inst ~k:0 in
    check_int "no moves allowed" 0 (Assignment.moves inst a);
    check_int "initial makespan" (Instance.initial_makespan inst) (Assignment.makespan inst a)
  done

(* --- other baselines ---------------------------------------------------- *)

let test_local_search_budget_and_no_worse () =
  let rng = Rng.create 51 in
  for _ = 1 to iterations do
    let inst, k = random_small rng in
    let a = Local_search.solve inst ~k in
    check_bool "within k" true (Assignment.moves inst a <= k);
    check_bool "never worse than initial" true
      (Assignment.makespan inst a <= Instance.initial_makespan inst)
  done

let test_lpt_respects_classic_bound () =
  let rng = Rng.create 52 in
  for _ = 1 to iterations do
    let inst, _ = random_small rng in
    let a = Lpt.solve inst in
    let ms = Assignment.makespan inst a in
    let lb = max (Lower_bounds.average inst) (Lower_bounds.max_size inst) in
    let m = Instance.m inst in
    (* Graham: ms <= (4/3 - 1/(3m)) * OPT' and OPT' >= lb. *)
    check_bool "lpt within 4/3 of lower bound" true (3 * ms * m <= ((4 * m) - 1) * lb * 3 || ms <= lb * 2)
  done

let test_exact_beats_or_ties_everyone () =
  let rng = Rng.create 53 in
  for _ = 1 to iterations do
    let inst, k = random_small rng in
    let opt = Exact.opt_makespan_exn inst ~budget:(Budget.Moves k) in
    let candidates =
      [ Greedy.solve inst ~k; M_partition.solve inst ~k; Local_search.solve inst ~k ]
    in
    List.iter
      (fun a -> check_bool "opt <= heuristic" true (opt <= Assignment.makespan inst a))
      candidates;
    (* And the optimum respects all lower bounds. *)
    check_bool "lb <= opt" true (Lower_bounds.best inst ~budget:(Budget.Moves k) <= opt)
  done

let test_exact_cost_budget () =
  let rng = Rng.create 54 in
  for _ = 1 to 100 do
    let n = Rng.int_range rng 1 7 in
    let m = Rng.int_range rng 1 3 in
    let sizes = Array.init n (fun _ -> Rng.int_range rng 1 15) in
    let costs = Array.init n (fun _ -> Rng.int_range rng 0 9) in
    let initial = Array.init n (fun _ -> Rng.int rng m) in
    let inst = Instance.create ~costs ~sizes ~m initial in
    let b = Rng.int_range rng 0 20 in
    let a = Option.get (Exact.solve inst ~budget:(Budget.Cost b)) in
    check_bool "within cost budget" true (Assignment.relocation_cost inst a <= b);
    (* With budget 0 only zero-cost jobs may move. *)
    let a0 = Option.get (Exact.solve inst ~budget:(Budget.Cost 0)) in
    List.iter
      (fun j -> check_int "only free moves" 0 (Instance.cost inst j))
      (Assignment.moved_jobs inst a0)
  done


(* --- sweep / scan instrumentation --------------------------------------- *)

let test_sweep_curve_and_frontier () =
  let rng = Rng.create 55 in
  for _ = 1 to 50 do
    let inst, _ = random_small rng in
    let n = Instance.n inst in
    let points = Rebal_algo.Sweep.curve inst ~ks:[ 0; 1; n ] in
    (match points with
    | [ p0; p1; pn ] ->
      check_int "k=0 makespan is initial" (Instance.initial_makespan inst) p0.Rebal_algo.Sweep.makespan;
      check_int "k=0 moves" 0 p0.Rebal_algo.Sweep.moves;
      check_bool "k=1 moves <= 1" true (p1.Rebal_algo.Sweep.moves <= 1);
      check_bool "moves within k" true (pn.Rebal_algo.Sweep.moves <= n)
    | _ -> Alcotest.fail "curve arity");
    let frontier = Rebal_algo.Sweep.frontier inst in
    check_bool "frontier nonempty" true (frontier <> []);
    let rec strictly_improving = function
      | p1 :: (p2 :: _ as rest) ->
        p1.Rebal_algo.Sweep.moves < p2.Rebal_algo.Sweep.moves
        && p1.Rebal_algo.Sweep.makespan > p2.Rebal_algo.Sweep.makespan
        && strictly_improving rest
      | _ -> true
    in
    check_bool "frontier is a frontier" true (strictly_improving frontier)
  done

let test_sweep_cheapest_k () =
  let rng = Rng.create 56 in
  for _ = 1 to 50 do
    let inst, _ = random_small rng in
    let n = Instance.n inst in
    let best = Assignment.makespan inst (M_partition.solve inst ~k:n) in
    (match Rebal_algo.Sweep.cheapest_k_for inst ~target:best with
    | None -> Alcotest.fail "reachable target reported None"
    | Some k ->
      let a = M_partition.solve inst ~k in
      check_bool "meets target" true (Assignment.makespan inst a <= best);
      if k > 0 then begin
        let worse = M_partition.solve inst ~k:(k - 1) in
        check_bool "k-1 misses target" true (Assignment.makespan inst worse > best)
      end);
    (* An unreachable target. *)
    check_bool "unreachable" true
      (Rebal_algo.Sweep.cheapest_k_for inst ~target:(Rebal_core.Lower_bounds.average inst - 1)
       = None
      || Rebal_core.Lower_bounds.average inst = 0
      || Assignment.makespan inst (M_partition.solve inst ~k:n)
         <= Rebal_core.Lower_bounds.average inst - 1)
  done

let test_scan_stats () =
  let rng = Rng.create 57 in
  for _ = 1 to 100 do
    let inst, k = random_small rng in
    let a, stats = M_partition.solve_with_stats inst ~k in
    let a', t = M_partition.solve_with_threshold inst ~k in
    check_bool "same assignment" true (Assignment.equal a a');
    check_int "same threshold" t stats.M_partition.accepted;
    check_bool "tried >= 1" true (stats.M_partition.tried >= 1);
    check_bool "tried bounded by candidates + 1" true
      (stats.M_partition.tried <= stats.M_partition.candidates + 1);
    check_bool "accepted >= lb" true (stats.M_partition.accepted >= stats.M_partition.lower_bound)
  done


let test_exact_matches_brute_force () =
  (* Two independent exact solvers must agree on the optimal makespan,
     for both budget kinds. *)
  let rng = Rng.create 58 in
  for _ = 1 to 200 do
    let n = Rng.int_range rng 1 7 in
    let m = Rng.int_range rng 1 3 in
    let sizes = Array.init n (fun _ -> Rng.int_range rng 1 25) in
    let costs = Array.init n (fun _ -> Rng.int_range rng 0 8) in
    let initial = Array.init n (fun _ -> Rng.int rng m) in
    let inst = Instance.create ~costs ~sizes ~m initial in
    let budgets =
      [ Budget.Moves (Rng.int_range rng 0 n); Budget.Cost (Rng.int_range rng 0 20) ]
    in
    List.iter
      (fun budget ->
        let bnb = Exact.opt_makespan_exn inst ~budget in
        let bf = Assignment.makespan inst (Exact.brute_force inst ~budget) in
        if bnb <> bf then
          Alcotest.failf "branch-and-bound %d vs brute force %d (n=%d m=%d)" bnb bf n m;
        (* The brute-force witness itself must respect the budget. *)
        check_bool "bf within budget" true
          (Rebal_core.Budget.within inst (Exact.brute_force inst ~budget) budget))
      budgets
  done


let test_partition_structural_invariants () =
  (* After build at any accepted threshold t: no processor carries two
     t-large jobs, and the makespan is at most 1.5 t (the two facts the
     Theorem 2 proof establishes for the final configuration). *)
  let rng = Rng.create 59 in
  for _ = 1 to 200 do
    let n = Rng.int_range rng 1 20 in
    let m = Rng.int_range rng 1 6 in
    let sizes = Array.init n (fun _ -> Rng.int_range rng 1 60) in
    let initial = Array.init n (fun _ -> Rng.int rng m) in
    let inst = Instance.create ~sizes ~m initial in
    let k = Rng.int_range rng 0 n in
    let a, t = M_partition.solve_with_threshold inst ~k in
    let large_per_proc = Array.make m 0 in
    for j = 0 to n - 1 do
      if 2 * Instance.size inst j > t then begin
        let p = Assignment.processor a j in
        large_per_proc.(p) <- large_per_proc.(p) + 1
      end
    done;
    Array.iteri
      (fun p c ->
        if c > 1 then
          Alcotest.failf "processor %d holds %d large jobs at threshold %d" p c t)
      large_per_proc;
    let ms = Assignment.makespan inst a in
    if 2 * ms > 3 * t then Alcotest.failf "makespan %d > 1.5 * threshold %d" ms t
  done


let test_partition_edge_cases () =
  (* Single processor: no relocation can change anything. *)
  let inst1 = Instance.create ~sizes:[| 5; 3; 9 |] ~m:1 [| 0; 0; 0 |] in
  let a1 = M_partition.solve inst1 ~k:3 in
  check_int "m=1 makespan" 17 (Assignment.makespan inst1 a1);
  check_int "m=1 moves" 0 (Assignment.moves inst1 a1);
  (* All jobs large at the accepted threshold: equal huge jobs, one per
     processor needed. *)
  let inst2 = Instance.create ~sizes:[| 100; 100; 100 |] ~m:3 [| 0; 0; 0 |] in
  let a2, t2 = M_partition.solve_with_threshold inst2 ~k:2 in
  check_int "spread out" 100 (Assignment.makespan inst2 a2);
  check_bool "threshold at opt" true (t2 <= 100);
  (* More large jobs than processors: the guess is structurally
     infeasible (Fact 1) and the plan must reject it. *)
  let crowded = Instance.create ~sizes:[| 100; 100; 100 |] ~m:2 [| 0; 0; 1 |] in
  let views = Instance.sorted_views crowded in
  check_bool "plan rejects tiny threshold" true
    (Rebal_algo.Partition.plan crowded ~views ~threshold:10 = None);
  (* n = 0 jobs. *)
  let inst3 = Instance.create ~sizes:[||] ~m:2 [||] in
  let a3 = M_partition.solve inst3 ~k:0 in
  check_int "empty instance" 0 (Assignment.makespan inst3 a3);
  (* k larger than n. *)
  let a4 = Rebal_algo.Greedy.solve inst1 ~k:99 in
  check_bool "greedy oversize k" true (Assignment.makespan inst1 a4 = 17)

let () =
  Alcotest.run "rebal_algo"
    [
      ( "greedy",
        [
          Alcotest.test_case "respects move budget" `Quick test_greedy_respects_budget;
          Alcotest.test_case "2 - 1/m approximation vs exact" `Quick test_greedy_two_approx;
          Alcotest.test_case "Theorem 1 tight instance" `Quick test_greedy_tight_instance;
          Alcotest.test_case "two-tier family solved exactly" `Quick test_greedy_two_tier_optimal;
        ] );
      ( "partition",
        [
          Alcotest.test_case "Theorem 2 tight instance" `Quick test_partition_tight_instance;
          Alcotest.test_case "1.5 ratio and budget vs exact" `Quick test_m_partition_budget_and_ratio;
          Alcotest.test_case "partition at exact OPT" `Quick test_partition_given_exact_opt;
          Alcotest.test_case "Lemma 4 move optimality at OPT" `Quick test_partition_moves_monotone_vs_optimal;
          Alcotest.test_case "candidate thresholds sorted" `Quick test_candidate_thresholds_sorted_unique;
          Alcotest.test_case "Lemma 5 piecewise constant" `Quick test_piecewise_constant_between_thresholds;
          Alcotest.test_case "k = 0 keeps initial assignment" `Quick test_m_partition_k_zero;
          Alcotest.test_case "half-optimal structural invariants" `Quick test_partition_structural_invariants;
          Alcotest.test_case "edge cases" `Quick test_partition_edge_cases;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "curve and frontier" `Quick test_sweep_curve_and_frontier;
          Alcotest.test_case "cheapest k for target" `Quick test_sweep_cheapest_k;
          Alcotest.test_case "scan statistics" `Quick test_scan_stats;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "local search budget" `Quick test_local_search_budget_and_no_worse;
          Alcotest.test_case "lpt sanity" `Quick test_lpt_respects_classic_bound;
          Alcotest.test_case "exact dominates heuristics" `Quick test_exact_beats_or_ties_everyone;
          Alcotest.test_case "exact with cost budget" `Quick test_exact_cost_budget;
          Alcotest.test_case "B&B cross-validated vs brute force" `Quick test_exact_matches_brute_force;
        ] );
    ]
