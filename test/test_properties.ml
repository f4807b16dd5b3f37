(* Property-based tests (qcheck, registered through alcotest): random
   instances are generated structurally — not from our own Rng, so the
   two random sources cross-check each other — and every library-level
   invariant is asserted on them. *)

module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Budget = Rebal_core.Budget
module Lower_bounds = Rebal_core.Lower_bounds
module Io = Rebal_core.Io
module Sorted_jobs = Rebal_ds.Sorted_jobs
module Greedy = Rebal_algo.Greedy
module M_partition = Rebal_algo.M_partition
module Exact = Rebal_algo.Exact

open QCheck2

(* --- generators ---------------------------------------------------------- *)

let instance_gen ~max_n ~max_m ~max_size =
  Gen.(
    let* n = int_range 1 max_n in
    let* m = int_range 1 max_m in
    let* sizes = array_size (return n) (int_range 1 max_size) in
    let* costs = array_size (return n) (int_range 0 9) in
    let* initial = array_size (return n) (int_range 0 (m - 1)) in
    return (Instance.create ~costs ~sizes ~m initial))

let instance_with_k_gen ~max_n ~max_m ~max_size =
  Gen.(
    let* inst = instance_gen ~max_n ~max_m ~max_size in
    let* k = int_range 0 (Instance.n inst) in
    return (inst, k))

(* Tiny instances where the exact solver is instantaneous. *)
let tiny = instance_with_k_gen ~max_n:8 ~max_m:3 ~max_size:25

(* Medium instances for budget/validity-only properties. *)
let medium = instance_with_k_gen ~max_n:60 ~max_m:8 ~max_size:200

let count = 200

(* --- data-structure properties ------------------------------------------ *)

let prop_sorted_jobs_partition_identity =
  Test.make ~name:"sorted view: prefix + suffix = total" ~count
    Gen.(list_size (int_range 0 40) (int_range 1 100))
    (fun sizes ->
      let jobs = Array.of_list (List.mapi (fun i s -> (i, s)) sizes) in
      let v = Sorted_jobs.of_assoc jobs in
      let q = Sorted_jobs.length v in
      List.for_all
        (fun l -> Sorted_jobs.prefix v l + Sorted_jobs.suffix v l = Sorted_jobs.total v)
        (List.init (q + 1) Fun.id))

let prop_sorted_jobs_large_prefix =
  Test.make ~name:"large jobs form a prefix" ~count
    Gen.(
      let* sizes = list_size (int_range 1 40) (int_range 1 100) in
      let* threshold = int_range 0 220 in
      return (sizes, threshold))
    (fun (sizes, threshold) ->
      let jobs = Array.of_list (List.mapi (fun i s -> (i, s)) sizes) in
      let v = Sorted_jobs.of_assoc jobs in
      let lc = Sorted_jobs.large_count v ~threshold in
      let ok = ref true in
      for i = 0 to Sorted_jobs.length v - 1 do
        let is_large = 2 * Sorted_jobs.size v i > threshold in
        if is_large <> (i < lc) then ok := false
      done;
      !ok)

(* --- core accounting ------------------------------------------------------ *)

let prop_assignment_accounting =
  Test.make ~name:"moves and cost recomputed from scratch agree" ~count medium
    (fun (inst, _) ->
      let n = Instance.n inst in
      let m = Instance.m inst in
      let arr = Array.init n (fun j -> (Instance.initial inst j + j) mod m) in
      let a = Assignment.of_array ~m arr in
      let expected_moves = ref 0 and expected_cost = ref 0 in
      for j = 0 to n - 1 do
        if arr.(j) <> Instance.initial inst j then begin
          incr expected_moves;
          expected_cost := !expected_cost + Instance.cost inst j
        end
      done;
      Assignment.moves inst a = !expected_moves
      && Assignment.relocation_cost inst a = !expected_cost
      && Array.fold_left ( + ) 0 (Assignment.loads inst a) = Instance.total_size inst)

let prop_io_roundtrip =
  Test.make ~name:"instance text roundtrip" ~count medium (fun (inst, _) ->
      match Io.instance_of_string (Io.instance_to_string inst) with
      | Error _ -> false
      | Ok inst' ->
        Instance.sizes inst = Instance.sizes inst'
        && Instance.costs inst = Instance.costs inst'
        && Instance.initial_assignment inst = Instance.initial_assignment inst'
        && Instance.m inst = Instance.m inst')

let prop_lower_bounds_ordered =
  Test.make ~name:"lower bounds dominate their parts" ~count medium
    (fun (inst, k) ->
      let best = Lower_bounds.best inst ~budget:(Budget.Moves k) in
      best >= Lower_bounds.average inst
      && best >= Lower_bounds.max_size inst
      && best >= Lower_bounds.g1 inst ~k)

let prop_g1_monotone_in_k =
  Test.make ~name:"G1 non-increasing in k" ~count medium (fun (inst, k) ->
      Lower_bounds.g1 inst ~k >= Lower_bounds.g1 inst ~k:(k + 1))

(* --- algorithm invariants -------------------------------------------------- *)

let prop_greedy_budget_and_validity =
  Test.make ~name:"greedy: valid and within budget" ~count medium
    (fun (inst, k) ->
      let a = Greedy.solve inst ~k in
      Assignment.moves inst a <= k
      && Array.fold_left ( + ) 0 (Assignment.loads inst a) = Instance.total_size inst)

let prop_m_partition_budget_and_bound =
  Test.make ~name:"m-partition: within budget, within 1.5 of lower bound proxy" ~count
    medium (fun (inst, k) ->
      let a, threshold = M_partition.solve_with_threshold inst ~k in
      let lb = Lower_bounds.best inst ~budget:(Budget.Moves k) in
      (* threshold >= lb and makespan <= 1.5 * threshold-ish; the precise
         end-to-end bound vs OPT is asserted on tiny instances below. *)
      Assignment.moves inst a <= k && threshold >= lb)

let prop_m_partition_opt_ratio_tiny =
  Test.make ~name:"m-partition: 2*makespan <= 3*OPT (tiny, vs exact)" ~count:120 tiny
    (fun (inst, k) ->
      let opt = Exact.opt_makespan_exn inst ~budget:(Budget.Moves k) in
      let a = M_partition.solve inst ~k in
      2 * Assignment.makespan inst a <= 3 * opt)

let prop_greedy_opt_ratio_tiny =
  Test.make ~name:"greedy: m*makespan <= (2m-1)*OPT (tiny, vs exact)" ~count:120 tiny
    (fun (inst, k) ->
      let opt = Exact.opt_makespan_exn inst ~budget:(Budget.Moves k) in
      let m = Instance.m inst in
      let a = Greedy.solve inst ~k in
      m * Assignment.makespan inst a <= ((2 * m) - 1) * opt)

let prop_exact_within_bounds_tiny =
  Test.make ~name:"exact: between lower bound and initial makespan" ~count:120 tiny
    (fun (inst, k) ->
      let opt = Exact.opt_makespan_exn inst ~budget:(Budget.Moves k) in
      opt >= Lower_bounds.best inst ~budget:(Budget.Moves k)
      && opt <= Instance.initial_makespan inst)

let prop_makespan_monotone_in_k_for_exact =
  Test.make ~name:"exact optimum non-increasing in k (tiny)" ~count:80 tiny
    (fun (inst, k) ->
      Exact.opt_makespan_exn inst ~budget:(Budget.Moves k)
      >= Exact.opt_makespan_exn inst ~budget:(Budget.Moves (k + 1)))

(* --- simulator policy invariants ------------------------------------------ *)

module Policy = Rebal_sim.Policy

(* Unit-cost instances with every job initially placed, the shape the
   simulators feed policies each round. *)
let sim_instance_with_k_gen ~max_n ~max_m ~max_size =
  Gen.(
    let* n = int_range 1 max_n in
    let* m = int_range 1 max_m in
    let* sizes = array_size (return n) (int_range 1 max_size) in
    let* initial = array_size (return n) (int_range 0 (m - 1)) in
    let* k = int_range 0 n in
    return (Instance.create ~sizes ~m initial, k))

let policies_under_test k =
  [
    Policy.No_rebalance;
    Policy.Greedy k;
    Policy.M_partition k;
    Policy.Local_search k;
    Policy.Full_lpt;
    Policy.Triggered { k; threshold = 1.2 };
    Policy.Failover
      { primary = Policy.M_partition k; fallback = Policy.Greedy k; deadline = 60.0 };
    Policy.Failover
      { primary = Policy.M_partition k; fallback = Policy.Greedy k; deadline = -1.0 };
  ]

let prop_policy_preserves_jobs_and_budget =
  Test.make ~name:"every policy: jobs preserved, in range, within budget" ~count:150
    (sim_instance_with_k_gen ~max_n:50 ~max_m:8 ~max_size:200)
    (fun (inst, k) ->
      let n = Instance.n inst and m = Instance.m inst in
      List.for_all
        (fun policy ->
          let a = Policy.apply policy inst in
          let arr = Assignment.to_array a in
          Array.length arr = n
          && Array.for_all (fun p -> p >= 0 && p < m) arr
          && Array.fold_left ( + ) 0 (Assignment.loads inst a) = Instance.total_size inst
          && (match Policy.budget policy with
             | None -> true
             | Some b -> Assignment.moves inst a <= b))
        (policies_under_test k))

let prop_triggered_is_identity_below_threshold =
  Test.make ~name:"triggered: identity at or below its threshold" ~count:200
    (sim_instance_with_k_gen ~max_n:40 ~max_m:6 ~max_size:100)
    (fun (inst, k) ->
      let m = Instance.m inst in
      let average = float_of_int (Instance.total_size inst) /. float_of_int m in
      let imbalance =
        if average > 0.0 then float_of_int (Instance.initial_makespan inst) /. average
        else 1.0
      in
      (* A threshold exactly at the measured imbalance must not fire
         (strict comparison), hence zero moves. *)
      let a = Policy.apply (Policy.Triggered { k; threshold = imbalance }) inst in
      Assignment.moves inst a = 0)

let () =
  Alcotest.run "rebal_properties"
    [
      ( "datastructs",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sorted_jobs_partition_identity;
            prop_sorted_jobs_large_prefix;
          ] );
      ( "core",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_assignment_accounting;
            prop_io_roundtrip;
            prop_lower_bounds_ordered;
            prop_g1_monotone_in_k;
          ] );
      ( "algorithms",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_greedy_budget_and_validity;
            prop_m_partition_budget_and_bound;
            prop_m_partition_opt_ratio_tiny;
            prop_greedy_opt_ratio_tiny;
            prop_exact_within_bounds_tiny;
            prop_makespan_monotone_in_k_for_exact;
          ] );
      ( "policies",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_policy_preserves_jobs_and_budget;
            prop_triggered_is_identity_below_threshold;
          ] );
    ]
