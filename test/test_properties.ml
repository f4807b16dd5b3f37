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
      let sizes = Array.of_list sizes in
      let v = Sorted_jobs.of_ids ~sizes (Array.init (Array.length sizes) Fun.id) in
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
      let sizes = Array.of_list sizes in
      let v = Sorted_jobs.of_ids ~sizes (Array.init (Array.length sizes) Fun.id) in
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

(* --- the batch solver over int arrays -------------------------------------- *)

module Indexed_heap = Rebal_ds.Indexed_heap

(* The per-processor views as [Instance.sorted_views] built them: (job,
   size) lists bucketed by processor, each sorted by size desc then job,
   as [(job, size)] arrays. *)
let list_sorted_views inst =
  let buckets = Array.make (Instance.m inst) [] in
  for j = Instance.n inst - 1 downto 0 do
    let p = Instance.initial inst j in
    buckets.(p) <- (j, Instance.size inst j) :: buckets.(p)
  done;
  Array.map
    (fun jobs ->
      Array.of_list
        (List.sort (fun (j1, s1) (j2, s2) -> if s1 <> s2 then compare s2 s1 else compare j1 j2) jobs))
    buckets

(* [Greedy.solve] as it was over (job, size) tuple lists with a list
   stable sort: the reference its int-array form must match exactly. *)
let list_greedy ~order inst ~k =
  let m = Instance.m inst in
  let views = list_sorted_views inst in
  let cursor = Array.make m 0 and load = Array.make m 0 in
  let heap = Indexed_heap.create m in
  for p = 0 to m - 1 do
    load.(p) <- Array.fold_left (fun acc (_, s) -> acc + s) 0 views.(p);
    Indexed_heap.set heap p (-load.(p))
  done;
  let removed = ref [] in
  (try
     for _ = 1 to min k (Instance.n inst) do
       let p, neg = Indexed_heap.min_exn heap in
       if neg = 0 then raise Exit;
       let job, size = views.(p).(cursor.(p)) in
       cursor.(p) <- cursor.(p) + 1;
       load.(p) <- load.(p) - size;
       Indexed_heap.set heap p (-load.(p));
       removed := (job, size) :: !removed
     done
   with Exit -> ());
  let removed = List.rev !removed in
  let removed =
    match order with
    | Greedy.As_removed -> removed
    | Greedy.Ascending -> List.stable_sort (fun (_, s1) (_, s2) -> compare s1 s2) removed
    | Greedy.Descending -> List.stable_sort (fun (_, s1) (_, s2) -> compare s2 s1) removed
  in
  let heap = Indexed_heap.create m in
  Array.iteri (fun p l -> Indexed_heap.set heap p l) load;
  let assign = Instance.initial_assignment inst in
  List.iter
    (fun (job, size) ->
      let p, l = Indexed_heap.min_exn heap in
      assign.(job) <- p;
      Indexed_heap.set heap p (l + size))
    removed;
  assign

(* Few distinct sizes, so equal sizes (the tie-breaks) are common. *)
let tied_instance_gen =
  Gen.(
    let* n = int_range 0 80 in
    let* m = int_range 1 8 in
    let* sizes = array_size (return n) (int_range 1 6) in
    let* initial = array_size (return n) (int_range 0 (m - 1)) in
    return (Instance.create ~sizes ~m initial))

let budgets inst =
  let n = Instance.n inst in
  [ 0; 1; n / 2; n; n + 5 ]

let orders = [ Greedy.As_removed; Greedy.Ascending; Greedy.Descending ]

(* A view holds exactly the reference's jobs, in order, with its prefix
   sums. *)
let same_view v jobs =
  let q = Array.length jobs in
  Sorted_jobs.length v = q
  && Array.for_all Fun.id
       (Array.mapi (fun i (j, s) -> Sorted_jobs.id v i = j && Sorted_jobs.size v i = s) jobs)
  && Sorted_jobs.prefix v 0 = 0
  && Array.for_all Fun.id
       (Array.mapi
          (fun i (_, s) -> Sorted_jobs.prefix v (i + 1) = Sorted_jobs.prefix v i + s)
          jobs)

let prop_sorted_views_unchanged =
  Test.make ~name:"sorted_views = the (job, size) list build" ~count:300 tied_instance_gen
    (fun inst ->
      let a = Instance.sorted_views inst and b = list_sorted_views inst in
      Array.length a = Array.length b && Array.for_all2 same_view a b)

let prop_greedy_unchanged =
  Test.make ~name:"greedy: int arrays = tuple lists, every order and budget" ~count:300
    tied_instance_gen (fun inst ->
      List.for_all
        (fun order ->
          List.for_all
            (fun k ->
              Assignment.to_array (Greedy.solve ~order inst ~k) = list_greedy ~order inst ~k)
            (budgets inst))
        orders)

(* The fact the engine's slot-order check instance rests on. *)
let prop_greedy_makespan_permutation_invariant =
  Test.make ~name:"greedy: makespan invariant under job permutation" ~count:300
    Gen.(pair tied_instance_gen (list_size (return 80) (int_bound 1_000_000)))
    (fun (inst, keys) ->
      let n = Instance.n inst in
      let keys = Array.of_list keys in
      let perm = Array.init n Fun.id in
      Array.stable_sort (fun a b -> compare keys.(a) keys.(b)) perm;
      let permuted =
        Instance.create
          ~sizes:(Array.map (Instance.size inst) perm)
          ~m:(Instance.m inst)
          (Array.map (Instance.initial inst) perm)
      in
      List.for_all
        (fun order ->
          List.for_all
            (fun k ->
              Assignment.makespan inst (Greedy.solve ~order inst ~k)
              = Assignment.makespan permuted (Greedy.solve ~order permuted ~k))
            (budgets inst))
        orders)

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
      ( "batch",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sorted_views_unchanged;
            prop_greedy_unchanged;
            prop_greedy_makespan_permutation_invariant;
          ] );
      ( "policies",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_policy_preserves_jobs_and_budget;
            prop_triggered_is_identity_below_threshold;
          ] );
    ]
