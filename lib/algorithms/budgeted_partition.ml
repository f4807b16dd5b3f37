module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Knapsack = Rebal_knapsack.Knapsack

type knapsack_mode =
  | Auto
  | Exact_dp
  | Branch_and_bound
  | Fptas of float

(* Per-processor removal plan at one makespan guess. *)
type proc_plan = {
  a_cost : int;
  b_cost : int;
  has_large : bool;
  a_removed : int list; (* job ids removed when the processor is selected *)
  b_removed : int list; (* job ids removed when not selected *)
}

let keep_max_cost ~values ~weights ~capacity = function
  | Exact_dp -> Knapsack.max_value_exact ~weights ~values ~capacity
  | Branch_and_bound -> Knapsack.max_value_branch_and_bound ~weights ~values ~capacity
  | Fptas epsilon -> Knapsack.max_value_fptas ~weights ~values ~capacity ~epsilon
  | Auto ->
    (* The DP costs O(q * capacity) time and space; beyond a few million
       cells the branch-and-bound (capacity-independent) is the better
       exact solver. *)
    if (capacity + 1) * (Array.length weights + 1) <= 2_000_000 then
      Knapsack.max_value_exact ~weights ~values ~capacity
    else Knapsack.max_value_branch_and_bound ~weights ~values ~capacity

(* The cheapest removal set bringing the given jobs' total size under
   [cap]: a knapsack keeping the most expensive jobs that fit. Returns
   (removal cost, removed ids). *)
let cheapest_removal mode jobs ~cap =
  let weights = Array.map (fun (_, s, _) -> s) jobs in
  let values = Array.map (fun (_, _, c) -> c) jobs in
  let total_cost = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 jobs in
  let sol = keep_max_cost ~values ~weights ~capacity:cap mode in
  let removed = ref [] in
  Array.iteri
    (fun i (id, _, _) -> if not sol.Knapsack.chosen.(i) then removed := id :: !removed)
    jobs;
  (total_cost - sol.Knapsack.value, !removed)

let proc_plan mode jobs ~threshold =
  let larges, smalls =
    List.partition (fun (_, s, _) -> 2 * s > threshold) (Array.to_list jobs)
  in
  let larges = Array.of_list larges and smalls = Array.of_list smalls in
  let has_large = Array.length larges > 0 in
  (* a: keep the most expensive large job, drop the rest; then the small
     load must come under threshold/2. *)
  let large_removal_cost, removed_larges =
    if not has_large then (0, [])
    else begin
      let best = ref 0 in
      Array.iteri
        (fun i (_, _, c) ->
          let _, _, cb = larges.(!best) in
          if c > cb then best := i)
        larges;
      let cost = ref 0 and removed = ref [] in
      Array.iteri
        (fun i (id, _, c) ->
          if i <> !best then begin
            cost := !cost + c;
            removed := id :: !removed
          end)
        larges;
      (!cost, !removed)
    end
  in
  let small_cost, removed_smalls = cheapest_removal mode smalls ~cap:(threshold / 2) in
  let a_cost = large_removal_cost + small_cost in
  let a_removed = removed_larges @ removed_smalls in
  (* b: cheapest removal over all jobs bringing the load under threshold.
     The kept set retains at most one large job (two would overflow the
     cap), and may retain none. *)
  let b_cost, b_removed = cheapest_removal mode jobs ~cap:threshold in
  { a_cost; b_cost; has_large; a_removed; b_removed }

let jobs_by_proc inst =
  let m = Instance.m inst in
  let buckets = Array.make m [] in
  for j = Instance.n inst - 1 downto 0 do
    let p = Instance.initial inst j in
    buckets.(p) <- (j, Instance.size inst j, Instance.cost inst j) :: buckets.(p)
  done;
  Array.map Array.of_list buckets

(* Full plan at one guess: None when structurally infeasible. *)
let full_plan mode inst ~threshold =
  let m = Instance.m inst in
  let large_total = ref 0 in
  for j = 0 to Instance.n inst - 1 do
    if 2 * Instance.size inst j > threshold then incr large_total
  done;
  if !large_total > m then None
  else begin
    let buckets = jobs_by_proc inst in
    let plans = Array.map (fun jobs -> proc_plan mode jobs ~threshold) buckets in
    let selected =
      Partition.select ~m ~count:!large_total
        ~cost:(fun p -> plans.(p).a_cost - plans.(p).b_cost)
        ~has_large:(fun p -> plans.(p).has_large)
    in
    let cost = ref 0 in
    for p = 0 to m - 1 do
      cost := !cost + (if selected.(p) then plans.(p).a_cost else plans.(p).b_cost)
    done;
    Some (plans, selected, !cost)
  end

let plan_cost ?(knapsack = Auto) inst ~threshold =
  Option.map (fun (_, _, cost) -> cost) (full_plan knapsack inst ~threshold)

let build inst plans selected ~threshold =
  let m = Instance.m inst in
  let n = Instance.n inst in
  let assign = Instance.initial_assignment inst in
  let removed = Array.make n false in
  for p = 0 to m - 1 do
    let ids = if selected.(p) then plans.(p).a_removed else plans.(p).b_removed in
    List.iter (fun j -> removed.(j) <- true) ids
  done;
  let load = Array.make m 0 in
  for j = 0 to n - 1 do
    if not removed.(j) then load.(assign.(j)) <- load.(assign.(j)) + Instance.size inst j
  done;
  (* Split the removed jobs by the threshold classification, each in
     ascending id order. Removed large jobs go one each to selected
     processors keeping no large job; the §3.2 counting argument
     guarantees enough of them (unselected processors may legitimately
     keep one large job, which only frees more slots). *)
  let removed_ids large =
    Array.of_list
      (List.filter
         (fun j -> removed.(j) && (2 * Instance.size inst j > threshold) = large)
         (List.init n Fun.id))
  in
  let frees =
    Array.of_list
      (List.filter (fun p -> selected.(p) && not plans.(p).has_large) (List.init m Fun.id))
  in
  Partition.replace inst ~assign ~load ~larges:(removed_ids true) ~frees
    ~smalls:(removed_ids false)

let guess_grid ~alpha ~lb ~ub =
  let rec next acc t =
    if t >= ub then List.rev (ub :: acc)
    else begin
      let t' = max (t + 1) (int_of_float (float_of_int t *. (1.0 +. alpha))) in
      next (t :: acc) t'
    end
  in
  next [] lb

let solve ?(alpha = 0.05) ?(knapsack = Auto) inst ~budget =
  if budget < 0 then invalid_arg "Budgeted_partition: negative budget";
  if alpha <= 0.0 then invalid_arg "Budgeted_partition: alpha must be positive";
  let lb =
    max
      ((Instance.total_size inst + Instance.m inst - 1) / Instance.m inst)
      (Instance.max_size inst)
  in
  let ub = max lb (Instance.initial_makespan inst) in
  let rec scan = function
    | [] ->
      (* Unreachable: at the initial makespan the plan removes nothing. *)
      failwith "Budgeted_partition: no affordable guess (impossible)"
    | t :: rest -> begin
      match full_plan knapsack inst ~threshold:t with
      | Some (plans, selected, cost) when cost <= budget ->
        (build inst plans selected ~threshold:t, t)
      | Some _ | None -> scan rest
    end
  in
  scan (guess_grid ~alpha ~lb ~ub)
