module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Sorted_jobs = Rebal_ds.Sorted_jobs
module Greedy_steps = Rebal_core.Greedy_steps

type plan = {
  threshold : int;
  moves : int;
  large_total : int;
  large_extra : int;
  selected : bool array;
  a : int array;
  b : int array;
}

(* Per-processor quantities for a guess [t], all on the descending-sorted
   view. After step 1 the processor keeps its smallest large job (the one
   at position lc-1) plus all small jobs (positions lc..). *)

let large_counts views ~threshold =
  Array.map (fun v -> Sorted_jobs.large_count v ~threshold) views

let a_value v ~lc ~threshold =
  (* Small jobs remaining must total at most t/2: 2*total <= t is exactly
     total <= floor(t/2) for integers. *)
  Sorted_jobs.min_removals_to_cap v ~from_:lc ~cap:(threshold / 2)

let b_value v ~lc ~threshold =
  let small_total = Sorted_jobs.suffix v lc in
  let kept_total =
    small_total + (if lc >= 1 then Sorted_jobs.size v (lc - 1) else 0)
  in
  if kept_total <= threshold then 0
  else if lc >= 1 then
    (* The kept large job is the largest kept job, so the count-minimal
       removal takes it first, then small jobs largest-first. *)
    1 + Sorted_jobs.min_removals_to_cap v ~from_:lc ~cap:threshold
  else Sorted_jobs.min_removals_to_cap v ~from_:0 ~cap:threshold

(* Step 2 ((c) in partition.mli): the [count] processors of smallest
   [cost]; ties prefer processors holding a large job (this tie-break is
   what guarantees every unselected processor with a large job has
   b >= 1), then the smaller index. *)
let select ~m ~count ~cost ~has_large =
  let order = Array.init m Fun.id in
  Array.sort
    (fun p1 p2 ->
      let c1 = cost p1 and c2 = cost p2 in
      if c1 <> c2 then Int.compare c1 c2
      else
        let l1 = has_large p1 and l2 = has_large p2 in
        if l1 <> l2 then Bool.compare l2 l1 else Int.compare p1 p2)
    order;
  let selected = Array.make m false in
  for i = 0 to count - 1 do
    selected.(order.(i)) <- true
  done;
  selected

let plan inst ~views ~threshold =
  if threshold < 0 then invalid_arg "Partition.plan: negative threshold";
  let m = Instance.m inst in
  let lc = large_counts views ~threshold in
  let large_total = Array.fold_left ( + ) 0 lc in
  if large_total > m then None
  else begin
    let with_large = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 lc in
    let large_extra = large_total - with_large in
    let a = Array.make m 0 in
    let b = Array.make m 0 in
    for p = 0 to m - 1 do
      a.(p) <- a_value views.(p) ~lc:lc.(p) ~threshold;
      b.(p) <- b_value views.(p) ~lc:lc.(p) ~threshold
    done;
    let selected =
      select ~m ~count:large_total
        ~cost:(fun p -> a.(p) - b.(p))
        ~has_large:(fun p -> lc.(p) > 0)
    in
    (* Step-1 removals contribute L_E; selected processors then pay a,
       unselected processors pay b. *)
    let moves = ref large_extra in
    for p = 0 to m - 1 do
      if selected.(p) then moves := !moves + a.(p) else moves := !moves + b.(p)
    done;
    Some { threshold; moves = !moves; large_total; large_extra; selected; a; b }
  end

(* Steps 5 and 6 ((e) in partition.mli): removed large job [larges.(i)]
   goes to processor [frees.(i)]; then the removed small jobs, largest
   first, are list scheduled. Any small-job order satisfies Theorem 2;
   largest first is simply the best practical choice. *)
let replace inst ~assign ~load ~larges ~frees ~smalls =
  if Array.length larges > Array.length frees then
    invalid_arg "Partition.replace: not enough large-free processors";
  let size = Instance.size inst in
  Array.iteri
    (fun i j ->
      let p = frees.(i) in
      assign.(j) <- p;
      load.(p) <- load.(p) + size j)
    larges;
  Greedy_steps.by_size_descending ~size smalls;
  Greedy_steps.list_schedule ~size ~load smalls ~assign;
  Assignment.of_array ~m:(Instance.m inst) assign

let build inst ~views { threshold; moves; selected; a; b; _ } =
  let m = Instance.m inst in
  let lc = large_counts views ~threshold in
  let assign = Instance.initial_assignment inst in
  let load = Array.make m 0 in
  (* The plan's [moves] removals, split by kind; large jobs are kept in
     the order they are found. *)
  let larges = Array.make moves 0 and nl = ref 0 in
  let smalls = Array.make moves 0 and ns = ref 0 in
  for p = 0 to m - 1 do
    let v = views.(p) and l = lc.(p) in
    let gone = ref 0 in
    let take jobs count i =
      jobs.(!count) <- Sorted_jobs.id v i;
      incr count;
      gone := !gone + Sorted_jobs.size v i
    in
    (* Step 1: all large jobs but the smallest one leave processor p. *)
    for i = 0 to l - 2 do
      take larges nl i
    done;
    if selected.(p) then
      (* Step 3: the a.(p) largest small jobs leave. *)
      for i = l to l + a.(p) - 1 do
        take smalls ns i
      done
    else if l >= 1 then begin
      (* Step 4 on a processor that still holds its one large job: the
         large job must leave (b >= 1 is guaranteed by the tie-break; see
         Partition.mli) together with the b-1 largest small jobs. *)
      assert (b.(p) >= 1);
      take larges nl (l - 1);
      for i = l to l + b.(p) - 2 do
        take smalls ns i
      done
    end
    else
      (* Step 4, no large job: the b.(p) largest jobs leave. *)
      for i = 0 to b.(p) - 1 do
        take smalls ns i
      done;
    load.(p) <- Sorted_jobs.total v - !gone
  done;
  (* Step 5 gives every removed large job a distinct selected processor
     that has no large job, pairing the last large job found with the
     first such processor. The counting argument in §3 of the paper makes
     the two the same length. *)
  let larges = Array.init !nl (fun i -> larges.(!nl - 1 - i)) in
  let frees =
    Array.of_list (List.filter (fun p -> selected.(p) && lc.(p) = 0) (List.init m Fun.id))
  in
  if Array.length larges <> Array.length frees then
    invalid_arg "Partition.build: large job / large-free processor mismatch";
  replace inst ~assign ~load ~larges ~frees ~smalls:(Array.sub smalls 0 !ns)

let solve inst ~opt_guess =
  let views = Instance.sorted_views inst in
  match plan inst ~views ~threshold:opt_guess with
  | None -> None
  | Some p -> Some (build inst ~views p)
