type t = {
  sizes : int array;
  costs : int array;
  m : int;
  initial : int array;
}

let create ?costs ~sizes ~m initial =
  let n = Array.length sizes in
  let costs =
    match costs with
    | Some c -> c
    | None -> Array.make n 1
  in
  if m < 1 then invalid_arg "Instance.create: need at least one processor";
  if Array.length initial <> n then
    invalid_arg "Instance.create: sizes and initial lengths differ";
  if Array.length costs <> n then
    invalid_arg "Instance.create: sizes and costs lengths differ";
  Array.iter
    (fun s -> if s <= 0 then invalid_arg "Instance.create: job size must be positive")
    sizes;
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Instance.create: negative relocation cost")
    costs;
  Array.iter
    (fun p ->
      if p < 0 || p >= m then
        invalid_arg "Instance.create: initial processor out of range")
    initial;
  { sizes = Array.copy sizes; costs = Array.copy costs; m; initial = Array.copy initial }

let n t = Array.length t.sizes
let m t = t.m
let size t j = t.sizes.(j)
let cost t j = t.costs.(j)
let initial t j = t.initial.(j)
let sizes t = Array.copy t.sizes
let costs t = Array.copy t.costs
let initial_assignment t = Array.copy t.initial
let total_size t = Array.fold_left ( + ) 0 t.sizes
let max_size t = Array.fold_left max 0 t.sizes
let unit_cost t = Array.for_all (fun c -> c = 1) t.costs

let initial_loads t =
  let loads = Array.make t.m 0 in
  Array.iteri (fun j p -> loads.(p) <- loads.(p) + t.sizes.(j)) t.initial;
  loads

let initial_makespan t = Array.fold_left max 0 (initial_loads t)

let jobs_on t p =
  let jobs = ref [] in
  for j = Array.length t.sizes - 1 downto 0 do
    if t.initial.(j) = p then jobs := (j, t.sizes.(j)) :: !jobs
  done;
  Array.of_list !jobs

(* One counting pass buckets the job ids by processor, ascending within
   each bucket; each bucket array becomes its view's id array. *)
let sorted_views t =
  let count = Array.make t.m 0 in
  Array.iter (fun p -> count.(p) <- count.(p) + 1) t.initial;
  let buckets = Array.map (fun c -> Array.make c 0) count in
  let fill = Array.make t.m 0 in
  Array.iteri
    (fun j p ->
      buckets.(p).(fill.(p)) <- j;
      fill.(p) <- fill.(p) + 1)
    t.initial;
  Array.map (Rebal_ds.Sorted_jobs.of_ids ~sizes:t.sizes) buckets
