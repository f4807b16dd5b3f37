module Sorted_jobs = Rebal_ds.Sorted_jobs
module Indexed_heap = Rebal_ds.Indexed_heap

(* Each processor gives up its descending-sorted jobs in order, so one
   cursor per processor suffices; the most-loaded processor is the
   minimum of a heap keyed by negated load. The job sizes are positive,
   so while fewer than [n] jobs are gone the most-loaded processor still
   holds one. *)
let remove_largest inst ~k =
  if k < 0 then invalid_arg "Greedy_steps.remove_largest: negative k";
  let m = Instance.m inst in
  let views = Instance.sorted_views inst in
  let cursor = Array.make m 0 in
  let load = Array.make m 0 in
  let heap = Indexed_heap.create m in
  for p = 0 to m - 1 do
    load.(p) <- Sorted_jobs.total views.(p);
    Indexed_heap.set heap p (-load.(p))
  done;
  let removed = Array.make (min k (Instance.n inst)) 0 in
  for r = 0 to Array.length removed - 1 do
    let p = Indexed_heap.min_key_exn heap in
    let v = views.(p) in
    removed.(r) <- Sorted_jobs.id v cursor.(p);
    load.(p) <- load.(p) - Sorted_jobs.size v cursor.(p);
    cursor.(p) <- cursor.(p) + 1;
    Indexed_heap.set heap p (-load.(p))
  done;
  (removed, load)

let by_size_descending ~size jobs =
  Array.sort
    (fun j1 j2 ->
      let s1 = size j1 and s2 = size j2 in
      if s1 <> s2 then Int.compare s2 s1 else Int.compare j1 j2)
    jobs

let list_schedule ~size ~load jobs ~assign =
  let heap = Indexed_heap.create (Array.length load) in
  Array.iteri (fun p l -> Indexed_heap.set heap p l) load;
  Array.iter
    (fun j ->
      let p = Indexed_heap.min_key_exn heap in
      assign.(j) <- p;
      Indexed_heap.set heap p (Indexed_heap.min_prio_exn heap + size j))
    jobs

let lpt ~size ~n ~m =
  let order = Array.init n Fun.id in
  by_size_descending ~size order;
  let assign = Array.make n 0 in
  list_schedule ~size ~load:(Array.make m 0) order ~assign;
  assign
