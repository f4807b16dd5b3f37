module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Sorted_jobs = Rebal_ds.Sorted_jobs
module Indexed_heap = Rebal_ds.Indexed_heap
module Metrics = Rebal_obs.Metrics
module Optrace = Rebal_obs.Optrace

type insertion_order =
  | As_removed
  | Ascending
  | Descending

(* Metric handles are fetched once per solve (a registry lookup each, so
   [with_registry] scoping works); the loops below bump plain local ints
   and flush them in one [Counter.add] — nothing allocates per heap op. *)
let algo_labels = [ ("algo", "greedy") ]

let metric_solves () =
  Metrics.counter ~labels:algo_labels ~help:"Solver invocations" "rebal_solver_solves_total"

let metric_heap_pops () =
  Metrics.counter ~labels:algo_labels ~help:"Heap minimum extractions/reads"
    "rebal_solver_heap_pops_total"

let metric_heap_pushes () =
  Metrics.counter ~labels:algo_labels ~help:"Heap inserts and priority updates"
    "rebal_solver_heap_pushes_total"

let metric_comparisons () =
  Metrics.counter ~labels:algo_labels ~help:"Job comparisons in ordering phases"
    "rebal_solver_comparisons_total"

(* Step 1: remove, k times, the largest job from the most-loaded
   processor. Each processor consumes its descending-sorted job view in
   order, so a cursor per processor suffices; the most-loaded processor is
   the minimum of a heap keyed by negated load. Returns the removed jobs
   in removal order (an exact-length array) and the resulting loads. *)
let removal_phase inst ~k =
  if k < 0 then invalid_arg "Greedy: negative k";
  let m = Instance.m inst in
  let views = Instance.sorted_views inst in
  let cursor = Array.make m 0 in
  let load = Array.make m 0 in
  let heap = Indexed_heap.create m in
  let pops = ref 0 and pushes = ref 0 in
  for p = 0 to m - 1 do
    load.(p) <- Sorted_jobs.total views.(p);
    Indexed_heap.set heap p (-load.(p));
    incr pushes
  done;
  let removed = Array.make (min k (Instance.n inst)) 0 in
  let r = ref 0 in
  (try
     while !r < Array.length removed do
       let p, neg = Indexed_heap.min_exn heap in
       incr pops;
       if neg = 0 then raise Exit;
       let v = views.(p) in
       removed.(!r) <- Sorted_jobs.id v cursor.(p);
       load.(p) <- load.(p) - Sorted_jobs.size v cursor.(p);
       cursor.(p) <- cursor.(p) + 1;
       Indexed_heap.set heap p (-load.(p));
       incr pushes;
       incr r
     done
   with Exit -> ());
  Metrics.Counter.add (metric_heap_pops ()) !pops;
  Metrics.Counter.add (metric_heap_pushes ()) !pushes;
  (Array.sub removed 0 !r, load)

let removal_phase_makespan inst ~k =
  let _, load = removal_phase inst ~k in
  Array.fold_left max 0 load

let solve ?(order = Descending) inst ~k =
  Metrics.Counter.inc (metric_solves ());
  Optrace.with_span "greedy.solve"
    ~attrs:
      [
        ("n", string_of_int (Instance.n inst));
        ("m", string_of_int (Instance.m inst));
        ("k", string_of_int (min k (Instance.n inst)));
      ]
    (fun () ->
      let removed, load =
        Optrace.with_span "greedy.removal" (fun () ->
            let removed, load = removal_phase inst ~k in
            Optrace.add_attr "removed" (string_of_int (Array.length removed));
            (removed, load))
      in
      Optrace.with_span "greedy.reinsert" (fun () ->
          let comparisons = ref 0 in
          let size = Instance.size inst in
          (* A stable sort by size keeps equal sizes in removal order. *)
          let by_size cmp =
            Array.stable_sort
              (fun j1 j2 ->
                incr comparisons;
                cmp (size j1) (size j2))
              removed
          in
          (match order with
          | As_removed -> ()
          | Ascending -> by_size Int.compare
          | Descending -> by_size (fun s1 s2 -> Int.compare s2 s1));
          let m = Instance.m inst in
          let heap = Indexed_heap.create m in
          let pops = ref 0 and pushes = ref 0 in
          Array.iteri
            (fun p l ->
              Indexed_heap.set heap p l;
              incr pushes)
            load;
          let assign = Instance.initial_assignment inst in
          Array.iter
            (fun job ->
              let p, l = Indexed_heap.min_exn heap in
              incr pops;
              assign.(job) <- p;
              Indexed_heap.set heap p (l + size job);
              incr pushes)
            removed;
          Metrics.Counter.add (metric_comparisons ()) !comparisons;
          Metrics.Counter.add (metric_heap_pops ()) !pops;
          Metrics.Counter.add (metric_heap_pushes ()) !pushes;
          Assignment.of_array ~m assign))
