module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Greedy_steps = Rebal_core.Greedy_steps
module Metrics = Rebal_obs.Metrics
module Optrace = Rebal_obs.Optrace

type insertion_order =
  | As_removed
  | Ascending
  | Descending

(* Metric handles are fetched once per solve (a registry lookup each, so
   [with_registry] scoping works) and each phase adds its counts in one
   [Counter.add] — nothing allocates per heap op. *)
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
      let m = Instance.m inst in
      (* Each step's heap takes m inserts, then one minimum read and one
         re-key per job it handles (Greedy_steps). *)
      let count_heap_work jobs =
        Metrics.Counter.add (metric_heap_pops ()) (Array.length jobs);
        Metrics.Counter.add (metric_heap_pushes ()) (m + Array.length jobs)
      in
      let removed, load =
        Optrace.with_span "greedy.removal" (fun () ->
            let removed, load = Greedy_steps.remove_largest inst ~k in
            count_heap_work removed;
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
          let assign = Instance.initial_assignment inst in
          Greedy_steps.list_schedule ~size ~load removed ~assign;
          Metrics.Counter.add (metric_comparisons ()) !comparisons;
          count_heap_work removed;
          Assignment.of_array ~m assign))
