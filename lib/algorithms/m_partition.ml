module Instance = Rebal_core.Instance
module Budget = Rebal_core.Budget
module Lower_bounds = Rebal_core.Lower_bounds
module Sorted_jobs = Rebal_ds.Sorted_jobs
module Metrics = Rebal_obs.Metrics
module Optrace = Rebal_obs.Optrace

let algo_labels = [ ("algo", "m-partition") ]

let metric_solves () =
  Metrics.counter ~labels:algo_labels ~help:"Solver invocations" "rebal_solver_solves_total"

let metric_candidates () =
  Metrics.counter ~labels:algo_labels ~help:"Candidate thresholds enumerated"
    "rebal_mpartition_candidates_total"

let metric_tried () =
  Metrics.counter ~labels:algo_labels ~help:"Thresholds for which a plan was evaluated"
    "rebal_mpartition_thresholds_tried_total"

let metric_scan_steps () =
  Metrics.counter ~labels:algo_labels
    ~help:"Threshold-scan iterations (evaluated plus skipped below the lower bound)"
    "rebal_mpartition_scan_iterations_total"

let candidate_thresholds inst =
  let views = Instance.sorted_views inst in
  let acc = ref [] in
  for j = 0 to Instance.n inst - 1 do
    acc := (2 * Instance.size inst j) :: !acc
  done;
  Array.iter
    (fun v ->
      for l = 0 to Sorted_jobs.length v do
        let s = Sorted_jobs.suffix v l in
        acc := s :: (2 * s) :: !acc
      done)
    views;
  let arr = Array.of_list !acc in
  Array.sort compare arr;
  (* Deduplicate in place. *)
  let out = ref [] in
  Array.iter
    (fun t ->
      match !out with
      | last :: _ when last = t -> ()
      | _ -> out := t :: !out)
    arr;
  Array.of_list (List.rev !out)

type scan_stats = {
  candidates : int;
  tried : int;
  accepted : int;
  lower_bound : int;
}

let solve_with_stats inst ~k =
  if k < 0 then invalid_arg "M_partition: negative k";
  Metrics.Counter.inc (metric_solves ());
  Optrace.with_span "m_partition.solve"
    ~attrs:
      [
        ("n", string_of_int (Instance.n inst));
        ("m", string_of_int (Instance.m inst));
        ("k", string_of_int (min k (Instance.n inst)));
      ]
  @@ fun () ->
  let views = Instance.sorted_views inst in
  let lb = Lower_bounds.best inst ~budget:(Budget.Moves k) in
  let candidates =
    Optrace.with_span "m_partition.candidates" (fun () ->
        let cs = candidate_thresholds inst in
        Optrace.add_attr "candidates" (string_of_int (Array.length cs));
        cs)
  in
  Metrics.Counter.add (metric_candidates ()) (Array.length candidates);
  let tried = ref 0 and scan_steps = ref 0 in
  let feasible t =
    incr tried;
    match Partition.plan inst ~views ~threshold:t with
    | Some plan when plan.Partition.moves <= k -> Some plan
    | Some _ | None -> None
  in
  let finish plan t =
    Metrics.Counter.add (metric_tried ()) !tried;
    Metrics.Counter.add (metric_scan_steps ()) !scan_steps;
    Optrace.add_attr "tried" (string_of_int !tried);
    Optrace.add_attr "accepted" (string_of_int t);
    ( Partition.build inst ~views plan,
      { candidates = Array.length candidates; tried = !tried; accepted = t; lower_bound = lb } )
  in
  Optrace.with_span "m_partition.scan" @@ fun () ->
  (* Try the lower bound itself first (it need not be a candidate value),
     then every candidate above it in increasing order. The scan always
     terminates: at the initial makespan — which is a suffix sum, hence a
     candidate — the plan moves nothing. *)
  let rec scan i =
    if i >= Array.length candidates then
      failwith "M_partition: no feasible threshold (impossible)"
    else begin
      let t = candidates.(i) in
      incr scan_steps;
      if t < lb then scan (i + 1)
      else begin
        match feasible t with
        | Some plan -> finish plan t
        | None -> scan (i + 1)
      end
    end
  in
  match feasible lb with
  | Some plan -> finish plan lb
  | None -> scan 0

let solve_with_threshold inst ~k =
  let assignment, stats = solve_with_stats inst ~k in
  (assignment, stats.accepted)

let solve inst ~k = fst (solve_with_threshold inst ~k)
