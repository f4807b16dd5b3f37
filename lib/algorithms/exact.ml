module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Budget = Rebal_core.Budget

exception Node_limit

let solve ?(node_limit = 20_000_000) inst ~budget =
  let n = Instance.n inst in
  let m = Instance.m inst in
  let limit = Budget.limit budget in
  let move_cost j =
    match budget with
    | Budget.Moves _ -> 1
    | Budget.Cost _ -> Instance.cost inst j
  in
  let order = Array.init n Fun.id in
  Rebal_core.Greedy_steps.by_size_descending ~size:(Instance.size inst) order;
  let avg_lb = (Instance.total_size inst + m - 1) / m in
  (* Incumbent: the initial assignment is always within budget; GREEDY
     usually improves on it when the budget is a move count. *)
  let best_assign = ref (Instance.initial_assignment inst) in
  let best = ref (Instance.initial_makespan inst) in
  (match budget with
  | Budget.Moves k ->
    let greedy = Greedy.solve inst ~k in
    let ms = Assignment.makespan inst greedy in
    if ms < !best then begin
      best := ms;
      best_assign := Assignment.to_array greedy
    end
  | Budget.Cost _ -> ());
  let load = Array.make m 0 in
  (* remaining_init.(p) = number of still-unplaced jobs whose initial
     processor is p. Two processors with equal load are interchangeable
     for the rest of the search only when neither is the initial home of
     any remaining job; the symmetry cut below dedupes only those. *)
  let remaining_init = Array.make m 0 in
  for j = 0 to n - 1 do
    remaining_init.(Instance.initial inst j) <- remaining_init.(Instance.initial inst j) + 1
  done;
  let nodes = ref 0 in
  let cur = Array.make n (-1) in
  let rec dfs t spent cur_max =
    incr nodes;
    if !nodes > node_limit then raise Node_limit;
    if cur_max < !best then begin
      if t = n then begin
        best := cur_max;
        Array.blit cur 0 !best_assign 0 n
      end
      else begin
        let j = order.(t) in
        let s = Instance.size inst j in
        let init_p = Instance.initial inst j in
        remaining_init.(init_p) <- remaining_init.(init_p) - 1;
        (* Lower bound: job j lands somewhere, so the final makespan is at
           least min-load + s; also at least the average load. *)
        let min_load = Array.fold_left min max_int load in
        let lb = max avg_lb (max cur_max (min_load + s)) in
        if lb < !best then begin
          let try_proc p cost =
            if spent + cost <= limit && load.(p) + s < !best then begin
              load.(p) <- load.(p) + s;
              cur.(j) <- p;
              dfs (t + 1) (spent + cost) (max cur_max load.(p));
              cur.(j) <- -1;
              load.(p) <- load.(p) - s
            end
          in
          try_proc init_p 0;
          (* Non-initial processors in ascending (load, index) order; a
             fresh copy, because recursive calls re-sort their own. *)
          let procs = Array.init m (fun p -> p) in
          Array.sort
            (fun p1 p2 ->
              if load.(p1) <> load.(p2) then compare load.(p1) load.(p2)
              else compare p1 p2)
            procs;
          let last_anon_load = ref min_int in
          Array.iter
            (fun p ->
              if p <> init_p then begin
                if remaining_init.(p) > 0 then try_proc p (move_cost j)
                else if load.(p) <> !last_anon_load then begin
                  last_anon_load := load.(p);
                  try_proc p (move_cost j)
                end
              end)
            procs
        end;
        remaining_init.(init_p) <- remaining_init.(init_p) + 1
      end
    end
  in
  match dfs 0 0 0 with
  | () -> Some (Assignment.of_array ~m !best_assign)
  | exception Node_limit -> None

let opt_makespan ?node_limit inst ~budget =
  Option.map (Assignment.makespan inst) (solve ?node_limit inst ~budget)

let opt_makespan_exn ?node_limit inst ~budget =
  match opt_makespan ?node_limit inst ~budget with
  | Some v -> v
  | None -> failwith "Exact.opt_makespan_exn: node limit exceeded"

let brute_force inst ~budget =
  let n = Instance.n inst in
  let m = Instance.m inst in
  let states = Float.of_int m ** Float.of_int n in
  if states > 1e7 then invalid_arg "Exact.brute_force: too many assignments";
  let limit = Budget.limit budget in
  let move_cost j =
    match budget with
    | Budget.Moves _ -> 1
    | Budget.Cost _ -> Instance.cost inst j
  in
  let cur = Array.make n 0 in
  let load = Array.make m 0 in
  let best = ref max_int in
  let best_spent = ref max_int in
  let best_assign = ref (Instance.initial_assignment inst) in
  let rec enum j spent =
    if spent <= limit then begin
      if j = n then begin
        let makespan = Array.fold_left max 0 load in
        if makespan < !best || (makespan = !best && spent < !best_spent) then begin
          best := makespan;
          best_spent := spent;
          best_assign := Array.copy cur
        end
      end
      else
        for p = 0 to m - 1 do
          let cost = if p = Instance.initial inst j then 0 else move_cost j in
          cur.(j) <- p;
          load.(p) <- load.(p) + Instance.size inst j;
          enum (j + 1) (spent + cost);
          load.(p) <- load.(p) - Instance.size inst j
        done
    end
  in
  enum 0 0;
  Assignment.of_array ~m !best_assign
