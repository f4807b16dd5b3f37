module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Budget = Rebal_core.Budget

type stats = {
  accepted_guess : int;
  dp_cost : int;
  dp_states : int;
  classes : int;
}

let inf = max_int / 4

(* Everything the DP needs about one processor, precomputed per guess. *)
type proc_data = {
  x : int array; (* current large-job count per class *)
  large_ids : int array array; (* per class, ids sorted by ascending cost *)
  large_cost_prefix : int array array; (* removal cost of the r cheapest *)
  small_load : int;
  small_ids : int array; (* ascending cost density *)
  small_size_prefix : int array; (* total size of the first r small ids *)
  small_cost_prefix : int array;
}

let round_up v g = (v + g - 1) / g * g

let prepare inst ~cost_of ~guess ~delta =
  let g = max 1 (int_of_float (ceil (delta *. float_of_int guess))) in
  (* Geometric size classes covering (g, max_size]. *)
  let smax = Instance.max_size inst in
  let reps = ref [] in
  let r = ref (float_of_int g) in
  while int_of_float (ceil !r) < smax do
    r := !r *. (1.0 +. delta);
    reps := int_of_float (ceil !r) :: !reps
  done;
  let reps = Array.of_list (List.rev !reps) in
  let nclasses = Array.length reps in
  let class_of size =
    (* smallest class whose representative covers [size] *)
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if reps.(mid) >= size then search lo mid else search (mid + 1) hi
      end
    in
    search 0 (nclasses - 1)
  in
  let m = Instance.m inst in
  let large_bucket = Array.init m (fun _ -> Array.make nclasses []) in
  let small_bucket = Array.make m [] in
  for j = Instance.n inst - 1 downto 0 do
    let p = Instance.initial inst j in
    let s = Instance.size inst j in
    if s > g then begin
      let c = class_of s in
      large_bucket.(p).(c) <- j :: large_bucket.(p).(c)
    end
    else small_bucket.(p) <- j :: small_bucket.(p)
  done;
  let procs =
    Array.init m (fun p ->
        let per_class = large_bucket.(p) in
        let large_ids =
          Array.map
            (fun ids ->
              let arr = Array.of_list ids in
              Array.sort
                (fun j1 j2 ->
                  let c1 = cost_of j1 and c2 = cost_of j2 in
                  if c1 <> c2 then compare c1 c2 else compare j1 j2)
                arr;
              arr)
            per_class
        in
        let large_cost_prefix =
          Array.map
            (fun arr ->
              let pre = Array.make (Array.length arr + 1) 0 in
              Array.iteri (fun i j -> pre.(i + 1) <- pre.(i) + cost_of j) arr;
              pre)
            large_ids
        in
        let smalls = Array.of_list small_bucket.(p) in
        (* Increasing cost density: cheapest load-shedding first. *)
        Array.sort
          (fun j1 j2 ->
            let d1 = float_of_int (cost_of j1) /. float_of_int (Instance.size inst j1) in
            let d2 = float_of_int (cost_of j2) /. float_of_int (Instance.size inst j2) in
            if d1 <> d2 then compare d1 d2 else compare j1 j2)
          smalls;
        let q = Array.length smalls in
        let small_size_prefix = Array.make (q + 1) 0 in
        let small_cost_prefix = Array.make (q + 1) 0 in
        Array.iteri
          (fun i j ->
            small_size_prefix.(i + 1) <- small_size_prefix.(i) + Instance.size inst j;
            small_cost_prefix.(i + 1) <- small_cost_prefix.(i) + cost_of j)
          smalls;
        {
          x = Array.map Array.length large_ids;
          large_ids;
          large_cost_prefix;
          small_load = small_size_prefix.(q);
          small_ids = smalls;
          small_size_prefix;
          small_cost_prefix;
        })
  in
  (g, reps, procs)

(* Small-job removal on processor p down to [target + g] actual load:
   discard the cheapest-density prefix. Returns (cost, removed count). *)
let small_removal pd ~target ~g =
  if pd.small_load <= target + g then (0, 0)
  else begin
    let q = Array.length pd.small_ids in
    (* least r with small_load - prefix(r) <= target + g *)
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if pd.small_load - pd.small_size_prefix.(mid) <= target + g then search lo mid
        else search (mid + 1) hi
      end
    in
    let r = search 0 q in
    (pd.small_cost_prefix.(r), r)
  end

let solve_guess inst ~cost_of ~guess ~delta =
  let m = Instance.m inst in
  let g, reps, procs = prepare inst ~cost_of ~guess ~delta in
  let nclasses = Array.length reps in
  let w = int_of_float (ceil ((1.0 +. delta) *. float_of_int guess)) + (3 * g) in
  let total_small = Array.fold_left (fun acc pd -> acc + pd.small_load) 0 procs in
  let v_total = round_up total_small g + (m * g) in
  let counts0 = Array.make nclasses 0 in
  Array.iter (fun pd -> Array.iteri (fun c x -> counts0.(c) <- counts0.(c) + x) pd.x) procs;
  let memo : (int * int * int list, int) Hashtbl.t = Hashtbl.create 1024 in
  let choice : (int * int * int list, int array * int) Hashtbl.t = Hashtbl.create 1024 in
  let key p v counts = (p, v, Array.to_list counts) in
  (* Minimum cost to configure processors p..m-1, consuming exactly
     [counts] large jobs per class and exactly [v] of small allowance. *)
  let rec f p counts v =
    if p = m then
      if v = 0 && Array.for_all (fun c -> c = 0) counts then 0 else inf
    else begin
      let k = key p v counts in
      match Hashtbl.find_opt memo k with
      | Some c -> c
      | None ->
        let pd = procs.(p) in
        let best = ref inf in
        let best_choice = ref None in
        let x' = Array.make nclasses 0 in
        (* DFS over per-class kept/received counts, with running rounded
           large load; then the small allowance V'. *)
        let rec enum c load large_cost =
          if load > w then ()
          else if c = nclasses then begin
            let vmax = min v (w - load) in
            let v' = ref 0 in
            while !v' <= vmax do
              let small_cost, _ = small_removal pd ~target:!v' ~g in
              let here = large_cost + small_cost in
              if here < !best then begin
                let rest = f (p + 1) (Array.map2 ( - ) counts x') (v - !v') in
                if here + rest < !best then begin
                  best := here + rest;
                  best_choice := Some (Array.copy x', !v')
                end
              end;
              v' := !v' + g
            done
          end
          else begin
            let cap = counts.(c) in
            for take = 0 to cap do
              x'.(c) <- take;
              let removal =
                if take >= pd.x.(c) then 0
                else pd.large_cost_prefix.(c).(pd.x.(c) - take)
              in
              enum (c + 1) (load + (take * reps.(c))) (large_cost + removal)
            done;
            x'.(c) <- 0
          end
        in
        enum 0 0 0;
        Hashtbl.replace memo k !best;
        (match !best_choice with
        | Some ch -> Hashtbl.replace choice k ch
        | None -> ());
        !best
    end
  in
  let total_cost = f 0 counts0 v_total in
  if total_cost >= inf then None
  else begin
    (* Reconstruct the per-processor targets along the optimal path. *)
    let targets = Array.make m ([||], 0) in
    let counts = Array.copy counts0 in
    let v = ref v_total in
    for p = 0 to m - 1 do
      let x', v' = Hashtbl.find choice (key p !v counts) in
      targets.(p) <- (x', v');
      Array.iteri (fun c t -> counts.(c) <- counts.(c) - t) x';
      v := !v - v'
    done;
    (* Build the assignment: per processor keep the expensive larges up to
       the target count (pool the rest) and shed the cheap-density small
       prefix (pool them); then fill large deficits from the class pools
       and place pooled smalls on processors with spare small allowance. *)
    let assign = Instance.initial_assignment inst in
    let large_pool = Array.make nclasses [] in
    let small_pool = ref [] in
    let small_load = Array.make m 0 in
    for p = 0 to m - 1 do
      let pd = procs.(p) in
      let x', v' = targets.(p) in
      for c = 0 to nclasses - 1 do
        let keep = min x'.(c) pd.x.(c) in
        (* ids are sorted by ascending cost: pool the cheapest surplus. *)
        for i = 0 to pd.x.(c) - keep - 1 do
          large_pool.(c) <- pd.large_ids.(c).(i) :: large_pool.(c)
        done
      done;
      let _, shed = small_removal pd ~target:v' ~g in
      for i = 0 to shed - 1 do
        small_pool := pd.small_ids.(i) :: !small_pool
      done;
      small_load.(p) <- pd.small_load - pd.small_size_prefix.(shed)
    done;
    for p = 0 to m - 1 do
      let pd = procs.(p) in
      let x', _ = targets.(p) in
      for c = 0 to nclasses - 1 do
        for _ = 1 to x'.(c) - pd.x.(c) do
          match large_pool.(c) with
          | j :: rest ->
            large_pool.(c) <- rest;
            assign.(j) <- p
          | [] -> failwith "Ptas: large pool exhausted (bug)"
        done
      done
    done;
    (* Pooled small jobs: any processor whose small load is strictly below
       its allowance can take one; a strict-majorization argument
       guarantees one always exists (sum of allowances exceeds the total
       small load). *)
    let place_small j =
      let s = Instance.size inst j in
      let best = ref (-1) in
      for p = 0 to m - 1 do
        let _, v' = targets.(p) in
        if small_load.(p) < v'
           && (!best < 0 || v' - small_load.(p) > snd targets.(!best) - small_load.(!best))
        then best := p
      done;
      if !best < 0 then failwith "Ptas: no processor below its small allowance (bug)";
      assign.(j) <- !best;
      small_load.(!best) <- small_load.(!best) + s
    in
    let pool = Array.of_list !small_pool in
    Rebal_core.Greedy_steps.by_size_descending ~size:(Instance.size inst) pool;
    Array.iter place_small pool;
    Some (Assignment.of_array ~m assign, total_cost, Hashtbl.length memo, nclasses)
  end

let solve_with_stats ?(delta = 0.2) ?(guess_cap = 200) inst ~budget =
  if delta <= 0.0 || delta > 1.0 then invalid_arg "Ptas: delta must be in (0, 1]";
  let cost_of =
    match budget with
    | Budget.Moves _ -> fun _ -> 1
    | Budget.Cost _ -> Instance.cost inst
  in
  let limit = Budget.limit budget in
  let m = Instance.m inst in
  let lb = max ((Instance.total_size inst + m - 1) / m) (Instance.max_size inst) in
  let rec scan guess tries =
    if tries > guess_cap then failwith "Ptas: no feasible guess within cap"
    else begin
      match solve_guess inst ~cost_of ~guess ~delta with
      | Some (assignment, dp_cost, dp_states, classes) when dp_cost <= limit ->
        (assignment, { accepted_guess = guess; dp_cost; dp_states; classes })
      | Some _ | None ->
        let next = max (guess + 1) (int_of_float (float_of_int guess *. (1.0 +. delta))) in
        scan next (tries + 1)
    end
  in
  scan lb 0

let solve ?delta inst ~budget = fst (solve_with_stats ?delta inst ~budget)
