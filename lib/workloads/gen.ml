module Instance = Rebal_core.Instance

type cost_model =
  | Unit
  | Proportional_to_size of { per : int }
  | Inverse_size of { numerator : int }
  | Uniform_random of { lo : int; hi : int }

let cost_model_name = function
  | Unit -> "unit"
  | Proportional_to_size { per } -> Printf.sprintf "size/%d" per
  | Inverse_size { numerator } -> Printf.sprintf "%d/size" numerator
  | Uniform_random { lo; hi } -> Printf.sprintf "U(%d,%d)" lo hi

let costs_of rng model sizes =
  match model with
  | Unit -> Array.map (fun _ -> 1) sizes
  | Proportional_to_size { per } ->
    if per <= 0 then invalid_arg "Gen: Proportional_to_size.per must be positive";
    Array.map (fun s -> (s + per - 1) / per) sizes
  | Inverse_size { numerator } ->
    if numerator <= 0 then invalid_arg "Gen: Inverse_size.numerator must be positive";
    Array.map (fun s -> max 1 (numerator / s)) sizes
  | Uniform_random { lo; hi } ->
    if lo < 0 || hi < lo then invalid_arg "Gen: bad Uniform_random cost range";
    Array.map (fun _ -> Rng.int_range rng lo hi) sizes

let random rng ~n ~m ~dist ?(cost = Unit) () =
  let sizes = Dist.sample_many dist rng n in
  let costs = costs_of rng cost sizes in
  let initial = Array.init n (fun _ -> Rng.int rng m) in
  Instance.create ~costs ~sizes ~m initial

let skewed rng ~n ~m ~dist ~skew ?(cost = Unit) () =
  if skew < 0.0 then invalid_arg "Gen.skewed: negative skew";
  let sizes = Dist.sample_many dist rng n in
  let costs = costs_of rng cost sizes in
  (* Cumulative weights (rank+1)^-skew over processors. *)
  let cdf = Array.make m 0.0 in
  let acc = ref 0.0 in
  for p = 0 to m - 1 do
    acc := !acc +. (1.0 /. (float_of_int (p + 1) ** skew));
    cdf.(p) <- !acc
  done;
  let pick () =
    let u = Rng.float rng cdf.(m - 1) in
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if cdf.(mid) > u then search lo mid else search (mid + 1) hi
      end
    in
    search 0 (m - 1)
  in
  let initial = Array.init n (fun _ -> pick ()) in
  Instance.create ~costs ~sizes ~m initial

let drifted rng ~n ~m ~dist ~drift ?(cost = Unit) () =
  if drift < 0.0 || drift > 1.0 then invalid_arg "Gen.drifted: drift outside [0,1]";
  let sizes = Dist.sample_many dist rng n in
  let costs = costs_of rng cost sizes in
  (* The balanced start: LPT over the sampled sizes. *)
  let initial = Rebal_core.Greedy_steps.lpt ~size:(Array.get sizes) ~n ~m in
  for j = 0 to n - 1 do
    if Rng.float rng 1.0 < drift then initial.(j) <- Rng.int rng m
  done;
  Instance.create ~costs ~sizes ~m initial
