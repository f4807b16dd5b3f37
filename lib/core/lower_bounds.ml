let average inst =
  let m = Instance.m inst in
  let total = Instance.total_size inst in
  (total + m - 1) / m

let max_size = Instance.max_size

(* Lemma 1: the maximum load left by GREEDY's removal step. *)
let g1 inst ~k =
  let _, load = Greedy_steps.remove_largest inst ~k in
  Array.fold_left max 0 load

let best inst ~budget =
  let base = max (average inst) (max_size inst) in
  match budget with
  | Budget.Moves k -> max base (g1 inst ~k)
  | Budget.Cost _ -> base
