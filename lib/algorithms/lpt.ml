module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment

let solve inst =
  let m = Instance.m inst in
  Assignment.of_array ~m
    (Rebal_core.Greedy_steps.lpt ~size:(Instance.size inst) ~n:(Instance.n inst) ~m)
