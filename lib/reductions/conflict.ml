type t = {
  jobs : int;
  machines : int;
  conflicts : (int * int) list;
  matrix : bool array array;
}

let create ~jobs ~machines ~conflicts =
  let matrix = Array.make_matrix jobs jobs false in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= jobs || v < 0 || v >= jobs then
        invalid_arg "Conflict.create: job out of range";
      if u = v then invalid_arg "Conflict.create: self-conflict";
      matrix.(u).(v) <- true;
      matrix.(v).(u) <- true)
    conflicts;
  { jobs; machines; conflicts; matrix }

let jobs t = t.jobs
let machines t = t.machines
let conflicts t = t.conflicts

(* Feasibility is m-coloring of the conflict graph. Jobs are coloured in
   decreasing-degree order (helps pruning) and a job may only open one new
   machine beyond those already in use (machines are interchangeable). *)
let feasible t =
  let order = Array.init t.jobs Fun.id in
  let degree j = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.matrix.(j) in
  Array.sort
    (fun j1 j2 ->
      let d1 = degree j1 and d2 = degree j2 in
      if d1 <> d2 then compare d2 d1 else compare j1 j2)
    order;
  let color = Array.make t.jobs (-1) in
  let rec assign idx used =
    if idx = t.jobs then true
    else begin
      let j = order.(idx) in
      let ok machine =
        let rec clash i =
          if i >= idx then false
          else begin
            let j' = order.(i) in
            (color.(j') = machine && t.matrix.(j).(j')) || clash (i + 1)
          end
        in
        not (clash 0)
      in
      let limit = min (t.machines - 1) used in
      let rec try_machine machine =
        if machine > limit then false
        else if ok machine then begin
          color.(j) <- machine;
          let used' = if machine = used then used + 1 else used in
          if assign (idx + 1) used' then true
          else begin
            color.(j) <- -1;
            try_machine (machine + 1)
          end
        end
        else try_machine (machine + 1)
      in
      try_machine 0
    end
  in
  if t.jobs = 0 then Some [||]
  else if t.machines = 0 then None
  else if assign 0 0 then Some (Array.copy color)
  else None

let of_three_dm dm =
  let n = Three_dm.n dm in
  let m = Three_dm.size dm in
  if m < n then invalid_arg "Conflict.of_three_dm: need at least n triples";
  (* Job layout: 0..m-1 triple jobs; then element jobs a_0..a_{n-1},
     b_0.., c_0..; then m-n dummy jobs. *)
  let elem_a u = m + u in
  let elem_b u = m + n + u in
  let elem_c u = m + (2 * n) + u in
  let dummy d = m + (3 * n) + d in
  let jobs = m + (3 * n) + (m - n) in
  let conflicts = ref [] in
  let add u v = conflicts := (u, v) :: !conflicts in
  for i = 0 to m - 1 do
    for i' = i + 1 to m - 1 do
      add i i' (* triple jobs pairwise conflict *)
    done
  done;
  for i = 0 to m - 1 do
    let a, b, c = Three_dm.triple dm i in
    for u = 0 to n - 1 do
      if u <> a then add i (elem_a u);
      if u <> b then add i (elem_b u);
      if u <> c then add i (elem_c u)
    done
  done;
  for d = 0 to m - n - 1 do
    for d' = d + 1 to m - n - 1 do
      add (dummy d) (dummy d')
    done;
    for u = 0 to n - 1 do
      add (dummy d) (elem_a u);
      add (dummy d) (elem_b u);
      add (dummy d) (elem_c u)
    done
  done;
  create ~jobs ~machines:m ~conflicts:!conflicts

let verify_reduction dm =
  let feasible_schedule = feasible (of_three_dm dm) <> None in
  feasible_schedule = Three_dm.has_perfect_matching dm
