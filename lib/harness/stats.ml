let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let maximum xs = Array.fold_left max neg_infinity xs
let minimum xs = Array.fold_left min infinity xs

let percentile xs p =
  (* Nearest-rank: the smallest value with at least a [p] fraction of
     the sample at or below it, i.e. index ceil(p*n) of the sorted
     sample (1-based). *)
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let mu = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.0)) 0.0 xs in
    sqrt (acc /. float_of_int (n - 1))
  end

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

let summarize xs =
  {
    count = Array.length xs;
    mean = mean xs;
    min = (if Array.length xs = 0 then 0.0 else minimum xs);
    max = (if Array.length xs = 0 then 0.0 else maximum xs);
    p50 = percentile xs 0.5;
    p95 = percentile xs 0.95;
  }

let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b
