type t = {
  ids : int array;
  sizes : int array;
  pre : int array; (* pre.(l) = sum of the l largest sizes; length q+1 *)
}

let of_ids ~sizes ids =
  Array.iter
    (fun id -> if sizes.(id) < 0 then invalid_arg "Sorted_jobs.of_ids: negative size")
    ids;
  (* Ties in size are broken by id, so the view is deterministic. *)
  Array.stable_sort
    (fun a b ->
      let sa = sizes.(a) and sb = sizes.(b) in
      if sa <> sb then Int.compare sb sa else Int.compare a b)
    ids;
  let q = Array.length ids in
  let sorted = Array.make q 0 in
  let pre = Array.make (q + 1) 0 in
  for i = 0 to q - 1 do
    let s = sizes.(ids.(i)) in
    sorted.(i) <- s;
    pre.(i + 1) <- pre.(i) + s
  done;
  { ids; sizes = sorted; pre }

let length t = Array.length t.ids
let id t i = t.ids.(i)
let size t i = t.sizes.(i)
let total t = t.pre.(Array.length t.ids)
let prefix t l = t.pre.(l)
let suffix t l = total t - t.pre.(l)

let large_count t ~threshold =
  (* Sizes are descending, so the large jobs form a prefix: binary search
     for the first position whose size is small (2*size <= threshold). *)
  let q = length t in
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if 2 * t.sizes.(mid) > threshold then search (mid + 1) hi
      else search lo mid
    end
  in
  search 0 q

let min_removals_to_cap t ~from_ ~cap =
  let q = length t in
  let tail_total = suffix t from_ in
  (* remaining(r) = tail_total - (pre.(from_+r) - pre.(from_)) decreases in
     r; find the least r with remaining(r) <= cap. *)
  let remaining r = tail_total - (t.pre.(from_ + r) - t.pre.(from_)) in
  if remaining (q - from_) > cap then
    invalid_arg "Sorted_jobs.min_removals_to_cap: cap unreachable";
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if remaining mid <= cap then search lo mid else search (mid + 1) hi
    end
  in
  search 0 (q - from_)
