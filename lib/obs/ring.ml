(* [first] and [pushed] number the pushes since creation: element [i]
   lives in slot [i mod capacity], the live elements are numbers
   [first .. pushed - 1], and eviction is oldest-first by construction. *)

type 'a t = {
  data : 'a array;
  fill : 'a;
  mutable first : int;
  mutable pushed : int;
}

let create capacity fill =
  if capacity < 1 then invalid_arg "Ring.create: need a positive capacity";
  { data = Array.make capacity fill; fill; first = 0; pushed = 0 }

let capacity r = Array.length r.data
let length r = r.pushed - r.first
let pushed r = r.pushed
let is_full r = length r = Array.length r.data
let slot r i = i mod Array.length r.data

let push r v =
  if is_full r then r.first <- r.first + 1;
  r.data.(slot r r.pushed) <- v;
  r.pushed <- r.pushed + 1

let oldest r = if length r = 0 then None else Some r.data.(slot r r.first)

let pop r =
  if length r = 0 then None
  else begin
    let i = slot r r.first in
    let v = r.data.(i) in
    r.data.(i) <- r.fill;
    r.first <- r.first + 1;
    Some v
  end

let last r n =
  let n = max 0 (min n (length r)) in
  List.init n (fun j -> r.data.(slot r (r.pushed - n + j)))

let to_list r = last r (length r)

let clear r =
  Array.fill r.data 0 (Array.length r.data) r.fill;
  r.first <- 0;
  r.pushed <- 0
