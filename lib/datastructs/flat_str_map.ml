(* Open-addressing string -> int map for the engine's flat core and the
   cluster's residency directory: both resolve external ids without
   touching the minor heap on the steady-state path. [Hashtbl] allocates
   a bucket cell per add and a list spine per probe chain, so it is out;
   this table keeps keys and values in two parallel arrays and linear
   probes with [Hashtbl.hash] (a C stub — no allocation).

   There are no tombstones. A deletion shifts the rest of its probe run
   back over the hole (Knuth's Algorithm R): each later entry of the run
   whose home slot does not lie cyclically after the hole moves into it,
   and the hole moves on. Probe runs then hold live entries only, so
   they never lengthen under churn, nothing needs purging (nor a spare
   buffer to purge into), and a steady add/remove churn at
   constant population never allocates. Only a genuine new high-water
   mark of live entries grows the arrays (doubling), which is warmup,
   not steady state. *)

(* A physically-distinct zero-length string: the empty-slot marker,
   which can never be [==] to a caller's key (including a real "" key,
   which is a different block). *)
let empty_slot = Bytes.unsafe_to_string (Bytes.create 0)

type t = {
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable keys : string array;
  mutable vals : int array;
  mutable live : int;
}

let rec pow2_above k n = if k >= n then k else pow2_above (k * 2) n

(* 2x headroom: [n] entries fit at a load factor of at most 1/2. *)
let capacity_for n = pow2_above 8 (2 * max n 1)

let create n =
  if n < 0 then invalid_arg "Flat_str_map.create: negative capacity";
  let cap = capacity_for n in
  { mask = cap - 1; keys = Array.make cap empty_slot; vals = Array.make cap 0; live = 0 }

let length t = t.live
let capacity t = t.mask + 1
let home t key = Hashtbl.hash key land t.mask

let rec probe_find t key i =
  let s = t.keys.(i) in
  if s == empty_slot then -1
  else if String.equal s key then t.vals.(i)
  else probe_find t key ((i + 1) land t.mask)

(* The value bound to [key], or -1 when absent. Callers store only
   non-negative values, so -1 is unambiguous. *)
let find t key = probe_find t key (home t key)
let mem t key = find t key >= 0

(* Rebuild at a larger capacity (new live high-water mark — warmup
   path, or an explicit [reserve]). The old table holds distinct keys,
   so each lands in the first empty slot of its run. *)
let grow_to t cap =
  let old_keys = t.keys and old_vals = t.vals in
  t.mask <- cap - 1;
  t.keys <- Array.make cap empty_slot;
  t.vals <- Array.make cap 0;
  Array.iteri
    (fun j s ->
      if s != empty_slot then begin
        let i = ref (home t s) in
        while t.keys.(!i) != empty_slot do
          i := (!i + 1) land t.mask
        done;
        t.keys.(!i) <- s;
        t.vals.(!i) <- old_vals.(j)
      end)
    old_keys

let reserve t n =
  if n < 0 then invalid_arg "Flat_str_map.reserve: negative capacity";
  let want = capacity_for n in
  if want > t.mask + 1 then grow_to t want

let rec probe_set t key v i =
  let s = t.keys.(i) in
  if s == empty_slot then begin
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.live <- t.live + 1;
    if 2 * t.live > t.mask + 1 then grow_to t (2 * (t.mask + 1))
  end
  else if String.equal s key then t.vals.(i) <- v
  else probe_set t key v ((i + 1) land t.mask)

(* Bind [key] to [v], replacing any previous binding. *)
let set t key v = probe_set t key v (home t key)

(* Slot [hole] was just vacated. Walk the rest of its run: an entry at
   [j] may fill the hole unless its home lies cyclically in (hole, j],
   where a probe for it would stop before reaching the hole. *)
let rec shift_back t hole j =
  let s = t.keys.(j) in
  if s == empty_slot then t.keys.(hole) <- empty_slot
  else if (j - home t s) land t.mask >= (j - hole) land t.mask then begin
    t.keys.(hole) <- s;
    t.vals.(hole) <- t.vals.(j);
    shift_back t j ((j + 1) land t.mask)
  end
  else shift_back t hole ((j + 1) land t.mask)

let rec probe_remove t key i =
  let s = t.keys.(i) in
  if s == empty_slot then ()
  else if String.equal s key then begin
    t.live <- t.live - 1;
    shift_back t i ((i + 1) land t.mask)
  end
  else probe_remove t key ((i + 1) land t.mask)

(* Unbind [key]; no-op when absent. *)
let remove t key = probe_remove t key (home t key)

let clear t =
  Array.fill t.keys 0 (t.mask + 1) empty_slot;
  t.live <- 0

let iter f t =
  for i = 0 to t.mask do
    let s = t.keys.(i) in
    if s != empty_slot then f s t.vals.(i)
  done
