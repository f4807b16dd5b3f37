(* Optional operation counters, shared by every heap in the process.
   [None] (the default) costs one ref load and branch per sift step;
   installing a record lets the observability layer attribute heap work
   to the solver that caused it without this library depending on it. *)
type counters = {
  mutable sets : int;
  mutable removes : int;
  mutable pops : int;
  mutable sift_up_steps : int;
  mutable sift_down_steps : int;
}

let fresh_counters () =
  { sets = 0; removes = 0; pops = 0; sift_up_steps = 0; sift_down_steps = 0 }

let hook : counters option ref = ref None
let install_counters c = hook := Some c
let remove_counters () = hook := None

type t = {
  n : int;
  heap : int array; (* heap.(i) = key at heap slot i *)
  pos : int array; (* pos.(key) = heap slot, or -1 if absent *)
  prio : int array; (* prio.(key), meaningful only if present *)
  mutable size : int;
}

let create n =
  if n < 0 then invalid_arg "Indexed_heap.create: negative capacity";
  { n; heap = Array.make (max n 1) (-1); pos = Array.make (max n 1) (-1); prio = Array.make (max n 1) 0; size = 0 }

let capacity h = h.n
let length h = h.size
let is_empty h = h.size = 0

let check_key h key =
  if key < 0 || key >= h.n then invalid_arg "Indexed_heap: key out of range"

let mem h key =
  check_key h key;
  h.pos.(key) >= 0

let priority h key =
  check_key h key;
  if h.pos.(key) >= 0 then Some h.prio.(key) else None

(* Lexicographic (priority, key) order makes extraction deterministic. *)
let before h k1 k2 =
  let p1 = h.prio.(k1) and p2 = h.prio.(k2) in
  p1 < p2 || (p1 = p2 && k1 < k2)

let swap h i j =
  let ki = h.heap.(i) and kj = h.heap.(j) in
  h.heap.(i) <- kj;
  h.heap.(j) <- ki;
  h.pos.(kj) <- i;
  h.pos.(ki) <- j

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before h h.heap.(i) h.heap.(parent) then begin
      (match !hook with Some c -> c.sift_up_steps <- c.sift_up_steps + 1 | None -> ());
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let best = ref i in
  if l < h.size && before h h.heap.(l) h.heap.(!best) then best := l;
  if r < h.size && before h h.heap.(r) h.heap.(!best) then best := r;
  if !best <> i then begin
    (match !hook with Some c -> c.sift_down_steps <- c.sift_down_steps + 1 | None -> ());
    swap h i !best;
    sift_down h !best
  end

let set h key prio =
  check_key h key;
  (match !hook with Some c -> c.sets <- c.sets + 1 | None -> ());
  if h.pos.(key) >= 0 then begin
    let old = h.prio.(key) in
    h.prio.(key) <- prio;
    let i = h.pos.(key) in
    if prio < old then sift_up h i else sift_down h i
  end
  else begin
    h.prio.(key) <- prio;
    h.heap.(h.size) <- key;
    h.pos.(key) <- h.size;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)
  end

let remove h key =
  check_key h key;
  (match !hook with Some c -> c.removes <- c.removes + 1 | None -> ());
  let i = h.pos.(key) in
  if i >= 0 then begin
    h.size <- h.size - 1;
    h.pos.(key) <- -1;
    if i < h.size then begin
      let moved = h.heap.(h.size) in
      h.heap.(i) <- moved;
      h.pos.(moved) <- i;
      sift_up h i;
      sift_down h i
    end
  end

let min h =
  if h.size = 0 then None
  else begin
    let key = h.heap.(0) in
    Some (key, h.prio.(key))
  end

let min_exn h =
  match min h with
  | Some entry -> entry
  | None -> invalid_arg "Indexed_heap.min_exn: empty heap"

(* Component accessors for allocation-free hot paths: [min_exn] boxes a
   tuple on every call, which matters when the caller is a per-event
   loop that must not touch the minor heap. *)
let min_key_exn h =
  if h.size = 0 then invalid_arg "Indexed_heap.min_key_exn: empty heap";
  h.heap.(0)

let min_prio_exn h =
  if h.size = 0 then invalid_arg "Indexed_heap.min_prio_exn: empty heap";
  h.prio.(h.heap.(0))

let pop_min h =
  match min h with
  | None -> None
  | Some (key, _) as entry ->
    (match !hook with Some c -> c.pops <- c.pops + 1 | None -> ());
    remove h key;
    entry

let entries h =
  let out = ref [] in
  for i = h.size - 1 downto 0 do
    let key = h.heap.(i) in
    out := (key, h.prio.(key)) :: !out
  done;
  !out

let clear h =
  for i = 0 to h.size - 1 do
    h.pos.(h.heap.(i)) <- -1
  done;
  h.size <- 0
