(* Seeded op-stream generation. Every stream is a preload that grows the
   live set to its target, then a steady-state mix of ADD / REMOVE /
   RESIZE (plus an optional REBALANCE every [rebalance_every] lines)
   whose add/remove choice pulls the live count back toward the target,
   so the working set stays inside a +-5% band for the whole run. *)

module Rng = Rebal_workloads.Rng
module Dist = Rebal_workloads.Dist

(* Lines per chunk. The clients send, time and account whole chunks;
   every chunk but the last of a stream holds exactly this many. *)
let chunk_lines = 256

type stream = {
  chunks : string array;  (** '\n'-terminated protocol lines *)
  lines : int;
}

type mix = {
  prefix : string;  (** id namespace, e.g. ["j"] -> j0, j1, ... *)
  live : int;  (** target live-set size *)
  rebalance_every : int;  (** a [REBALANCE k] line every n steady lines; 0 = never *)
  rebalance_k : int;
}

(* Skewed sizes: Zipf ranks, size = scale / rank — a few huge jobs and a
   long tail of small ones. *)
let dist = Dist.prepare (Dist.Zipf { ranks = 1000; alpha = 1.1; scale = 10_000 })

type t = {
  mix : mix;
  rng : Rng.t;
  mutable ids : string array;  (** live ids, densely packed in [0, n) *)
  mutable n : int;
  mutable next_id : int;
  mutable steady : int;  (** steady lines generated so far *)
}

let create ~seed mix =
  if mix.live < 20 then invalid_arg "Gen.create: live set too small";
  { mix; rng = Rng.create seed; ids = Array.make (mix.live + (mix.live / 10) + 16) ""; n = 0;
    next_id = 0; steady = 0 }

let live_count g = g.n
let band g = (g.mix.live - (g.mix.live / 20), g.mix.live + (g.mix.live / 20))

let fresh_id g =
  let id = g.mix.prefix ^ string_of_int g.next_id in
  g.next_id <- g.next_id + 1;
  if g.n = Array.length g.ids then begin
    let bigger = Array.make (2 * g.n) "" in
    Array.blit g.ids 0 bigger 0 g.n;
    g.ids <- bigger
  end;
  g.ids.(g.n) <- id;
  g.n <- g.n + 1;
  id

let take_random g =
  let i = Rng.int g.rng g.n in
  let id = g.ids.(i) in
  g.n <- g.n - 1;
  g.ids.(i) <- g.ids.(g.n);
  g.ids.(g.n) <- "";
  id

let add_line b g =
  let id = fresh_id g in
  Printf.bprintf b "ADD %s %d\n" id (Dist.sample dist g.rng)

let steady_line b g =
  g.steady <- g.steady + 1;
  let m = g.mix in
  if m.rebalance_every > 0 && g.steady mod m.rebalance_every = 0 then
    Printf.bprintf b "REBALANCE %d\n" m.rebalance_k
  else if Rng.float g.rng 1.0 < 0.2 then
    Printf.bprintf b "RESIZE %s %d\n" g.ids.(Rng.int g.rng g.n) (Dist.sample dist g.rng)
  else begin
    (* Position in the band: 0 at the bottom (always add), 1 at the top
       (always remove). *)
    let lo, hi = band g in
    let x = float_of_int (g.n - lo) /. float_of_int (hi - lo) in
    if Rng.float g.rng 1.0 >= x then add_line b g
    else Printf.bprintf b "REMOVE %s\n" (take_random g)
  end

let build count line =
  let nchunks = (count + chunk_lines - 1) / chunk_lines in
  let b = Buffer.create (chunk_lines * 24) in
  let chunks =
    Array.init nchunks (fun c ->
        Buffer.clear b;
        for _ = 1 to min chunk_lines (count - (c * chunk_lines)) do
          line b
        done;
        Buffer.contents b)
  in
  { chunks; lines = count }

let preload g = build (max 0 (g.mix.live - g.n)) (fun b -> add_line b g)
let steady g count = build count (fun b -> steady_line b g)

let iter_lines s f =
  Array.iter
    (fun chunk ->
      let len = String.length chunk in
      let rec go i =
        if i < len then begin
          let j = String.index_from chunk i '\n' in
          f (String.sub chunk i (j - i));
          go (j + 1)
        end
      in
      go 0)
    s.chunks

let to_string s = String.concat "" (Array.to_list s.chunks)

(* A stream cut to its first [lines] lines: what a client actually sent
   before its window closed. *)
let prefix s lines =
  let lines = min lines s.lines in
  let full = lines / chunk_lines in
  let chunks = Array.sub s.chunks 0 ((lines + chunk_lines - 1) / chunk_lines) in
  if lines mod chunk_lines <> 0 then begin
    let last = chunks.(full) in
    let rec cut i k = if k = 0 then i else cut (String.index_from last i '\n' + 1) (k - 1) in
    chunks.(full) <- String.sub last 0 (cut 0 (lines mod chunk_lines))
  end;
  { chunks; lines }
