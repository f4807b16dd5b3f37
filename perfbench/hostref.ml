(* The host's speed, from a fixed reference kernel. On a shared virtual
   machine every figure moves with the host: the same program can run
   1.7 times faster or slower from one quarter of an hour to the next.
   The kernel below does not change with the program, and its speed
   moves with the host's as the daemon's does: random finds and
   in-place replaces in a 64k-entry integer hash table, about the size
   of the L2 cache. The benchmark runs it on the daemon's CPUs between
   repetitions and rescales its time figures to a nominal host. *)

let entries = 65536

let table =
  lazy
    (let t = Hashtbl.create entries in
     for i = 0 to entries - 1 do
       Hashtbl.replace t (i * 7) i
     done;
     t)

(* Kernel steps per microsecond over [seconds] of wall time. *)
let measure seconds =
  let t = Lazy.force table in
  let x = ref 1 and steps = ref 0 in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    for _ = 1 to 1000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let k = (!x land (entries - 1)) * 7 in
      Hashtbl.replace t k (Hashtbl.find t k + 1)
    done;
    steps := !steps + 1000
  done;
  float_of_int !steps /. ((Unix.gettimeofday () -. t0) *. 1e6)
