(* Monotonic clock (CLOCK_MONOTONIC via bechamel's stubs): timestamps
   survive NTP slews and wall-clock steps, which matters now that spans
   and latency histograms are built from differences of [now_ns]. *)
let now_ns () = Monotonic_clock.now ()

(* The clock's result is unboxed, so the conversion allocates nothing. *)
let now_int_ns () = Int64.to_int (Monotonic_clock.now ())

let ns_to_s ns = Int64.to_float ns *. 1e-9

let time f =
  let start = now_ns () in
  let result = f () in
  (result, ns_to_s (Int64.sub (now_ns ()) start))

let time_median ?(repeats = 5) f =
  let repeats = max 1 repeats in
  let times = Array.make repeats 0.0 in
  let result = ref None in
  for i = 0 to repeats - 1 do
    let r, dt = time f in
    result := Some r;
    times.(i) <- dt
  done;
  Array.sort compare times;
  (Option.get !result, times.(repeats / 2))
