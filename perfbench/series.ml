(* A growable series of (time, value) int pairs — latency samples keyed
   by reply time — and the slices of a window the latency figures are
   averaged over. *)

type t = { mutable times : int array; mutable values : int array; mutable n : int }

let create () = { times = Array.make 1024 0; values = Array.make 1024 0; n = 0 }
let length t = t.n

let add t time v =
  if t.n = Array.length t.times then begin
    let grow a = Array.append a (Array.make t.n 0) in
    t.times <- grow t.times;
    t.values <- grow t.values
  end;
  t.times.(t.n) <- time;
  t.values.(t.n) <- v;
  t.n <- t.n + 1

(* [k] equal slices of [t0, t1). *)
let slices ~t0 ~t1 k = Array.init k (fun j -> (t0 + ((t1 - t0) * j / k), t0 + ((t1 - t0) * (j + 1) / k)))

(* The values of [samples] whose time falls in each slice. *)
let bucket samples bounds =
  Array.map
    (fun (a, b) ->
      let acc = ref [] in
      List.iter
        (fun s ->
          for i = 0 to s.n - 1 do
            if s.times.(i) >= a && s.times.(i) < b then acc := s.values.(i) :: !acc
          done)
        samples;
      Array.of_list !acc)
    bounds
