(* An Atomic, not a ref: the serve daemon flips the switch once on the
   main domain and every domain hosting its sessions must observe it —
   a plain ref would be a data race under OCaml 5's memory model. *)
let flag = Atomic.make false

let enabled () = Atomic.get flag
let set_enabled b = Atomic.set flag b

let with_enabled b f =
  let saved = Atomic.get flag in
  Atomic.set flag b;
  Fun.protect ~finally:(fun () -> Atomic.set flag saved) f
