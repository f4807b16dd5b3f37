(* The benchmark's own model of the live job set, independent of the
   program under test: it validates every generated line (fresh ids on
   ADD, live ids on REMOVE/RESIZE, positive sizes) and yields the job
   count, total size and the makespan lower bound the end-to-end
   metrics are checked and normalised against. *)

type t = {
  sizes : (string, int) Hashtbl.t;
  counts : (int, int) Hashtbl.t;  (** size -> live jobs of that size *)
  mutable total : int;
  mutable max_size : int;  (** 0 when empty; recomputed lazily on removal *)
}

let create () =
  { sizes = Hashtbl.create 4096; counts = Hashtbl.create 1024; total = 0; max_size = 0 }

let copy t = { t with sizes = Hashtbl.copy t.sizes; counts = Hashtbl.copy t.counts }
let jobs t = Hashtbl.length t.sizes
let total t = t.total

let inc t size d =
  let c = d + Option.value (Hashtbl.find_opt t.counts size) ~default:0 in
  if c = 0 then Hashtbl.remove t.counts size else Hashtbl.replace t.counts size c

let place t id size =
  Hashtbl.replace t.sizes id size;
  inc t size 1;
  t.total <- t.total + size;
  if size > t.max_size then t.max_size <- size

let unplace t id size =
  Hashtbl.remove t.sizes id;
  inc t size (-1);
  t.total <- t.total - size;
  if size = t.max_size && not (Hashtbl.mem t.counts size) then
    t.max_size <- Hashtbl.fold (fun s _ acc -> max s acc) t.counts 0

(* max (ceil (total / m), largest job): no placement on [m] processors
   has a smaller makespan. *)
let lower_bound t ~m = max ((t.total + m - 1) / m) t.max_size

let positive s = match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None

(* Apply one protocol line; [Error] names what makes it invalid. Lines
   that do not touch the job set (REBALANCE, STATS, ...) are accepted
   unchanged. *)
let apply t line =
  match String.split_on_char ' ' line with
  | [ "ADD"; id; size ] -> (
    match positive size with
    | None -> Error ("bad size: " ^ line)
    | Some _ when Hashtbl.mem t.sizes id -> Error ("duplicate id: " ^ line)
    | Some s ->
      place t id s;
      Ok ())
  | [ "REMOVE"; id ] -> (
    match Hashtbl.find_opt t.sizes id with
    | None -> Error ("unknown id: " ^ line)
    | Some s ->
      unplace t id s;
      Ok ())
  | [ "RESIZE"; id; size ] -> (
    match (Hashtbl.find_opt t.sizes id, positive size) with
    | None, _ -> Error ("unknown id: " ^ line)
    | _, None -> Error ("bad size: " ^ line)
    | Some old, Some s ->
      unplace t id old;
      place t id s;
      Ok ())
  | [ "REBALANCE"; k ] when Option.is_some (int_of_string_opt k) -> Ok ()
  | [ ("STATS" | "SHUTDOWN" | "QUIT") ] -> Ok ()
  | _ -> Error ("unexpected line: " ^ line)

let apply_exn t line = match apply t line with Ok () -> () | Error e -> failwith e
let apply_stream t s = Gen.iter_lines s (apply_exn t)
