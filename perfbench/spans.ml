(* The traced run's span recorder: spans are kept in memory while the
   ladder runs and written out once at the end, so recording costs a
   clock read and an array store per call into a layer. *)

type span = {
  id : int;
  name : string;
  start : int;  (** monotonic ns *)
  stop : int;
  parent : int;  (** -1 for a root *)
  workload : string;
}

type t = {
  mutable on : bool;
  mutable spans : span array;
  mutable n : int;
}

let create () = { on = true; spans = [||]; n = 0 }
let recorded t = Array.sub t.spans 0 t.n

let push t s =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1

(* Run [f id] inside a span named [name] under [parent], tagged with the
   workload whose layer it measures; [id] is the new span's id (for
   children), or -1 when recording is off. *)
let with_span t ?(parent = -1) ~workload name f =
  if not t.on then f (-1)
  else begin
    let id = t.n in
    (* Reserve the slot first so ids follow start order. *)
    push t { id; name; start = 0; stop = 0; parent; workload };
    let start = Daemon.now_ns () in
    let r = f id in
    t.spans.(id) <- { (t.spans.(id)) with start; stop = Daemon.now_ns () };
    r
  end

(* Total length of the union of [intervals], each (start, stop). *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (acc, Some (ca, max cb b)) else (acc + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* A span's self time: its duration minus the part of it its children
   cover (children are clipped to the parent's interval). *)
let self_time spans (s : span) =
  let kids =
    Array.fold_left
      (fun acc (c : span) ->
        if c.parent = s.id && c.id <> s.id then (max c.start s.start, min c.stop s.stop) :: acc
        else acc)
      [] spans
  in
  (s.stop - s.start) - covered (List.filter (fun (a, b) -> b > a) kids)

let to_json (s : span) =
  Rebal_obs.Journal.(
    render_json
      (Obj
         [
           ("id", Int s.id);
           ("name", Str s.name);
           ("start_ns", Int s.start);
           ("end_ns", Int s.stop);
           ("parent", if s.parent < 0 then Null else Int s.parent);
           ("workload", Str s.workload);
         ]))

let write t path =
  Out_channel.with_open_text path (fun oc ->
      Array.iter
        (fun s ->
          output_string oc (to_json s);
          output_char oc '\n')
        (recorded t))
