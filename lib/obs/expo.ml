(* Exposition: render a registry in the Prometheus text format or as
   JSON. Pure string building against the public Metrics API. *)

let fmt_value f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let fmt_le u = if u = infinity then "+Inf" else Printf.sprintf "%.9g" u

(* The Prometheus text-format escapes: backslash and newline, and in
   label values ([quote]) the double quote too. *)
let escape ~quote s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' when quote -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let label_set labels =
  match labels with
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape ~quote:true v)) labels)
    ^ "}"

let kind_name = function
  | Metrics.Counter _ -> "counter"
  | Metrics.Gauge _ -> "gauge"
  | Metrics.Histogram _ -> "histogram"

(* Group samples by metric name, preserving registration order of first
   appearance, so families with several label sets share one HELP/TYPE
   header. *)
let families reg =
  let ms = Metrics.Registry.metrics reg in
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (m : Metrics.metric) ->
      match Hashtbl.find_opt seen m.Metrics.name with
      | Some rev -> rev := m :: !rev
      | None ->
        let rev = ref [ m ] in
        Hashtbl.replace seen m.Metrics.name rev;
        order := m.Metrics.name :: !order)
    ms;
  List.rev_map (fun name -> (name, List.rev !(Hashtbl.find seen name))) !order

let prometheus reg =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, ms) ->
      let first = List.hd ms in
      if first.Metrics.help <> "" then
        Buffer.add_string b
          (Printf.sprintf "# HELP %s %s\n" name (escape ~quote:false first.Metrics.help));
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name (kind_name first.Metrics.kind));
      List.iter
        (fun (m : Metrics.metric) ->
          let ls = label_set m.Metrics.labels in
          match m.Metrics.kind with
          | Metrics.Counter c ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %d\n" name ls (Metrics.Counter.value c))
          | Metrics.Gauge g ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %s\n" name ls (fmt_value (Metrics.Gauge.value g)))
          | Metrics.Histogram h ->
            (* Prometheus buckets are cumulative. *)
            let cum = ref 0 in
            List.iter
              (fun (upper, count) ->
                cum := !cum + count;
                let labels = m.Metrics.labels @ [ ("le", fmt_le upper) ] in
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" name (label_set labels) !cum))
              (Metrics.Histogram.buckets h);
            Buffer.add_string b
              (Printf.sprintf "%s_sum%s %s\n" name ls (fmt_value (Metrics.Histogram.sum h)));
            Buffer.add_string b
              (Printf.sprintf "%s_count%s %d\n" name ls (Metrics.Histogram.observations h)))
        ms)
    (families reg);
  Buffer.contents b

(* ----- JSON -----

   Built as a [Journal.json] and rendered by the journal's one JSON
   writer. A non-finite value (a NaN gauge, an infinite sum) has no JSON
   number, so it renders as [null]. *)

let json_num f =
  if not (Float.is_finite f) then Journal.Null
  else if Float.is_integer f && Float.abs f < 1e15 then Journal.Int (int_of_float f)
  else Journal.Float f

let json_of_metric (m : Metrics.metric) =
  let common =
    [
      ("name", Journal.Str m.Metrics.name);
      ("type", Journal.Str (kind_name m.Metrics.kind));
      ("help", Journal.Str m.Metrics.help);
      ("labels", Journal.Obj (List.map (fun (k, v) -> (k, Journal.Str v)) m.Metrics.labels));
    ]
  in
  Journal.Obj
    (common
    @
    match m.Metrics.kind with
    | Metrics.Counter c -> [ ("value", Journal.Int (Metrics.Counter.value c)) ]
    | Metrics.Gauge g -> [ ("value", json_num (Metrics.Gauge.value g)) ]
    | Metrics.Histogram h ->
      [
        ("sum", json_num (Metrics.Histogram.sum h));
        ("count", Journal.Int (Metrics.Histogram.observations h));
        ( "buckets",
          Journal.List
            (List.map
               (fun (upper, count) ->
                 Journal.Obj [ ("le", Journal.Str (fmt_le upper)); ("count", Journal.Int count) ])
               (Metrics.Histogram.buckets h)) );
      ])

let json reg =
  Journal.render_json
    (Journal.Obj
       [ ("metrics", Journal.List (List.map json_of_metric (Metrics.Registry.metrics reg))) ])

(* ----- parsing the text format back ----- *)

(* The inverse of [prometheus], for consumers of a scrape — the [top]
   subcommand and the round-trip tests. One sample per non-comment
   line; label values may contain spaces and every escape [prometheus]
   emits, so the value starts after the last space and label bodies are
   decoded by walking the escapes (backslash, quote, newline). *)

type sample = {
  sample_name : string;
  sample_labels : (string * string) list;  (* canonical (sorted) order *)
  value : float;
}

exception Bad of string

let parse_label_body s =
  let n = String.length s in
  let out = ref [] in
  let buf = Buffer.create 16 in
  let i = ref 0 in
  while !i < n do
    let eq =
      match String.index_from_opt s !i '=' with
      | Some e -> e
      | None -> raise (Bad "label without '='")
    in
    let key = String.sub s !i (eq - !i) in
    if eq + 1 >= n || s.[eq + 1] <> '"' then raise (Bad "expected opening quote");
    Buffer.clear buf;
    let p = ref (eq + 2) in
    let closed = ref false in
    while not !closed do
      if !p >= n then raise (Bad "unterminated label value");
      (match s.[!p] with
      | '\\' ->
        if !p + 1 >= n then raise (Bad "dangling escape");
        (match s.[!p + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | c -> Buffer.add_char buf c);
        p := !p + 2
      | '"' ->
        closed := true;
        incr p
      | c ->
        Buffer.add_char buf c;
        incr p)
    done;
    out := (key, Buffer.contents buf) :: !out;
    if !p < n && s.[!p] <> ',' then raise (Bad "expected ',' after a label value");
    i := !p + 1
  done;
  List.rev !out

let parse_labels body = try Ok (parse_label_body body) with Bad e -> Error e

let parse_sample line =
  let sp =
    match String.rindex_opt line ' ' with
    | Some i -> i
    | None -> raise (Bad "sample line without a value")
  in
  let value =
    match float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) with
    | Some v -> v
    | None -> raise (Bad "unparseable sample value")
  in
  let series = String.sub line 0 sp in
  match String.index_opt series '{' with
  | None -> { sample_name = series; sample_labels = []; value }
  | Some b ->
    let e =
      match String.rindex_opt series '}' with
      | Some e when e > b -> e
      | _ -> raise (Bad "unterminated label set")
    in
    {
      sample_name = String.sub series 0 b;
      sample_labels = List.sort compare (parse_label_body (String.sub series (b + 1) (e - b - 1)));
      value;
    }

let parse text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match
    List.mapi
      (fun i l -> match parse_sample l with s -> s | exception Bad e -> raise (Bad (Printf.sprintf "line %d: %s" (i + 1) e)))
      lines
  with
  | samples -> Ok samples
  | exception Bad e -> Error e

let find_sample samples name labels =
  let labels = List.sort compare labels in
  List.find_opt (fun s -> s.sample_name = name && s.sample_labels = labels) samples

(* ----- the single dump entry point ----- *)

type format = Prometheus | Json

let render format reg =
  match format with Prometheus -> prometheus reg | Json -> json reg

let write ?trailer format oc reg =
  let body = render format reg in
  output_string oc body;
  if body <> "" && body.[String.length body - 1] <> '\n' then output_char oc '\n';
  (match trailer with
  | Some t ->
    output_string oc t;
    output_char oc '\n'
  | None -> ());
  flush oc

let to_file ?trailer format ~path reg =
  match open_out path with
  | exception Sys_error msg -> Error msg
  | oc -> (
    match Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write ?trailer format oc reg) with
    | () -> Ok ()
    | exception Sys_error msg -> Error msg)
