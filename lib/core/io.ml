let write_instance oc inst =
  Printf.fprintf oc "processors %d\n" (Instance.m inst);
  for j = 0 to Instance.n inst - 1 do
    Printf.fprintf oc "job %d %d %d\n" (Instance.size inst j)
      (Instance.cost inst j) (Instance.initial inst j)
  done

let instance_to_string inst =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "processors %d\n" (Instance.m inst));
  for j = 0 to Instance.n inst - 1 do
    Buffer.add_string buf
      (Printf.sprintf "job %d %d %d\n" (Instance.size inst j)
         (Instance.cost inst j) (Instance.initial inst j))
  done;
  Buffer.contents buf

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  strip_comment line |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse_lines lines =
  (* Jobs carry their line number so every semantic error — not just a
     token that fails to parse — points at the offending line. *)
  let m = ref None in
  let jobs = ref [] in
  let error = ref None in
  let fail lineno fmt = Printf.ksprintf (fun msg -> error := Some (Printf.sprintf "line %d: %s" lineno msg)) fmt in
  List.iteri
    (fun idx line ->
      if !error = None then begin
        let lineno = idx + 1 in
        match tokens line with
        | [] -> ()
        | [ "processors"; v ] -> begin
          match (int_of_string_opt v, !m) with
          | Some _, Some _ -> fail lineno "duplicate 'processors' line"
          | Some v, None when v >= 1 -> m := Some v
          | Some v, None -> fail lineno "processor count must be >= 1, got %d" v
          | None, _ -> fail lineno "bad processor count %S" v
        end
        | "processors" :: _ -> fail lineno "'processors' line wants exactly one count"
        | [ "job"; s; c; p ] -> begin
          match (int_of_string_opt s, int_of_string_opt c, int_of_string_opt p) with
          | Some s, _, _ when s <= 0 -> fail lineno "job size must be positive, got %d" s
          | _, Some c, _ when c < 0 -> fail lineno "relocation cost must be non-negative, got %d" c
          | Some s, Some c, Some p -> jobs := (lineno, s, c, p) :: !jobs
          | None, _, _ -> fail lineno "bad job size %S" s
          | _, None, _ -> fail lineno "bad relocation cost %S" c
          | _, _, None -> fail lineno "bad initial processor %S" p
        end
        | "job" :: rest ->
          fail lineno "'job' line wants <size> <cost> <initial>, got %d fields" (List.length rest)
        | tok :: _ -> fail lineno "unrecognized directive %S" tok
      end)
    lines;
  match (!error, !m) with
  | Some msg, _ -> Error msg
  | None, None -> Error (if !jobs = [] then "empty instance: missing 'processors' line" else "missing 'processors' line")
  | None, Some m -> begin
    let jobs = Array.of_list (List.rev !jobs) in
    match
      Array.fold_left
        (fun acc (lineno, _, _, p) ->
          match acc with
          | Some _ -> acc
          | None ->
            if p < 0 || p >= m then
              Some
                (Printf.sprintf
                   "line %d: initial processor %d out of range for %d processors" lineno p m)
            else None)
        None jobs
    with
    | Some msg -> Error msg
    | None ->
      let sizes = Array.map (fun (_, s, _, _) -> s) jobs in
      let costs = Array.map (fun (_, _, c, _) -> c) jobs in
      let initial = Array.map (fun (_, _, _, p) -> p) jobs in
      (try Ok (Instance.create ~costs ~sizes ~m initial)
       with Invalid_argument msg -> Error msg)
  end

let lines_of_channel ic =
  let rec loop acc =
    match input_line ic with
    | line -> loop (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  loop []

let read_instance ic = parse_lines (lines_of_channel ic)
let instance_of_string s = parse_lines (String.split_on_char '\n' s)

let assignment_to_string assignment =
  Assignment.to_array assignment |> Array.to_list |> List.map string_of_int
  |> String.concat " "

let write_assignment oc assignment =
  output_string oc (assignment_to_string assignment);
  output_char oc '\n'

let assignment_of_string ~m s =
  let toks = tokens s in
  let parsed = List.map int_of_string_opt toks in
  if List.exists (fun v -> v = None) parsed then
    Error "assignment: non-integer token"
  else begin
    let arr = Array.of_list (List.map Option.get parsed) in
    try Ok (Assignment.of_array ~m arr) with Invalid_argument msg -> Error msg
  end
