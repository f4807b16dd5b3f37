(* Metric records, the host line, and the result object the benchmark
   prints last. *)

module J = Rebal_obs.Journal

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

(* Nearest-rank percentile of nanosecond samples, in microseconds. *)
let percentile_us ns p =
  Rebal_harness.Stats.percentile (Array.map (fun x -> float_of_int x /. 1e3) ns) p

let read_first_line path =
  try In_channel.with_open_text path (fun ic -> Option.map String.trim (In_channel.input_line ic))
  with Sys_error _ -> None

let command_line prog args =
  try
    let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
    let l = In_channel.input_line ic in
    match (Unix.close_process_in ic, l) with
    | Unix.WEXITED 0, Some l -> Some (String.trim l)
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let status_field key =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some l -> (
            match String.index_opt l ':' with
            | Some i when String.sub l 0 i = key ->
              Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
            | _ -> find ())
        in
        find ())
  with Sys_error _ -> None

(* What every number is measured on. The commit is read only from a git
   checkout at the working directory (never from an enclosing one). *)
let host () =
  let unknown = Option.value ~default:"unknown" in
  [
    ("nproc", unknown (command_line "nproc" [ "--all" ]));
    ("domains", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("kernel", unknown (read_first_line "/proc/sys/kernel/osrelease"));
    ("client_cpus", unknown (status_field "Cpus_allowed_list"));
    ( "daemon_cpus",
      match !Daemon.cpus with
      | [] -> "any"
      | _ -> String.concat "+" (List.map string_of_int (Daemon.daemon_cpus Daemon.Beside)) );
    ( "commit",
      if Sys.file_exists ".git" then unknown (command_line "git" [ "rev-parse"; "HEAD" ])
      else "unknown (not a git checkout)" );
  ]

let host_line () =
  "# host " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (host ()))

let print_table title metrics =
  Printf.printf "# %s\n" title;
  List.iter
    (fun m -> Printf.printf "#   %-32s %14.4f %-6s n=%d\n" m.name m.value m.unit_ m.samples)
    metrics

(* The last line of standard output. Non-finite values cannot be JSON
   numbers; the caller counts a run producing one as not correct. *)
let result_line ~correct ~attempted ~failed metrics =
  J.render_json
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    J.Obj
                      [
                        ("value", if Float.is_finite m.value then J.Float m.value else J.Null);
                        ("unit", J.Str m.unit_);
                      ] ))
                metrics) );
       ])
