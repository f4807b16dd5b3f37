(* The serving benchmark. One run measures one workload:

     bench.exe --workload stream-single --seed 7 --seconds 10 --trace 0

   With --trace 0 it drives fresh [rebalance serve] daemons and prints
   the end-to-end metrics; with --trace 1 it runs the per-layer ladder
   in process instead. Human-readable lines start with '#'; the last
   line is the JSON result. The exit code is non-zero when any
   correctness check fails. *)

open Perfbench

let usage = "bench.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--exe PATH]"

let rec remove_tree p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove_tree (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let print_checks =
  List.iter (fun (c : Workloads.check) ->
      Printf.printf "# check %-4s %s: %s\n" (if c.ok then "ok" else "FAIL") c.name c.detail)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  let exe = ref "_build/default/bin/rebalance.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workloads.workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured window (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--exe", Arg.Set_string exe, "PATH the rebalance binary");
      ( "--cpus",
        Arg.String (fun l -> Daemon.cpus := List.map int_of_string (String.split_on_char ',' l)),
        "LIST every CPU of the host; daemons are placed on them with taskset" );
      ("--client-cpu", Arg.Set_int Daemon.client_cpu, "N the CPU this process is confined to");
      ( "--hostref",
        Arg.Float
          (fun seconds ->
            ignore (Hostref.measure 0.02);
            Printf.printf "%.6f\n" (Hostref.measure seconds);
            exit 0),
        "S print the reference kernel's speed over S seconds on this CPU and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Workloads.workloads) || !seed < 0 || !seconds <= 0.0
     || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let root = ".perfbench" in
  let dir = Filename.concat root (Printf.sprintf "run-%s-%d-%d" !workload !seed (Unix.getpid ())) in
  mkdir_p dir;
  let reps = Workloads.reps ~workload:!workload !seconds in
  let ctx = { Workloads.exe = !exe; dir; seed = !seed; seconds = !seconds; reps } in
  Printf.printf "%s\n# workload=%s seed=%d seconds=%g trace=%d\n%!" (Report.host_line ()) !workload
    !seed !seconds !trace;
  (* A caller's timeout must not orphan daemons: turn the signal into an
     exception so the finaliser below reaps them. A daemon that stops
     answering fails the run the same way, well inside a 180 s limit. *)
  let stop = Sys.Signal_handle (fun _ -> raise Exit) in
  List.iter (fun s -> Sys.set_signal s stop) [ Sys.sigterm; Sys.sigint; Sys.sigalrm ];
  ignore (Unix.alarm 170);
  let run () =
    Fun.protect ~finally:(fun () ->
        Daemon.kill_all ();
        remove_tree dir)
    @@ fun () ->
    if !trace = 1 then begin
      let spans_path = Filename.concat root (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed) in
      let o = Ladder.run ctx ~spans_path in
      Report.print_table "per-layer" o.Ladder.metrics;
      print_checks o.Ladder.checks;
      (List.for_all (fun (c : Workloads.check) -> c.ok) o.Ladder.checks, o.Ladder.attempted, 0, o.Ladder.metrics)
    end
    else begin
      let r = Workloads.run ctx !workload in
      let e2e, extra = Workloads.end_to_end r in
      Report.print_table "end-to-end" e2e;
      Report.print_table "also measured" extra;
      List.iteri
        (fun i (rp : Workloads.rep) ->
          let a, z = rp.window in
          Printf.printf
            "# rep %d: setup %.3f s, %d ops in %.3f s, cpu daemon %.2f s client %.2f s, host %.2f -> %.2f steps/us\n"
            (i + 1) rp.setup_s rp.mutations
            (float_of_int (z - a) /. 1e9)
            rp.daemon_cpu_s rp.client_cpu_s r.host.(i) rp.host_after)
        r.reps;
      let checks = Workloads.checks r in
      print_checks checks;
      (List.for_all (fun (c : Workloads.check) -> c.ok) checks, Workloads.attempted r, Workloads.failed r, e2e)
    end
  in
  let checks_ok, attempted, failed, metrics =
    try run ()
    with Exit ->
      prerr_endline "perfbench: interrupted or timed out; daemons stopped, no result";
      exit 3
  in
  let correct = checks_ok && List.for_all (fun m -> Float.is_finite m.Report.value) metrics in
  print_endline (Report.result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
