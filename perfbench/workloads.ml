(* The three end-to-end workloads. A run is [reps] repetitions, each
   against a fresh [rebalance serve] daemon in the run's private
   directory: set up (timed), measure a window of [seconds / reps],
   check the daemon's answers, shut it down. Never point a stream at a
   daemon that has already seen it: its ids are fresh only against an
   empty (or fixture) state. Spreading the window over several daemons
   keeps one unlucky process placement from setting a run's figures. *)

module Engine = Rebal_online.Engine
module Protocol = Rebal_online.Protocol

type ctx = {
  exe : string;  (** the [rebalance] binary *)
  dir : string;  (** private scratch directory of this run *)
  seed : int;
  seconds : float;  (** measured window, summed over repetitions *)
  reps : int;  (** fresh daemons per run *)
}

type check = { name : string; ok : bool; detail : string }

(* One repetition: one daemon, one set-up, one window. *)
type rep = {
  setup_s : float;
  window : int * int;  (** [now_ns] bounds of the measured window *)
  sent : int;  (** stream lines sent in the window *)
  failed : int;  (** ERR replies plus lines never answered *)
  mutations : int;  (** ADD/REMOVE/RESIZE acknowledged in the window *)
  tallies : Daemon.tally list;  (** latency samples and throughput marks, per client *)
  makespan : int;
  lower_bound : int;
  moved : int;  (** repair relocations in the window *)
  journal_bytes : int option;  (** journal growth over the window *)
  rss_peak_mb : float;
  daemon_cpu_s : float;  (** the daemon's CPU time over the window *)
  client_cpu_s : float;  (** this process's CPU time over the window *)
  host_after : float;  (** reference kernel steps per us, right after the window *)
  scraped : (string * float * string) list;  (** from GET /metrics: name, value, unit *)
  checks : check list;
}

type result = {
  reps : rep list;
  fixture_checks : check list;
  host : float array;  (** reference kernel steps per us, before each repetition's daemon starts *)
}

let workloads = [ "stream-single"; "rpc-parallel"; "restart-sharded" ]

(* Seconds of window per fresh daemon. A restart-sharded daemon costs a
   journal replay to start and four more to check, so it gets fewer,
   longer windows, which leaves more of a run's time for measuring. *)
let rep_window = function "restart-sharded" -> 10.0 | _ -> 3.0
let reps ~workload seconds = max 1 (Float.to_int (Float.round (seconds /. rep_window workload)))

(* Pregenerated steady lines per second of window, well above the
   measured rates so that a faster program still fills its window; if
   a stream runs dry the window ends early, which the window_s line
   shows. *)
let stream_rate = 500_000
let restart_rate = 250_000
let rpc_rate = 60_000

let check name ok detail = { name; ok; detail }

(* The speed (reference kernel steps per us) the time figures are
   rescaled to. *)
let hostref_nominal = 12.0

(* The reference kernel's speed on the daemon's CPUs, in a child process
   placed as a daemon is, while no daemon runs or the daemon waits for
   input. Two probes per repetition, two to four seconds of them per run. *)
let probe_host (ctx : ctx) =
  let seconds = Float.min 0.5 (Float.max 0.15 (1.0 /. float_of_int ctx.reps)) in
  let prog, argv = Daemon.command Sys.executable_name [ "--hostref"; Printf.sprintf "%g" seconds ] in
  let ic = Unix.open_process_args_in prog (Array.of_list argv) in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
  | Unix.WEXITED 0, Some v -> v
  | _ -> failwith "the reference kernel probe failed"

(* [ctx.reps] repetitions, each after a probe of the host's speed. *)
let repeat (ctx : ctx) ?(fixture_checks = []) rep =
  let host = Array.make ctx.reps nan in
  let reps =
    List.init ctx.reps (fun i ->
        host.(i) <- probe_host ctx;
        rep i)
  in
  { reps; fixture_checks; host }

let path ctx f = Filename.concat ctx.dir f
let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0
let sum = List.fold_left ( + ) 0

let client_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let rep_seconds ctx = ctx.seconds /. float_of_int ctx.reps
let steady_count ctx rate = int_of_float (float_of_int rate *. rep_seconds ctx) + Gen.chunk_lines
let deadline ctx = Daemon.now_ns () + int_of_float (rep_seconds ctx *. 1e9)

let exit_check code = check "daemon exits 0 on SHUTDOWN" (code = 0) (Printf.sprintf "exit code %d" code)

let stats_checks ~stats shadow =
  let jobs = Daemon.stats_int stats "jobs" and total = Daemon.stats_int stats "total" in
  [
    check "final jobs = shadow model" (jobs = Shadow.jobs shadow)
      (Printf.sprintf "daemon %d, shadow %d" jobs (Shadow.jobs shadow));
    check "final total size = shadow model" (total = Shadow.total shadow)
      (Printf.sprintf "daemon %d, shadow %d" total (Shadow.total shadow));
  ]

let ack_check ~sent (t : Daemon.tally) =
  check "every op acked without ERR"
    (t.Daemon.errors = 0 && t.Daemon.lines = sent)
    (Printf.sprintf "%d sent, %d answered, %d ERR%s" sent t.Daemon.lines t.Daemon.errors
       (match t.Daemon.error_lines with [] -> "" | e :: _ -> " (" ^ e ^ ")"))

let piped_check (p : Daemon.piped) = ack_check ~sent:p.Daemon.sent p.Daemon.tally

(* A stdin daemon that has sent its READY banner. *)
let start_stdin ctx ~log args =
  let p = Daemon.spawn ~exe:ctx.exe ~log:(path ctx log) args in
  let s = Rebal_net.Lineio.reader p.Daemon.from_daemon in
  ignore (Daemon.expect_ready s);
  (p, s)

let no_lines = { Gen.chunks = [||]; lines = 0 }

(* The window of a stdin repetition: stream [steady] until the deadline,
   then read the closing STATS, the peak RSS and the journal sizes, and
   shut down. [opening] is the STATS reply that opened the window. *)
let stdin_window ctx (p, s) ~opening ~journals steady =
  let bytes0 = sum (List.map file_size journals) in
  let cpu0 = Daemon.cpu_s p.Daemon.pid and own0 = client_cpu () in
  let w = Daemon.pipeline ~deadline:(deadline ctx) ~sample_every:16 ~out:p.Daemon.to_daemon s steady in
  let daemon_cpu_s = Daemon.cpu_s p.Daemon.pid -. cpu0 and client_cpu_s = client_cpu () -. own0 in
  let host_after = probe_host ctx in
  let rss = Daemon.rss_peak_mb p.Daemon.pid in
  let bytes1 = sum (List.map file_size journals) in
  let code = Daemon.shutdown ~out:p.Daemon.to_daemon s p in
  let t = w.Daemon.tally in
  let rep ~setup_s ~lower_bound ~checks =
    {
      setup_s;
      window = (w.Daemon.first_send, t.Daemon.last_ack);
      sent = w.Daemon.sent;
      failed = t.Daemon.errors + (w.Daemon.sent - t.Daemon.lines);
      mutations = t.Daemon.mutations;
      tallies = [ t ];
      makespan = Daemon.stats_int w.Daemon.stats "makespan";
      lower_bound;
      moved = Daemon.stats_moved w.Daemon.stats - Daemon.stats_moved opening;
      journal_bytes = Some (bytes1 - bytes0);
      rss_peak_mb = rss;
      daemon_cpu_s;
      client_cpu_s;
      host_after;
      scraped = [];
      checks = (piped_check w :: checks) @ [ exit_check code ];
    }
  in
  (Gen.prefix steady w.Daemon.sent, w.Daemon.stats, rep)

(* ----- stream-single ----- *)

let single_procs = 64
let single_mix = { Gen.prefix = "j"; live = 100_000; rebalance_every = 5000; rebalance_k = 64 }
let single_trigger = Engine.Imbalance_above { threshold = 1.05; k = 8 }

let single_args journal =
  [ "serve"; "--procs"; string_of_int single_procs; "--journal"; journal; "--journal-format";
    "binary"; "--auto-imbalance"; "1.05"; "--auto-k"; "8" ]

(* The reference: the same lines through an in-process engine with the
   same trigger. *)
let reference_engine ~m ~trigger streams =
  let e = Engine.create ~trigger ~m () in
  List.iter
    (fun s ->
      Gen.iter_lines s (fun line ->
          match Protocol.parse line with
          | Ok (Some (Protocol.Add { id; size })) -> ignore (Engine.add_job e ~id ~size)
          | Ok (Some (Protocol.Remove id)) -> ignore (Engine.remove_job e ~id)
          | Ok (Some (Protocol.Resize { id; size })) -> ignore (Engine.resize_job e ~id ~size)
          | Ok (Some (Protocol.Rebalance k)) -> ignore (Engine.rebalance e ~k)
          | _ -> failwith ("reference: unexpected line " ^ line)))
    streams;
  e

let stream_single ctx =
  let g = Gen.create ~seed:ctx.seed single_mix in
  let preload = Gen.preload g in
  let steady = Gen.steady g (steady_count ctx stream_rate) in
  let rep i =
    let journal = path ctx (Printf.sprintf "single%d.journal" i) in
    let p, s = start_stdin ctx ~log:(Printf.sprintf "single%d.log" i) (single_args journal) in
    let pre = Daemon.pipeline ~out:p.Daemon.to_daemon s preload in
    let setup_s = Daemon.since_s p.Daemon.spawned in
    let sent, final, rep = stdin_window ctx (p, s) ~opening:pre.Daemon.stats ~journals:[ journal ] steady in
    let shadow = Shadow.create () in
    Shadow.apply_stream shadow preload;
    Shadow.apply_stream shadow sent;
    let st = Engine.stats (reference_engine ~m:single_procs ~trigger:single_trigger [ preload; sent ]) in
    let same key v = Daemon.stats_int final key = v in
    rep ~setup_s ~lower_bound:(Shadow.lower_bound shadow ~m:single_procs)
      ~checks:
        ((piped_check pre :: stats_checks ~stats:final shadow)
        @ [
            check "makespan, jobs, moved = in-process engine"
              (same "makespan" st.Engine.makespan && same "jobs" st.Engine.jobs
             && same "moved" st.Engine.moved)
              (Printf.sprintf "engine makespan=%d jobs=%d moved=%d; daemon %s" st.Engine.makespan
                 st.Engine.jobs st.Engine.moved final);
          ])
  in
  repeat ctx rep

(* ----- rpc-parallel ----- *)

let rpc_procs = 32
let rpc_connections = 2
let rpc_mix c = { Gen.prefix = Printf.sprintf "c%d." c; live = 2000; rebalance_every = 0; rebalance_k = 0 }
let rpc_args = [ "serve"; "--procs"; string_of_int rpc_procs; "--shards"; "4"; "--domains"; "1"; "--tcp"; "0" ]

(* Sum of every sample named [name] (all label sets). *)
let total_of samples name =
  List.fold_left
    (fun acc (s : Rebal_obs.Expo.sample) -> if s.Rebal_obs.Expo.sample_name = name then acc +. s.value else acc)
    0.0 samples

(* Upper bound of the bucket holding the median of the mutating-verb
   session latencies observed between two scrapes. *)
let session_p50 before after =
  let buckets samples =
    List.filter_map
      (fun (s : Rebal_obs.Expo.sample) ->
        let verb = List.assoc_opt "verb" s.sample_labels and le = List.assoc_opt "le" s.sample_labels in
        match (verb, le) with
        | Some ("add" | "remove" | "resize"), Some le when s.sample_name = "rebal_session_latency_seconds_bucket" ->
          Some (float_of_string le, s.value)
        | _ -> None)
      samples
  in
  let cumulative samples le =
    List.fold_left (fun acc (l, v) -> if l = le then acc +. v else acc) 0.0 (buckets samples)
  in
  let les = List.sort_uniq compare (List.map fst (buckets after)) in
  let delta le = cumulative after le -. cumulative before le in
  let total = delta infinity in
  match List.find_opt (fun le -> delta le >= total /. 2.0) les with
  | Some le when total > 0.0 -> le
  | _ -> nan

let rpc_parallel ctx =
  let gens = Array.init rpc_connections (fun c -> Gen.create ~seed:((ctx.seed * 1000) + c) (rpc_mix c)) in
  let preloads = Array.map Gen.preload gens in
  let steadies = Array.map (fun g -> Gen.steady g (steady_count ctx rpc_rate)) gens in
  let rep i =
    let p = Daemon.spawn ~exe:ctx.exe ~log:(path ctx (Printf.sprintf "rpc%d.log" i)) rpc_args in
    let out = Rebal_net.Lineio.reader p.Daemon.from_daemon in
    let port = Daemon.listening_port out in
    let conns =
      Array.map
        (fun pre ->
          let fd = Daemon.connect port in
          let s = Rebal_net.Lineio.reader fd in
          ignore (Daemon.expect_ready s);
          (fd, s, Daemon.pipeline ~out:fd s pre))
        preloads
    in
    let setup_s = Daemon.since_s p.Daemon.spawned in
    let before = Daemon.scrape port in
    let deadline = deadline ctx in
    let tallies = Array.map (fun _ -> Daemon.tally ()) conns in
    let cpu0 = Daemon.cpu_s p.Daemon.pid and own0 = client_cpu () in
    let t0 = Daemon.now_ns () in
    (* Closed loop: each connection keeps one request outstanding. *)
    let loop c =
      let fd, s, _ = conns.(c) in
      Gen.iter_lines steadies.(c) (fun line ->
          if Daemon.now_ns () < deadline then Daemon.round_trip tallies.(c) fd s (line ^ "\n"))
    in
    Array.iter Domain.join (Array.init rpc_connections (fun c -> Domain.spawn (fun () -> loop c)));
    let window = (t0, Array.fold_left (fun acc t -> max acc t.Daemon.last_ack) t0 tallies) in
    let daemon_cpu_s = Daemon.cpu_s p.Daemon.pid -. cpu0 and client_cpu_s = client_cpu () -. own0 in
    let host_after = probe_host ctx in
    let after = Daemon.scrape port in
    let fd0, s0, _ = conns.(0) in
    let final = (Daemon.pipeline ~out:fd0 s0 no_lines).Daemon.stats in
    let rss = Daemon.rss_peak_mb p.Daemon.pid in
    Array.iteri (fun c (fd, _, _) -> if c > 0 then Unix.close fd) conns;
    (try Rebal_net.Lineio.write_string fd0 "SHUTDOWN\n" with Unix.Unix_error _ -> ());
    Daemon.drain s0;
    Unix.close fd0;
    Daemon.drain out;
    let code = Daemon.reap p in
    let shadow = Shadow.create () in
    Array.iter (Shadow.apply_stream shadow) preloads;
    Array.iteri (fun c s -> Shadow.apply_stream shadow (Gen.prefix s tallies.(c).Daemon.lines)) steadies;
    let count f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
    let mutations = count (fun t -> t.Daemon.mutations) in
    let delta name = total_of after name -. total_of before name in
    let ops = float_of_int (max 1 mutations) in
    let _, _, last_preload = conns.(rpc_connections - 1) in
    {
      setup_s;
      window;
      sent = count (fun t -> t.Daemon.lines);
      failed = count (fun t -> t.Daemon.errors);
      mutations;
      tallies = Array.to_list tallies;
      makespan = Daemon.stats_int final "makespan";
      lower_bound = Shadow.lower_bound shadow ~m:rpc_procs;
      moved = Daemon.stats_moved final - Daemon.stats_moved last_preload.Daemon.stats;
      journal_bytes = None;
      rss_peak_mb = rss;
      daemon_cpu_s;
      client_cpu_s;
      host_after;
      scraped =
        [
          ("cluster.mailbox_tasks_per_op", delta "rebal_mailbox_wait_seconds_count" /. ops, "count");
          ( "cluster.worker_util",
            delta "rebal_domain_busy_seconds" /. (float_of_int (snd window - fst window) /. 1e9),
            "ratio" );
          ( "cluster.mailbox_wait_us",
            delta "rebal_mailbox_wait_seconds_sum" /. delta "rebal_mailbox_wait_seconds_count" *. 1e6,
            "us" );
          ("session.server_p50_us", session_p50 before after *. 1e6, "us");
        ];
      checks =
        Array.to_list (Array.map (fun (_, _, pre) -> piped_check pre) conns)
        @ Array.to_list (Array.map (fun t -> ack_check ~sent:t.Daemon.lines t) tallies)
        @ stats_checks ~stats:final shadow
        @ [ exit_check code ];
    }
  in
  repeat ctx rep

(* ----- restart-sharded ----- *)

let restart_procs = 64
let restart_shards = 4
let restart_mix = { Gen.prefix = "r"; live = 100_000; rebalance_every = 2000; rebalance_k = 32 }

(* Steady lines recorded into the fixture on top of its preload, so the
   journals carry removes, resizes and repairs, not only adds. *)
let restart_fixture_churn = 100_000

let restart_args journal =
  [ "serve"; "--procs"; string_of_int restart_procs; "--shards"; string_of_int restart_shards;
    "--supervise"; "--journal"; journal; "--journal-format"; "binary" ]

let shard_files base = List.init restart_shards (fun i -> Printf.sprintf "%s.%d" base i)

let copy_file src dst =
  In_channel.with_open_bin src (fun ic ->
      Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc (In_channel.input_all ic)))

(* Start [exe args] with its output in [log]; [finish] waits for it and
   returns the exit code and the output. *)
let start_capture ctx ~log args =
  let out = path ctx log in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let prog, argv = Daemon.command ~placement:Daemon.Anywhere ctx.exe args in
  let pid = Unix.create_process prog (Array.of_list argv) Unix.stdin fd fd in
  Unix.close fd;
  Daemon.live := pid :: !Daemon.live;
  fun () ->
    let code = Daemon.wait_exit pid in
    Daemon.live := List.filter (( <> ) pid) !Daemon.live;
    (code, In_channel.with_open_bin out In_channel.input_all)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let restart_sharded ctx =
  (* The untimed fixture: preload plus churn recorded by a supervised
     daemon that is then shut down cleanly. *)
  let g = Gen.create ~seed:ctx.seed restart_mix in
  let preload = Gen.preload g in
  let churn = Gen.steady g restart_fixture_churn in
  let steady = Gen.steady g (steady_count ctx restart_rate) in
  let fixture = path ctx "fixture.journal" in
  let p, s = start_stdin ctx ~log:"fixture.log" (restart_args fixture) in
  let a = Daemon.pipeline ~out:p.Daemon.to_daemon s preload in
  let b = Daemon.pipeline ~out:p.Daemon.to_daemon s churn in
  let fixture_checks = [ piped_check a; piped_check b; exit_check (Daemon.shutdown ~out:p.Daemon.to_daemon s p) ] in
  let fixture_shadow = Shadow.create () in
  List.iter (Shadow.apply_stream fixture_shadow) [ preload; churn ];
  let rep i =
    let base = path ctx (Printf.sprintf "restart%d.journal" i) in
    List.iter2 copy_file (shard_files fixture) (shard_files base);
    let p, s = start_stdin ctx ~log:(Printf.sprintf "restart%d.log" i) (restart_args base) in
    let setup_s = Daemon.since_s p.Daemon.spawned in
    let opening = (Daemon.pipeline ~out:p.Daemon.to_daemon s no_lines).Daemon.stats in
    let sent, final, rep = stdin_window ctx (p, s) ~opening ~journals:(shard_files base) steady in
    let shadow = Shadow.copy fixture_shadow in
    Shadow.apply_stream shadow sent;
    (* The shard journals replay concurrently: this is outside timing. *)
    let replays =
      List.mapi
        (fun k f -> (f, start_capture ctx ~log:(Printf.sprintf "replay%d.%d.out" i k) [ "replay"; f ]))
        (shard_files base)
      |> List.map (fun (f, finish) ->
             let code, out = finish () in
             check ("rebalance replay " ^ Filename.basename f)
               (code = 0 && contains out "replay OK")
               (String.trim out))
    in
    rep ~setup_s ~lower_bound:(Shadow.lower_bound shadow ~m:restart_procs)
      ~checks:(stats_checks ~stats:final shadow @ replays)
  in
  repeat ctx ~fixture_checks rep

let run ctx = function
  | "stream-single" -> stream_single ctx
  | "rpc-parallel" -> rpc_parallel ctx
  | "restart-sharded" -> restart_sharded ctx
  | w -> invalid_arg ("unknown workload " ^ w)

(* ----- the end-to-end figures ----- *)

(* The host's speed drifts by tens of percent over seconds to minutes,
   so every figure averages over the whole run: throughput is all
   acknowledged mutations over all windows, and a latency percentile is
   taken per half-second slice and averaged over the slices. *)
let slice_s = 0.5

let end_to_end r =
  let open Report in
  let reps = Array.of_list r.reps in
  let over f = Array.map f reps in
  let med f = median (over f) in
  let total f = Array.fold_left (fun acc x -> acc + f x) 0 reps in
  let window_s (a, b) = float_of_int (b - a) /. 1e9 in
  let windows = Array.fold_left (fun acc rp -> acc +. window_s rp.window) 0.0 reps in
  let buckets =
    Array.to_list
      (over (fun rp ->
           let t0, t1 = rp.window in
           let bounds = Series.slices ~t0 ~t1 (max 1 (Float.to_int (Float.round (window_s rp.window /. slice_s)))) in
           Series.bucket (List.map (fun t -> t.Daemon.samples) rp.tallies) bounds))
    |> List.concat_map Array.to_list
    |> List.filter (fun a -> Array.length a > 0)
  in
  let lat p =
    List.fold_left (fun acc a -> acc +. percentile_us a p) 0.0 buckets /. float_of_int (List.length buckets)
  in
  let n = total (fun rp -> List.fold_left (fun acc t -> acc + Series.length t.Daemon.samples) 0 rp.tallies) in
  let mutations = total (fun rp -> rp.mutations) in
  let ops = float_of_int (max 1 mutations) in
  let nreps = Array.length reps in
  let probes = Array.append r.host (over (fun rp -> rp.host_after)) in
  let host = Array.fold_left ( +. ) 0.0 probes /. float_of_int (Array.length probes) /. hostref_nominal in
  ( [
      metric "setup_s" "s" (med (fun rp -> rp.setup_s) *. host) ~samples:nreps;
      metric "ops_s" "1/s" (float_of_int mutations /. windows /. host) ~samples:mutations;
      metric "lat_p50_us" "us" (lat 0.50 *. host) ~samples:n;
      metric "lat_p90_us" "us" (lat 0.90 *. host) ~samples:n;
      metric "makespan_over_lb" "ratio"
        (med (fun rp -> float_of_int rp.makespan /. float_of_int rp.lower_bound))
        ~samples:nreps;
      metric "rss_peak_mb" "MiB" (med (fun rp -> rp.rss_peak_mb)) ~samples:nreps;
    ],
    [
      (* Too noisy run to run on a shared 2-CPU host to carry a bound. *)
      metric "lat_p99_us" "us" (lat 0.99 *. host) ~samples:n;
      metric "host_speed" "ratio" host ~samples:(Array.length probes);
      metric "raw_setup_s" "s" (med (fun rp -> rp.setup_s)) ~samples:nreps;
      metric "raw_ops_s" "1/s" (float_of_int mutations /. windows) ~samples:mutations;
      metric "raw_lat_p50_us" "us" (lat 0.50) ~samples:n;
      metric "raw_lat_p90_us" "us" (lat 0.90) ~samples:n;
      metric "cpu_us_per_op" "us" (med (fun rp -> 1e6 *. rp.daemon_cpu_s /. float_of_int (max 1 rp.mutations))) ~samples:nreps;
      metric "failed_ratio" "ratio"
        (float_of_int (total (fun rp -> rp.failed)) /. float_of_int (max 1 (total (fun rp -> rp.sent))))
        ~samples:(total (fun rp -> rp.sent));
      metric "moves_per_kop" "count" (1000.0 *. float_of_int (total (fun rp -> rp.moved)) /. ops) ~samples:mutations;
      metric "window_s" "s" windows ~samples:nreps;
    ]
    @ (if Array.exists (fun rp -> rp.journal_bytes <> None) reps then
         [
           metric "journal_bytes_per_op" "B"
             (float_of_int (total (fun rp -> Option.value rp.journal_bytes ~default:0)) /. ops)
             ~samples:mutations;
         ]
       else [])
    @ (match r.reps with
      | [] -> []
      | first :: _ ->
        List.map
          (fun (name, _, u) ->
            metric name u
              (med (fun rp -> match List.find_opt (fun (n, _, _) -> n = name) rp.scraped with Some (_, v, _) -> v | None -> nan))
              ~samples:nreps)
          first.scraped) )

let checks r = r.fixture_checks @ List.concat_map (fun rp -> rp.checks) r.reps
let attempted r = List.fold_left (fun acc rp -> acc + rp.sent) 0 r.reps
let failed r = List.fold_left (fun acc rp -> acc + rp.failed) 0 r.reps
