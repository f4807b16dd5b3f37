(* The serve daemon in-process, through [Rebal_net.Daemon]:

   - every configuration [serve] and [chaos-serve] refuse, pinned with
     its message (flag checks, journal resume, alert rules, the chaos
     driver's config and kill schedule);
   - whole sessions on each transport: stdin-shaped over a pipe pair,
     TCP port 0 with two concurrent clients (at 0, 1 and 2 hosting
     domains, and a supervised cluster at 2), a Unix domain socket, and
     SHUTDOWN running the finalizer (final snapshot, replayable
     journals, metrics file, socket unlinked);
   - a model-based differential test: random scripts of pipelined
     batches, QUIT mid-batch, malformed lines and REBALANCE k run
     against a single engine, clusters with 0, 1 and 2 hosting domains
     and a supervised cluster, and must agree with a pure model — the
     paper's GREEDY (least-loaded placement, Greedy.solve for repairs).
     Single-engine replies must match the model exactly; cluster
     replies are checked for verbs, ids, ERR lines and placement
     consistency, and must equal the one-line-at-a-time session apart
     from the chunk-level makespan= field. *)

module Engine = Rebal_online.Engine
module Cluster = Rebal_online.Cluster
module Protocol = Rebal_online.Protocol
module Replay = Rebal_online.Replay
module Chaos = Rebal_online.Chaos
module Journal = Rebal_obs.Journal
module Daemon = Rebal_net.Daemon
module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Greedy = Rebal_algo.Greedy
module Metrics = Rebal_obs.Metrics

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string
let check_lines = check Alcotest.(list string)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let temp_path suffix =
  let path = Filename.temp_file "rebal_daemon" suffix in
  Sys.remove path;
  path

let write_file path text = Out_channel.with_open_text path (fun oc -> output_string oc text)

let remove_noerr path = try Sys.remove path with Sys_error _ -> ()

(* ----- rejections ----- *)

let refused what expected = function
  | Ok _ -> Alcotest.failf "%s: accepted, wanted %S" what expected
  | Error msg -> check_string what expected msg

let serve_refuses what config expected =
  refused what expected (Daemon.validate config);
  refused (what ^ " (create)") expected (Result.map ignore (Daemon.create config))

let test_serve_flag_rejections () =
  let d = Daemon.default in
  serve_refuses "two auto triggers"
    { d with auto_events = Some 3; auto_seconds = Some 2.0 }
    "give at most one of --auto-events, --auto-imbalance, --auto-seconds";
  serve_refuses "zero shards" { d with shards = 0 }
    "need 1 <= --shards <= --procs (got 0 shards, 8 procs)";
  serve_refuses "more shards than procs" { d with procs = 2; shards = 3 }
    "need 1 <= --shards <= --procs (got 3 shards, 2 procs)";
  serve_refuses "supervise one shard" { d with supervise = true }
    "--supervise needs --shards >= 2 (failover needs survivors)";
  serve_refuses "negative domains" { d with shards = 2; domains = -1 }
    "--domains must be non-negative (got -1)";
  serve_refuses "tcp and socket" { d with tcp = Some 0; socket = Some "x.sock" }
    "give at most one of --tcp and --socket";
  serve_refuses "zero telemetry interval" { d with telemetry_interval = Some 0.0 }
    "--telemetry-interval must be positive (got 0)";
  serve_refuses "nan telemetry interval" { d with telemetry_interval = Some Float.nan }
    "--telemetry-interval must be positive (got nan)";
  serve_refuses "negative auto-k" { d with auto_events = Some 1; auto_k = -1 }
    "--auto-k must be non-negative (got -1)";
  serve_refuses "negative evac budget"
    { d with shards = 2; supervise = true; evac_budget = Some (-1) }
    "--evac-budget must be non-negative (got -1)";
  check_bool "the defaults validate" true (Daemon.validate d = Ok ())

let test_serve_create_rejections () =
  let d = Daemon.default in
  let empty = temp_path ".rules" and bad = temp_path ".rules" and dup = temp_path ".rules" in
  write_file empty "";
  write_file bad "bogus rule\n";
  write_file dup
    "alert a max(rebal_engine_jobs[1m]) > 1 for 0s\nalert a max(rebal_engine_jobs[1m]) > 2 for 0s\n";
  let journal = temp_path ".jsonl" in
  Fun.protect
    ~finally:(fun () -> List.iter remove_noerr [ empty; bad; dup; journal ])
    (fun () ->
      refused "empty rules file"
        (Printf.sprintf "alert rules file %s holds no rules" empty)
        (Result.map ignore (Daemon.create { d with alert_rules = Some empty }));
      (match Daemon.create { d with alert_rules = Some bad } with
      | Ok _ -> Alcotest.fail "malformed rules accepted"
      | Error msg ->
        check_bool ("malformed rules: " ^ msg) true (starts_with "cannot load alert rules: " msg));
      (match Daemon.create { d with alert_rules = Some dup } with
      | Ok _ -> Alcotest.fail "duplicate rule names accepted"
      | Error msg ->
        check_bool ("duplicate rules: " ^ msg) true (starts_with "cannot load alert rules: " msg));
      refused "missing rules file" "cannot load alert rules: /nonexistent/rules: No such file or directory"
        (Result.map ignore (Daemon.create { d with alert_rules = Some "/nonexistent/rules" }));
      (* A journal recorded over two processors cannot back three. *)
      let daemon = ok (Daemon.create { d with procs = 2; journal = Some journal }) in
      ignore (Protocol.handle_lines (Daemon.target daemon) [ "ADD a 1" ]);
      Daemon.close daemon;
      refused "processor count mismatch"
        (Printf.sprintf "journal %s was recorded over 2 processors, this serve would give it 3"
           journal)
        (Result.map ignore (Daemon.create { d with procs = 3; journal = Some journal }));
      (* An address already taken is refused by [run], after [close]. *)
      let taken = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close taken)
        (fun () ->
          Unix.bind taken (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
          Unix.listen taken 1;
          let port =
            match Unix.getsockname taken with Unix.ADDR_INET (_, p) -> p | _ -> assert false
          in
          match Daemon.run (ok (Daemon.create { d with tcp = Some port })) with
          | Ok () -> Alcotest.fail "served on a taken port"
          | Error msg ->
            check_string "taken port"
              (Printf.sprintf "cannot listen on 127.0.0.1:%d: Address already in use" port)
              msg);
      refused "journal in a missing directory" "/nonexistent/dir/j: No such file or directory"
        (Result.map ignore (Daemon.create { d with journal = Some "/nonexistent/dir/j" }));
      write_file journal "not a journal\n";
      match Daemon.create { d with procs = 2; journal = Some journal } with
      | Ok _ -> Alcotest.fail "a corrupt journal resumed"
      | Error msg ->
        check_bool ("corrupt journal: " ^ msg) true
          (starts_with (Printf.sprintf "cannot resume journal %s: " journal) msg))

let test_chaos_rejections () =
  let c =
    {
      Chaos.shards = 8;
      procs = 32;
      horizon = 400;
      ops_per_step = 8;
      period = 10;
      k = 16;
      evac_budget = None;
      seed = 1;
    }
  in
  let validate what config expected = refused what expected (Chaos.validate config) in
  validate "one shard" { c with shards = 1 } "need 2 <= --shards <= --procs (got 1 shards, 32 procs)";
  validate "more shards than procs" { c with shards = 4; procs = 2 }
    "need 2 <= --shards <= --procs (got 4 shards, 2 procs)";
  validate "zero horizon" { c with horizon = 0 } "--horizon must be positive (got 0)";
  validate "negative ops" { c with ops_per_step = -1 } "--ops-per-step must be non-negative (got -1)";
  validate "zero period" { c with period = 0 } "--period must be positive (got 0)";
  validate "negative k" { c with k = -1 } "-k must be non-negative (got -1)";
  validate "negative evac budget" { c with evac_budget = Some (-2) }
    "--evac-budget must be non-negative (got -2)";
  check_bool "the defaults validate" true (Chaos.validate c = Ok ());
  let schedule what kills expected =
    refused what expected (Result.map ignore (Chaos.kill_schedule c ~down_for:80 kills))
  in
  schedule "kill outside the shards" [ (9, 10) ] "--kill 9:10 is outside 8 shards x 400 steps";
  schedule "kill past the horizon" [ (1, 400) ] "--kill 1:400 is outside 8 shards x 400 steps";
  let live = ok (Chaos.kill_schedule c ~down_for:80 [ (3, 100) ]) in
  check_bool "down inside the window" false (live 3 100);
  check_bool "up after it" true (live 3 180);
  check_bool "other shards unaffected" true (live 2 120);
  (* chaos-serve loads its rules through the shared telemetry builder. *)
  let empty = temp_path ".rules" in
  write_file empty "";
  Fun.protect
    ~finally:(fun () -> remove_noerr empty)
    (fun () ->
      let chaos = Chaos.create ~live c in
      refused "empty chaos rules" (Printf.sprintf "alert rules file %s holds no rules" empty)
        (Result.map ignore
           (Daemon.telemetry ~rules:empty ~meta:[]
              (Protocol.Supervised (Chaos.supervisor chaos)))))

(* ----- sessions on every transport ----- *)

let read_all fd =
  let ic = Unix.in_channel_of_descr fd in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = go [] in
  close_in ic;
  lines

(* A stdin-shaped session: the commands sit in a pipe, the replies go to
   another, exactly as `printf ... | rebalance serve` runs. *)
let stdio_session daemon lines =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let replies = ref [] in
  let reader = Thread.create (fun () -> replies := read_all out_r) () in
  let input = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  ignore (Unix.write_substring in_w input 0 (String.length input));
  Unix.close in_w;
  let ic = Unix.in_channel_of_descr in_r and oc = Unix.out_channel_of_descr out_w in
  ok (Daemon.run ~io:(ic, oc) daemon);
  close_out oc;
  close_in ic;
  Thread.join reader;
  !replies

let test_stdio_session () =
  let daemon = ok (Daemon.create { Daemon.default with procs = 2 }) in
  check_lines "replies"
    [
      "READY rebalance-serve procs=2 jobs=0 makespan=0";
      "PLACED a 0 makespan=10";
      "PLACED b 1 makespan=10";
      "ERR line 3: size must be positive, got 0";
      "RESIZED b 1 makespan=12";
      "BYE";
    ]
    (stdio_session daemon [ "ADD a 10"; "ADD b 7"; "ADD c 0"; "RESIZE b 12"; "QUIT"; "ADD d 1" ])

(* Start [run] on its own thread and wait for its listening address. *)
let serve_in_background daemon =
  let addr = Atomic.make None in
  let result = ref (Ok ()) in
  let th =
    Thread.create
      (fun () -> result := Daemon.run ~on_listen:(fun a -> Atomic.set addr (Some a)) daemon)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Atomic.get addr with
    | Some a -> a
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "daemon never listened";
      Thread.delay 0.01;
      wait ()
  in
  let a = wait () in
  (a, fun () -> Thread.join th; ok !result)

(* One client: pipeline every command, then read replies to EOF. *)
let client addr lines =
  let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  let out = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  ignore (Unix.write_substring fd out 0 (String.length out));
  read_all fd

let two_clients_then_shutdown ?(control = [ "STATS"; "SHUTDOWN" ]) addr =
  let replies = Array.make 2 [] in
  let clients =
    List.init 2 (fun c ->
        Thread.create
          (fun () ->
            replies.(c) <-
              client addr
                [
                  Printf.sprintf "ADD c%d.a 10" c;
                  Printf.sprintf "ADD c%d.b 20" c;
                  Printf.sprintf "RESIZE c%d.a 7" c;
                  Printf.sprintf "REMOVE c%d.b" c;
                  "QUIT";
                ])
          ())
  in
  List.iter Thread.join clients;
  Array.iteri
    (fun c lines ->
      let verbs = List.map (fun l -> List.hd (String.split_on_char ' ' l)) lines in
      check_lines (Printf.sprintf "client %d verbs" c)
        [ "READY"; "PLACED"; "PLACED"; "RESIZED"; "REMOVED"; "BYE" ]
        verbs)
    replies;
  client addr control

(* At every hosting-domain count, sessions run without the op lock. *)
let test_tcp_two_clients () =
  List.iter
    (fun domains ->
      let daemon =
        ok (Daemon.create { Daemon.default with procs = 8; shards = 2; domains; tcp = Some 0 })
      in
      let addr, finish = serve_in_background daemon in
      (match addr with
      | Unix.ADDR_INET (_, port) -> check_bool "port 0 resolved" true (port > 0)
      | Unix.ADDR_UNIX _ -> Alcotest.fail "TCP daemon bound a Unix socket");
      let control = two_clients_then_shutdown addr in
      finish ();
      check_bool
        (Printf.sprintf "D=%d: both clients' jobs live" domains)
        true
        (List.exists (starts_with "STATS shards=2 jobs=2 procs=8") control);
      check_string "SHUTDOWN answers BYE" "BYE" (List.nth control (List.length control - 1)))
    [ 0; 1; 2 ]

(* A supervised cluster's sessions run without the op lock too, over
   two hosting domains. *)
let test_tcp_two_clients_supervised () =
  let daemon =
    ok
      (Daemon.create
         { Daemon.default with procs = 8; shards = 2; domains = 2; supervise = true; tcp = Some 0 })
  in
  let addr, finish = serve_in_background daemon in
  let control = two_clients_then_shutdown ~control:[ "STATS"; "HEALTH"; "SHUTDOWN" ] addr in
  finish ();
  let healthy =
    "healthy=2 suspect=0 down=0 recovering=0 evacuations=0 evacuated=0 stranded=0 \
     readmissions=0 probe_failures=0 watchdog_trips=0 rejections=0"
  in
  check_bool "both clients' jobs live, health appended" true
    (List.exists
       (fun l ->
         starts_with "STATS shards=2 jobs=2 procs=8" l && String.ends_with ~suffix:healthy l)
       control);
  check_bool "HEALTH answers" true (List.mem ("HEALTH shards=2 " ^ healthy) control);
  check_string "SHUTDOWN answers BYE" "BYE" (List.nth control (List.length control - 1))

(* The body of a GET /metrics scrape: the lines after the blank line
   ending the HTTP header. *)
let scrape addr =
  let rec body = function [] -> [] | "\r" :: rest | "" :: rest -> rest | _ :: rest -> body rest in
  body (client addr [ "GET /metrics HTTP/1.0"; "" ])

(* [rebal_session_latency_seconds_count] summed over its [verb] label. *)
let session_ops metrics =
  List.fold_left
    (fun acc line ->
      if starts_with "rebal_session_latency_seconds_count{" line then
        acc + int_of_float (float_of_string (List.nth (String.split_on_char ' ' line) 1))
      else acc)
    0 metrics

(* Each exposed series as its name and label set, without its value. *)
let series metrics =
  List.sort_uniq compare
    (List.filter_map
       (fun line ->
         if line = "" || line.[0] = '#' then None
         else Some (List.hd (String.split_on_char ' ' line)))
       metrics)

(* Sessions on acceptor domains record their latency in the registries
   the cluster keeps for those domains, and every scrape merges all of
   them: two concurrent unpipelined clients at --domains 2 (connected
   one after the other, so the kernel's accept wake-up gives them one
   domain each) send N ops, and the session latency count grows by
   exactly N. The scraped series, names and label sets, are those a
   --domains 0 run of the same traffic exposes, bar the domain-count
   gauge only D > 0 exports. *)
let test_metrics_merged_from_every_domain () =
  let per_client = 12 in
  let run domains =
    let daemon =
      ok (Daemon.create { Daemon.default with procs = 8; shards = 2; domains; tcp = Some 0 })
    in
    let addr, finish = serve_in_background daemon in
    let before = session_ops (scrape addr) in
    let connect () =
      let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      Unix.connect fd addr;
      let ic = Unix.in_channel_of_descr fd in
      check_bool "READY banner" true (starts_with "READY " (input_line ic));
      (fd, ic)
    in
    let conns = List.init 2 (fun _ -> connect ()) in
    let replies = Array.make 2 [] in
    let request_reply c (fd, ic) () =
      for i = 0 to per_client - 1 do
        let id = Printf.sprintf "c%d.%d" c (i / 3) in
        let line =
          match i mod 3 with
          | 0 -> Printf.sprintf "ADD %s %d\n" id (1 + i)
          | 1 -> Printf.sprintf "RESIZE %s %d\n" id (2 + i)
          | _ -> Printf.sprintf "REMOVE %s\n" id
        in
        ignore (Unix.write_substring fd line 0 (String.length line));
        replies.(c) <- input_line ic :: replies.(c)
      done;
      close_in ic
    in
    List.iter Thread.join (List.mapi (fun c conn -> Thread.create (request_reply c conn) ()) conns);
    Array.iter
      (fun r ->
        check_bool "every op acknowledged" true (not (List.exists (starts_with "ERR") r)))
      replies;
    (* A session observes an op's latency before it writes the reply,
       so every op is counted by now. *)
    let metrics = scrape addr in
    ignore (client addr [ "SHUTDOWN" ]);
    finish ();
    (session_ops metrics - before, series metrics)
  in
  let ops2, series2 = run 2 in
  check_int "D=2: the session latency count is every op sent" (2 * per_client) ops2;
  let ops0, series0 = run 0 in
  check_int "D=0: the session latency count is every op sent" (2 * per_client) ops0;
  check_bool "the scrape exposes the session series" true
    (List.exists (starts_with "rebal_session_latency_seconds_count{") series0);
  check_lines "the D=2 series are the D=0 series" series0
    (List.filter (fun s -> s <> "rebal_cluster_domains") series2)

let test_unix_socket () =
  let path = temp_path ".sock" in
  write_file path "stale";
  let daemon = ok (Daemon.create { Daemon.default with procs = 4; socket = Some path }) in
  let addr, finish = serve_in_background daemon in
  check_bool "bound the socket path" true (addr = Unix.ADDR_UNIX path);
  let control = two_clients_then_shutdown addr in
  finish ();
  check_bool "sessions share one engine" true
    (List.exists (starts_with "STATS jobs=2 procs=4") control);
  check_bool "socket unlinked on exit" false (Sys.file_exists path)

let test_shutdown_runs_finalizer () =
  let base = temp_path ".jsonl" and metrics = temp_path ".prom" in
  let journals = [ base ^ ".0"; base ^ ".1" ] in
  Fun.protect
    ~finally:(fun () -> List.iter remove_noerr (metrics :: journals))
    (fun () ->
      let config =
        {
          Daemon.default with
          procs = 8;
          shards = 2;
          supervise = true;
          tcp = Some 0;
          journal = Some base;
          metrics_file = Some metrics;
        }
      in
      let addr, finish = serve_in_background (ok (Daemon.create config)) in
      ignore (client addr [ "ADD a 10"; "ADD b 20"; "ADD c 5"; "REBALANCE"; "SHUTDOWN" ]);
      finish ();
      List.iter
        (fun path ->
          let _, evs = ok (Journal.load_file path) in
          let last = List.nth evs (List.length evs - 1) in
          check_string (path ^ " ends in the final snapshot") "snapshot" last.Journal.kind;
          check_bool (path ^ " replays clean") true (Result.is_ok (Replay.run_file path)))
        journals;
      check_bool "metrics file dumped" true
        (List.exists (starts_with "# TYPE rebal_engine_jobs")
           (In_channel.with_open_text metrics In_channel.input_lines));
      (* A restart resumes the three jobs from the snapshots. *)
      let again = ok (Daemon.create { config with tcp = None }) in
      check_bool "restart resumes every job" true
        (starts_with "READY rebalance-serve shards=2 procs=8 jobs=3"
           (Protocol.greeting (Daemon.target again)));
      Daemon.close again)

(* The value of every exposed sample of [series] (a metric name with
   its [_count] or [_sum] suffix), summed over label sets. *)
let sample_sum series metrics =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ name; v ] when name = series || starts_with (series ^ "{") name ->
        acc + int_of_float (float_of_string v)
      | _ -> acc)
    0 metrics

(* The lines of each METRICS reply in a session's replies. *)
let metrics_replies replies =
  let rec go acc cur = function
    | [] -> List.rev acc
    | "# EOF" :: rest -> go (List.rev cur :: acc) [] rest
    | l :: rest -> go acc (l :: cur) rest
  in
  go [] [] replies

(* Observations of the histogram [name] (all label sets) that the
   process-wide default registry holds. *)
let default_observations name =
  List.fold_left
    (fun acc (mtr : Metrics.metric) ->
      match mtr.Metrics.kind with
      | Metrics.Histogram h when mtr.Metrics.name = name -> acc + Metrics.Histogram.observations h
      | _ -> acc)
    0
    (Metrics.Registry.metrics Metrics.Registry.default)

(* Replayed history is not served work: a restarted daemon's op-latency
   and moves-per-rebalance histograms gain nothing from the restart
   (replay re-executes every event and repair, and the final check
   probes a repair, yet none of it is observed), the first ADD counts
   one, and STATS still counts the final checks — one per shard that
   holds jobs. Every scrape also merges the default registry, which
   earlier sessions in this process recorded into, so the counts are
   taken relative to it: a fresh process starts it at zero. *)
let test_restart_records_no_telemetry () =
  List.iter
    (fun (config, history, stats_prefix) ->
      let base = temp_path ".journal" in
      let config = { config with Daemon.journal = Some base } in
      Fun.protect
        ~finally:(fun () ->
          List.iter remove_noerr (base :: List.init config.Daemon.shards (Printf.sprintf "%s.%d" base)))
        (fun () ->
          ignore (stdio_session (ok (Daemon.create config)) (history @ [ "QUIT" ]));
          let count0 = default_observations "rebal_engine_op_latency_seconds" in
          let moves0 = default_observations "rebal_engine_moves_per_rebalance" in
          let replies =
            stdio_session (ok (Daemon.create config)) [ "METRICS"; "STATS"; "ADD z 1"; "METRICS"; "QUIT" ]
          in
          match metrics_replies replies with
          | [ before; after ] ->
            let count = "rebal_engine_op_latency_seconds_count" in
            let moves = "rebal_engine_moves_per_rebalance_count" in
            check_int "no op latency observed by the restart" count0 (sample_sum count before);
            check_int "no repair observed by the restart" moves0 (sample_sum moves before);
            check_int "one ADD, one observation" (count0 + 1) (sample_sum count after);
            check_int "still no repair observed" moves0 (sample_sum moves after);
            check_bool "STATS counts the final checks" true
              (List.exists (starts_with stats_prefix) replies)
          | _ -> Alcotest.fail "wanted two METRICS replies"))
    [
      ( { Daemon.default with procs = 4 },
        [ "ADD a 5"; "ADD b 3"; "ADD c 2" ],
        "STATS jobs=3 procs=4 makespan=5 total=10 imbalance=1.000 events=3 adds=3 removes=0 \
         resizes=0 rebalances=0 auto=0 auto_triggers=0 moved=0 last_rebalance_moves=0 checks=1 \
         failures=0" );
      ( { Daemon.default with procs = 8; shards = 4; supervise = true },
        [ "ADD a 5"; "ADD b 3"; "ADD c 2"; "ADD d 9"; "ADD e 4"; "RESIZE a 6"; "REMOVE b"; "REBALANCE 2" ],
        "STATS shards=4 jobs=4 procs=8" );
    ]

(* An idle session (blocked reading, nothing unread) does not hold up
   the drain: with one connected and silent, SHUTDOWN from a second
   client stops the daemon within a second, and the idle client reads
   EOF after its READY banner. *)
let test_idle_session_drains_at_once () =
  List.iter
    (fun domains ->
      let daemon =
        ok (Daemon.create { Daemon.default with procs = 8; shards = 2; domains; tcp = Some 0 })
      in
      let addr, finish = serve_in_background daemon in
      let idle = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      Unix.connect idle addr;
      let idle_ic = Unix.in_channel_of_descr idle in
      check_bool "idle client greeted" true (starts_with "READY " (input_line idle_ic));
      let start = Unix.gettimeofday () in
      check_string "SHUTDOWN answers BYE" "BYE" (List.nth (client addr [ "SHUTDOWN" ]) 1);
      finish ();
      let took = Unix.gettimeofday () -. start in
      check_bool (Printf.sprintf "D=%d: exited in %.2f s, under 1 s" domains took) true (took < 1.0);
      check_bool "the idle client sees EOF" true
        (match input_line idle_ic with _ -> false | exception End_of_file -> true);
      close_in idle_ic)
    [ 0; 2 ]

(* A drain that cuts a line in transit never executes the fragment: a
   client has its "RESIZE a 100" only as far as "RESIZE a 1" when
   SHUTDOWN from a second client starts the drain. The size stays put,
   no resize reaches the journal, and the final snapshot (so a restart)
   holds the job at its old size. A client's own EOF still ends its
   last line, which runs: "ADD b 3" without a newline is placed. *)
let test_drain_drops_cut_line () =
  List.iter
    (fun (shards, domains) ->
      let base = temp_path ".journal" in
      let journals =
        if shards = 1 then [ base ] else List.init shards (Printf.sprintf "%s.%d" base)
      in
      Fun.protect
        ~finally:(fun () -> List.iter remove_noerr journals)
        (fun () ->
          let config =
            { Daemon.default with procs = 4; shards; domains; tcp = Some 0; journal = Some base }
          in
          let addr, finish = serve_in_background (ok (Daemon.create config)) in
          let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
          Unix.connect fd addr;
          let ic = Unix.in_channel_of_descr fd in
          let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
          check_bool "greeted" true (starts_with "READY " (input_line ic));
          send "ADD a 50\n";
          check_bool "a placed" true (starts_with "PLACED a " (input_line ic));
          send "RESIZE a 1";
          (* Let the session read the fragment before the drain starts. *)
          Thread.delay 0.1;
          check_string "SHUTDOWN answers BYE" "BYE" (List.nth (client addr [ "SHUTDOWN" ]) 1);
          finish ();
          check_bool "the cut line gets no reply" true
            (match input_line ic with _ -> false | exception End_of_file -> true);
          close_in ic;
          List.iter
            (fun path ->
              let _, evs = ok (Journal.load_file path) in
              check_bool (path ^ " journals no resize") false
                (List.exists (fun ev -> ev.Journal.kind = "resize") evs))
            journals;
          let again = ok (Daemon.create { config with tcp = None }) in
          let banner = String.split_on_char ' ' (Protocol.greeting (Daemon.target again)) in
          check_bool "the restart holds a at its old size" true
            (List.mem "jobs=1" banner && List.mem "makespan=50" banner);
          Daemon.close again;
          (* A client that closes mid-line ends the line itself. *)
          let addr, finish = serve_in_background (ok (Daemon.create config)) in
          let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
          Unix.connect fd addr;
          ignore (Unix.write_substring fd "ADD b 3" 0 7);
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          check_bool "the client's last line runs" true
            (List.exists (starts_with "PLACED b ") (read_all fd));
          ignore (client addr [ "SHUTDOWN" ]);
          finish ()))
    [ (1, 0); (2, 2) ]

(* ----- the differential test ----- *)

(* A script line and what the model makes of it. *)
type line =
  | Add of string * int
  | Remove of string
  | Resize of string * int
  | Rebalance of int option
  | Malformed of string * string  (** the line, its parse error *)
  | Blank
  | Quit

let render = function
  | Add (id, size) -> Printf.sprintf "ADD %s %d" id size
  | Remove id -> "REMOVE " ^ id
  | Resize (id, size) -> Printf.sprintf "RESIZE %s %d" id size
  | Rebalance None -> "REBALANCE"
  | Rebalance (Some k) -> Printf.sprintf "REBALANCE %d" k
  | Malformed (l, _) -> l
  | Blank -> "# a comment"
  | Quit -> "QUIT"

let malformed =
  [
    ("ADD x", "usage: ADD <id> <size>");
    ("ADD x 0", "size must be positive, got 0");
    ("ADD x y", "size must be an integer, got \"y\"");
    ("RESIZE x -3", "size must be positive, got -3");
    ("REBALANCE -1", "k must be non-negative, got -1");
    ("FROB 1", "unknown command \"FROB\" (try HELP)");
  ]

(* Sessions of pipelined batches of lines. *)
let script_gen =
  let open QCheck2.Gen in
  let id = map (Printf.sprintf "j%d") (int_range 0 9) in
  let line =
    frequency
      [
        (5, map2 (fun id size -> Add (id, size)) id (int_range 1 40));
        (2, map (fun id -> Remove id) id);
        (2, map2 (fun id size -> Resize (id, size)) id (int_range 1 40));
        (2, map (fun k -> Rebalance k) (opt (int_range 0 4)));
        (1, map (fun (l, e) -> Malformed (l, e)) (oneofl malformed));
        (1, return Blank);
        (1, return Quit);
      ]
  in
  let batch = list_size (int_range 1 6) line in
  let session = list_size (int_range 1 4) batch in
  pair (int_range 2 6) (list_size (int_range 1 3) session)

(* The model: job -> (size, processor). Placements are predicted for
   the single engine and learned from PLACED replies for clusters
   (whose routing the model does not know); every later reply must then
   agree with what was learned. *)
type model = { m : int; jobs : (string, int * int) Hashtbl.t }

let loads md =
  let l = Array.make md.m 0 in
  Hashtbl.iter (fun _ (size, p) -> l.(p) <- l.(p) + size) md.jobs;
  l

let makespan md = Array.fold_left max 0 (loads md)

(* GREEDY's placement: the least-loaded processor, smallest index on ties. *)
let least_loaded md =
  let l = loads md in
  let best = ref 0 in
  Array.iteri (fun p v -> if v < l.(!best) then best := p) l;
  !best

(* The repair makespan the paper's GREEDY reaches with budget [k], over
   the jobs in id order (how the engine materializes its instance). *)
let greedy_makespan md k =
  let jobs = List.sort compare (Hashtbl.fold (fun id (s, p) acc -> (id, s, p) :: acc) md.jobs []) in
  if jobs = [] then 0
  else begin
    let sizes = Array.of_list (List.map (fun (_, s, _) -> s) jobs) in
    let procs = Array.of_list (List.map (fun (_, _, p) -> p) jobs) in
    let inst = Instance.create ~sizes ~m:md.m procs in
    Assignment.makespan inst (Greedy.solve inst ~k)
  end

let fields l = String.split_on_char ' ' l

let int_of_kv key tok =
  let p = key ^ "=" in
  if starts_with p tok then int_of_string (String.sub tok (String.length p) (String.length tok - String.length p))
  else Alcotest.failf "expected %s=..., got %S" key tok

(* Check one batch's replies against the model, advancing it. [exact]:
   single engine, where placements and makespans are predicted. Returns
   whether the session ended (QUIT). *)
let check_batch ~exact md ~start batch replies =
  let replies = ref replies in
  let next what =
    match !replies with
    | r :: rest ->
      replies := rest;
      r
    | [] -> Alcotest.failf "missing reply for %s" what
  in
  let expect what want = check_string what want (next what) in
  (* "VERB id proc makespan=M": the processor, checked against [proc]
     when known, and the makespan when exact. *)
  let ack verb id proc =
    let r = next (verb ^ " " ^ id) in
    match fields r with
    | [ v; id'; p; ms ] when v = verb && id' = id ->
      let p = int_of_string p in
      if p < 0 || p >= md.m then Alcotest.failf "%S: processor out of range" r;
      Option.iter (fun want -> check_int (r ^ ": processor") want p) proc;
      (p, int_of_kv "makespan" ms)
    | _ -> Alcotest.failf "expected %s %s ..., got %S" verb id r
  in
  let check_makespan what got = if exact then check_int what (makespan md) got in
  let rec go lineno = function
    | [] -> false
    | l :: rest -> (
      match l with
      | Quit ->
        expect "QUIT" "BYE";
        true
      | Blank -> go (lineno + 1) rest
      | Malformed (text, err) ->
        expect text (Printf.sprintf "ERR line %d: %s" lineno err);
        go (lineno + 1) rest
      | Add (id, size) ->
        (if Hashtbl.mem md.jobs id then expect "duplicate ADD" ("ERR job " ^ id ^ " already present")
         else begin
           let predicted = if exact then Some (least_loaded md) else None in
           let p, ms = ack "PLACED" id predicted in
           Hashtbl.replace md.jobs id (size, p);
           check_makespan "PLACED makespan" ms
         end);
        go (lineno + 1) rest
      | Remove id ->
        (match Hashtbl.find_opt md.jobs id with
        | None -> expect "REMOVE of an absent job" ("ERR job " ^ id ^ " not found")
        | Some (_, p) ->
          let _, ms = ack "REMOVED" id (Some p) in
          Hashtbl.remove md.jobs id;
          check_makespan "REMOVED makespan" ms);
        go (lineno + 1) rest
      | Resize (id, size) ->
        (match Hashtbl.find_opt md.jobs id with
        | None -> expect "RESIZE of an absent job" ("ERR job " ^ id ^ " not found")
        | Some (_, p) ->
          let _, ms = ack "RESIZED" id (Some p) in
          Hashtbl.replace md.jobs id (size, p);
          check_makespan "RESIZED makespan" ms);
        go (lineno + 1) rest
      | Rebalance k ->
        let k = Option.value k ~default:max_int in
        let want = greedy_makespan md k in
        (* Every MOVE relocates a live job from where the model has it. *)
        let rec moves n =
          match !replies with
          | r :: rest when starts_with "MOVE " r -> (
            replies := rest;
            match fields r with
            | [ _; id; src; dst ] -> (
              match Hashtbl.find_opt md.jobs id with
              | Some (size, p) when p = int_of_string src ->
                Hashtbl.replace md.jobs id (size, int_of_string dst);
                moves (n + 1)
              | _ -> Alcotest.failf "%S moves a job from where it is not" r)
            | _ -> Alcotest.failf "malformed %S" r)
          | _ -> n
        in
        let n = moves 0 in
        let r = next "REBALANCED" in
        (match fields r with
        | [ "REBALANCED"; mv; ms ] ->
          check_int (r ^ ": moves") n (int_of_kv "moves" mv);
          if exact then begin
            check_bool (r ^ ": within the budget") true (n <= k);
            check_int (r ^ ": GREEDY's makespan") want (int_of_kv "makespan" ms);
            check_int (r ^ ": the moves' makespan") want (makespan md)
          end
        | _ -> Alcotest.failf "expected REBALANCED, got %S" r);
        go (lineno + 1) rest)
  in
  let ended = go start batch in
  if !replies <> [] then Alcotest.failf "unexpected replies: %s" (String.concat " | " !replies);
  ended

(* The live jobs of a target as (id, size, global processor). *)
let live_jobs target =
  let fold e off acc = Engine.fold_jobs e (fun acc ~id ~size ~proc -> (id, size, off + proc) :: acc) acc in
  let jobs =
    match Protocol.cluster_of target with
    | None -> ( match target with Protocol.Single e -> fold e 0 [] | _ -> [])
    | Some c ->
      List.concat
        (List.init (Cluster.shard_count c) (fun i ->
             Cluster.query c i (fun e -> fold e (Cluster.offset c i) [])))
  in
  List.sort compare jobs

let strip_makespan l =
  String.concat " " (List.filter (fun t -> not (starts_with "makespan=" t)) (fields l))

(* Run a script against a target: batch by batch, or with [one_by_one]
   each line on its own. Returns every reply, in order. *)
let run_script ?(one_by_one = false) target sessions =
  List.concat_map
    (fun batches ->
      let rec go lineno = function
        | [] -> []
        | batch :: rest ->
          let lines = List.map render batch in
          let chunks = if one_by_one then List.map (fun l -> [ l ]) lines else [ lines ] in
          let rec feed lineno = function
            | [] -> ([], false)
            | chunk :: more -> (
              match Protocol.handle_lines ~start_line:lineno target chunk with
              | out, Protocol.Continue ->
                let rest, ended = feed (lineno + List.length chunk) more in
                (out @ rest, ended)
              | out, _ -> (out, true))
          in
          let out, ended = feed lineno chunks in
          if ended then [ out ] else out :: go (lineno + List.length batch) rest
      in
      go 1 batches)
    sessions

let shapes =
  [
    ("single", fun m -> { Daemon.default with procs = m });
    ("inline cluster", fun m -> { Daemon.default with procs = m; shards = 2 });
    ("cluster D=1", fun m -> { Daemon.default with procs = m; shards = 2; domains = 1 });
    ("cluster D=2", fun m -> { Daemon.default with procs = m; shards = 2; domains = 2 });
    ("supervised", fun m -> { Daemon.default with procs = m; shards = 2; supervise = true });
  ]

let with_daemon config f =
  let daemon = ok (Daemon.create config) in
  Fun.protect ~finally:(fun () -> Daemon.close daemon) (fun () -> f (Daemon.target daemon))

let prop_differential =
  QCheck2.Test.make ~name:"every target agrees with the GREEDY model" ~count:60 script_gen
    (fun (m, sessions) ->
      List.iter
        (fun (name, shape) ->
          let exact = name = "single" in
          let md = { m; jobs = Hashtbl.create 16 } in
          with_daemon (shape m) (fun target ->
              let batched = run_script target sessions in
              (* Walk the model over the same batches the replies came from. *)
              let outputs = ref batched in
              List.iter
                (fun batches ->
                  let rec go lineno = function
                    | [] -> ()
                    | batch :: rest -> (
                      match !outputs with
                      | [] -> Alcotest.failf "%s: a batch got no replies" name
                      | out :: more ->
                        outputs := more;
                        if not (check_batch ~exact md ~start:lineno batch out) then
                          go (lineno + List.length batch) rest)
                  in
                  go 1 batches)
                sessions;
              let model_jobs =
                List.sort compare (Hashtbl.fold (fun id (s, p) acc -> (id, s, p) :: acc) md.jobs [])
              in
              if live_jobs target <> model_jobs then
                Alcotest.failf "%s: live jobs differ from the model" name;
              (* Pipelining changes nothing but the chunk-level makespan. *)
              if not exact then
                with_daemon (shape m) (fun fresh ->
                    let strip = List.map (List.map strip_makespan) in
                    if strip (run_script ~one_by_one:true fresh sessions) <> strip batched then
                      Alcotest.failf "%s: pipelined replies differ from one-by-one" name)))
        shapes;
      true)

let () =
  Alcotest.run "rebal_daemon"
    [
      ( "rejections",
        [
          Alcotest.test_case "serve flags" `Quick test_serve_flag_rejections;
          Alcotest.test_case "serve resume and rules" `Quick test_serve_create_rejections;
          Alcotest.test_case "chaos-serve" `Quick test_chaos_rejections;
        ] );
      ( "transports",
        [
          Alcotest.test_case "stdin pipe session" `Quick test_stdio_session;
          Alcotest.test_case "tcp two clients" `Quick test_tcp_two_clients;
          Alcotest.test_case "tcp two clients, supervised" `Quick test_tcp_two_clients_supervised;
          Alcotest.test_case "metrics merged from every domain" `Quick
            test_metrics_merged_from_every_domain;
          Alcotest.test_case "unix socket" `Quick test_unix_socket;
          Alcotest.test_case "shutdown finalizer" `Quick test_shutdown_runs_finalizer;
          Alcotest.test_case "restart records no telemetry" `Quick
            test_restart_records_no_telemetry;
          Alcotest.test_case "idle session drains at once" `Quick test_idle_session_drains_at_once;
          Alcotest.test_case "drain drops a cut line" `Quick test_drain_drops_cut_line;
        ] );
      ("differential", [ QCheck_alcotest.to_alcotest prop_differential ]);
    ]
