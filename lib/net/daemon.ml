module Engine = Rebal_online.Engine
module Cluster = Rebal_online.Cluster
module Supervisor = Rebal_online.Supervisor
module Protocol = Rebal_online.Protocol
module Replay = Rebal_online.Replay
module Journal = Rebal_obs.Journal
module Metrics = Rebal_obs.Metrics
module Optrace = Rebal_obs.Optrace
module Tsdb = Rebal_obs.Tsdb
module Alerts = Rebal_obs.Alerts

type config = {
  procs : int;
  shards : int;
  socket : string option;
  domains : int;
  tcp : int option;
  auto_events : int option;
  auto_imbalance : float option;
  auto_seconds : float option;
  auto_k : int;
  metrics_file : string option;
  journal : string option;
  journal_format : Journal.format;
  supervise : bool;
  evac_budget : int option;
  trace_sample : int;
  trace_slow_ms : float;
  telemetry_interval : float option;
  telemetry_out : string option;
  alert_rules : string option;
}

let default =
  {
    procs = 8;
    shards = 1;
    socket = None;
    domains = 0;
    tcp = None;
    auto_events = None;
    auto_imbalance = None;
    auto_seconds = None;
    auto_k = 16;
    metrics_file = None;
    journal = None;
    journal_format = Journal.Jsonl;
    supervise = false;
    evac_budget = None;
    trace_sample = 64;
    trace_slow_ms = 10.0;
    telemetry_interval = None;
    telemetry_out = None;
    alert_rules = None;
  }

let pf = Printf.sprintf

(* The --auto-* flags as an engine trigger; [None] leaves a resumed
   journal's recorded trigger armed. *)
let cli_trigger c =
  let k = c.auto_k in
  match (c.auto_events, c.auto_imbalance, c.auto_seconds) with
  | Some events, None, None -> Ok (Some (Engine.Every_events { events; k }))
  | None, Some threshold, None -> Ok (Some (Engine.Imbalance_above { threshold; k }))
  | None, None, Some seconds -> Ok (Some (Engine.Every_seconds { seconds; k }))
  | None, None, None -> Ok None
  | _ -> Error "give at most one of --auto-events, --auto-imbalance, --auto-seconds"

let validate c =
  let positive = function Some s -> Float.is_finite s && s > 0.0 | None -> true in
  let checks =
    [
      ( c.shards >= 1 && c.procs >= c.shards,
        lazy (pf "need 1 <= --shards <= --procs (got %d shards, %d procs)" c.shards c.procs) );
      ((not c.supervise) || c.shards >= 2, lazy "--supervise needs --shards >= 2 (failover needs survivors)");
      (c.domains >= 0, lazy (pf "--domains must be non-negative (got %d)" c.domains));
      (c.tcp = None || c.socket = None, lazy "give at most one of --tcp and --socket");
      ( positive c.telemetry_interval,
        lazy (pf "--telemetry-interval must be positive (got %g)" (Option.get c.telemetry_interval)) );
      (c.auto_k >= 0, lazy (pf "--auto-k must be non-negative (got %d)" c.auto_k));
      ( Option.fold ~none:true ~some:(fun b -> b >= 0) c.evac_budget,
        lazy (pf "--evac-budget must be non-negative (got %d)" (Option.get c.evac_budget)) );
    ]
  in
  Result.bind (cli_trigger c) (fun _ ->
      match List.find_opt (fun (ok, _) -> not ok) checks with
      | Some (_, msg) -> Error (Lazy.force msg)
      | None -> Ok ())

let telemetry ?sink ?rules ~meta target =
  let rules =
    match Option.map Alerts.parse_rules_file rules with
    | None -> Ok None
    | Some (Error msg) -> Error ("cannot load alert rules: " ^ msg)
    | Some (Ok []) -> Error (pf "alert rules file %s holds no rules" (Option.get rules))
    | Some (Ok rules) -> Ok (Some rules)
  in
  Result.bind rules (fun rules ->
      Rebal_obs.Control.set_enabled true;
      let tsdb =
        Tsdb.create ?sink ~meta
          ~source:(fun () -> Metrics.Registry.metrics (Protocol.metrics_registry target))
          ()
      in
      match Option.map (fun rules -> Alerts.create ?sink ~rules tsdb) rules with
      | alerts -> Ok (tsdb, alerts)
      | exception Invalid_argument msg -> Error ("cannot load alert rules: " ^ msg))

type t = {
  config : config;
  target : Protocol.target;
  op_lock : Mutex.t option;
  telemetry : (Tsdb.t * Alerts.t option) option;
  opened : out_channel list;  (** journal and telemetry channels, closed last *)
  sampler_stop : bool Atomic.t;
  mutable sampler : Thread.t option;
  mutable closed : bool;
}

let target t = t.target

let with_op_lock t f =
  match t.op_lock with
  | None -> f ()
  | Some m -> Mutex.protect m f

(* Disk appends go through the resilient wrapper: a transient Sys_error
   (disk full, rotated fd) is retried with backoff, and a line that
   still cannot be written is dropped — counted in
   rebal_journal_dropped_total, kept in the tail ring — instead of
   crashing the serving thread. *)
let resilient_write path oc =
  Journal.resilient ~label:(Filename.basename path) (fun line ->
      output_string oc line;
      flush oc)

exception Refused of string

let refuse fmt = Printf.ksprintf (fun s -> raise (Refused s)) fmt

(* The serving target. An existing journal is the record of a previous
   run: replay it (from the latest snapshot if compacted), verify it,
   re-arm its recorded trigger (the --auto-* flags override), and append
   to it in its own on-disk format. Line-flushed, so a crash loses at
   most the event being written. *)
let build_target c ~opened =
  let trigger = Result.get_ok (cli_trigger c) in
  let keep oc =
    opened := oc :: !opened;
    oc
  in
  let journaled_engine ~m path =
    if Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 then begin
      let oc = keep (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path) in
      match Replay.resume_file ~append:(resilient_write path oc) path with
      | Error msg -> refuse "cannot resume journal %s: %s" path msg
      | Ok (eng, _) when Engine.m eng <> m ->
        refuse "journal %s was recorded over %d processors, this serve would give it %d" path
          (Engine.m eng) m
      | Ok (eng, outcome) ->
        Option.iter (Engine.set_trigger eng) trigger;
        Printf.eprintf "rebalance serve: resumed %s (%d events%s) -> %d jobs, makespan %d\n%!"
          path outcome.Replay.events
          (if outcome.Replay.resumed then ", from snapshot" else "")
          outcome.Replay.final_jobs outcome.Replay.final_makespan;
        eng
    end
    else begin
      let oc = keep (open_out_bin path) in
      let sink = Journal.create ~format:c.journal_format ~write:(resilient_write path oc) () in
      Engine.create ?trigger ~journal:sink ~m ()
    end
  in
  let engine ~m = function
    | None -> Engine.create ?trigger ~m ()
    | Some path -> journaled_engine ~m path
  in
  if c.shards = 1 && c.domains = 0 then Protocol.Single (engine ~m:c.procs c.journal)
  else begin
    (* The journal of shard i is FILE.i — the same naming for every
       runtime shape, so a journal set resumes under any of them. The
       cluster builds each engine under its shard's registry. *)
    let shard_engine i =
      let m = (c.procs / c.shards) + if i < c.procs mod c.shards then 1 else 0 in
      engine ~m
        (Option.map (fun base -> if c.shards = 1 then base else pf "%s.%d" base i) c.journal)
    in
    match Cluster.of_engines ~domains:c.domains ~shards:c.shards shard_engine with
    | Ok cl when c.supervise ->
      let evac_budget = Option.value c.evac_budget ~default:max_int in
      Protocol.Supervised
        (Supervisor.create ~config:{ Supervisor.default_config with evac_budget } cl)
    | Ok cl -> Protocol.Cluster cl
    | Error msg -> refuse "%s" msg
  end

let shutdown_target target = Option.iter Cluster.shutdown (Protocol.cluster_of target)

let create c =
  Result.bind (validate c) @@ fun () ->
  (* The daemon is the observed artifact: spans and latency histograms
     are on for its whole lifetime. *)
  Rebal_obs.Control.set_enabled true;
  (* The served window, not the restart, sets the peak: the heap settles
     near (1 + space_overhead / 100) times the live state, and at the
     runtime's default of 120 a restarted 100k-job daemon peaked at
     3.8x its 19.5 MiB. At 80 it peaks at 3.0x (58.7 MiB) for about 40%
     more major collections, which left ops_s, setup_s and both
     latencies within noise on both benchmark workloads. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 80 };
  Optrace.set_sample_every c.trace_sample;
  Optrace.set_slow_threshold_ns
    (if c.trace_slow_ms < 0.0 then -1 else int_of_float (c.trace_slow_ms *. 1e6));
  let opened = ref [] and built = ref None in
  let build () =
    let target = build_target c ~opened in
    built := Some target;
    let telemetry =
      if c.telemetry_interval = None && c.telemetry_out = None && c.alert_rules = None then None
      else begin
        let sink =
          Option.map
            (fun path ->
              let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
              opened := oc :: !opened;
              Journal.create ~write:(resilient_write path oc) ())
            c.telemetry_out
        in
        let meta =
          [ ("procs", Journal.Int c.procs); ("shards", Journal.Int c.shards);
            ("interval_s", Journal.Float (Option.value c.telemetry_interval ~default:1.0)) ]
        in
        match telemetry ?sink ?rules:c.alert_rules ~meta target with
        | Error msg -> raise (Refused msg)
        | Ok (tsdb, alerts) ->
          Option.iter
            (fun a ->
              let n = List.length (Alerts.rules a) in
              Printf.eprintf "rebalance serve: loaded %d alert rule%s from %s\n%!" n
                (if n = 1 then "" else "s")
                (Option.get c.alert_rules))
            alerts;
          Protocol.set_telemetry ?alerts tsdb;
          Some (tsdb, alerts)
      end
    in
    (* A cluster, supervised or not, is internally thread-safe at any
       domain count; only a single engine serializes its callers. *)
    let op_lock =
      match target with Protocol.Single _ -> Some (Mutex.create ()) | _ -> None
    in
    let sampler_stop = Atomic.make false in
    { config = c; target; op_lock; telemetry; opened = !opened; sampler_stop; sampler = None; closed = false }
  in
  match build () with
  | t -> Ok t
  | exception (Refused msg | Sys_error msg) ->
    Option.iter shutdown_target !built;
    List.iter close_out_noerr !opened;
    Error msg

(* The sampler thread: one tick per interval, under a single engine's op lock. *)
let start_sampler t =
  match t.telemetry with
  | None -> ()
  | Some (tsdb, alerts) ->
    let tick () =
      Tsdb.sample tsdb;
      Option.iter
        (fun a ->
          ignore (Alerts.eval a);
          (* The feedback loop: every tick a suspect-annotated rule
             spends Firing is one failure signal against its shard —
             one tick marks it Suspect, [down_after] sustained ticks
             tip it Down through the ordinary evacuation path, with the
             rule's name as the journaled provenance. *)
          Option.iter
            (fun c ->
              if Cluster.supervised c then
                List.iter
                  (fun ((r : Alerts.rule), _) ->
                    match r.Alerts.suspect with
                    | Some i when i >= 0 && i < Cluster.shard_count c ->
                      ignore (Supervisor.fail ~reason:("alert:" ^ r.Alerts.rule_name) c i)
                    | _ -> ())
                  (Alerts.firing a))
            (Protocol.cluster_of t.target))
        alerts
    in
    (* Sleep in short slices so shutdown never waits out an interval. *)
    let rec pause remaining =
      if (not (Atomic.get t.sampler_stop)) && remaining > 0.0 then begin
        let step = Float.min 0.05 remaining in
        (try Thread.delay step with Unix.Unix_error _ -> ());
        pause (remaining -. step)
      end
    in
    let interval = Option.value t.config.telemetry_interval ~default:1.0 in
    t.sampler <-
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get t.sampler_stop) do
               with_op_lock t tick;
               pause interval
             done)
           ())

let dump_metrics t =
  Option.iter
    (fun path ->
      try
        Out_channel.with_open_text path (fun oc ->
            List.iter (fun l -> output_string oc (l ^ "\n")) (Protocol.metrics_lines t.target))
      with Sys_error e -> Printf.eprintf "rebalance serve: metrics dump failed: %s\n%!" e)
    t.config.metrics_file

(* A final snapshot marks a compaction point: [rebalance compact] can
   cut the journal there. The next serve still replays from genesis and
   compares the replayed state with this snapshot; only a compacted
   journal, whose snapshot sits at seq 0, resumes from one. *)
let final_snapshot t =
  if t.config.journal <> None then
    try
      match t.target with
      | Protocol.Single e -> ignore (Engine.journal_snapshot e)
      | _ -> Option.iter (fun c -> ignore (Cluster.journal_snapshot c)) (Protocol.cluster_of t.target)
    with Failure msg -> Printf.eprintf "rebalance serve: final snapshot failed: %s\n%!" msg

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* Order matters: the sampler stops first (it holds handles into the
       target and the telemetry sink); the snapshot and the metrics
       merge need the cluster alive; the journal channels are closed
       only after the cluster has shut down (the server has joined its
       session threads by then). *)
    Atomic.set t.sampler_stop true;
    Option.iter Thread.join t.sampler;
    if t.telemetry <> None then Protocol.clear_telemetry ();
    final_snapshot t;
    dump_metrics t;
    shutdown_target t.target;
    List.iter close_out_noerr t.opened;
    Option.iter (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ()) t.config.socket
  end

(* One client session: read commands line by line, stream responses. A
   dropped connection — EOF (even mid-line) on the read side, a closed
   pipe (Sys_error / EPIPE) on either side — ends the session, never
   the daemon. A client's EOF ends its last line, which runs; an EOF
   [cut] says the server's drain imposed may have split a line in
   transit, so its unterminated remainder is dropped unexecuted.

   I/O runs through Lineio on the raw descriptors: EINTR is retried (a
   SIGTERM mid-drain does not kill live sessions), and [read_lines]
   hands over every already-arrived line at once, for one
   [Protocol.handle_lines_into] dispatch — a pipelining client gets its
   run of mutations executed as a single engine batch. Only the wait
   for the first line of a round blocks (an idle session costs
   nothing). The replies of a round are rendered into one buffer the
   session owns and written with one call. *)
let session ?cut t ic oc =
  try
    (* Channels may hold buffered output from a previous owner of this
       fd pair; push it before switching to raw-fd writes. *)
    flush oc;
    let fd_out = Unix.descr_of_out_channel oc in
    Lineio.write_string fd_out (Protocol.greeting t.target ^ "\n");
    let r = Lineio.reader ?cut (Unix.descr_of_in_channel ic) in
    let out = Buffer.create 4096 in
    let rec loop lineno =
      match Lineio.read_lines r with
      | [] -> Protocol.Close
      | lines -> (
        Buffer.clear out;
        let verdict =
          with_op_lock t (fun () ->
              Protocol.handle_lines_into ~start_line:lineno t.target out lines)
        in
        Lineio.write_string fd_out (Buffer.contents out);
        match verdict with
        | Protocol.Continue -> loop (lineno + List.length lines)
        | v -> v)
    in
    loop 1
  with Sys_error _ | Unix.Unix_error _ -> Protocol.Close

(* A TCP connection whose first bytes sniff as an HTTP request gets one
   GET /metrics-style answer and closes; everything else is a
   line-protocol session. The sniff peeks without consuming, so the
   protocol stream is untouched. A scrape of a single engine reads it
   under the op lock, as the sampler tick does; a cluster's takes no
   lock. *)
let http_or_session ~cut t ic oc =
  if not (Http.sniff (Unix.descr_of_in_channel ic)) then session ~cut t ic oc
  else begin
    let alerts =
      match t.telemetry with
      | Some (_, Some a) -> Some (fun () -> String.concat "\n" (Alerts.status_lines a) ^ "\n")
      | _ -> None
    in
    let tsdb =
      Option.map
        (fun (tsdb, _) ~series ~window ->
          Result.bind
            (match window with None -> Ok 60.0 | Some w -> Tsdb.parse_duration w)
            (fun window_s -> Tsdb.render_json tsdb ~selector:series ~window_s))
        t.telemetry
    in
    Http.handle
      ~metrics:(fun () -> with_op_lock t (fun () -> Protocol.metrics_text t.target))
      ?alerts ?tsdb ic oc;
    Protocol.Close
  end

(* TCP or Unix domain socket: both run through Server, so both get
   concurrent sessions (under the op lock of a single engine), SHUTDOWN
   and the SIGTERM drain. A stale socket path is unlinked before
   binding. *)
let listen t =
  let c = t.config in
  let where, addr, session =
    match (c.tcp, c.socket) with
    | Some port, _ ->
      (pf "127.0.0.1:%d" port, Unix.ADDR_INET (Unix.inet_addr_loopback, port), http_or_session)
    | None, path ->
      let path = Option.get path in
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      (path, Unix.ADDR_UNIX path, fun ~cut -> session ~cut)
  in
  match Server.create ~addr () with
  | exception Unix.Unix_error (e, _, _) ->
    Error (pf "cannot listen on %s: %s" where (Unix.error_message e))
  | srv ->
    (match Server.bound_addr srv with
    | Unix.ADDR_INET (_, port) ->
      let domains = Option.fold ~none:0 ~some:Cluster.domain_count (Protocol.cluster_of t.target) in
      Printf.printf
        "rebalance serve: listening on 127.0.0.1:%d (procs=%d, shards=%d, domains=%d)\n%!" port
        c.procs c.shards domains
    | Unix.ADDR_UNIX path ->
      Printf.printf "rebalance serve: listening on %s (procs=%d, shards=%d)\n%!" path c.procs
        c.shards);
    Ok (srv, session ~cut:(fun () -> Server.draining srv) t)

(* Raised from the SIGTERM/SIGINT handler in stdin mode, at the next
   safe point: it unwinds the blocking read, and the finalizer runs. *)
exception Terminated

let run ?(io = (stdin, stdout)) ?(on_listen = ignore) t =
  let restore = ref [] in
  let install s behavior =
    try restore := (s, Sys.signal s behavior) :: !restore with Invalid_argument _ -> ()
  in
  if t.config.metrics_file <> None then
    install Sys.sigusr1 (Sys.Signal_handle (fun _ -> dump_metrics t));
  (* Once the server listens, a signal only requests its stop: the
     handler may run on any thread of any domain, one holding the
     server's lock included, so it takes no lock and raises nothing. *)
  let serving = Atomic.make None and terminated = Atomic.make false in
  let terminate =
    Sys.Signal_handle
      (fun _ ->
        match Atomic.get serving with
        | None -> raise Terminated
        | Some srv ->
          Atomic.set terminated true;
          Server.stop srv)
  in
  install Sys.sigterm terminate;
  install Sys.sigint terminate;
  Fun.protect
    ~finally:(fun () ->
      close t;
      List.iter (fun (s, old) -> Sys.set_signal s old) !restore)
  @@ fun () ->
  start_sampler t;
  try
    if t.config.tcp = None && t.config.socket = None then begin
      ignore (session t (fst io) (snd io));
      Ok ()
    end
    else
      Result.map
        (fun (srv, session) ->
          (* A client hanging up mid-response ends just its session. *)
          install Sys.sigpipe Sys.Signal_ignore;
          Atomic.set serving (Some srv);
          on_listen (Server.bound_addr srv);
          let domains =
            Option.fold ~none:[||] ~some:Cluster.domain_registries (Protocol.cluster_of t.target)
          in
          Fun.protect ~finally:(fun () -> Server.drain ~grace:5.0 srv) @@ fun () ->
          Server.run srv ~domains ~session;
          if Atomic.get terminated then
            Printf.eprintf "rebalance serve: caught termination signal, draining\n%!")
        (listen t)
  with Terminated ->
    Printf.eprintf "rebalance serve: caught termination signal, shutting down\n%!";
    Ok ()
