module Metrics = Rebal_obs.Metrics
module Expo = Rebal_obs.Expo
module Optrace = Rebal_obs.Optrace
module Timer = Rebal_harness.Timer

type command =
  | Add of { id : string; size : int }
  | Remove of string
  | Resize of { id : string; size : int }
  | Rebalance of int
  | Stats
  | Shards_info
  | Health
  | Snapshot_now
  | Metrics_dump
  | Journal_tail of int
  | Traces of int
  | Alerts_status
  | Tsdb_query of { selector : string; window_s : float }
  | Help
  | Quit
  | Shutdown

type verdict =
  | Continue
  | Close
  | Stop

type target =
  | Single of Engine.t
  | Cluster of Cluster.t
  | Supervised of Supervisor.t
  | Parallel of Cluster.t

(* Read-only paths (stats, journals, snapshots, metrics, spans) see a
   supervised cluster as the cluster underneath; only mutations and
   the health report go through the supervisor. *)
let cluster_of = function
  | Single _ -> None
  | Cluster c | Parallel c -> Some c
  | Supervised sup -> Some (Supervisor.cluster sup)

let pf = Printf.sprintf

let tokens line =
  String.split_on_char ' ' (String.trim line)
  |> List.filter (fun s -> s <> "")

let int_arg what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (pf "%s must be an integer, got %S" what s)

(* Validation is done here, at parse time, so an invalid request is a
   protocol error naming the offending line — it never reaches an
   engine. *)
let positive_arg what s =
  Result.bind (int_arg what s) (fun v ->
      if v > 0 then Ok v else Error (pf "%s must be positive, got %d" what v))

let non_negative_arg what s =
  Result.bind (int_arg what s) (fun v ->
      if v >= 0 then Ok v else Error (pf "%s must be non-negative, got %d" what v))

let parse line =
  match tokens line with
  | [] -> Ok None
  | word :: _ when String.length word > 0 && word.[0] = '#' -> Ok None
  | verb :: args -> begin
    match (String.uppercase_ascii verb, args) with
    | "ADD", [ id; size ] ->
      Result.map (fun size -> Some (Add { id; size })) (positive_arg "size" size)
    | "ADD", _ -> Error "usage: ADD <id> <size>"
    | "REMOVE", [ id ] -> Ok (Some (Remove id))
    | "REMOVE", _ -> Error "usage: REMOVE <id>"
    | "RESIZE", [ id; size ] ->
      Result.map (fun size -> Some (Resize { id; size })) (positive_arg "size" size)
    | "RESIZE", _ -> Error "usage: RESIZE <id> <size>"
    | "REBALANCE", [ k ] -> Result.map (fun k -> Some (Rebalance k)) (non_negative_arg "k" k)
    | "REBALANCE", [] -> Ok (Some (Rebalance max_int))
    | "REBALANCE", _ -> Error "usage: REBALANCE [<k>]"
    | "STATS", [] -> Ok (Some Stats)
    | "SHARDS", [] -> Ok (Some Shards_info)
    | "SHARDS", _ -> Error "usage: SHARDS"
    | "HEALTH", [] -> Ok (Some Health)
    | "HEALTH", _ -> Error "usage: HEALTH"
    | "SNAPSHOT", [] -> Ok (Some Snapshot_now)
    | "SNAPSHOT", _ -> Error "usage: SNAPSHOT"
    | "METRICS", [] -> Ok (Some Metrics_dump)
    | "METRICS", _ -> Error "usage: METRICS"
    | "JOURNAL", [] -> Ok (Some (Journal_tail 10))
    | "JOURNAL", [ n ] -> Result.map (fun n -> Some (Journal_tail n)) (non_negative_arg "n" n)
    | "JOURNAL", _ -> Error "usage: JOURNAL [<n>]"
    | "TRACES", [] -> Ok (Some (Traces 10))
    | "TRACES", [ n ] -> Result.map (fun n -> Some (Traces n)) (positive_arg "n" n)
    | "TRACES", _ -> Error "usage: TRACES [<n>]"
    | "ALERTS", [] -> Ok (Some Alerts_status)
    | "ALERTS", _ -> Error "usage: ALERTS"
    | "TSDB", [ selector ] -> Ok (Some (Tsdb_query { selector; window_s = 60. }))
    | "TSDB", [ selector; window ] ->
      Result.map
        (fun window_s -> Some (Tsdb_query { selector; window_s }))
        (Rebal_obs.Tsdb.parse_duration window)
    | "TSDB", _ -> Error "usage: TSDB <series> [<window>]"
    | "HELP", [] -> Ok (Some Help)
    | "QUIT", [] | "EXIT", [] -> Ok (Some Quit)
    | "SHUTDOWN", [] -> Ok (Some Shutdown)
    | v, _ -> Error (pf "unknown command %S (try HELP)" v)
  end

(* ----- dispatch over the two serving shapes ----- *)

let makespan = function
  | Single e -> Engine.makespan e
  | Cluster c | Parallel c -> Cluster.makespan c
  | Supervised sup -> Cluster.makespan (Supervisor.cluster sup)

let add_job t ~id ~size =
  match t with
  | Single e -> Engine.add_job e ~id ~size
  | Cluster c | Parallel c -> Cluster.add_job c ~id ~size
  | Supervised sup -> Supervisor.add_job sup ~id ~size

let remove_job t ~id =
  match t with
  | Single e -> Engine.remove_job e ~id
  | Cluster c | Parallel c -> Cluster.remove_job c ~id
  | Supervised sup -> Supervisor.remove_job sup ~id

let resize_job t ~id ~size =
  match t with
  | Single e -> Engine.resize_job e ~id ~size
  | Cluster c | Parallel c -> Cluster.resize_job c ~id ~size
  | Supervised sup -> Supervisor.resize_job sup ~id ~size

let rebalance t ~k =
  match t with
  | Single e -> Engine.rebalance e ~k
  | Cluster c | Parallel c -> Cluster.rebalance c ~k
  | Supervised sup -> Supervisor.rebalance sup ~k

let move_lines moves =
  List.map (fun mv -> pf "MOVE %s %d %d" mv.Engine.id mv.Engine.src mv.Engine.dst) moves

(* Automatic repairs fired by the engine's trigger policy ride along with
   the event acknowledgement that caused them. *)
let auto_lines t = function
  | [] -> []
  | moves ->
    move_lines moves
    @ [ pf "REBALANCED auto moves=%d makespan=%d" (List.length moves) (makespan t) ]

let help_lines =
  [
    "OK commands:";
    "OK   ADD <id> <size>      place a new job";
    "OK   REMOVE <id>          retire a job";
    "OK   RESIZE <id> <size>   change a job's size";
    "OK   REBALANCE [<k>]      repair pass with move budget k (default: unbounded)";
    "OK   STATS                engine telemetry";
    "OK   SHARDS               per-shard telemetry (sharded serve only)";
    "OK   HEALTH               per-shard health and failover counters (supervised serve only)";
    "OK   SNAPSHOT             write a state snapshot into the journal (compaction point)";
    "OK   METRICS              Prometheus text exposition, ends with '# EOF'";
    "OK   JOURNAL [<n>]        last n flight-recorder events (default 10), ends with '# EOF'";
    "OK   TRACES [<n>]         span trees of the last n slow ops (default 10), ends with '# EOF'";
    "OK   HELP                 this text";
    "OK   QUIT                 end this session";
    "OK   SHUTDOWN             stop the daemon";
  ]

let engine_stats_line s =
  pf
    "jobs=%d procs=%d makespan=%d total=%d imbalance=%.3f events=%d adds=%d \
     removes=%d resizes=%d rebalances=%d auto=%d auto_triggers=%d moved=%d \
     last_rebalance_moves=%d checks=%d failures=%d"
    s.Engine.jobs s.Engine.procs s.Engine.makespan s.Engine.total_size s.Engine.imbalance
    s.Engine.events s.Engine.adds s.Engine.removes s.Engine.resizes s.Engine.rebalances
    s.Engine.auto_rebalances s.Engine.trigger_firings s.Engine.moved
    s.Engine.last_rebalance_moves s.Engine.consistency_checks s.Engine.consistency_failures

let cluster_stats_line st =
  pf
    "STATS shards=%d jobs=%d procs=%d makespan=%d total=%d imbalance=%.3f events=%d \
     adds=%d removes=%d resizes=%d rebalances=%d auto=%d auto_triggers=%d moved=%d \
     inter_moves=%d checks=%d failures=%d"
    st.Cluster.shards st.Cluster.jobs st.Cluster.procs st.Cluster.makespan
    st.Cluster.total_size st.Cluster.imbalance st.Cluster.events st.Cluster.adds
    st.Cluster.removes st.Cluster.resizes st.Cluster.rebalances st.Cluster.auto_rebalances
    st.Cluster.trigger_firings st.Cluster.moved st.Cluster.inter_moves
    st.Cluster.consistency_checks st.Cluster.consistency_failures

(* The supervised STATS line is the cluster line with health fields
   appended — consumers matching on the existing prefix keep working. *)
let stats_line = function
  | Single e -> "STATS " ^ engine_stats_line (Engine.stats e)
  | Cluster c | Parallel c -> cluster_stats_line (Cluster.stats c)
  | Supervised sup ->
    let h = Supervisor.stats sup in
    cluster_stats_line (Cluster.stats (Supervisor.cluster sup))
    ^ pf
        " healthy=%d suspect=%d down=%d recovering=%d evacuations=%d evacuated=%d \
         stranded=%d readmissions=%d probe_failures=%d watchdog_trips=%d rejections=%d"
        h.Supervisor.healthy h.Supervisor.suspect h.Supervisor.down h.Supervisor.recovering
        h.Supervisor.evacuations h.Supervisor.evacuated_jobs h.Supervisor.stranded_jobs
        h.Supervisor.readmissions h.Supervisor.probe_failures h.Supervisor.watchdog_trips
        h.Supervisor.degraded_rejections

let shard_line ~offset i (st : Engine.stats) =
  pf "SHARD %d offset=%d procs=%d jobs=%d makespan=%d imbalance=%.3f" i offset
    st.Engine.procs st.Engine.jobs st.Engine.makespan st.Engine.imbalance

let cluster_shard_lines c =
  Array.to_list
    (Array.mapi (fun i st -> shard_line ~offset:(Cluster.offset c i) i st) (Cluster.shard_stats c))

let shards_lines = function
  | Single _ -> [ "ERR not sharded (serve started without --shards)" ]
  | Cluster c | Parallel c -> cluster_shard_lines c
  | Supervised sup ->
    (* Same SHARD lines, with health and routing weight appended. *)
    let c = Supervisor.cluster sup in
    List.mapi
      (fun i line ->
        line
        ^ pf " health=%s weight=%.2f"
            (Supervisor.health_name (Supervisor.health sup i))
            (Cluster.weight c i))
      (cluster_shard_lines c)

let health_lines = function
  | Single _ | Cluster _ | Parallel _ ->
    [ "ERR not supervised (serve started without --supervise)" ]
  | Supervised sup ->
    let h = Supervisor.stats sup in
    let c = Supervisor.cluster sup in
    let per_shard = Cluster.shard_stats c in
    pf
      "HEALTH shards=%d healthy=%d suspect=%d down=%d recovering=%d evacuations=%d \
       evacuated=%d stranded=%d readmissions=%d probe_failures=%d watchdog_trips=%d \
       rejections=%d"
      h.Supervisor.shards h.Supervisor.healthy h.Supervisor.suspect h.Supervisor.down
      h.Supervisor.recovering h.Supervisor.evacuations h.Supervisor.evacuated_jobs
      h.Supervisor.stranded_jobs h.Supervisor.readmissions h.Supervisor.probe_failures
      h.Supervisor.watchdog_trips h.Supervisor.degraded_rejections
    :: List.init (Supervisor.shard_count sup) (fun i ->
           pf "HEALTH %d %s weight=%.2f jobs=%d" i
             (Supervisor.health_name (Supervisor.health sup i))
             (Cluster.weight c i) per_shard.(i).Engine.jobs)

(* Engine counters live in the engine record, not the registry; METRICS
   exports them into the current registry right before rendering — the
   collector pattern, inlined, so replies always reflect live state. *)
let export_engine_stats ?(labels = []) (s : Engine.stats) =
  let gauge name help v = Metrics.Gauge.set (Metrics.gauge ~labels ~help name) v in
  let count name help v = Metrics.Counter.set (Metrics.counter ~labels ~help name) v in
  gauge "rebal_engine_jobs" "Live jobs" (float_of_int s.Engine.jobs);
  gauge "rebal_engine_procs" "Processors" (float_of_int s.Engine.procs);
  gauge "rebal_engine_makespan" "Current maximum processor load"
    (float_of_int s.Engine.makespan);
  gauge "rebal_engine_total_size" "Sum of live job sizes" (float_of_int s.Engine.total_size);
  gauge "rebal_engine_imbalance" "Makespan over the batch lower bound" s.Engine.imbalance;
  gauge "rebal_engine_last_rebalance_moves" "Jobs relocated by the most recent repair pass"
    (float_of_int s.Engine.last_rebalance_moves);
  count "rebal_engine_events_total" "Mutating events processed" s.Engine.events;
  count "rebal_engine_adds_total" "ADD events" s.Engine.adds;
  count "rebal_engine_removes_total" "REMOVE events" s.Engine.removes;
  count "rebal_engine_resizes_total" "RESIZE events" s.Engine.resizes;
  count "rebal_engine_rebalances_total" "Repair passes run" s.Engine.rebalances;
  count "rebal_engine_auto_rebalances_total" "Repair passes fired by the trigger"
    s.Engine.auto_rebalances;
  count "rebal_engine_trigger_firings_total" "Trigger policy firings" s.Engine.trigger_firings;
  count "rebal_engine_moved_total" "Jobs relocated by repair passes" s.Engine.moved;
  count "rebal_engine_consistency_checks_total" "Batch-consistency checks run"
    s.Engine.consistency_checks;
  count "rebal_engine_consistency_failures_total" "Batch-consistency checks that failed"
    s.Engine.consistency_failures

let export_metrics e = export_engine_stats (Engine.stats e)

let export_supervisor sup =
  let h = Supervisor.stats sup in
  let c = Supervisor.cluster sup in
  (* One 0/1 gauge per (shard, state) pair plus the routing weight, so
     dashboards can plot a health timeline without value decoding. *)
  for i = 0 to Supervisor.shard_count sup - 1 do
    let current = Supervisor.health_name (Supervisor.health sup i) in
    List.iter
      (fun state ->
        Metrics.Gauge.set
          (Metrics.gauge
             ~labels:[ ("shard", string_of_int i); ("state", state) ]
             ~help:"1 when the shard is in this health state" "rebal_shard_health")
          (if state = current then 1.0 else 0.0))
      [ "healthy"; "suspect"; "down"; "recovering" ];
    Metrics.Gauge.set
      (Metrics.gauge
         ~labels:[ ("shard", string_of_int i) ]
         ~help:"Routing weight (fraction of ring replicas active)" "rebal_shard_weight")
      (Cluster.weight c i)
  done;
  let count name help v = Metrics.Counter.set (Metrics.counter ~help name) v in
  count "rebal_evacuations_total" "Down transitions that ran an evacuation" h.Supervisor.evacuations;
  count "rebal_evacuated_jobs_total" "Jobs re-homed off dead shards" h.Supervisor.evacuated_jobs;
  count "rebal_stranded_jobs_total" "Jobs left on dead shards by budget or lack of survivors"
    h.Supervisor.stranded_jobs;
  count "rebal_readmissions_total" "Shards readmitted after recovery" h.Supervisor.readmissions;
  count "rebal_probe_failures_total" "Failed liveness probes and failure reports"
    h.Supervisor.probe_failures;
  count "rebal_watchdog_trips_total" "Supervised operations that blew the deadline"
    h.Supervisor.watchdog_trips;
  count "rebal_degraded_rejections_total" "Operations refused because of a down shard"
    h.Supervisor.degraded_rejections

(* One labeled series per shard plus cluster-level aggregates; a
   sum() over the shard label reproduces the additive aggregates. *)
let export_cluster c =
  Array.iteri
    (fun i st -> export_engine_stats ~labels:[ ("shard", string_of_int i) ] st)
    (Cluster.shard_stats c);
  let st = Cluster.stats c in
  let gauge name help v = Metrics.Gauge.set (Metrics.gauge ~help name) v in
  gauge "rebal_cluster_shards" "Shards served" (float_of_int st.Cluster.shards);
  gauge "rebal_cluster_jobs" "Live jobs across all shards" (float_of_int st.Cluster.jobs);
  gauge "rebal_cluster_procs" "Processors across all shards" (float_of_int st.Cluster.procs);
  gauge "rebal_cluster_makespan" "Global maximum processor load"
    (float_of_int st.Cluster.makespan);
  gauge "rebal_cluster_imbalance" "Global makespan over the global batch lower bound"
    st.Cluster.imbalance;
  Metrics.Counter.set
    (Metrics.counter ~help:"Cross-shard job transfers performed by rebalancing"
       "rebal_cluster_inter_moves_total")
    st.Cluster.inter_moves;
  if Cluster.domain_count c > 0 then
    gauge "rebal_cluster_domains" "Worker domains serving the shards"
      (float_of_int (Cluster.domain_count c))

let export_target = function
  | Single e -> export_metrics e
  | Cluster c | Parallel c -> export_cluster c
  | Supervised sup ->
    export_cluster (Supervisor.cluster sup);
    export_supervisor sup

let render_registry reg =
  let text = Expo.prometheus reg in
  let lines = String.split_on_char '\n' text in
  let lines = List.filter (fun l -> l <> "") lines in
  lines @ [ "# EOF" ]

let metrics_registry t =
  match cluster_of t with
  | Some c ->
    (* The cluster's engines bind their handles in owner registries
       (handle mutation is confined to one executor); exposition builds
       a fresh registry each time — exported aggregates first, then
       every owner registry and the main domain's merged in.
       Fresh-per-reply matters: merge adds counters, so folding twice
       into a reused registry would double count. *)
    let export = Metrics.Registry.create () in
    Metrics.Registry.with_registry export (fun () -> export_target t);
    Cluster.merge_metrics c ~into:export;
    Metrics.merge ~into:export Metrics.Registry.default;
    export
  | None ->
    export_target t;
    Metrics.Registry.current ()

let metrics_lines t = render_registry (metrics_registry t)
let metrics_text t = Expo.prometheus (metrics_registry t)

let engine_journal_tail i e n =
  match Engine.journal e with
  | None -> Error i
  | Some sink -> Ok (Rebal_obs.Journal.tail sink n)

(* Tails are read on each shard's owner — a journal sink is
   single-writer state, so the query fabric is the safe path in. *)
let cluster_journal_lines c n =
  let parts =
    List.init (Cluster.shard_count c) (fun i ->
        Cluster.query c i (fun e -> engine_journal_tail i e n))
  in
  match List.find_opt Result.is_error parts with
  | Some (Error i) -> [ pf "ERR no journal attached to shard %d" i ]
  | _ ->
    List.concat
      (List.mapi
         (fun i part ->
           (pf "# shard %d" i) :: (match part with Ok lines -> lines | Error _ -> []))
         parts)
    @ [ "# EOF" ]

let journal_lines t n =
  match t with
  | Single e -> begin
    match engine_journal_tail 0 e n with
    | Error _ -> [ "ERR no journal attached (start serve with --journal FILE)" ]
    | Ok lines -> lines @ [ "# EOF" ]
  end
  | Cluster c | Parallel c -> cluster_journal_lines c n
  | Supervised sup -> cluster_journal_lines (Supervisor.cluster sup) n

let cluster_snapshot_lines c =
  match Cluster.journal_snapshot c with
  | Error e -> [ "ERR " ^ e ^ " (start serve with --journal FILE)" ]
  | Ok seqs -> List.map (fun (i, seq) -> pf "SNAPSHOTTED shard=%d seq=%d" i seq) seqs

let snapshot_lines t =
  match t with
  | Single e -> begin
    match Engine.journal_snapshot e with
    | Error e -> [ "ERR " ^ e ^ " (start serve with --journal FILE)" ]
    | Ok seq -> [ pf "SNAPSHOTTED seq=%d" seq ]
  end
  | Cluster c | Parallel c -> cluster_snapshot_lines c
  | Supervised sup -> cluster_snapshot_lines (Supervisor.cluster sup)

(* TRACES: span trees for the last [n] slow ops, newest last. Spans
   come from the calling domain's ring plus (in parallel serve) every
   worker domain's — collected on the workers themselves, since rings
   are domain-private. An op that outlived its spans (ring eviction, or
   a slow-but-unsampled op whose children were never recorded) still
   shows its header and whatever survives; truncation is visible, not
   silent. *)
let last n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

let traces_lines t n =
  match last n (Optrace.slow_ops ()) with
  | [] -> [ "# no slow ops captured"; "# EOF" ]
  | slow ->
    let worker_spans =
      match cluster_of t with
      | Some c -> ( try Cluster.recorded_spans c with Cluster.Shut_down -> [])
      | None -> []
    in
    let trees = Optrace.assemble (Optrace.recorded () @ worker_spans) in
    List.concat_map
      (fun (op : Optrace.slow_op) ->
        pf "# trace %d verb=%s duration=%s" op.Optrace.slow_trace op.Optrace.slow_verb
          (Optrace.render_duration op.Optrace.slow_duration_ns)
        ::
        (match Optrace.trees_for ~trace_id:op.Optrace.slow_trace trees with
        | [] -> [ "# spans evicted" ]
        | ts ->
          List.concat_map
            (fun tr ->
              String.split_on_char '\n' (Optrace.render_tree tr)
              |> List.filter (fun l -> l <> ""))
            ts))
      slow
    @ [ "# EOF" ]

(* The telemetry surfaces. The store and the rule engine are owned by
   the daemon's sampler loop, not by the protocol target, so the daemon
   registers them here (process-global, like the Optrace knobs); a
   serve without --telemetry-* leaves them unset and the verbs answer
   ERR without touching anything. *)
let telemetry : (Rebal_obs.Tsdb.t * Rebal_obs.Alerts.t option) option ref = ref None
let set_telemetry ?alerts tsdb = telemetry := Some (tsdb, alerts)
let clear_telemetry () = telemetry := None

let alerts_status_lines () =
  match !telemetry with
  | Some (_, Some alerts) -> Rebal_obs.Alerts.status_lines alerts @ [ "# EOF" ]
  | Some (_, None) -> [ "ERR no alert rules loaded (serve --alert-rules FILE)" ]
  | None -> [ "ERR telemetry not enabled (serve --telemetry-interval)" ]

let tsdb_query_lines ~selector ~window_s =
  match !telemetry with
  | None -> [ "ERR telemetry not enabled (serve --telemetry-interval)" ]
  | Some (tsdb, _) -> (
    match Rebal_obs.Tsdb.render_lines tsdb ~selector ~window_s with
    | Error e -> [ "ERR " ^ e ]
    | Ok lines -> lines @ [ "# EOF" ])

let execute t = function
  | Add { id; size } -> begin
    match add_job t ~id ~size with
    | Error e -> [ "ERR " ^ e ]
    | Ok (p, auto) -> pf "PLACED %s %d makespan=%d" id p (makespan t) :: auto_lines t auto
  end
  | Remove id -> begin
    match remove_job t ~id with
    | Error e -> [ "ERR " ^ e ]
    | Ok (p, auto) -> pf "REMOVED %s %d makespan=%d" id p (makespan t) :: auto_lines t auto
  end
  | Resize { id; size } -> begin
    match resize_job t ~id ~size with
    | Error e -> [ "ERR " ^ e ]
    | Ok (p, auto) -> pf "RESIZED %s %d makespan=%d" id p (makespan t) :: auto_lines t auto
  end
  | Rebalance k ->
    let moves = rebalance t ~k in
    move_lines moves
    @ [ pf "REBALANCED moves=%d makespan=%d" (List.length moves) (makespan t) ]
  | Stats -> [ stats_line t ]
  | Shards_info -> shards_lines t
  | Health -> health_lines t
  | Snapshot_now -> snapshot_lines t
  | Metrics_dump -> metrics_lines t
  | Journal_tail n -> journal_lines t n
  | Traces n -> traces_lines t n
  | Alerts_status -> alerts_status_lines ()
  | Tsdb_query { selector; window_s } -> tsdb_query_lines ~selector ~window_s
  | Help -> help_lines
  | Quit -> [ "BYE" ]
  | Shutdown -> [ "BYE" ]

let verb_name = function
  | Add _ -> "add"
  | Remove _ -> "remove"
  | Resize _ -> "resize"
  | Rebalance _ -> "rebalance"
  | Stats -> "stats"
  | Shards_info -> "shards"
  | Health -> "health"
  | Snapshot_now -> "snapshot"
  | Metrics_dump -> "metrics"
  | Journal_tail _ -> "journal"
  | Traces _ -> "traces"
  | Alerts_status -> "alerts"
  | Tsdb_query _ -> "tsdb"
  | Help -> "help"
  | Quit -> "quit"
  | Shutdown -> "shutdown"

let session_hist verb =
  (* Interning the handle per call is deliberate — sessions are
     systhreads sharing the control domain's registry, and
     [Metrics.histogram] returns the existing handle on
     re-registration. *)
  Metrics.histogram
    ~labels:[ ("verb", verb) ]
    ~help:"Protocol op service time at the session boundary (seconds)"
    "rebal_session_latency_seconds"

(* The op boundary: every parsed command opens a trace (subject to
   head sampling and tail capture) and lands one latency observation
   in the session histogram. *)
let run_command t cmd =
  let verb = verb_name cmd in
  let hist = session_hist verb in
  let t0 = Timer.now_ns () in
  let reply =
    Optrace.with_op ~verb:(String.uppercase_ascii verb) (fun () -> execute t cmd)
  in
  Metrics.Histogram.observe_ns hist (Int64.sub (Timer.now_ns ()) t0);
  reply

let verdict_of = function
  | Quit -> Close
  | Shutdown -> Stop
  | _ -> Continue

let handle_line ?line:lineno t line =
  match parse line with
  | Error e ->
    let where = match lineno with None -> "" | Some n -> pf "line %d: " n in
    ([ "ERR " ^ where ^ e ], Continue)
  | Ok None -> ([], Continue)
  | Ok (Some cmd) -> (run_command t cmd, verdict_of cmd)

(* ----- batched sessions ----- *)

let command_op = function
  | Add { id; size } -> Some (Engine.Add { id; size })
  | Remove id -> Some (Engine.Remove { id })
  | Resize { id; size } -> Some (Engine.Resize { id; size })
  | _ -> None

(* The reply for one batched mutation. [makespan t] is read inside the
   batch's [on_result] callback: on a [Single] engine that fires after
   each op and before the next, so the value is exactly the
   intermediate makespan the one-by-one path reports. On a cluster
   results surface when the op's chunk completes, and the read folds
   the per-shard values the executors published at the end of their
   last task (no mailbox round trip): it covers the whole chunk, and
   other sessions' completed ops — indistinguishable from the
   interleavings concurrent sessions already produce. *)
let bulk_reply t op result =
  match result with
  | Error e -> [ "ERR " ^ e ]
  | Ok (p, auto) ->
    let verb, id =
      match op with
      | Engine.Add { id; _ } -> ("PLACED", id)
      | Engine.Remove { id } -> ("REMOVED", id)
      | Engine.Resize { id; _ } -> ("RESIZED", id)
    in
    pf "%s %s %d makespan=%d" verb id p (makespan t) :: auto_lines t auto

let handle_lines ?(start_line = 1) t lines =
  let bulk_capable = match t with Supervised _ -> false | _ -> true in
  let out = ref [] in
  let push ls = out := List.rev_append ls !out in
  let pending = ref [] in
  (* Apply the queued run of mutations. A run of one goes through
     [run_command] — byte- and metric-identical to the unbatched path;
     only a genuine pipeline (>= 2) pays the batch machinery, under one
     BATCH span and one batch-verb latency observation. *)
  let flush_pending () =
    match List.rev !pending with
    | [] -> ()
    | [ cmd ] ->
      pending := [];
      push (run_command t cmd)
    | cmds ->
      pending := [];
      let ops = Array.of_list (List.filter_map command_op cmds) in
      let on_result _ op r = push (bulk_reply t op r) in
      let hist = session_hist "batch" in
      let t0 = Timer.now_ns () in
      Optrace.with_op ~verb:"BATCH" (fun () ->
          match t with
          | Single e -> Engine.apply_bulk e ~on_result ops
          | Cluster c | Parallel c -> Cluster.apply_bulk c ~on_result ops
          | Supervised _ -> assert false (* never queued *));
      Metrics.Histogram.observe_ns hist (Int64.sub (Timer.now_ns ()) t0)
  in
  let verdict = ref Continue in
  let rec go lineno = function
    | [] -> flush_pending ()
    | line :: rest -> begin
      match parse line with
      | Error e ->
        flush_pending ();
        push [ "ERR " ^ pf "line %d: " lineno ^ e ];
        go (lineno + 1) rest
      | Ok None -> go (lineno + 1) rest
      | Ok (Some cmd) when bulk_capable && command_op cmd <> None ->
        pending := cmd :: !pending;
        go (lineno + 1) rest
      | Ok (Some cmd) -> begin
        flush_pending ();
        push (run_command t cmd);
        match verdict_of cmd with
        | Continue -> go (lineno + 1) rest
        | v -> verdict := v (* drop anything pipelined after QUIT/SHUTDOWN *)
      end
    end
  in
  go start_line lines;
  (List.rev !out, !verdict)

(* [domains=] appears only when worker domains exist. *)
let cluster_banner c =
  pf "READY rebalance-serve shards=%d%s procs=%d jobs=%d makespan=%d" (Cluster.shard_count c)
    (if Cluster.domain_count c > 0 then pf " domains=%d" (Cluster.domain_count c) else "")
    (Cluster.m c) (Cluster.job_count c) (Cluster.makespan c)

let greeting = function
  | Single e ->
    pf "READY rebalance-serve procs=%d jobs=%d makespan=%d" (Engine.m e)
      (Engine.job_count e) (Engine.makespan e)
  | Cluster c | Parallel c -> cluster_banner c
  | Supervised sup ->
    cluster_banner (Supervisor.cluster sup) ^ pf " serving=%d" (Supervisor.serving_shards sup)
