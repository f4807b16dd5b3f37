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

(* The three sharded constructors carry one [Cluster.t]; whether it is
   supervised is the cluster's own business, and the health parts of
   the replies appear when it carries a policy. *)
let cluster_of = function
  | Single _ -> None
  | Cluster c | Parallel c | Supervised c -> Some c

let pf = Printf.sprintf

(* ----- the parser ----- *)

(* A line is read by index, in place. Its tokens are the runs of
   non-space bytes between its first and last byte that is not
   whitespace ([String.trim]'s: space, tab, newline, carriage return,
   form feed); inside that range only a space separates tokens, so a tab
   in mid-line belongs to its token. A mutation comes out as the
   [Engine.op] the target applies, with no intermediate command. *)
type parsed =
  | Blank
  | Mutation of Engine.op
  | Command of command
  | Malformed of string

exception Malformed_line of string

let is_trim_space = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

(* The first index in [i, hi) whose byte is not a space, or [hi]. *)
let rec skip_spaces line i hi = if i < hi && line.[i] = ' ' then skip_spaces line (i + 1) hi else i

(* The end of the token starting at [i]. *)
let rec token_end line i hi = if i < hi && line.[i] <> ' ' then token_end line (i + 1) hi else i

(* Whether [line.[a ..]] spells the upper-case keyword [kw] from its
   [i]-th byte on, ignoring case. *)
let rec spells line a kw i =
  i >= String.length kw
  || (Char.uppercase_ascii line.[a + i] = kw.[i] && spells line a kw (i + 1))

let keywords =
  [| "ADD"; "REMOVE"; "RESIZE"; "REBALANCE"; "STATS"; "SHARDS"; "HEALTH"; "SNAPSHOT"; "METRICS";
     "JOURNAL"; "TRACES"; "ALERTS"; "TSDB"; "HELP"; "QUIT"; "EXIT"; "SHUTDOWN" |]

(* The keyword [line.[a .. b - 1]] spells, ignoring case, or [""]. *)
let rec keyword line a b i =
  if i >= Array.length keywords then ""
  else
    let kw = keywords.(i) in
    if b - a = String.length kw && spells line a kw 0 then kw else keyword line a b (i + 1)

let token line a b = String.sub line a (b - a)

let rec all_digits line i b =
  i >= b || (line.[i] >= '0' && line.[i] <= '9' && all_digits line (i + 1) b)

let rec decimal line i b acc =
  if i >= b then acc else decimal line (i + 1) b ((acc * 10) + Char.code line.[i] - 48)

(* Up to 18 plain digits cannot overflow and are read in place; any
   other spelling goes through [int_of_string_opt], so [0x1f], [1_000],
   [+5] and [-3] read as OCaml reads them and an out-of-range value is
   refused. *)
let int_arg what line a b =
  if b - a <= 18 && all_digits line a b then decimal line a b 0
  else
    let s = token line a b in
    match int_of_string_opt s with
    | Some v -> v
    | None -> raise (Malformed_line (pf "%s must be an integer, got %S" what s))

(* Validation is done here, at parse time, so an invalid request is a
   protocol error naming the offending line — it never reaches an
   engine. *)
let positive_arg what line a b =
  let v = int_arg what line a b in
  if v > 0 then v else raise (Malformed_line (pf "%s must be positive, got %d" what v))

let non_negative_arg what line a b =
  let v = int_arg what line a b in
  if v >= 0 then v else raise (Malformed_line (pf "%s must be non-negative, got %d" what v))

let usage u = raise (Malformed_line ("usage: " ^ u))
let bare args cmd u = if args = 0 then cmd else usage u

let unknown line a b =
  raise
    (Malformed_line (pf "unknown command %S (try HELP)" (String.uppercase_ascii (token line a b))))

let parse_line line =
  let hi = ref (String.length line) and v0 = ref 0 in
  while !v0 < !hi && is_trim_space line.[!v0] do
    incr v0
  done;
  while !hi > !v0 && is_trim_space line.[!hi - 1] do
    decr hi
  done;
  let hi = !hi and v0 = !v0 in
  if v0 >= hi || line.[v0] = '#' then Blank
  else begin
    (* The verb [v0, v1), the first two arguments [a0, a1) and [b0, b1),
       and whether a third argument follows. *)
    let v1 = token_end line v0 hi in
    let a0 = skip_spaces line v1 hi in
    let a1 = token_end line a0 hi in
    let b0 = skip_spaces line a1 hi in
    let b1 = token_end line b0 hi in
    let args =
      if a0 >= hi then 0
      else if b0 >= hi then 1
      else if skip_spaces line b1 hi >= hi then 2
      else 3
    in
    try
      match keyword line v0 v1 0 with
      | "ADD" ->
        if args <> 2 then usage "ADD <id> <size>"
        else
          let size = positive_arg "size" line b0 b1 in
          Mutation (Engine.Add { id = token line a0 a1; size })
      | "REMOVE" ->
        if args <> 1 then usage "REMOVE <id>"
        else Mutation (Engine.Remove { id = token line a0 a1 })
      | "RESIZE" ->
        if args <> 2 then usage "RESIZE <id> <size>"
        else
          let size = positive_arg "size" line b0 b1 in
          Mutation (Engine.Resize { id = token line a0 a1; size })
      | "REBALANCE" -> (
        match args with
        | 0 -> Command (Rebalance max_int)
        | 1 -> Command (Rebalance (non_negative_arg "k" line a0 a1))
        | _ -> usage "REBALANCE [<k>]")
      | "STATS" -> if args = 0 then Command Stats else unknown line v0 v1
      | "SHARDS" -> Command (bare args Shards_info "SHARDS")
      | "HEALTH" -> Command (bare args Health "HEALTH")
      | "SNAPSHOT" -> Command (bare args Snapshot_now "SNAPSHOT")
      | "METRICS" -> Command (bare args Metrics_dump "METRICS")
      | "JOURNAL" -> (
        match args with
        | 0 -> Command (Journal_tail 10)
        | 1 -> Command (Journal_tail (non_negative_arg "n" line a0 a1))
        | _ -> usage "JOURNAL [<n>]")
      | "TRACES" -> (
        match args with
        | 0 -> Command (Traces 10)
        | 1 -> Command (Traces (positive_arg "n" line a0 a1))
        | _ -> usage "TRACES [<n>]")
      | "ALERTS" -> Command (bare args Alerts_status "ALERTS")
      | "TSDB" -> (
        (* Re-split: a label value in the selector may hold a space. *)
        match Rebal_obs.Tsdb.words ~sep:(Char.equal ' ') ~stop:(fun _ -> false) (token line a0 hi) with
        | [ selector ] -> Command (Tsdb_query { selector; window_s = 60. })
        | [ selector; window ] -> (
          match Rebal_obs.Tsdb.parse_duration window with
          | Ok window_s -> Command (Tsdb_query { selector; window_s })
          | Error e -> Malformed e)
        | _ -> usage "TSDB <series> [<window>]")
      | "HELP" -> if args = 0 then Command Help else unknown line v0 v1
      | "QUIT" | "EXIT" -> if args = 0 then Command Quit else unknown line v0 v1
      | "SHUTDOWN" -> if args = 0 then Command Shutdown else unknown line v0 v1
      | _ -> unknown line v0 v1
    with Malformed_line e -> Malformed e
  end

let parse line =
  match parse_line line with
  | Blank -> Ok None
  | Mutation (Engine.Add { id; size }) -> Ok (Some (Add { id; size }))
  | Mutation (Engine.Remove { id }) -> Ok (Some (Remove id))
  | Mutation (Engine.Resize { id; size }) -> Ok (Some (Resize { id; size }))
  | Command cmd -> Ok (Some cmd)
  | Malformed e -> Error e

(* ----- dispatch over the serving shapes ----- *)

let makespan = function
  | Single e -> Engine.makespan e
  | Cluster c | Parallel c | Supervised c -> Cluster.makespan c

let apply t op =
  match t with
  | Single e -> Engine.apply e op
  | Cluster c | Parallel c | Supervised c -> Cluster.apply c op

let apply_bulk t ~on_result ops =
  match t with
  | Single e -> Engine.apply_bulk e ~on_result ops
  | Cluster c | Parallel c | Supervised c -> Cluster.apply_bulk c ~on_result ops

let rebalance t ~k =
  match t with
  | Single e -> Engine.rebalance e ~k
  | Cluster c | Parallel c | Supervised c -> Cluster.rebalance c ~k

(* ----- the reply renderer ----- *)

(* Replies are written line by line, each ended by '\n', into a buffer
   the caller owns; numbers are written digit by digit, so a mutation's
   reply allocates nothing of its own. *)

(* [n <= 0]: its digits, most significant first. *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b n
  end
  else add_digits b (-n)

let add_line b s =
  Buffer.add_string b s;
  Buffer.add_char b '\n'

let rec add_lines b = function
  | [] -> ()
  | l :: rest ->
    add_line b l;
    add_lines b rest

let rec add_moves b = function
  | [] -> ()
  | mv :: rest ->
    Buffer.add_string b "MOVE ";
    Buffer.add_string b mv.Engine.id;
    Buffer.add_char b ' ';
    add_int b mv.Engine.src;
    Buffer.add_char b ' ';
    add_int b mv.Engine.dst;
    Buffer.add_char b '\n';
    add_moves b rest

(* A repair's reply: its moves, then the summary. *)
let add_repair b t ~auto moves =
  add_moves b moves;
  Buffer.add_string b (if auto then "REBALANCED auto moves=" else "REBALANCED moves=");
  add_int b (List.length moves);
  Buffer.add_string b " makespan=";
  add_int b (makespan t);
  Buffer.add_char b '\n'

(* The reply to one mutation, one by one or batched. [makespan t] is
   read when the result is rendered: right after the op on the one-by-one
   path and on a [Single] batch, whose [on_result] fires after each op
   and before the next. On a cluster batch results surface when the
   op's chunk completes, and the read folds the per-shard values
   published at the end of each shard's last task (no lock taken): it
   covers the whole chunk, and other sessions' completed ops —
   indistinguishable from the interleavings concurrent sessions
   already produce. Automatic repairs
   fired by the engine's trigger policy ride along with the
   acknowledgement of the event that caused them. *)
let add_op_reply b t op = function
  | Error e ->
    Buffer.add_string b "ERR ";
    add_line b e
  | Ok (p, auto) -> (
    let ms = makespan t in
    Buffer.add_string b
      (match op with
      | Engine.Add _ -> "PLACED "
      | Engine.Remove _ -> "REMOVED "
      | Engine.Resize _ -> "RESIZED ");
    Buffer.add_string b (Engine.op_id op);
    Buffer.add_char b ' ';
    add_int b p;
    Buffer.add_string b " makespan=";
    add_int b ms;
    Buffer.add_char b '\n';
    match auto with [] -> () | moves -> add_repair b t ~auto:true moves)

let help_lines =
  [
    "OK commands:";
    "OK   ADD <id> <size>      place a new job";
    "OK   REMOVE <id>          retire a job";
    "OK   RESIZE <id> <size>   change a job's size";
    "OK   REBALANCE [<k>]      repair pass with move budget k (default: unbounded)";
    "OK                        sharded: k per shard plus k transfers, at most (S+1)*k moves";
    "OK   STATS                engine telemetry";
    "OK   SHARDS               per-shard telemetry (sharded serve only)";
    "OK   HEALTH               per-shard health and failover counters (supervised serve only)";
    "OK   SNAPSHOT             write a state snapshot into the journal (compaction point)";
    "OK   METRICS              Prometheus text exposition, ends with '# EOF'";
    "OK   JOURNAL [<n>]        last n flight-recorder events (default 10), ends with '# EOF'";
    "OK   TRACES [<n>]         span trees of the last n slow ops (default 10), ends with '# EOF'";
    "OK   ALERTS               alert rule states and recent transitions (telemetry serve only), ends with '# EOF'";
    "OK   TSDB <series> [<window>]  windowed points of a series name{label=\"v\"}, window like 30s (default 60s), ends with '# EOF'";
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

(* The health census and failover counters, as STATS appends them and
   HEALTH reports them. *)
let health_fields (h : Supervisor.stats) =
  pf
    " healthy=%d suspect=%d down=%d recovering=%d evacuations=%d evacuated=%d stranded=%d \
     readmissions=%d probe_failures=%d watchdog_trips=%d rejections=%d"
    h.healthy h.suspect h.down h.recovering h.evacuations h.evacuated_jobs h.stranded_jobs
    h.readmissions h.probe_failures h.watchdog_trips h.degraded_rejections

(* A supervised cluster's STATS line is the cluster line with health
   fields appended — consumers matching on the existing prefix keep
   working. *)
let stats_line = function
  | Single e -> "STATS " ^ engine_stats_line (Engine.stats e)
  | Cluster c | Parallel c | Supervised c ->
    let line = cluster_stats_line (Cluster.stats c) in
    if Cluster.supervised c then line ^ health_fields (Supervisor.stats c) else line

let shard_line ~offset i (st : Engine.stats) =
  pf "SHARD %d offset=%d procs=%d jobs=%d makespan=%d imbalance=%.3f" i offset
    st.Engine.procs st.Engine.jobs st.Engine.makespan st.Engine.imbalance

(* A supervised cluster's SHARD lines have health and routing weight
   appended. *)
let shards_lines = function
  | Single _ -> [ "ERR not sharded (serve started without --shards)" ]
  | Cluster c | Parallel c | Supervised c ->
    let health i =
      if not (Cluster.supervised c) then ""
      else
        pf " health=%s weight=%.2f"
          (Supervisor.health_name (Supervisor.health c i))
          (Cluster.weight c i)
    in
    Cluster.shard_stats c
    |> Array.mapi (fun i st -> shard_line ~offset:(Cluster.offset c i) i st ^ health i)
    |> Array.to_list

let not_supervised = [ "ERR not supervised (serve started without --supervise)" ]

let health_lines = function
  | Single _ -> not_supervised
  | Cluster c | Parallel c | Supervised c ->
    if not (Cluster.supervised c) then not_supervised
    else
      let h = Supervisor.stats c in
      let per_shard = Cluster.shard_stats c in
      pf "HEALTH shards=%d%s" h.Supervisor.shards (health_fields h)
      :: List.init (Cluster.shard_count c) (fun i ->
             pf "HEALTH %d %s weight=%.2f jobs=%d" i
               (Supervisor.health_name (Supervisor.health c i))
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

let export_supervisor c =
  let h = Supervisor.stats c in
  (* One 0/1 gauge per (shard, state) pair plus the routing weight, so
     dashboards can plot a health timeline without value decoding. *)
  for i = 0 to Cluster.shard_count c - 1 do
    let current = Supervisor.health_name (Supervisor.health c i) in
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
  count "rebal_evacuations_total" "Down transitions that ran an evacuation" h.evacuations;
  count "rebal_evacuated_jobs_total" "Jobs re-homed off dead shards" h.evacuated_jobs;
  count "rebal_stranded_jobs_total" "Jobs left on dead shards by budget or lack of survivors"
    h.stranded_jobs;
  count "rebal_readmissions_total" "Shards readmitted after recovery" h.readmissions;
  count "rebal_probe_failures_total" "Failed liveness probes and failure reports" h.probe_failures;
  count "rebal_watchdog_trips_total"
    "Supervised operations, or per-shard shares of a batch chunk, that blew the deadline"
    h.watchdog_trips;
  count "rebal_degraded_rejections_total" "Operations refused because of a down shard"
    h.degraded_rejections

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
    gauge "rebal_cluster_domains"
      "Domains hosting session threads, whose shard work runs on them under shard locks"
      (float_of_int (Cluster.domain_count c))

(* Process-wide GC counters, read from [Gc.quick_stat] when the metrics
   are rendered. *)
let export_gc () =
  let st = Gc.quick_stat () in
  let count name help v = Metrics.Counter.set (Metrics.counter ~help name) v in
  count "rebal_gc_minor_words_total" "Words allocated in the minor heap"
    (int_of_float st.Gc.minor_words);
  count "rebal_gc_promoted_words_total" "Words promoted from the minor heap to the major heap"
    (int_of_float st.Gc.promoted_words);
  count "rebal_gc_minor_collections_total" "Minor collections" st.Gc.minor_collections;
  count "rebal_gc_major_collections_total" "Major collection cycles completed"
    st.Gc.major_collections;
  let gauge name help v = Metrics.Gauge.set (Metrics.gauge ~help name) (float_of_int v) in
  gauge "rebal_gc_heap_words" "Words in the major heap" st.Gc.heap_words;
  gauge "rebal_gc_top_heap_words" "Largest size the major heap has reached, in words"
    st.Gc.top_heap_words

let export_target t =
  export_gc ();
  match t with
  | Single e -> export_engine_stats (Engine.stats e)
  | Cluster c | Parallel c | Supervised c ->
    export_cluster c;
    if Cluster.supervised c then export_supervisor c

let render_registry reg =
  let text = Expo.prometheus reg in
  let lines = String.split_on_char '\n' text in
  let lines = List.filter (fun l -> l <> "") lines in
  lines @ [ "# EOF" ]

let metrics_registry t =
  match cluster_of t with
  | Some c ->
    (* The cluster's engines bind their handles in per-shard registries
       (handle mutation is confined to the shard's lock holder) and
       sessions on the server's acceptor domains in the cluster's
       per-domain registries; exposition builds a fresh registry each
       time — exported aggregates first, then every shard and domain
       registry and the default one merged in.
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

(* Tails are read under each shard's lock — a journal sink is
   single-writer state, so [Cluster.query] is the safe path in. *)
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
  | Cluster c | Parallel c | Supervised c -> cluster_journal_lines c n

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
  | Cluster c | Parallel c | Supervised c -> cluster_snapshot_lines c

(* TRACES: span trees for the last [n] slow ops, newest last, from the
   op-trace ring. An op whose tree was evicted still shows its header;
   a slow-but-unsampled op shows its root alone, since its children
   were never recorded. *)
let last n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

let traces_lines n =
  match last n (Optrace.slow_ops ()) with
  | [] -> [ "# no slow ops captured"; "# EOF" ]
  | slow ->
    let traces = Optrace.traces () in
    List.concat_map
      (fun (op : Optrace.slow_op) ->
        pf "# trace %d verb=%s duration=%s" op.slow_trace op.slow_verb
          (Optrace.render_duration op.slow_duration_ns)
        ::
        (match List.find_opt (fun (tr : Optrace.trace) -> tr.trace_id = op.slow_trace) traces with
        | None -> [ "# spans evicted" ]
        | Some tr ->
          String.split_on_char '\n' (Optrace.render_tree tr.root)
          |> List.filter (fun l -> l <> "")))
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

let mutate b t op = add_op_reply b t op (apply t op)

let execute b t = function
  | Add { id; size } -> mutate b t (Engine.Add { id; size })
  | Remove id -> mutate b t (Engine.Remove { id })
  | Resize { id; size } -> mutate b t (Engine.Resize { id; size })
  | Rebalance k -> add_repair b t ~auto:false (rebalance t ~k)
  | Stats -> add_line b (stats_line t)
  | Shards_info -> add_lines b (shards_lines t)
  | Health -> add_lines b (health_lines t)
  | Snapshot_now -> add_lines b (snapshot_lines t)
  | Metrics_dump -> add_lines b (metrics_lines t)
  | Journal_tail n -> add_lines b (journal_lines t n)
  | Traces n -> add_lines b (traces_lines n)
  | Alerts_status -> add_lines b (alerts_status_lines ())
  | Tsdb_query { selector; window_s } -> add_lines b (tsdb_query_lines ~selector ~window_s)
  | Help -> add_lines b help_lines
  | Quit | Shutdown -> add_line b "BYE"

(* A command's latency-series label and its span verb. *)
let verb_names = function
  | Add _ -> ("add", "ADD")
  | Remove _ -> ("remove", "REMOVE")
  | Resize _ -> ("resize", "RESIZE")
  | Rebalance _ -> ("rebalance", "REBALANCE")
  | Stats -> ("stats", "STATS")
  | Shards_info -> ("shards", "SHARDS")
  | Health -> ("health", "HEALTH")
  | Snapshot_now -> ("snapshot", "SNAPSHOT")
  | Metrics_dump -> ("metrics", "METRICS")
  | Journal_tail _ -> ("journal", "JOURNAL")
  | Traces _ -> ("traces", "TRACES")
  | Alerts_status -> ("alerts", "ALERTS")
  | Tsdb_query _ -> ("tsdb", "TSDB")
  | Help -> ("help", "HELP")
  | Quit -> ("quit", "QUIT")
  | Shutdown -> ("shutdown", "SHUTDOWN")

let op_verb_names = function
  | Engine.Add _ -> ("add", "ADD")
  | Engine.Remove _ -> ("remove", "REMOVE")
  | Engine.Resize _ -> ("resize", "RESIZE")

let session_hist verb =
  (* Interning the handle per call is deliberate — sessions are
     systhreads sharing their domain's current registry, and
     [Metrics.histogram] returns the existing handle on
     re-registration. *)
  Metrics.histogram
    ~labels:[ ("verb", verb) ]
    ~help:"Protocol op service time at the session boundary (seconds)"
    "rebal_session_latency_seconds"

(* The op boundary: every parsed command, and every pipelined run of
   mutations, opens a trace (subject to head sampling and tail capture)
   and lands one latency observation in the session histogram. *)
let timed (verb, upper) f =
  let hist = session_hist verb in
  let t0 = Timer.now_ns () in
  Optrace.with_op ~verb:upper f;
  Metrics.Histogram.observe_ns hist (Int64.sub (Timer.now_ns ()) t0)

let run_command b t cmd = timed (verb_names cmd) (fun () -> execute b t cmd)
let run_op b t op = timed (op_verb_names op) (fun () -> mutate b t op)

let run_batch b t ops =
  timed ("batch", "BATCH") (fun () -> apply_bulk t ~on_result:(fun _ op r -> add_op_reply b t op r) ops)

let verdict_of = function
  | Quit -> Close
  | Shutdown -> Stop
  | _ -> Continue

let add_error b ?line e =
  Buffer.add_string b "ERR ";
  (match line with
  | None -> ()
  | Some n ->
    Buffer.add_string b "line ";
    add_int b n;
    Buffer.add_string b ": ");
  add_line b e

(* The lines a renderer wrote, without their '\n's. *)
let lines_of b =
  let n = Buffer.length b in
  if n = 0 then [] else String.split_on_char '\n' (Buffer.sub b 0 (n - 1))

(* One parsed line, answered on its own. *)
let handle_parsed ?line t b = function
  | Blank -> Continue
  | Malformed e ->
    add_error b ?line e;
    Continue
  | Mutation op ->
    run_op b t op;
    Continue
  | Command cmd ->
    run_command b t cmd;
    verdict_of cmd

let handle_line ?line t s =
  let b = Buffer.create 64 in
  let verdict = handle_parsed ?line t b (parse_line s) in
  (lines_of b, verdict)

(* ----- batched sessions ----- *)

let no_op = Engine.Remove { id = "" }

let handle_lines_into ?(start_line = 1) t b lines =
  let pending = Array.make (List.length lines) no_op and queued = ref 0 in
  (* Apply the queued run of mutations. A run of one goes through
     [run_op] — byte- and metric-identical to the unbatched path;
     only a genuine pipeline (>= 2) pays the batch machinery, under one
     BATCH span and one batch-verb latency observation. *)
  let flush () =
    let k = !queued in
    queued := 0;
    if k = 1 then run_op b t pending.(0)
    else if k > 1 then
      run_batch b t (if k = Array.length pending then pending else Array.sub pending 0 k)
  in
  let rec go lineno = function
    | [] ->
      flush ();
      Continue
    | line :: rest -> (
      match parse_line line with
      | Blank -> go (lineno + 1) rest
      | Mutation op ->
        pending.(!queued) <- op;
        incr queued;
        go (lineno + 1) rest
      | (Malformed _ | Command _) as parsed -> (
        flush ();
        match handle_parsed ~line:lineno t b parsed with
        | Continue -> go (lineno + 1) rest
        | v -> v (* drop anything pipelined after QUIT/SHUTDOWN *)))
  in
  go start_line lines

let handle_lines ?start_line t lines =
  let b = Buffer.create 256 in
  let verdict = handle_lines_into ?start_line t b lines in
  (lines_of b, verdict)

(* [domains=] appears only when the cluster has session domains. *)
let cluster_banner c =
  pf "READY rebalance-serve shards=%d%s procs=%d jobs=%d makespan=%d" (Cluster.shard_count c)
    (if Cluster.domain_count c > 0 then pf " domains=%d" (Cluster.domain_count c) else "")
    (Cluster.m c) (Cluster.job_count c) (Cluster.makespan c)

let greeting = function
  | Single e ->
    pf "READY rebalance-serve procs=%d jobs=%d makespan=%d" (Engine.m e)
      (Engine.job_count e) (Engine.makespan e)
  | Cluster c | Parallel c | Supervised c ->
    cluster_banner c
    ^ if Cluster.supervised c then pf " serving=%d" (Supervisor.serving_shards c) else ""
