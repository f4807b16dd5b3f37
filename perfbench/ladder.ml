(* The traced per-layer run. Pregenerated streams (the same generators
   and shapes as the end-to-end workloads) are pushed through each
   layer's public functions in process, one rung per layer, with a span
   around every call. Passes alternate spans on and off until the time
   is spent; the per-layer numbers are medians over the traced passes,
   and the on/off ratio of pass times is the tracing overhead. Two short
   end-to-end runs supply the session rungs, which are derived: the
   end-to-end cost per op minus the protocol rung beneath it. The run
   covers every workload's layers whatever workload the command line
   names, so every traced run reports every per-layer metric; each span
   is tagged with the workload its rung belongs to. *)

module Engine = Rebal_online.Engine
module Protocol = Rebal_online.Protocol
module Shard = Rebal_online.Shard
module Supervisor = Rebal_online.Supervisor
module Cluster = Rebal_online.Cluster
module Replay = Rebal_online.Replay
module Journal = Rebal_obs.Journal

(* Steady lines per rung: enough that per-op figures settle, few enough
   that a pass of every rung takes a few seconds. *)
let single_steady = 200_000
let restart_steady = 100_000
let rpc_steady = 20_000

type seg = Ops of Engine.op array | Repair of int

let lines (s : Gen.stream) =
  let acc = ref [] in
  Gen.iter_lines s (fun l -> acc := l :: !acc);
  Array.of_list (List.rev !acc)

let chunks s =
  let ls = lines s in
  let n = Array.length ls in
  Array.init ((n + Gen.chunk_lines - 1) / Gen.chunk_lines) (fun c ->
      Array.to_list (Array.sub ls (c * Gen.chunk_lines) (min Gen.chunk_lines (n - (c * Gen.chunk_lines)))))

let op_of line =
  match Protocol.parse line with
  | Ok (Some (Protocol.Add { id; size })) -> Some (Engine.Add { id; size })
  | Ok (Some (Protocol.Remove id)) -> Some (Engine.Remove { id })
  | Ok (Some (Protocol.Resize { id; size })) -> Some (Engine.Resize { id; size })
  | _ -> None

(* Runs of mutations (at most a chunk each) split at REBALANCE lines. *)
let segments s =
  let out = ref [] and run = ref [] in
  let flush () =
    if !run <> [] then out := Ops (Array.of_list (List.rev !run)) :: !out;
    run := []
  in
  Array.iter
    (fun line ->
      match op_of line with
      | Some op ->
        run := op :: !run;
        if List.length !run = Gen.chunk_lines then flush ()
      | None -> (
        flush ();
        match Protocol.parse line with
        | Ok (Some (Protocol.Rebalance k)) -> out := Repair k :: !out
        | _ -> failwith ("ladder: unexpected line " ^ line)))
    (lines s);
  flush ();
  Array.of_list (List.rev !out)

let mutations s = Array.fold_left (fun acc l -> if op_of l <> None then acc + 1 else acc) 0 (lines s)

type inputs = {
  single_preload : Engine.op array;
  single_segs : seg array;
  single_chunks : string list array;
  single_lines : string array;
  single_ops : int;
  restart_preload : string list array;
  restart_chunks : string list array;
  restart_ops : int;
  restart_shadow : Shadow.t;  (** the job set after preload and steady lines *)
  rpc_preload : Engine.op array;
  rpc_lines : string array;
}

let inputs ~seed =
  let g = Gen.create ~seed Workloads.single_mix in
  let pre = Gen.preload g in
  let st = Gen.steady g single_steady in
  let r = Gen.create ~seed Workloads.restart_mix in
  let rpre = Gen.preload r in
  let rst = Gen.steady r restart_steady in
  let shadow = Shadow.create () in
  Shadow.apply_stream shadow rpre;
  Shadow.apply_stream shadow rst;
  let c = Gen.create ~seed:(seed * 1000) (Workloads.rpc_mix 0) in
  let cpre = Gen.preload c in
  let cst = Gen.steady c rpc_steady in
  {
    single_preload = Array.of_list (List.filter_map op_of (Array.to_list (lines pre)));
    single_segs = segments st;
    single_chunks = chunks st;
    single_lines = lines st;
    single_ops = mutations st;
    restart_preload = chunks rpre;
    restart_chunks = chunks rst;
    restart_ops = mutations rst;
    restart_shadow = shadow;
    rpc_preload = Array.of_list (List.filter_map op_of (Array.to_list (lines cpre)));
    rpc_lines = lines cst;
  }

(* Time and minor-heap words spent inside calls into one layer. *)
type meter = {
  sp : Spans.t;
  parent : int;
  workload : string;
  mutable ns : int;
  mutable words : float;
  mutable calls : int;
}

let call m name f =
  Spans.with_span m.sp ~parent:m.parent ~workload:m.workload name (fun _ ->
      let w0 = Gc.minor_words () in
      let t0 = Daemon.now_ns () in
      let r = f () in
      m.ns <- m.ns + (Daemon.now_ns () - t0);
      m.words <- m.words +. (Gc.minor_words () -. w0);
      m.calls <- m.calls + 1;
      r)

let rung sp ~parent ~workload name f =
  Spans.with_span sp ~parent ~workload name (fun id ->
      f (fun () -> { sp; parent = id; workload; ns = 0; words = 0.0; calls = 0 }))

let us_per m n = float_of_int m.ns /. 1e3 /. float_of_int (max 1 n)
let words_per m n = m.words /. float_of_int (max 1 n)

let binary_sink b = Journal.create ~format:Journal.Binary ~write:(Buffer.add_string b) ()

let no_err what replies =
  List.iter
    (fun l -> if String.length l >= 3 && String.sub l 0 3 = "ERR" then failwith (what ^ ": " ^ l))
    replies

(* Engine.apply_bulk over the stream-single steady segments, REBALANCE
   lines through Engine.rebalance; optionally journaling to a buffer. *)
let engine_rung inp new_meter ~journal =
  let e = Engine.create ~trigger:Workloads.single_trigger ~m:Workloads.single_procs () in
  Engine.apply_bulk e inp.single_preload;
  let buf = Buffer.create (1 lsl 20) in
  if journal then Engine.set_journal e (Some (binary_sink buf));
  let base = Buffer.length buf in
  let ops = new_meter () and repairs = new_meter () in
  Array.iter
    (function
      | Ops a -> call ops "Engine.apply_bulk" (fun () -> Engine.apply_bulk e a)
      | Repair k -> ignore (call repairs "Engine.rebalance" (fun () -> Engine.rebalance e ~k)))
    inp.single_segs;
  (ops, repairs, Buffer.length buf - base)

let single_rung inp new_meter =
  let e = Engine.create ~trigger:Workloads.single_trigger ~m:Workloads.single_procs () in
  Engine.apply_bulk e inp.single_preload;
  Engine.set_journal e (Some (binary_sink (Buffer.create (1 lsl 20))));
  let t = Protocol.Single e in
  let m = new_meter () in
  Array.iter
    (fun chunk -> no_err "protocol.single" (fst (call m "Protocol.handle_lines" (fun () -> Protocol.handle_lines t chunk))))
    inp.single_chunks;
  m

let parse_rung inp new_meter =
  let m = new_meter () in
  let n = Array.length inp.single_lines in
  let c = ref 0 in
  while !c < n do
    let lo = !c and hi = min n (!c + Gen.chunk_lines) in
    call m "Protocol.parse" (fun () ->
        for i = lo to hi - 1 do
          match Protocol.parse inp.single_lines.(i) with Ok _ -> () | Error e -> failwith e
        done);
    c := hi
  done;
  m

(* The restart-sharded stream through a sharded target; returns the
   meter and the shard journals (preload, snapshot, steady lines). *)
let sharded_rung inp new_meter ~supervised =
  let bufs = Array.init Workloads.restart_shards (fun _ -> Buffer.create (1 lsl 20)) in
  let s =
    Shard.create ~journal_for:(fun i -> Some (binary_sink bufs.(i))) ~m:Workloads.restart_procs
      ~shards:Workloads.restart_shards ()
  in
  let t = if supervised then Protocol.Supervised (Supervisor.create s) else Protocol.Cluster s in
  Array.iter (fun c -> no_err "preload" (fst (Protocol.handle_lines t c))) inp.restart_preload;
  (match Shard.journal_snapshot s with Ok _ -> () | Error e -> failwith e);
  let m = new_meter () in
  Array.iter
    (fun chunk -> no_err "sharded" (fst (call m "Protocol.handle_lines" (fun () -> Protocol.handle_lines t chunk))))
    inp.restart_chunks;
  (m, Array.map Buffer.contents bufs)

(* Per-op RPCs into a one-domain cluster, as the TCP sessions issue them. *)
let with_cluster inp f =
  let c = Cluster.create ~domains:1 ~m:Workloads.rpc_procs ~shards:4 () in
  Fun.protect ~finally:(fun () -> Cluster.shutdown c) @@ fun () ->
  Cluster.apply_bulk c inp.rpc_preload;
  f c

let rpc_rung inp new_meter =
  with_cluster inp @@ fun c ->
  let m = new_meter () in
  Array.iter
    (fun line ->
      let r =
        match op_of line with
        | Some (Engine.Add { id; size }) -> call m "Cluster.add_job" (fun () -> Cluster.add_job c ~id ~size)
        | Some (Engine.Remove { id }) -> call m "Cluster.remove_job" (fun () -> Cluster.remove_job c ~id)
        | Some (Engine.Resize { id; size }) ->
          call m "Cluster.resize_job" (fun () -> Cluster.resize_job c ~id ~size)
        | None -> Error ("unexpected " ^ line)
      in
      match r with Ok _ -> () | Error e -> failwith ("cluster.rpc: " ^ e))
    inp.rpc_lines;
  let mk = new_meter () in
  for _ = 1 to Array.length inp.rpc_lines do
    ignore (call mk "Cluster.makespan" (fun () -> Cluster.makespan c))
  done;
  (m, mk)

let parallel_rung inp new_meter =
  with_cluster inp @@ fun c ->
  let t = Protocol.Parallel c in
  let m = new_meter () in
  Array.iter
    (fun line -> no_err "protocol.parallel" (fst (call m "Protocol.handle_line" (fun () -> Protocol.handle_line t line))))
    inp.rpc_lines;
  m

let decode_replay_rungs inp new_meter journals =
  let dm = new_meter () and rm = new_meter () in
  let frames = ref 0 and events = ref 0 and jobs = ref 0 in
  Array.iter
    (fun j ->
      match call dm "Journal.load_string" (fun () -> Journal.load_string j) with
      | Error e -> failwith ("journal.decode: " ^ e)
      | Ok ((_, evs) as parsed) -> (
        frames := !frames + List.length evs + 1;
        match call rm "Replay.resume" (fun () -> Replay.resume parsed) with
        | Error e -> failwith ("replay.resume: " ^ e)
        | Ok (eng, outcome) ->
          events := !events + outcome.Replay.events;
          jobs := !jobs + Engine.job_count eng))
    journals;
  if !jobs <> Shadow.jobs inp.restart_shadow then
    failwith (Printf.sprintf "replay.resume: %d jobs, shadow model %d" !jobs (Shadow.jobs inp.restart_shadow));
  (dm, !frames, rm, !events)

(* One pass over every rung; the per-layer figures it yields. *)
let pass sp inp =
  Spans.with_span sp ~workload:"all" "ladder" @@ fun root ->
  let single_r name f = rung sp ~parent:root ~workload:"stream-single" name f in
  let restart_r name f = rung sp ~parent:root ~workload:"restart-sharded" name f in
  let rpc_r name f = rung sp ~parent:root ~workload:"rpc-parallel" name f in
  let eng_ops, eng_rep, _ = single_r "engine" (fun nm -> engine_rung inp nm ~journal:false) in
  let jou_ops, jou_rep, jbytes = single_r "journal.emit" (fun nm -> engine_rung inp nm ~journal:true) in
  let parse = single_r "protocol.parse" (parse_rung inp) in
  let single = single_r "protocol.single" (single_rung inp) in
  let shard, _ = restart_r "shard" (fun nm -> sharded_rung inp nm ~supervised:false) in
  let sup, journals = restart_r "supervisor" (fun nm -> sharded_rung inp nm ~supervised:true) in
  let decode, frames, replay, events =
    restart_r "journal.decode+replay" (fun nm -> decode_replay_rungs inp nm journals)
  in
  let rpc, mk = rpc_r "cluster" (rpc_rung inp) in
  let par = rpc_r "protocol.parallel" (parallel_rung inp) in
  let n1 = inp.single_ops and n2 = inp.restart_ops and n3 = Array.length inp.rpc_lines in
  let engine_total = float_of_int (eng_ops.ns + eng_rep.ns) and journal_total = float_of_int (jou_ops.ns + jou_rep.ns) in
  [
    ("engine.us_per_op", us_per eng_ops n1);
    ("engine.words_per_op", (eng_ops.words +. eng_rep.words) /. float_of_int n1);
    ("engine.rebalance_us", us_per eng_rep eng_rep.calls);
    ("journal.emit_us_per_op", (journal_total -. engine_total) /. 1e3 /. float_of_int n1);
    ("journal.bytes_per_op", float_of_int jbytes /. float_of_int n1);
    ("journal.decode_us_per_frame", us_per decode frames);
    ("journal.decode_words_per_frame", words_per decode frames);
    ("replay.resume_us_per_event", us_per replay events);
    ("protocol.parse_us_per_line", us_per parse (Array.length inp.single_lines));
    ("protocol.parse_words_per_line", words_per parse (Array.length inp.single_lines));
    ("protocol.single_us_per_op", us_per single n1);
    ("protocol.single_words_per_op", words_per single n1);
    ("shard.us_per_op", us_per shard n2);
    ("supervisor.us_per_op", us_per sup n2);
    ("cluster.rpc_us_per_op", us_per rpc n3);
    ("cluster.makespan_us", us_per mk mk.calls);
    ("protocol.parallel_us_per_op", us_per par n3);
    ("protocol.parallel_words_per_op", words_per par n3);
    (* Inclusive engine (+ journal) cost per op, for the self-time ladder. *)
    ("ladder.engine_us_per_op", engine_total /. 1e3 /. float_of_int n1);
    ("ladder.journal_us_per_op", journal_total /. 1e3 /. float_of_int n1);
  ]

let units name =
  if Filename.check_suffix name "words_per_op" || Filename.check_suffix name "words_per_line"
     || Filename.check_suffix name "words_per_frame"
  then "words"
  else if Filename.check_suffix name "bytes_per_op" then "B"
  else if name = "trace.overhead_ratio" || name = "cluster.worker_util" then "ratio"
  else if name = "cluster.mailbox_tasks_per_op" then "count"
  else "us"

type outcome = {
  metrics : Report.metric list;
  attempted : int;
  checks : Workloads.check list;
}

let run (ctx : Workloads.ctx) ~spans_path =
  (* The layers run with the observability the daemon ships with: spans
     and latency histograms on, one op in 64 head-sampled, ops slower
     than 10 ms captured. *)
  Rebal_obs.Control.set_enabled true;
  Rebal_obs.Optrace.set_sample_every 64;
  Rebal_obs.Optrace.set_slow_threshold_ns 10_000_000;
  let sp = Spans.create () in
  let inp = inputs ~seed:ctx.Workloads.seed in
  let timed_pass on =
    sp.Spans.on <- on;
    let p0 = Daemon.now_ns () in
    let figures = pass sp inp in
    (figures, float_of_int (Daemon.now_ns () - p0))
  in
  (* A warm-up pass (heap growth, first-touch page faults) is discarded;
     then traced and untraced passes alternate, at least one of each. *)
  (* The in-process rungs may use every CPU, so a [Cluster] worker
     domain runs beside its caller as it does on a multi-core host; the
     session runs below go back to the placement of an end-to-end run. *)
  Daemon.confine_self !Daemon.cpus;
  ignore (timed_pass false);
  let t0 = Daemon.now_ns () in
  let traced = ref [] and ratios = ref [] in
  while !traced = [] || Daemon.since_s t0 < ctx.Workloads.seconds do
    let figures, on_ns = timed_pass true in
    let _, off_ns = timed_pass false in
    traced := figures :: !traced;
    ratios := (on_ns /. off_ns) :: !ratios
  done;
  sp.Spans.on <- true;
  Daemon.confine_self [ !Daemon.client_cpu ];
  let med xs = Workloads.median (Array.of_list xs) in
  let figure name = med (List.map (List.assoc name) !traced) in
  (* Short end-to-end runs for the derived session rungs. *)
  let sub name workload seconds f =
    Spans.with_span sp ~workload name (fun _ -> f { ctx with Workloads.seconds; reps = 1 })
  in
  let stdin = sub "session.stdin" "stream-single" 2.0 Workloads.stream_single in
  let tcp = sub "session.tcp" "rpc-parallel" 1.0 Workloads.rpc_parallel in
  Spans.write sp spans_path;
  (* As measured, not rescaled to the nominal host: the rungs below are
     not rescaled either. *)
  let e2e r name =
    let declared, also = Workloads.end_to_end r in
    (List.find (fun m -> m.Report.name = name) (declared @ also)).Report.value
  in
  let stdin_us = 1e6 /. e2e stdin "raw_ops_s" in
  let tcp_p50 = e2e tcp "raw_lat_p50_us" in
  let names = List.map fst (List.hd !traced) in
  let layer =
    List.filter_map
      (fun n -> if String.length n > 7 && String.sub n 0 7 = "ladder." then None else Some (n, figure n))
      names
    @ [
        ("session.stdin_us_per_op", stdin_us -. figure "protocol.single_us_per_op");
        ("session.tcp_us_per_op", tcp_p50 -. figure "protocol.parallel_us_per_op");
        ("trace.overhead_ratio", med !ratios);
      ]
    @ List.filter_map
        (fun (m : Report.metric) ->
          if String.length m.name > 8 && (String.sub m.name 0 8 = "cluster." || String.sub m.name 0 8 = "session.")
          then Some (m.name, m.value) else None)
        (snd (Workloads.end_to_end tcp))
  in
  (* The stream-single ladder: each rung's self time is what it adds
     over the rung it wraps, so the self times add up to the end-to-end
     cost. Rungs are measured separately (the in-process ones inside
     this process's heap, the last one through a daemon), so a rung can
     read cheaper than the one below it: its self time is negative, and
     the sum of the non-negative ones then exceeds the end-to-end cost. *)
  let chain =
    [
      ("engine", figure "ladder.engine_us_per_op");
      ("journal.emit", figure "ladder.journal_us_per_op");
      ("protocol.single", figure "protocol.single_us_per_op");
      ("session.stdin", stdin_us);
    ]
  in
  Printf.printf "# stream-single ladder, us per mutating op\n";
  let _, self_sum =
    List.fold_left
      (fun (below, acc) (name, incl) ->
        Printf.printf "#   %-18s inclusive %9.4f  self %9.4f\n" name incl (incl -. below);
        (incl, acc +. Float.max 0.0 (incl -. below)))
      (0.0, 0.0) chain
  in
  Printf.printf "#   non-negative self times sum to %.4f against %.4f end to end: %s\n" self_sum stdin_us
    (if self_sum <= stdin_us *. (1.0 +. 1e-9) then "consistent" else "a rung reads cheaper than the one below");
  let spans = Spans.recorded sp in
  (* Span 0 is the root of the first traced pass. *)
  Printf.printf "# span self time per rung (harness time not inside calls into the layer), ms\n";
  Array.iter
    (fun (s : Spans.span) ->
      if s.parent = 0 then
        Printf.printf "#   %-24s %9.3f of %9.3f\n" s.name
          (float_of_int (Spans.self_time spans s) /. 1e6)
          (float_of_int (s.stop - s.start) /. 1e6))
    spans;
  Printf.printf "# spans: %d written to %s\n" (Array.length spans) spans_path;
  let not_finite = List.filter_map (fun (n, v) -> if Float.is_finite v then None else Some n) layer in
  {
    metrics = List.map (fun (n, v) -> Report.metric n (units n) v) layer;
    attempted = (2 * List.length !traced + 1) * (inp.single_ops + inp.restart_ops + (2 * Array.length inp.rpc_lines));
    checks =
      Workloads.checks stdin @ Workloads.checks tcp
      @ [
          Workloads.check "every per-layer figure is finite" (not_finite = [])
            (String.concat ", " not_finite);
        ];
  }
