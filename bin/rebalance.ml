(* The rebalance command-line tool: generate instances, solve them with
   any algorithm in the library, inspect lower bounds, and run the
   web-server simulation. See README.md for a tour. *)

module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Budget = Rebal_core.Budget
module Verify = Rebal_core.Verify
module Io = Rebal_core.Io
module Lower_bounds = Rebal_core.Lower_bounds
module Dist = Rebal_workloads.Dist
module Gen = Rebal_workloads.Gen
module Rng = Rebal_workloads.Rng
module Metrics = Rebal_obs.Metrics
module Optrace = Rebal_obs.Optrace
module Expo = Rebal_obs.Expo
module Journal = Rebal_obs.Journal
module Replay = Rebal_online.Replay
module Indexed_heap = Rebal_ds.Indexed_heap
open Cmdliner

(* The one version string: cmdliner's --version, the CHANGELOG and the
   rebal_build_info metric all report it. *)
let version = "1.28.0"

(* ----- shared argument parsing ----- *)

let dist_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "uniform"; lo; hi ] ->
      Ok (Dist.Uniform { lo = int_of_string lo; hi = int_of_string hi })
    | [ "constant"; c ] -> Ok (Dist.Constant (int_of_string c))
    | [ "exp"; mean ] -> Ok (Dist.Exponential { mean = float_of_string mean })
    | [ "zipf"; alpha; scale ] ->
      Ok (Dist.Zipf { ranks = 1000; alpha = float_of_string alpha; scale = int_of_string scale })
    | [ "pareto"; alpha; scale ] ->
      Ok (Dist.Pareto { alpha = float_of_string alpha; scale = int_of_string scale })
    | [ "bimodal"; p ] ->
      Ok
        (Dist.Bimodal
           { small_lo = 1; small_hi = 20; big_lo = 100; big_hi = 300; big_prob = float_of_string p })
    | _ ->
      Error
        (`Msg
          "expected DIST as uniform:LO:HI | constant:C | exp:MEAN | zipf:ALPHA:SCALE | \
           pareto:ALPHA:SCALE | bimodal:PROB")
  in
  let parse s = try parse s with Failure _ -> Error (`Msg "bad number in DIST") in
  Arg.conv (parse, fun ppf d -> Format.pp_print_string ppf (Dist.name d))

let cost_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "unit" ] -> Ok Gen.Unit
    | [ "size"; per ] -> Ok (Gen.Proportional_to_size { per = int_of_string per })
    | [ "inverse"; num ] -> Ok (Gen.Inverse_size { numerator = int_of_string num })
    | [ "random"; lo; hi ] ->
      Ok (Gen.Uniform_random { lo = int_of_string lo; hi = int_of_string hi })
    | _ -> Error (`Msg "expected COST as unit | size:PER | inverse:NUM | random:LO:HI")
  in
  let parse s = try parse s with Failure _ -> Error (`Msg "bad number in COST") in
  Arg.conv (parse, fun ppf c -> Format.pp_print_string ppf (Gen.cost_model_name c))

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* A refused run: one "error:" line on stderr, exit status 1. *)
let or_exit = function
  | Ok v -> v
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1

let read_instance_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Io.read_instance ic)

(* ----- gen ----- *)

let gen_cmd =
  let n = Arg.(value & opt int 100 & info [ "n"; "jobs" ] ~docv:"N" ~doc:"Number of jobs.") in
  let m = Arg.(value & opt int 10 & info [ "m"; "procs" ] ~docv:"M" ~doc:"Number of processors.") in
  let dist =
    Arg.(
      value
      & opt dist_conv (Dist.Uniform { lo = 1; hi = 100 })
      & info [ "dist" ] ~docv:"DIST" ~doc:"Job size distribution.")
  in
  let cost =
    Arg.(value & opt cost_conv Gen.Unit & info [ "cost" ] ~docv:"COST" ~doc:"Relocation cost model.")
  in
  let placement =
    Arg.(
      value
      & opt (enum [ ("random", `Random); ("skewed", `Skewed); ("drifted", `Drifted) ]) `Random
      & info [ "placement" ] ~docv:"KIND" ~doc:"Initial placement: random, skewed or drifted.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file (stdout if absent).")
  in
  let run n m dist cost placement out seed =
    let rng = Rng.create seed in
    let dist = Dist.prepare dist in
    let inst =
      match placement with
      | `Random -> Gen.random rng ~n ~m ~dist ~cost ()
      | `Skewed -> Gen.skewed rng ~n ~m ~dist ~skew:1.5 ~cost ()
      | `Drifted -> Gen.drifted rng ~n ~m ~dist ~drift:0.3 ~cost ()
    in
    match out with
    | None -> Io.write_instance stdout inst
    | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Io.write_instance oc inst);
      Printf.printf "wrote %d jobs on %d processors to %s\n" n m path
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a load-rebalancing instance.")
    Term.(const run $ n $ m $ dist $ cost $ placement $ out $ seed_arg)

(* ----- solve ----- *)

type algo =
  | A_greedy
  | A_m_partition
  | A_local_search
  | A_lpt
  | A_budgeted
  | A_ptas
  | A_gap
  | A_exact
  | A_none

let algo_enum =
  [
    ("greedy", A_greedy);
    ("m-partition", A_m_partition);
    ("local-search", A_local_search);
    ("lpt", A_lpt);
    ("budgeted-partition", A_budgeted);
    ("ptas", A_ptas);
    ("gap", A_gap);
    ("exact", A_exact);
    ("none", A_none);
  ]

let solve_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance file.") in
  let algo =
    Arg.(value & opt (enum algo_enum) A_m_partition & info [ "algo" ] ~docv:"ALGO" ~doc:"Algorithm.")
  in
  let k = Arg.(value & opt (some int) None & info [ "k"; "moves" ] ~docv:"K" ~doc:"Move budget.") in
  let budget =
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"B" ~doc:"Relocation cost budget.")
  in
  let show_assignment =
    Arg.(value & flag & info [ "assignment" ] ~doc:"Print the resulting assignment.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  let run file algo k budget show_assignment format =
    match read_instance_file file with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | Ok inst ->
      let budget_t =
        match (k, budget) with
        | Some k, None -> Budget.Moves k
        | None, Some b -> Budget.Cost b
        | None, None -> Budget.Moves (Instance.n inst / 10)
        | Some _, Some _ ->
          Printf.eprintf "error: give either --k or --budget, not both\n";
          exit 1
      in
      let assignment =
        match (algo, budget_t) with
        | A_greedy, Budget.Moves k -> Rebal_algo.Greedy.solve inst ~k
        | A_m_partition, Budget.Moves k -> Rebal_algo.M_partition.solve inst ~k
        | A_local_search, Budget.Moves k -> Rebal_algo.Local_search.solve inst ~k
        | A_lpt, _ -> Rebal_algo.Lpt.solve inst
        | A_budgeted, Budget.Cost b -> fst (Rebal_algo.Budgeted_partition.solve inst ~budget:b)
        | A_budgeted, Budget.Moves k ->
          if Instance.unit_cost inst then fst (Rebal_algo.Budgeted_partition.solve inst ~budget:k)
          else begin
            Printf.eprintf "error: budgeted-partition needs --budget on costed instances\n";
            exit 1
          end
        | A_ptas, b -> Rebal_algo.Ptas.solve inst ~budget:b
        | A_gap, Budget.Cost b -> fst (Rebal_lp.Gap.solve inst ~budget:b)
        | A_gap, Budget.Moves _ ->
          Printf.eprintf "error: gap needs --budget (cost budget)\n";
          exit 1
        | A_exact, b -> begin
          match Rebal_algo.Exact.solve inst ~budget:b with
          | Some a -> a
          | None ->
            Printf.eprintf "error: exact solver hit its node limit\n";
            exit 1
        end
        | A_none, _ -> Assignment.identity inst
        | (A_greedy | A_m_partition | A_local_search), Budget.Cost _ ->
          Printf.eprintf "error: this algorithm takes --k (a move budget)\n";
          exit 1
      in
      (match Verify.check inst assignment ~budget:budget_t with
      | Error msg ->
        Printf.eprintf "internal error: invalid assignment: %s\n" msg;
        exit 1
      | Ok report -> begin
        match format with
        | `Text ->
          Printf.printf "initial makespan:  %d\n" (Instance.initial_makespan inst);
          Printf.printf "final makespan:    %d\n" report.Verify.makespan;
          Printf.printf "moves:             %d\n" report.Verify.moves;
          Printf.printf "relocation cost:   %d\n" report.Verify.relocation_cost;
          Printf.printf "budget:            %s ok=%b\n"
            (Format.asprintf "%a" Budget.pp budget_t)
            report.Verify.budget_ok;
          Printf.printf "lower bound:       %d\n" report.Verify.lower_bound;
          Printf.printf "ratio vs bound:    %.4f\n" report.Verify.ratio
        | `Json ->
          Printf.printf
            "{\"initial_makespan\": %d, \"makespan\": %d, \"moves\": %d, \
             \"relocation_cost\": %d, \"budget\": \"%s\", \"budget_ok\": %b, \
             \"lower_bound\": %d, \"ratio\": %.4f}\n"
            (Instance.initial_makespan inst)
            report.Verify.makespan report.Verify.moves report.Verify.relocation_cost
            (Format.asprintf "%a" Budget.pp budget_t)
            report.Verify.budget_ok report.Verify.lower_bound report.Verify.ratio
      end);
      if show_assignment then Io.write_assignment stdout assignment
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve an instance with a chosen algorithm.")
    Term.(const run $ file $ algo $ k $ budget $ show_assignment $ format)

(* ----- bounds ----- *)

let bounds_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance file.") in
  let k = Arg.(value & opt int 0 & info [ "k" ] ~docv:"K" ~doc:"Move budget for the G1 bound.") in
  let run file k =
    match read_instance_file file with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | Ok inst ->
      Printf.printf "jobs:             %d\n" (Instance.n inst);
      Printf.printf "processors:       %d\n" (Instance.m inst);
      Printf.printf "initial makespan: %d\n" (Instance.initial_makespan inst);
      Printf.printf "average load:     %d\n" (Lower_bounds.average inst);
      Printf.printf "max job size:     %d\n" (Lower_bounds.max_size inst);
      Printf.printf "G1 (k=%d):        %d\n" k (Lower_bounds.g1 inst ~k)
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print lower bounds on the optimal makespan.")
    Term.(const run $ file $ k)

(* ----- simulate ----- *)

let simulate_cmd =
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV.")
  in
  let sites = Arg.(value & opt int 200 & info [ "sites" ] ~docv:"N" ~doc:"Number of websites.") in
  let servers = Arg.(value & opt int 10 & info [ "servers" ] ~docv:"M" ~doc:"Number of servers.") in
  let horizon = Arg.(value & opt int 168 & info [ "horizon" ] ~docv:"T" ~doc:"Simulated steps.") in
  let period = Arg.(value & opt int 6 & info [ "period" ] ~docv:"P" ~doc:"Steps between rebalances.") in
  let k = Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Per-round move budget.") in
  let run csv sites servers horizon period k seed =
    let traffic =
      Rebal_sim.Traffic.create (Rng.create seed) ~sites ~horizon ~zipf_alpha:0.5 ~scale:300
        ~diurnal_depth:0.8 ~noise:0.15 ~flash_prob:0.003 ~flash_mult:5 ~flash_len:8 ()
    in
    let table =
      Rebal_harness.Table.create ~title:"web-server simulation"
        ~columns:[ "policy"; "mean imb"; "p95 imb"; "peak"; "moves" ]
    in
    List.iter
      (fun policy ->
        let r = Rebal_sim.Simulation.run traffic { Rebal_sim.Simulation.servers; period; policy } in
        Rebal_harness.Table.add_row table
          [
            Rebal_sim.Policy.name policy;
            Printf.sprintf "%.3f" r.Rebal_sim.Simulation.mean_imbalance;
            Printf.sprintf "%.3f" r.Rebal_sim.Simulation.p95_imbalance;
            string_of_int r.Rebal_sim.Simulation.peak_makespan;
            string_of_int r.Rebal_sim.Simulation.total_moves;
          ])
      [
        Rebal_sim.Policy.No_rebalance;
        Rebal_sim.Policy.Greedy k;
        Rebal_sim.Policy.M_partition k;
        Rebal_sim.Policy.Local_search k;
        Rebal_sim.Policy.Full_lpt;
      ];
    Rebal_harness.Table.print table;
    Option.iter (fun path -> Rebal_harness.Table.save_csv table ~path) csv
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the web-server migration simulation.")
    Term.(const run $ csv $ sites $ servers $ horizon $ period $ k $ seed_arg)


(* ----- chaos ----- *)

let chaos_cmd =
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV.")
  in
  let sites = Arg.(value & opt int 200 & info [ "sites" ] ~docv:"N" ~doc:"Number of websites.") in
  let servers = Arg.(value & opt int 10 & info [ "servers" ] ~docv:"M" ~doc:"Number of servers.") in
  let horizon = Arg.(value & opt int 336 & info [ "horizon" ] ~docv:"T" ~doc:"Simulated steps.") in
  let period = Arg.(value & opt int 6 & info [ "period" ] ~docv:"P" ~doc:"Steps between rebalances.") in
  let k = Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Per-round move budget.") in
  let crash_rate =
    Arg.(value & opt float 0.002 & info [ "crash-rate" ] ~docv:"P" ~doc:"Per-server per-step crash probability.")
  in
  let mttr =
    Arg.(value & opt int 12 & info [ "mttr" ] ~docv:"STEPS" ~doc:"Mean steps a crashed server stays down.")
  in
  let migration_fail =
    Arg.(value & opt float 0.1 & info [ "migration-fail" ] ~docv:"P" ~doc:"Probability a policy move fails (budget is still spent).")
  in
  let lag =
    Arg.(value & opt int 1 & info [ "lag" ] ~docv:"STEPS" ~doc:"Staleness of the loads policies observe.")
  in
  let noise =
    Arg.(value & opt float 0.1 & info [ "noise" ] ~docv:"X" ~doc:"Multiplicative jitter on observed loads.")
  in
  let recover_below =
    Arg.(value & opt float 1.5 & info [ "recover-below" ] ~docv:"X" ~doc:"Imbalance threshold below which the cluster counts as recovered.")
  in
  let journal_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Record every run as a JSONL flight-recorder journal: crash/recovery \
             transitions, forced evacuations, policy rounds and per-step state.")
  in
  let run csv sites servers horizon period k crash_rate mttr migration_fail lag noise
      recover_below journal_file seed =
    (* Heavy-tailed popularity: the regime where a crashed server can be
       holding a disproportionate share of the load. *)
    let traffic =
      Rebal_sim.Traffic.create (Rng.create seed) ~sites ~horizon ~zipf_alpha:0.8 ~scale:1000
        ~diurnal_depth:0.6 ~noise:0.15 ~flash_prob:0.003 ~flash_mult:5 ~flash_len:8 ()
    in
    let fault =
      Rebal_sim.Fault.create ~seed:(seed + 1) ~servers ~horizon ~crash_rate ~mttr
        ~migration_fail ~lag ~noise ()
    in
    let crashes = List.length (Rebal_sim.Fault.crash_events fault) in
    Printf.printf
      "chaos: %d sites on %d servers over %d steps; %d crash(es), mttr=%d, \
       migration-fail=%.0f%%, lag=%d, noise=%.0f%%\n\n"
      sites servers horizon crashes mttr (100.0 *. migration_fail) lag (100.0 *. noise);
    let journal_oc = Option.map open_out journal_file in
    let journal =
      Option.map
        (fun oc ->
          let sink = Journal.to_channel oc in
          (* One journal for the whole sweep; the header records the chaos
             configuration and a sim_policy event bounds each run. *)
          Journal.write_header sink ~journal:"rebal-sim"
            [
              ("sites", Journal.Int sites);
              ("servers", Journal.Int servers);
              ("horizon", Journal.Int horizon);
              ("period", Journal.Int period);
              ("seed", Journal.Int seed);
              ("crash_rate", Journal.Float crash_rate);
              ("mttr", Journal.Int mttr);
              ("migration_fail", Journal.Float migration_fail);
              ("lag", Journal.Int lag);
              ("noise", Journal.Float noise);
            ];
          sink)
        journal_oc
    in
    let table =
      Rebal_harness.Table.create ~title:"rebalancing under faults"
        ~columns:
          [ "policy"; "mean imb"; "p95 imb"; "dw mksp"; "moves"; "failed"; "emerg"; "fallbk"; "mean recov" ]
    in
    List.iter
      (fun policy ->
        Option.iter
          (fun sink ->
            Journal.emit sink ~kind:"sim_policy"
              [ ("policy", Journal.Str (Rebal_sim.Policy.name policy)) ])
          journal;
        let r =
          Rebal_sim.Simulation.run ~fault ~recovery_threshold:recover_below ?journal traffic
            { Rebal_sim.Simulation.servers; period; policy }
        in
        let recovered =
          List.filter_map (fun rc -> rc.Rebal_sim.Simulation.steps_to_recover)
            r.Rebal_sim.Simulation.recoveries
        in
        let mean_recovery =
          match recovered with
          | [] -> "-"
          | xs ->
            Printf.sprintf "%.1f"
              (float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs))
        in
        Rebal_harness.Table.add_row table
          [
            Rebal_sim.Policy.name policy;
            Printf.sprintf "%.3f" r.Rebal_sim.Simulation.mean_imbalance;
            Printf.sprintf "%.3f" r.Rebal_sim.Simulation.p95_imbalance;
            Printf.sprintf "%.0f" r.Rebal_sim.Simulation.downtime_weighted_makespan;
            string_of_int r.Rebal_sim.Simulation.total_moves;
            string_of_int r.Rebal_sim.Simulation.failed_migrations;
            string_of_int r.Rebal_sim.Simulation.emergency_moves;
            string_of_int r.Rebal_sim.Simulation.fallbacks;
            mean_recovery;
          ])
      [
        Rebal_sim.Policy.No_rebalance;
        Rebal_sim.Policy.Greedy k;
        Rebal_sim.Policy.M_partition k;
        Rebal_sim.Policy.Triggered { k; threshold = 1.3 };
        Rebal_sim.Policy.Full_lpt;
        Rebal_sim.Policy.Failover
          { primary = Rebal_sim.Policy.M_partition k;
            fallback = Rebal_sim.Policy.Greedy k;
            deadline = 0.05 };
      ];
    Rebal_harness.Table.print table;
    Option.iter (fun path -> Rebal_harness.Table.save_csv table ~path) csv;
    Option.iter close_out journal_oc;
    Option.iter
      (fun path -> Printf.printf "wrote fault-plan journal to %s\n" path)
      journal_file
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run the web-server simulation under injected faults: crashes, failed migrations, stale load signals.")
    Term.(
      const run $ csv $ sites $ servers $ horizon $ period $ k $ crash_rate $ mttr
      $ migration_fail $ lag $ noise $ recover_below $ journal_file $ seed_arg)

(* ----- profile ----- *)

(* Flush the process-global heap counters into the current registry
   under stable metric names, so heap work shows up next to the solver
   counters that caused it. *)
let flush_heap_counters (hc : Indexed_heap.counters) =
  let count name help v = Metrics.Counter.set (Metrics.counter ~help name) v in
  let sift dir v =
    Metrics.Counter.set
      (Metrics.counter
         ~labels:[ ("dir", dir) ]
         ~help:"Heap sift swaps by direction" "rebal_heap_sift_steps_total")
      v
  in
  count "rebal_heap_sets_total" "Indexed-heap inserts and priority updates" hc.Indexed_heap.sets;
  count "rebal_heap_removes_total" "Indexed-heap removals" hc.Indexed_heap.removes;
  count "rebal_heap_pops_total" "Indexed-heap pop-min operations" hc.Indexed_heap.pops;
  sift "up" hc.Indexed_heap.sift_up_steps;
  sift "down" hc.Indexed_heap.sift_down_steps

let metric_value_cell (m : Metrics.metric) =
  match m.Metrics.kind with
  | Metrics.Counter c -> string_of_int (Metrics.Counter.value c)
  | Metrics.Gauge g -> Printf.sprintf "%g" (Metrics.Gauge.value g)
  | Metrics.Histogram h ->
    Printf.sprintf "count=%d sum=%g" (Metrics.Histogram.observations h)
      (Metrics.Histogram.sum h)

let counter_table reg =
  let table =
    Rebal_harness.Table.create ~title:"metrics" ~columns:[ "metric"; "labels"; "value" ]
  in
  List.iter
    (fun (m : Metrics.metric) ->
      let labels =
        match m.Metrics.labels with
        | [] -> "-"
        | ls -> String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
      in
      Rebal_harness.Table.add_row table [ m.Metrics.name; labels; metric_value_cell m ])
    (Metrics.Registry.metrics reg);
  table

let profile_cmd =
  let algo =
    Arg.(
      value
      & opt (enum [ ("greedy", `Greedy); ("m-partition", `M_partition) ]) `Greedy
      & info [ "algo" ] ~docv:"ALGO" ~doc:"Algorithm to profile: greedy or m-partition.")
  in
  let n = Arg.(value & opt int 2000 & info [ "n"; "jobs" ] ~docv:"N" ~doc:"Number of jobs.") in
  let m =
    Arg.(value & opt int 16 & info [ "m"; "procs" ] ~docv:"M" ~doc:"Number of processors.")
  in
  let k =
    Arg.(
      value
      & opt (some int) None
      & info [ "k"; "moves" ] ~docv:"K" ~doc:"Move budget (default: n / 10).")
  in
  let dist =
    Arg.(
      value
      & opt dist_conv (Dist.Uniform { lo = 1; hi = 100 })
      & info [ "dist" ] ~docv:"DIST" ~doc:"Job size distribution.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("prom", `Prom); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output: text (span tree + counter table), prom, or json.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the output to $(docv) instead of stdout.")
  in
  let run algo n m k dist format out seed =
    let k = match k with Some k -> k | None -> max 1 (n / 10) in
    let reg = Metrics.Registry.create () in
    Metrics.Registry.with_registry reg @@ fun () ->
    let hc = Indexed_heap.fresh_counters () in
    Indexed_heap.install_counters hc;
    Fun.protect ~finally:Indexed_heap.remove_counters @@ fun () ->
    let rng = Rng.create seed in
    let dist = Dist.prepare dist in
    let inst = Gen.random rng ~n ~m ~dist ~cost:Gen.Unit () in
    (* One traced op around the solve: the solver's phase spans are its
       children, and they are the tree printed below. *)
    Optrace.reset ();
    Optrace.set_sample_every 1;
    let assignment =
      Optrace.with_op ~verb:"profile" (fun () ->
          match algo with
          | `Greedy -> Rebal_algo.Greedy.solve inst ~k
          | `M_partition -> Rebal_algo.M_partition.solve inst ~k)
    in
    flush_heap_counters hc;
    match format with
    | `Text ->
      let algo_name = match algo with `Greedy -> "greedy" | `M_partition -> "m-partition" in
      let b = Buffer.create 1024 in
      Buffer.add_string b
        (Printf.sprintf "profile: %s n=%d m=%d k=%d makespan=%d (initial %d)\n\n" algo_name n
           m k
           (Assignment.makespan inst assignment)
           (Instance.initial_makespan inst));
      List.iter
        (fun (op : Optrace.trace) ->
          List.iter (fun sp -> Buffer.add_string b (Optrace.render_tree sp)) op.root.children)
        (Optrace.traces ());
      Buffer.add_char b '\n';
      Buffer.add_string b (Rebal_harness.Table.render (counter_table reg));
      (match out with
      | None -> print_string (Buffer.contents b)
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Buffer.contents b));
        Printf.printf "wrote profile to %s\n" path)
    | (`Prom | `Json) as f -> begin
      (* Machine formats share the Expo dump entry point with the serve
         daemon's --metrics-file. *)
      let fmt = match f with `Prom -> Expo.Prometheus | `Json -> Expo.Json in
      match out with
      | None -> Expo.write fmt stdout reg
      | Some path -> begin
        match Expo.to_file fmt ~path reg with
        | Ok () -> Printf.printf "wrote metrics to %s\n" path
        | Error e ->
          Printf.eprintf "error: %s\n" e;
          exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Solve a generated instance with tracing enabled and print the span tree plus the \
          metric counters the solve produced.")
    Term.(const run $ algo $ n $ m $ k $ dist $ format $ out $ seed_arg)

(* ----- serve ----- *)

let serve_cmd =
  let module Daemon = Rebal_net.Daemon in
  let d = Daemon.default in
  let procs =
    Arg.(value & opt int d.procs & info [ "m"; "procs" ] ~docv:"M" ~doc:"Number of processors.")
  in
  let shards =
    Arg.(
      value & opt int d.shards
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Partition the processors into $(docv) shards, each backed by its own engine \
             (consistent-hash job placement, cross-shard rebalancing). With --journal, \
             shard $(i,i) records to FILE.$(i,i).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix domain socket instead of stdin/stdout.")
  in
  let domains =
    Arg.(
      value
      & opt int d.domains
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Run --tcp and --socket sessions on $(docv) domains (clamped to --shards): \
             each domain accepts on the shared listener and runs the sessions it \
             accepts, so the kernel's accept wake-up spreads them; 0, the default, runs \
             them on the main domain. Every session \
             runs its own shard work, holding that shard's lock, so each shard's engine, \
             journal and metrics have one writer at a time; cross-shard rebalancing uses \
             journaled two-phase transfers, so per-shard journals stay individually \
             replayable.")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:
            "Listen on 127.0.0.1:$(docv) and serve many clients concurrently, one session \
             thread per connection (pipelining allowed; ERR lines stay numbered per \
             session). Port 0 picks a free port (printed on stdout). With --shards above 1 \
             or --domains above 0, supervised or not, the sessions run concurrently under \
             per-shard locks; a single engine serializes them under one operation lock.")
  in
  let auto_events =
    Arg.(
      value
      & opt (some int) None
      & info [ "auto-events" ] ~docv:"N" ~doc:"Auto-rebalance every N events.")
  in
  let auto_imbalance =
    Arg.(
      value
      & opt (some float) None
      & info [ "auto-imbalance" ] ~docv:"X"
          ~doc:"Auto-rebalance when makespan / average load exceeds X.")
  in
  let auto_seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "auto-seconds" ] ~docv:"S" ~doc:"Auto-rebalance every S seconds of wall time.")
  in
  let auto_k =
    Arg.(
      value & opt int d.auto_k
      & info [ "auto-k" ] ~docv:"K" ~doc:"Move budget for each automatic rebalance.")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-file" ] ~docv:"FILE"
          ~doc:
            "Write the Prometheus metrics snapshot to $(docv) on exit and whenever the \
             daemon receives SIGUSR1.")
  in
  let journal_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Flight recorder: append every engine event to $(docv) (flushed per \
             event). If $(docv) already holds a journal — JSONL or binary, sniffed \
             from the file — the engine state is rebuilt from it first, from the \
             latest snapshot when one was recorded, and the file is appended to in \
             its existing format. Replay it with 'rebalance replay', compact it with \
             'rebalance compact', inspect it with 'rebalance explain' or the JOURNAL \
             protocol verb, convert formats with 'rebalance journal-convert'.")
  in
  let journal_format =
    Arg.(
      value
      & opt (enum [ ("jsonl", Journal.Jsonl); ("binary", Journal.Binary) ]) d.journal_format
      & info [ "journal-format" ] ~docv:"FMT"
          ~doc:
            "On-disk format for a $(b,new) --journal file: $(b,jsonl) (default; one JSON \
             object per line, portable) or $(b,binary) (length-prefixed frames, cheaper \
             on the hot path). Resuming an existing journal keeps the file's own format \
             regardless of this flag. 'rebalance journal-convert' translates both ways.")
  in
  let supervise =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Run the shard router under health supervision: per-shard health states, a \
             watchdog on every operation (the ops one pipelined chunk sends to a shard share one \
             deadline, scaled by their count), automatic evacuation of shards that go down and \
             degraded-mode serving from the survivors. Adds the HEALTH verb and health \
             fields to STATS/SHARDS. Requires --shards >= 2.")
  in
  let evac_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "evac-budget" ] ~docv:"N"
          ~doc:
            "Maximum jobs re-homed per evacuation when a supervised shard goes down \
             (default: unbounded). Jobs beyond the budget stay stranded until the shard is \
             readmitted.")
  in
  let trace_sample =
    Arg.(
      value & opt int d.trace_sample
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Head-sample one protocol op in $(docv) for full span recording (TRACES verb). \
             0 disables head sampling.")
  in
  let trace_slow_ms =
    Arg.(
      value & opt float d.trace_slow_ms
      & info [ "trace-slow-ms" ] ~docv:"MS"
          ~doc:
            "Capture every op slower than $(docv) milliseconds into the slow-op ring \
             regardless of sampling (0 captures every op; negative disables tail \
             capture).")
  in
  let telemetry_interval =
    Arg.(
      value
      & opt (some float) None
      & info [ "telemetry-interval" ] ~docv:"S"
          ~doc:
            "Sample every metric into the in-process time-series store every $(docv) \
             seconds (enables the TSDB verb and GET /tsdb). Telemetry is on whenever any \
             of --telemetry-interval, --telemetry-out or --alert-rules is given; the \
             interval defaults to 1 second.")
  in
  let telemetry_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-out" ] ~docv:"FILE"
          ~doc:
            "Persist telemetry to $(docv) as JSONL (one 'sample' event per tick, one \
             'alert' event per rule transition; resilient line-flushed appends, like \
             --journal). Feed it to 'rebalance postmortem' together with the op journals.")
  in
  let alert_rules =
    Arg.(
      value
      & opt (some string) None
      & info [ "alert-rules" ] ~docv:"FILE"
          ~doc:
            "Load alert rules from $(docv) (one 'alert NAME func(series[window]) OP VALUE \
             for DUR [suspect SHARD]' or 'burnrate NAME bad=... total=... budget=... \
             factor=... short=... long=...' per line) and evaluate them every telemetry \
             tick. Adds the ALERTS verb and GET /alerts; under --supervise, each tick a \
             suspect-annotated rule spends firing is reported to the supervisor as a \
             failure signal against that shard.")
  in
  let run procs shards socket domains tcp auto_events auto_imbalance auto_seconds auto_k
      metrics_file journal journal_format supervise evac_budget trace_sample trace_slow_ms
      telemetry_interval telemetry_out alert_rules =
    let config =
      {
        Daemon.procs;
        shards;
        socket;
        domains;
        tcp;
        auto_events;
        auto_imbalance;
        auto_seconds;
        auto_k;
        metrics_file;
        journal;
        journal_format;
        supervise;
        evac_budget;
        trace_sample;
        trace_slow_ms;
        telemetry_interval;
        telemetry_out;
        alert_rules;
      }
    in
    or_exit (Result.bind (Daemon.create config) (fun daemon -> Daemon.run daemon))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the online rebalancing engine as a long-running service speaking a \
          line-delimited protocol (ADD/REMOVE/RESIZE/REBALANCE/STATS/METRICS) on stdin or a \
          Unix domain socket. With --shards, processors are partitioned across that many \
          independent engines behind a consistent-hash router, each behind its own lock, \
          and --tcp serves many clients concurrently over TCP; with --domains, those \
          sessions spread over that many domains; with --journal, restarts resume from the \
          recorded state; with --supervise, shard health is tracked and a dead shard's \
          jobs are evacuated onto the survivors; with --telemetry-interval / \
          --telemetry-out / --alert-rules, a sampler thread feeds an in-process \
          time-series store (TSDB verb, GET /tsdb), evaluates SLO alert rules against it \
          (ALERTS verb, GET /alerts) and reports firing suspect-annotated rules to the \
          supervisor. SIGTERM/SIGINT shut the daemon down cleanly: drain sessions, final \
          snapshot, journal close, socket unlink.")
    Term.(
      const run $ procs $ shards $ socket $ domains $ tcp $ auto_events $ auto_imbalance
      $ auto_seconds $ auto_k $ metrics_file $ journal_file $ journal_format $ supervise
      $ evac_budget $ trace_sample $ trace_slow_ms $ telemetry_interval $ telemetry_out
      $ alert_rules)

(* ----- loadgen ----- *)

let loadgen_cmd =
  let module Loadgen = Rebal_net.Loadgen in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")
  in
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Server TCP port (serve --tcp).")
  in
  let connections =
    Arg.(
      value & opt int 32
      & info [ "connections"; "c" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let rate =
    Arg.(
      value & opt float 2000.0
      & info [ "rate" ] ~docv:"OPS"
          ~doc:"Aggregate open-loop arrival rate in ops/sec, split across connections.")
  in
  let ops =
    Arg.(
      value & opt int 10_000
      & info [ "ops" ] ~docv:"N" ~doc:"Total operations, split across connections.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.") in
  let ids =
    Arg.(
      value & opt int 64
      & info [ "ids" ] ~docv:"N" ~doc:"Id-universe size per connection (live set bound).")
  in
  let max_errors =
    Arg.(
      value & opt int 0
      & info [ "max-errors" ] ~docv:"N"
          ~doc:"Exit 1 if the server answers ERR more than $(docv) times (default 0).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write a JSON summary to $(docv): the run configuration, aggregate \
             count/errors/achieved rate/latency percentiles, and per-verb \
             count/mean/p50/p99.")
  in
  let run host port connections rate ops seed ids max_errors out =
    let cfg = { Loadgen.host; port; connections; rate; ops; seed; ids } in
    match Loadgen.run cfg with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1
    | Ok r ->
      Printf.printf
        "LOADGEN connections=%d ops=%d ok=%d errors=%d elapsed=%.3fs throughput=%.0f \
         p50=%.6f p95=%.6f p99=%.6f max=%.6f\n"
        r.Loadgen.connections r.Loadgen.ops r.Loadgen.ok r.Loadgen.errors r.Loadgen.elapsed
        r.Loadgen.throughput r.Loadgen.p50 r.Loadgen.p95 r.Loadgen.p99 r.Loadgen.max_latency;
      (match out with
      | None -> ()
      | Some path -> (
        try
          let oc = open_out path in
          output_string oc (Loadgen.summary_json cfg r);
          output_char oc '\n';
          close_out oc;
          Printf.printf "wrote summary to %s\n" path
        with Sys_error e ->
          Printf.eprintf "error: cannot write summary: %s\n" e;
          exit 1));
      if r.Loadgen.errors > max_errors then begin
        Printf.eprintf "error: %d ERR replies exceed --max-errors %d\n" r.Loadgen.errors
          max_errors;
        exit 1
      end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a serve --tcp daemon with N concurrent client connections generating a \
          seeded open-loop workload (60% add / 25% remove / 15% resize), and report \
          throughput and open-loop latency percentiles (completion minus scheduled \
          arrival, so server backlog shows up as tail latency).")
    Term.(const run $ host $ port $ connections $ rate $ ops $ seed $ ids $ max_errors $ out)

(* ----- top ----- *)

(* A live terminal view of a parallel serve, built entirely from the
   public protocol: each frame sends STATS, SHARDS and METRICS down one
   TCP connection, parses the Prometheus text back through Expo.parse,
   and derives per-shard lock-queue depth, utilization and op rates
   from the labeled series. Nothing here has privileged access —
   anything top shows, any scrape consumer could compute. *)
let top_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")
  in
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Server TCP port (serve --tcp).")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"S" ~doc:"Seconds between refreshes.")
  in
  let once =
    Arg.(value & flag & info [ "once" ] ~doc:"Render a single frame and exit (no screen clearing).")
  in
  let frames =
    Arg.(
      value
      & opt (some int) None
      & info [ "frames" ] ~docv:"N" ~doc:"Stop after $(docv) frames.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("plain", `Plain); ("json", `Json) ]) `Plain
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Frame format: $(b,plain) (terminal table) or $(b,json) (one object per frame).")
  in
  let run host port interval once frames format =
    let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "error: %s\n" s; exit 1) fmt in
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.gethostbyname host with
        | exception Not_found -> fail "cannot resolve host %s" host
        | h when Array.length h.Unix.h_addr_list = 0 -> fail "cannot resolve host %s" host
        | h -> h.Unix.h_addr_list.(0))
    in
    (* One token of a key=value line. STATS, SHARD, POINT and the READY
       banner all speak this shape. *)
    let kv line key =
      List.find_map
        (fun tok ->
          match String.index_opt tok '=' with
          | Some i when String.sub tok 0 i = key ->
            Some (String.sub tok (i + 1) (String.length tok - i - 1))
          | _ -> None)
        (String.split_on_char ' ' line)
    in
    let kv_int line key = Option.bind (kv line key) int_of_string_opt in
    let kv_float line key = Option.bind (kv line key) float_of_string_opt in
    (* The connection is disposable state: a server restart or dropped
       TCP session tears it down, the frame loop rebuilds it and keeps
       rendering. [Dropped] is the in-band signal. *)
    let exception Dropped in
    let conn = ref None in
    let ever_connected = ref false in
    let prev_events = ref [||] in
    let prev_time = ref nan in
    (* Whether the server answers TSDB (telemetry on): probed once per
       connection, and the sparkline column degrades away when it says
       ERR. *)
    let tsdb_ok = ref true in
    let disconnect () =
      match !conn with
      | None -> ()
      | Some (fd, _, _, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        conn := None
    in
    let connect () =
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let drop err =
        (try Unix.close sock with Unix.Unix_error _ -> ());
        Error err
      in
      match Unix.connect sock (Unix.ADDR_INET (ip, port)) with
      | exception Unix.Unix_error (e, _, _) -> drop (Unix.error_message e)
      | () -> (
        let ic = Unix.in_channel_of_descr sock in
        let oc = Unix.out_channel_of_descr sock in
        match input_line ic with
        | exception (End_of_file | Sys_error _) -> drop "connection closed during banner"
        | banner ->
          (* A plain engine has no shards= and a sequential cluster no
             domains= in its banner: render what the server has instead
             of refusing to start. *)
          let shards = Option.value ~default:1 (kv_int banner "shards") in
          let domains = Option.value ~default:1 (kv_int banner "domains") in
          conn := Some (sock, ic, oc, shards, domains);
          ever_connected := true;
          prev_events := Array.make shards nan;
          prev_time := nan;
          tsdb_ok := true;
          Ok ())
    in
    let send oc line =
      try
        output_string oc line;
        output_char oc '\n';
        flush oc
      with Sys_error _ -> raise Dropped
    in
    let recv ic =
      match input_line ic with
      | line -> line
      | exception (End_of_file | Sys_error _) -> raise Dropped
    in
    let recv_until_eof ic =
      let rec go acc =
        let l = recv ic in
        if l = "# EOF" then List.rev acc else go (l :: acc)
      in
      go []
    in
    let is_err l = String.length l >= 3 && String.sub l 0 3 = "ERR" in
    let read_stats ic oc =
      send oc "STATS";
      let l = recv ic in
      if is_err l then None else Some l
    in
    (* An ERR answer (single engine: no SHARDS verb) degrades the
       per-shard columns to n/a instead of killing the viewer. *)
    let read_shards ic oc shards =
      send oc "SHARDS";
      let first = recv ic in
      if is_err first then None
      else Some (first :: List.init (shards - 1) (fun _ -> recv ic))
    in
    let read_metrics ic oc =
      send oc "METRICS";
      let b = Buffer.create 8192 in
      List.iter
        (fun line ->
          Buffer.add_string b line;
          Buffer.add_char b '\n')
        (recv_until_eof ic);
      Buffer.contents b
    in
    (* The trend column: per-shard event-counter deltas over the last
       minute of the server's time-series store, drawn as a sparkline.
       Served only when telemetry is on — the first ERR turns the
       column off for the rest of the connection. *)
    let glyphs =
      [| "\u{2581}"; "\u{2582}"; "\u{2583}"; "\u{2584}"; "\u{2585}"; "\u{2586}";
         "\u{2587}"; "\u{2588}" |]
    in
    let sparkline ds =
      let hi = List.fold_left Float.max 0.0 ds in
      let b = Buffer.create 64 in
      List.iter
        (fun v ->
          let i = if hi <= 0.0 then 0 else min 7 (int_of_float (v /. hi *. 8.0)) in
          Buffer.add_string b glyphs.(i))
        ds;
      Buffer.contents b
    in
    let read_spark ic oc i =
      if not !tsdb_ok then None
      else begin
        send oc (Printf.sprintf "TSDB rebal_engine_events_total{shard=\"%d\"} 60s" i);
        (* An ERR answer is one line, with no "# EOF" after it. *)
        match recv ic with
        | l when is_err l ->
          tsdb_ok := false;
          None
        | first ->
          let lines = if first = "# EOF" then [] else first :: recv_until_eof ic in
          let lasts =
            List.filter_map
              (fun l ->
                if String.length l >= 6 && String.sub l 0 6 = "POINT " then kv_float l "last"
                else None)
              lines
          in
          let rec deltas = function
            | a :: (b :: _ as rest) -> Float.max 0.0 (b -. a) :: deltas rest
            | _ -> []
          in
          let ds = Array.of_list (deltas lasts) in
          let n = Array.length ds in
          if n = 0 then None
          else begin
            let keep = min 16 n in
            Some (sparkline (Array.to_list (Array.sub ds (n - keep) keep)))
          end
      end
    in
    let sample_value samples name labels =
      Option.map (fun s -> s.Expo.value) (Expo.find_sample samples name labels)
    in
    (* Cluster-wide p99 of the session latency histogram: per-verb
       cumulative buckets summed by upper bound, then the first bound
       covering 99% of the total count. A bucket edge, so an upper
       bound — exactly what a dashboard quantile over the same series
       would report. *)
    let session_p99 samples =
      let by_le = Hashtbl.create 32 in
      let total = ref 0.0 in
      List.iter
        (fun (s : Expo.sample) ->
          if s.Expo.sample_name = "rebal_session_latency_seconds_bucket" then (
            match List.assoc_opt "le" s.Expo.sample_labels with
            | Some le ->
              let le = if le = "+Inf" then infinity else float_of_string le in
              Hashtbl.replace by_le le
                ((try Hashtbl.find by_le le with Not_found -> 0.0) +. s.Expo.value)
            | None -> ())
          else if s.Expo.sample_name = "rebal_session_latency_seconds_count" then
            total := !total +. s.Expo.value)
        samples;
      if !total <= 0.0 then None
      else
        let les = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_le []) in
        let target = 0.99 *. !total in
        List.find_opt (fun le -> Hashtbl.find by_le le >= target) les
    in
    let fmt_p99 = function
      | None -> "n/a"
      | Some le when le = infinity -> "+Inf"
      | Some le -> Printf.sprintf "<=%.4gs" le
    in
    let fmt_opt fmt = function None -> "n/a" | Some v -> Printf.sprintf fmt v in
    let frame ic oc shards domains =
      let stats = read_stats ic oc in
      let shard_lines = read_shards ic oc shards in
      let samples =
        (* Unparseable METRICS degrades to empty samples: the layout
           columns render n/a and the viewer keeps refreshing. *)
        match Expo.parse (read_metrics ic oc) with Ok s -> s | Error _ -> []
      in
      let stat_int key = Option.bind stats (fun s -> kv_int s key) in
      let stat_float key = Option.bind stats (fun s -> kv_float s key) in
      let now = Unix.gettimeofday () in
      let dt = now -. !prev_time in
      let shard_line i =
        match shard_lines with Some lines -> List.nth_opt lines i | None -> None
      in
      let rows =
        List.init shards (fun i ->
            let line = shard_line i in
            let shard_l = [ ("shard", string_of_int i) ] in
            let events =
              Option.value ~default:nan
                (sample_value samples "rebal_engine_events_total" shard_l)
            in
            let rate =
              if Float.is_nan (!prev_events).(i) || Float.is_nan dt || dt <= 0.0 then None
              else Some ((events -. (!prev_events).(i)) /. dt)
            in
            (!prev_events).(i) <- events;
            ( i,
              Option.bind line (fun l -> kv_int l "jobs"),
              Option.bind line (fun l -> kv_int l "makespan"),
              Option.bind line (fun l -> kv_float l "imbalance"),
              sample_value samples "rebal_mailbox_depth" shard_l,
              sample_value samples "rebal_domain_utilization" shard_l,
              rate,
              read_spark ic oc i ))
      in
      prev_time := now;
      let p99 = session_p99 samples in
      match format with
      | `Json ->
        let j_opt f = function None -> Journal.Null | Some v -> f v in
        let j_num v = if Float.is_finite v then Journal.Float v else Journal.Null in
        print_endline
          (Journal.render_json
             (Journal.Obj
                [
                  ("host", Journal.Str host);
                  ("port", Journal.Int port);
                  ("shards", Journal.Int shards);
                  ("domains", Journal.Int domains);
                  ("jobs", j_opt (fun v -> Journal.Int v) (stat_int "jobs"));
                  ("makespan", j_opt (fun v -> Journal.Int v) (stat_int "makespan"));
                  ("imbalance", j_opt j_num (stat_float "imbalance"));
                  ("session_p99_le_s", j_opt j_num p99);
                  ( "per_shard",
                    Journal.List
                      (List.map
                         (fun (i, jobs, makespan, imb, depth, util, rate, spark) ->
                           Journal.Obj
                             [
                               ("shard", Journal.Int i);
                               ("jobs", j_opt (fun v -> Journal.Int v) jobs);
                               ("load", j_opt (fun v -> Journal.Int v) makespan);
                               ("imbalance", j_opt j_num imb);
                               ("queue_depth", j_opt j_num depth);
                               ("utilization", j_opt j_num util);
                               ("ops_per_s", j_opt j_num rate);
                               ("trend", j_opt (fun s -> Journal.Str s) spark);
                             ])
                         rows) );
                ]))
      | `Plain ->
        let b = Buffer.create 1024 in
        Printf.ksprintf (Buffer.add_string b)
          "rebalance top  %s:%d  shards=%d domains=%d  jobs=%s makespan=%s imbalance=%s \
           session_p99=%s\n"
          host port shards domains
          (fmt_opt "%d" (stat_int "jobs"))
          (fmt_opt "%d" (stat_int "makespan"))
          (fmt_opt "%.3f" (stat_float "imbalance"))
          (fmt_p99 p99);
        Printf.ksprintf (Buffer.add_string b) "%5s %7s %7s %7s %7s %6s %9s %s\n" "SHARD"
          "JOBS" "LOAD" "IMB" "DEPTH" "UTIL" "OPS/S" "TREND";
        List.iter
          (fun (i, jobs, makespan, imb, depth, util, rate, spark) ->
            Printf.ksprintf (Buffer.add_string b) "%5d %7s %7s %7s %7s %6s %9s %s\n" i
              (fmt_opt "%d" jobs) (fmt_opt "%d" makespan) (fmt_opt "%.3f" imb)
              (fmt_opt "%.0f" depth) (fmt_opt "%.2f" util) (fmt_opt "%.0f" rate)
              (Option.value ~default:"" spark))
          rows;
        print_string (Buffer.contents b);
        flush stdout
    in
    let n_frames = if once then Some 1 else frames in
    let rec loop n =
      (* Refresh mode: home the cursor and clear before each redraw. *)
      if format = `Plain && n > 0 then print_string "\027[H\027[2J";
      (match !conn with
      | Some _ -> ()
      | None -> (
        match connect () with
        | Ok () -> ()
        | Error e ->
          (* A server that was never there is an operator error; one
             that went away is an outage to ride out. *)
          if not !ever_connected then fail "cannot connect to %s:%d: %s" host port e
          else Printf.eprintf "top: cannot reconnect to %s:%d: %s (retrying)\n%!" host port e));
      (match !conn with
      | None -> ()
      | Some (_, ic, oc, shards, domains) -> (
        try frame ic oc shards domains
        with Dropped ->
          disconnect ();
          Printf.eprintf "top: connection lost, reconnecting\n%!"));
      match n_frames with
      | Some k when n + 1 >= k -> ()
      | _ ->
        (try Unix.sleepf interval with Unix.Unix_error _ -> ());
        loop (n + 1)
    in
    loop 0;
    (match !conn with
    | Some (_, _, oc, _, _) -> ( try send oc "QUIT" with Dropped -> ())
    | None -> ());
    disconnect ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live cluster telemetry over the line protocol: a refreshing per-shard view of \
          load, lock-queue depth, utilization, op rate, session p99 and (when the \
          daemon samples telemetry) a per-shard event-rate sparkline, against any serve \
          --tcp daemon. Survives server restarts by reconnecting, and degrades missing \
          data to n/a instead of dying. --once --format json emits one machine-readable \
          frame for scripts and CI.")
    Term.(const run $ host $ port $ interval $ once $ frames $ format)

(* ----- postmortem ----- *)

(* Joins a telemetry journal (the "sample" / "alert" events serve
   --telemetry-out writes) with one or more op journals (--journal)
   into one correlated timeline. Both speak JSONL with ts_ns from the
   same monotonic clock, so events written by one process line up
   exactly; the interesting joins — an evacuation whose reason names
   the alert that caused it, a makespan drop bracketing a rebalance —
   are annotated inline. *)
let postmortem_cmd =
  let telemetry =
    Arg.(
      value
      & opt (some file) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:"Telemetry journal written by serve --telemetry-out.")
  in
  let journals =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"JOURNAL"
          ~doc:"Op journal file(s) written by serve --journal (FILE.i per shard).")
  in
  let window =
    Arg.(
      value & opt float 5.0
      & info [ "window" ] ~docv:"S"
          ~doc:
            "Correlation window: a journal event and an alert transition (or metric \
             sample) at most $(docv) seconds apart are reported together.")
  in
  let run telemetry journals window =
    let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "error: %s\n" s; exit 1) fmt in
    if telemetry = None && journals = [] then
      fail "nothing to correlate: give --telemetry FILE and/or journal files";
    if (not (Float.is_finite window)) || window < 0.0 then
      fail "--window must be a non-negative number of seconds";
    let parse path =
      match Journal.load_file path with Ok v -> v | Error e -> fail "%s: %s" path e
    in
    let tel_events =
      match telemetry with None -> [] | Some path -> snd (parse path)
    in
    let samples = List.filter (fun e -> e.Journal.kind = "sample") tel_events in
    let alert_events = List.filter (fun e -> e.Journal.kind = "alert") tel_events in
    (* Alert events carry the tick timestamp as at_ns (the store's
       clock); fall back to the sink's ts_ns. *)
    let at_of e =
      match Journal.int_field e "at_ns" with Ok v -> v | Error _ -> e.Journal.ts_ns
    in
    let alerts =
      List.map
        (fun e ->
          let sf key = match Journal.str_field e key with Ok s -> s | Error _ -> "?" in
          let value =
            match Journal.float_field e "value" with Ok v -> Some v | Error _ -> None
          in
          (at_of e, sf "rule", sf "from", sf "to", value))
        alert_events
    in
    let firings =
      List.filter_map
        (fun (at, rule, _, to_, _) -> if to_ = "firing" then Some (at, rule) else None)
        alerts
    in
    let w_ns = int_of_float (window *. 1e9) in
    (* Headline metrics out of a sample: a series key either matches the
       name exactly or is the labelled form name{...}. Cluster makespan
       is the max over per-shard series, job count the sum. *)
    let sample_values e name =
      match Journal.field e "metrics" with
      | Some (Journal.Obj kvs) ->
        List.filter_map
          (fun (k, v) ->
            let n = String.length name in
            let matches =
              k = name
              || (String.length k > n && String.sub k 0 (n + 1) = name ^ "{")
            in
            if not matches then None
            else
              match v with
              | Journal.Float f -> Some f
              | Journal.Int i -> Some (float_of_int i)
              | _ -> None)
          kvs
      | _ -> []
    in
    let makespan_of e =
      match sample_values e "rebal_engine_makespan" with
      | [] -> None
      | vs -> Some (List.fold_left Float.max neg_infinity vs)
    in
    let bracketing_samples t_ns =
      let before =
        List.fold_left
          (fun acc e ->
            let a = at_of e in
            if a <= t_ns && t_ns - a <= w_ns then Some e else acc)
          None samples
      in
      let after =
        List.find_opt
          (fun e ->
            let a = at_of e in
            a >= t_ns && a - t_ns <= w_ns)
          samples
      in
      (before, after)
    in
    (* Journal events: ops are tallied, structural events (rebalance,
       trigger, snapshot, check, evacuation, ...) go on the timeline
       with their scalar fields. *)
    let json_scalar = function
      | Journal.Int i -> Some (string_of_int i)
      | Journal.Float f -> Some (Printf.sprintf "%g" f)
      | Journal.Str s -> Some s
      | Journal.Bool b -> Some (string_of_bool b)
      | Journal.Null | Journal.List _ | Journal.Obj _ -> None
    in
    let fields_text e =
      String.concat " "
        (List.filter_map
           (fun (k, v) -> Option.map (fun s -> k ^ "=" ^ s) (json_scalar v))
           e.Journal.fields)
    in
    let op_counts = Hashtbl.create 8 in
    let bump kind = Hashtbl.replace op_counts kind (1 + try Hashtbl.find op_counts kind with Not_found -> 0) in
    let structural = ref [] in
    let n_journal_events = ref 0 in
    List.iter
      (fun path ->
        let _, events = parse path in
        let tag = Filename.basename path in
        List.iter
          (fun e ->
            incr n_journal_events;
            match e.Journal.kind with
            | "add" | "remove" | "resize" -> bump e.Journal.kind
            | _ -> structural := (e.Journal.ts_ns, tag, e) :: !structural)
          events)
      journals;
    (* The annotations: provenance first (an evacuation whose reason
       names an alert joins to that rule's latest firing), then the
       nearest alert transition in the window, then the makespan swing
       across the bracketing samples. *)
    let annotate at_ns e =
      let notes = ref [] in
      let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
      (match Journal.str_field e "reason" with
      | Ok reason
        when String.length reason > 6 && String.sub reason 0 6 = "alert:" ->
        let rule = String.sub reason 6 (String.length reason - 6) in
        (match
           List.fold_left
             (fun acc (at, r) -> if r = rule && at <= at_ns then Some at else acc)
             None firings
         with
        | Some at -> note "alert %s fired %.1fs before" rule (float_of_int (at_ns - at) /. 1e9)
        | None -> note "alert %s (no firing transition in telemetry)" rule)
      | _ -> (
        match
          List.fold_left
            (fun acc (at, rule, from_, to_, _) ->
              let d = abs (at - at_ns) in
              if d <= w_ns then
                match acc with
                | Some (best, _) when best <= d -> acc
                | _ -> Some (d, Printf.sprintf "alert %s %s->%s %.1fs %s" rule from_ to_
                               (float_of_int d /. 1e9)
                               (if at <= at_ns then "before" else "after"))
              else acc)
            None alerts
        with
        | Some (_, text) -> note "%s" text
        | None -> ()));
      (match bracketing_samples at_ns with
      | Some b, Some a -> (
        match (makespan_of b, makespan_of a) with
        | Some mb, Some ma when mb <> ma -> note "makespan %g -> %g across this event" mb ma
        | _ -> ())
      | _ -> ());
      match List.rev !notes with
      | [] -> ""
      | notes -> "  [" ^ String.concat "; " notes ^ "]"
    in
    let entries =
      List.map
        (fun (at, rule, from_, to_, value) ->
          ( at,
            "telemetry",
            Printf.sprintf "alert %s: %s -> %s%s" rule from_ to_
              (match value with None -> "" | Some v -> Printf.sprintf " (value=%g)" v) ))
        alerts
      @ List.map
          (fun (at, tag, e) ->
            let fields = fields_text e in
            ( at,
              tag,
              Printf.sprintf "%s%s%s" e.Journal.kind
                (if fields = "" then "" else " " ^ fields)
                (annotate at e) ))
          !structural
    in
    let entries = List.sort (fun (a, _, _) (b, _, _) -> compare a b) entries in
    Printf.printf "postmortem: %d telemetry events (%d samples, %d alert transitions), %d journal events from %d journal(s)\n"
      (List.length tel_events) (List.length samples) (List.length alerts)
      !n_journal_events (List.length journals);
    let ops =
      List.filter_map
        (fun k ->
          match Hashtbl.find_opt op_counts k with
          | Some n -> Some (Printf.sprintf "%s=%d" k n)
          | None -> None)
        [ "add"; "remove"; "resize" ]
    in
    if ops <> [] then Printf.printf "ops: %s\n" (String.concat " " ops);
    (match entries with
    | [] -> print_endline "timeline: no structural events"
    | (t0, _, _) :: _ ->
      Printf.printf "timeline (T0 = first event):\n";
      List.iter
        (fun (at, tag, text) ->
          Printf.printf "T+%9.3fs  %-12s %s\n" (float_of_int (at - t0) /. 1e9) tag text)
        entries)
  in
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:
         "Correlate a telemetry journal (serve --telemetry-out) with op journals (serve \
          --journal) into one timeline: alert transitions, rebalances, trigger firings \
          and evacuations in time order, each annotated with the alert that caused or \
          accompanied it and the makespan swing across it.")
    Term.(const run $ telemetry $ journals $ window)

(* ----- chaos-serve ----- *)


(* The online counterpart of `chaos`: instead of simulating policies
   over traffic curves, it drives a real supervised shard cluster —
   the same Engine/Cluster/Supervisor stack `serve --supervise` runs —
   through a seeded workload while a seeded fault plan kills and
   revives shards. Every shard journals to memory, so the run ends
   with the full robustness audit: work conservation against a
   reference model, per-shard journal replay with divergence checks,
   and the router's own consistency check. Exit status 1 on any
   failure makes it a CI smoke test. *)
let chaos_serve_cmd =
  let module Chaos = Rebal_online.Chaos in
  let module Supervisor = Rebal_online.Supervisor in
  let module Tsdb = Rebal_obs.Tsdb in
  let module Alerts = Rebal_obs.Alerts in
  let shards = Arg.(value & opt int 8 & info [ "shards" ] ~docv:"S" ~doc:"Number of shards.") in
  let procs =
    Arg.(value & opt int 32 & info [ "m"; "procs" ] ~docv:"M" ~doc:"Total processors.")
  in
  let horizon =
    Arg.(value & opt int 400 & info [ "horizon" ] ~docv:"T" ~doc:"Driven steps.")
  in
  let ops_per_step =
    Arg.(
      value & opt int 8
      & info [ "ops-per-step" ] ~docv:"N"
          ~doc:"Workload operations per step (60% add, 25% remove, 15% resize).")
  in
  let crash_rate =
    Arg.(
      value & opt float 0.005
      & info [ "crash-rate" ] ~docv:"P"
          ~doc:"Per-shard per-step crash probability of the seeded fault plan.")
  in
  let mttr =
    Arg.(
      value & opt int 60
      & info [ "mttr" ] ~docv:"STEPS" ~doc:"Mean steps a crashed shard stays down.")
  in
  let kills =
    Arg.(
      value
      & opt_all (pair ~sep:':' int int) []
      & info [ "kill" ] ~docv:"SHARD:STEP"
          ~doc:
            "Explicit kill schedule: shard $(i,SHARD) goes down at step $(i,STEP) \
             (repeatable). When given, replaces the seeded fault plan.")
  in
  let down_for =
    Arg.(
      value & opt int 80
      & info [ "down-for" ] ~docv:"STEPS"
          ~doc:"How long an explicitly killed shard stays down (with --kill).")
  in
  let evac_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "evac-budget" ] ~docv:"N"
          ~doc:"Maximum jobs re-homed per evacuation (default: unbounded).")
  in
  let period =
    Arg.(
      value & opt int 10
      & info [ "period" ] ~docv:"P" ~doc:"Steps between rebalance passes.")
  in
  let k =
    Arg.(value & opt int 16 & info [ "k" ] ~docv:"K" ~doc:"Move budget per rebalance pass.")
  in
  let telemetry_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-out" ] ~docv:"FILE"
          ~doc:
            "Sample every metric once per step into a time-series store and persist the \
             telemetry to $(docv) as JSONL — the same format serve --telemetry-out writes, \
             so 'rebalance postmortem' can join it with the journals of this run.")
  in
  let alert_rules =
    Arg.(
      value
      & opt (some string) None
      & info [ "alert-rules" ] ~docv:"FILE"
          ~doc:
            "Evaluate alert rules (serve --alert-rules format) against the per-step \
             telemetry; transitions land in --telemetry-out as 'alert' events.")
  in
  let journal_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-out" ] ~docv:"BASE"
          ~doc:
            "After the audit, write shard $(i,i)'s in-memory journal to $(docv).$(i,i) — \
             feed them to 'rebalance postmortem' or 'rebalance replay'.")
  in
  let run shards procs horizon ops_per_step crash_rate mttr kills down_for evac_budget period
      k telemetry_out alert_rules journal_out seed =
    let config = { Chaos.shards; procs; horizon; ops_per_step; period; k; evac_budget; seed } in
    or_exit (Chaos.validate config);
    let live =
      if kills = [] then
        match
          Rebal_sim.Fault.create ~seed:(seed + 1) ~servers:shards ~horizon ~crash_rate ~mttr ()
        with
        | fault -> fun i t -> Rebal_sim.Fault.is_live fault ~server:i ~time:t
        | exception Invalid_argument msg -> or_exit (Error msg)
      else or_exit (Chaos.kill_schedule config ~down_for kills)
    in
    let chaos = Chaos.create ~live config in
    (* Per-step telemetry: the store and rule engine serve runs on a
       timer, ticked once per driven step. Journal events and samples
       share the monotonic clock, so postmortem lines them up. *)
    let telemetry_oc =
      Option.map (fun path -> try open_out path with Sys_error e -> or_exit (Error e)) telemetry_out
    in
    let telemetry =
      if telemetry_out = None && alert_rules = None then None
      else
        Some
          (or_exit
             (Rebal_net.Daemon.telemetry
                ?sink:(Option.map (Journal.to_channel ~line_flush:true) telemetry_oc)
                ?rules:alert_rules
                ~meta:[ ("mode", Journal.Str "chaos-serve"); ("shards", Journal.Int shards) ]
                (Rebal_online.Protocol.Supervised (Chaos.supervisor chaos))))
    in
    let on_step _ =
      Option.iter
        (fun (tsdb, alerts) ->
          Tsdb.sample tsdb;
          Option.iter (fun a -> ignore (Alerts.eval a)) alerts)
        telemetry
    in
    let r = Chaos.run ~on_step chaos in
    let h = r.Chaos.stats in
    Printf.printf "chaos-serve: %d shards, %d procs, %d steps x %d ops, seed=%d%s\n" shards
      procs horizon ops_per_step seed
      (if kills = [] then
         Printf.sprintf " (crash-rate=%.3f, mttr=%d)" crash_rate mttr
       else Printf.sprintf " (%d explicit kill(s), down-for=%d)" (List.length kills) down_for);
    Printf.printf
      "  evacuations=%d evacuated_jobs=%d stranded=%d readmissions=%d rejected_ops=%d\n"
      h.Supervisor.evacuations h.Supervisor.evacuated_jobs h.Supervisor.stranded_jobs
      h.Supervisor.readmissions r.Chaos.rejected;
    List.iter
      (fun (i, went_down, healthy_again) ->
        Printf.printf "  shard %d: down at step %d, healthy again at step %d (%d steps)\n" i
          went_down healthy_again (healthy_again - went_down))
      r.Chaos.recoveries;
    List.iter
      (fun (i, health, at) ->
        Printf.printf "  shard %d: still %s at end (down since step %d)\n" i
          (Supervisor.health_name health) at)
      r.Chaos.still_down;
    (match List.map (fun (_, d, h') -> h' - d) r.Chaos.recoveries with
    | [] -> ()
    | xs ->
      Printf.printf "  mean recovery: %.1f steps\n"
        (float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)));
    Printf.printf "  downtime-weighted makespan: %.0f\n" r.Chaos.downtime_weighted;
    Printf.printf "  jobs live: %d, makespan: %d\n" r.Chaos.jobs r.Chaos.makespan;
    (match telemetry with
    | None -> ()
    | Some (tsdb, alerts) ->
      Printf.printf "  telemetry: %d samples, %d series%s\n" (Tsdb.samples_taken tsdb)
        (List.length (Tsdb.series_list tsdb))
        (match alerts with
        | None -> ""
        | Some a -> Printf.sprintf ", %d alert transition(s)" (List.length (Alerts.transitions a))));
    let failures = ref r.Chaos.failures in
    Option.iter
      (fun base ->
        Array.iteri
          (fun i journal ->
            let path = Printf.sprintf "%s.%d" base i in
            try Out_channel.with_open_text path (fun oc -> output_string oc journal)
            with Sys_error e ->
              failures := !failures @ [ Printf.sprintf "cannot write journal %s: %s" path e ])
          r.Chaos.journals;
        Printf.printf "  journals written to %s.0 .. %s.%d\n" base base (shards - 1))
      journal_out;
    Option.iter close_out_noerr telemetry_oc;
    match !failures with
    | [] ->
      Printf.printf
        "  verification: OK (no lost jobs, %d/%d journals replay clean, consistency ok)\n"
        r.Chaos.replays_clean shards
    | fs ->
      List.iter (fun f -> Printf.eprintf "chaos-serve: FAIL: %s\n" f) fs;
      exit 1
  in
  Cmd.v
    (Cmd.info "chaos-serve"
       ~doc:
         "Drive a supervised shard cluster (the same stack as serve --supervise) through a \
          seeded workload while a seeded fault plan kills and revives shards, then audit \
          the wreckage: no job lost or corrupted, every shard journal replays without \
          divergence, the residency directory is consistent. Reports downtime-weighted \
          makespan and per-shard recovery time; exits 1 on any audit failure.")
    Term.(
      const run $ shards $ procs $ horizon $ ops_per_step $ crash_rate $ mttr $ kills
      $ down_for $ evac_budget $ period $ k $ telemetry_out $ alert_rules $ journal_out
      $ seed_arg)

(* ----- replay / explain ----- *)

let replay_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOURNAL" ~doc:"Flight-recorder journal file (JSONL or binary, auto-detected).")
  in
  let run file = print_endline (Replay.summary (or_exit (Replay.run_file file))) in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute an engine flight-recorder journal against a fresh engine and verify \
          bit-exact state reconstruction (per-event makespans, every recorded move, and a \
          final batch consistency check). Resumes from the latest snapshot when the \
          journal was compacted. Nonzero exit on any divergence.")
    Term.(const run $ file)

let snapshot_cmd =
  let module Engine = Rebal_online.Engine in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOURNAL" ~doc:"Flight-recorder journal file (JSONL or binary, auto-detected).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the snapshot to $(docv) instead of stdout.")
  in
  let run file out =
    let eng, outcome = or_exit (Replay.resume_file file) in
    let line = Journal.render_json (Engine.snapshot eng) in
    (match out with
    | None -> print_endline line
    | Some path ->
      let oc = open_out path in
      output_string oc line;
      output_char oc '\n';
      close_out oc);
    Printf.eprintf "snapshot: %d jobs over m=%d, makespan %d (from %d journal events)\n%!"
      outcome.Replay.final_jobs outcome.Replay.m outcome.Replay.final_makespan
      outcome.Replay.events
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Replay a flight-recorder journal (verifying it) and emit the final engine state \
          as one versioned JSON snapshot object.")
    Term.(const run $ file $ out)

let compact_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOURNAL" ~doc:"Flight-recorder journal file (JSONL or binary, auto-detected).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the compacted journal to $(docv) instead of rewriting in place.")
  in
  let run file out =
    let compacted, dropped, kept =
      or_exit (Result.bind (Journal.load_file file) Replay.compact)
    in
    let dest = Option.value out ~default:file in
    (* A binary journal stays binary. *)
    or_exit (Journal.write_file (Journal.sniff_file file) dest compacted);
    Printf.printf "compacted %s: kept %d event(s), dropped %d\n" dest kept dropped
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Compact a flight-recorder journal: truncate history before the latest recorded \
          snapshot (renumbering events), or — if none was recorded — verify-replay the \
          journal and rewrite it as a single snapshot of the final state. 'rebalance serve \
          --journal' and 'rebalance replay' then resume from the snapshot instead of \
          genesis.")
    Term.(const run $ file $ out)

let explain_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOURNAL" ~doc:"Flight-recorder journal file (JSONL or binary, auto-detected).")
  in
  let job =
    Arg.(
      value
      & opt (some string) None
      & info [ "job" ] ~docv:"ID" ~doc:"Show the decision history of one job.")
  in
  let reb =
    Arg.(
      value
      & opt (some int) None
      & info [ "rebalance" ] ~docv:"SEQ"
          ~doc:"Show one rebalance decision (by its journal sequence number) in full.")
  in
  let run file job reb =
    let parsed = or_exit (Journal.load_file file) in
    print_string
      (match (job, reb) with
      | Some _, Some _ -> or_exit (Error "give either --job or --rebalance, not both")
      | Some id, None -> or_exit (Replay.explain_job parsed ~id)
      | None, Some seq -> or_exit (Replay.explain_rebalance parsed ~seq)
      | None, None -> Replay.explain_summary parsed)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Render the decision history recorded in a flight-recorder journal: the whole \
          event stream, one job's life ($(b,--job)), or one rebalance with its per-move \
          provenance ($(b,--rebalance)).")
    Term.(const run $ file $ job $ reb)

(* ----- journal-convert ----- *)

let journal_convert_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOURNAL" ~doc:"Flight-recorder journal file (JSONL or binary, auto-detected).")
  in
  let to_ =
    Arg.(
      value
      & opt (some (enum [ ("jsonl", Journal.Jsonl); ("binary", Journal.Binary) ])) None
      & info [ "to" ] ~docv:"FMT"
          ~doc:
            "Target format: $(b,jsonl) or $(b,binary). Default: the opposite of the \
             input's format.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")
  in
  let run file to_ out =
    let ((_, evs) as parsed) = or_exit (Journal.load_file file) in
    let src = Journal.sniff_file file in
    let target =
      Option.value to_
        ~default:(match src with Journal.Jsonl -> Journal.Binary | Journal.Binary -> Journal.Jsonl)
    in
    let name = function Journal.Jsonl -> "jsonl" | Journal.Binary -> "binary" in
    (match out with
    | None ->
      set_binary_mode_out stdout true;
      print_string (Journal.encode target parsed);
      flush stdout
    | Some path -> or_exit (Journal.write_file target path parsed));
    Printf.eprintf "converted %s (%s -> %s): %d event(s)\n%!" file (name src)
      (name target) (List.length evs)
  in
  Cmd.v
    (Cmd.info "journal-convert"
       ~doc:
         "Convert a flight-recorder journal between the portable JSONL interchange format \
          and the length-prefixed binary frame format, either direction. The conversion \
          is lossless: sequence numbers, timestamps and every field survive a round trip \
          bit-exactly, so replay verifies the converted journal identically.")
    Term.(const run $ file $ to_ $ out)

(* ----- sweep ----- *)

let sweep_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance file.") in
  let target =
    Arg.(value & opt (some int) None & info [ "target" ] ~docv:"T" ~doc:"Also report the cheapest k reaching this makespan.")
  in
  let run file target =
    match read_instance_file file with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | Ok inst ->
      let table =
        Rebal_harness.Table.create ~title:"moves/makespan Pareto frontier (m-partition)"
          ~columns:[ "budget k"; "moves used"; "makespan" ]
      in
      List.iter
        (fun p ->
          Rebal_harness.Table.add_row table
            [
              string_of_int p.Rebal_algo.Sweep.k;
              string_of_int p.Rebal_algo.Sweep.moves;
              string_of_int p.Rebal_algo.Sweep.makespan;
            ])
        (Rebal_algo.Sweep.frontier inst);
      Rebal_harness.Table.print table;
      match target with
      | None -> ()
      | Some t -> begin
        match Rebal_algo.Sweep.cheapest_k_for inst ~target:t with
        | Some k -> Printf.printf "cheapest k reaching makespan <= %d: %d\n" t k
        | None -> Printf.printf "makespan <= %d not reachable by m-partition\n" t
      end
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Print the moves-vs-makespan Pareto frontier of an instance.")
    Term.(const run $ file $ target)

(* ----- process-sim ----- *)

let process_sim_cmd =
  let cpus = Arg.(value & opt int 8 & info [ "cpus" ] ~docv:"M" ~doc:"Number of CPUs.") in
  let rate = Arg.(value & opt float 0.5 & info [ "rate" ] ~docv:"L" ~doc:"Process arrivals per step.") in
  let horizon = Arg.(value & opt int 6000 & info [ "horizon" ] ~docv:"T" ~doc:"Simulated steps.") in
  let period = Arg.(value & opt int 10 & info [ "period" ] ~docv:"P" ~doc:"Steps between rebalances.") in
  let k = Arg.(value & opt int 4 & info [ "k"; "moves" ] ~docv:"K" ~doc:"Per-round migration budget.") in
  let heavy =
    Arg.(value & opt bool true & info [ "heavy-tail" ] ~docv:"BOOL" ~doc:"Pareto(1.1) lifetimes when true, exponential otherwise.")
  in
  let run cpus rate horizon period k heavy seed =
    let module PS = Rebal_sim.Process_sim in
    let lifetime =
      if heavy then PS.Pareto_work { alpha = 1.1; xmin = 1.0 }
      else PS.Exponential_work 5.5
    in
    let table =
      Rebal_harness.Table.create ~title:"process migration simulation"
        ~columns:[ "policy"; "mean slowdown"; "p95"; "imbalance"; "migrations"; "completed" ]
    in
    List.iter
      (fun policy ->
        let r =
          PS.run (Rng.create seed)
            { PS.cpus; arrival_rate = rate; lifetime; horizon; period; policy }
        in
        Rebal_harness.Table.add_row table
          [
            Rebal_sim.Policy.name policy;
            Printf.sprintf "%.3f" r.PS.mean_slowdown;
            Printf.sprintf "%.1f" r.PS.p95_slowdown;
            Printf.sprintf "%.2f" r.PS.mean_backlog_imbalance;
            string_of_int r.PS.migrations;
            string_of_int r.PS.completed;
          ])
      [
        Rebal_sim.Policy.No_rebalance;
        Rebal_sim.Policy.Greedy k;
        Rebal_sim.Policy.M_partition k;
        Rebal_sim.Policy.Full_lpt;
      ];
    Rebal_harness.Table.print table
  in
  Cmd.v
    (Cmd.info "process-sim" ~doc:"Run the process-migration simulation.")
    Term.(const run $ cpus $ rate $ horizon $ period $ k $ heavy $ seed_arg)

let () =
  (* Build provenance rides along in every exposition: a constant-1
     info gauge (version + compiler) plus process uptime. *)
  Metrics.register_build_info ~version ();
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "rebalance" ~version
      ~doc:"Load rebalancing: bounded-migration makespan minimization (SPAA 2003)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            gen_cmd;
            solve_cmd;
            bounds_cmd;
            simulate_cmd;
            chaos_cmd;
            chaos_serve_cmd;
            sweep_cmd;
            process_sim_cmd;
            profile_cmd;
            serve_cmd;
            loadgen_cmd;
            top_cmd;
            postmortem_cmd;
            replay_cmd;
            snapshot_cmd;
            compact_cmd;
            explain_cmd;
            journal_convert_cmd;
          ]))
