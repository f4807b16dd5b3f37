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
let version = "1.13.0"

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
        (fun (op : Optrace.tree) ->
          List.iter (fun sp -> Buffer.add_string b (Optrace.render_tree sp)) op.children)
        (Optrace.assemble (Optrace.recorded ()));
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

(* Raised from the SIGTERM/SIGINT handler: OCaml delivers it at the
   next safe point, which unwinds the blocking read or accept and runs
   every Fun.protect finaliser on the way out — final snapshot, journal
   close, socket unlink. *)
exception Terminated

let serve_cmd =
  let module Engine = Rebal_online.Engine in
  let module Supervisor = Rebal_online.Supervisor in
  let module Cluster = Rebal_online.Cluster in
  let module Protocol = Rebal_online.Protocol in
  let module Server = Rebal_net.Server in
  let module Http = Rebal_net.Http in
  let module Tsdb = Rebal_obs.Tsdb in
  let module Alerts = Rebal_obs.Alerts in
  let procs =
    Arg.(value & opt int 8 & info [ "m"; "procs" ] ~docv:"M" ~doc:"Number of processors.")
  in
  let shards =
    Arg.(
      value & opt int 1
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
      & opt int 0
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Run the shard engines on $(docv) parallel worker domains (clamped to \
             --shards; shard $(i,i) is owned by domain $(i,i) mod $(docv)); 0, the \
             default, runs them inline on the calling thread. Each shard's \
             engine, journal and metrics are confined to its owner domain behind a bounded \
             command mailbox; cross-shard rebalancing uses journaled two-phase transfers, \
             so per-shard journals stay individually replayable.")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:
            "Listen on 127.0.0.1:$(docv) and serve many clients concurrently, one session \
             thread per connection (pipelining allowed; ERR lines stay numbered per \
             session). Port 0 picks a free port (printed on stdout). With --domains and \
             without --supervise the sessions run concurrently against the parallel \
             runtime; otherwise they are serialized under one operation lock.")
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
      value & opt int 16
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
      & opt (enum [ ("jsonl", Journal.Jsonl); ("binary", Journal.Binary) ]) Journal.Jsonl
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
             watchdog on every operation, automatic evacuation of shards that go down and \
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
      value & opt int 64
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Head-sample one protocol op in $(docv) for full span recording (TRACES verb). \
             0 disables head sampling.")
  in
  let trace_slow_ms =
    Arg.(
      value & opt float 10.0
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
  (* One client session: read commands line by line, stream responses.
     A dropped connection — EOF (even mid-line) on the read side, a
     closed pipe (Sys_error / EPIPE) on either side — ends the session,
     never the daemon. [lock] serializes command execution when the
     target is not internally thread-safe (anything but Parallel) yet
     several threads touch it — concurrent TCP sessions, the telemetry
     sampler. Blocking reads happen outside the lock, so an idle
     session never starves the others.

     I/O runs through Lineio on the raw descriptors: EINTR is retried
     (a SIGTERM mid-drain no longer kills live sessions), and the
     reader's inspectable buffer lets the session coalesce every
     already-arrived line into one [Protocol.handle_lines] dispatch —
     a pipelining client gets its run of mutations executed as a
     single engine batch. The first read of each round still blocks
     (an idle session costs nothing); only the gather loop after it is
     non-blocking. *)
  let module Lineio = Rebal_net.Lineio in
  let session ?lock target ic oc =
    let locked f =
      match lock with
      | None -> f ()
      | Some m ->
        Mutex.lock m;
        Fun.protect ~finally:(fun () -> Mutex.unlock m) f
    in
    try
      (* Channels may hold buffered output from a previous owner of
         this fd pair; push it before switching to raw-fd writes. *)
      flush oc;
      let fd_in = Unix.descr_of_in_channel ic in
      let fd_out = Unix.descr_of_out_channel oc in
      Lineio.write_string fd_out (Protocol.greeting target ^ "\n");
      let r = Lineio.reader fd_in in
      let rec loop lineno =
        match Lineio.read_line r with
        | None -> Protocol.Close
        | Some first ->
          (* Gather whatever else has already arrived — syscall-free
             probe, so a non-pipelining client is never made to wait. *)
          let rec gather acc =
            if Lineio.has_line r then
              match Lineio.read_line r with
              | Some l -> gather (l :: acc)
              | None -> List.rev acc
            else List.rev acc
          in
          let lines = first :: gather [] in
          let out, verdict =
            locked (fun () -> Protocol.handle_lines ~start_line:lineno target lines)
          in
          let buf = Buffer.create 256 in
          List.iter
            (fun l ->
              Buffer.add_string buf l;
              Buffer.add_char buf '\n')
            out;
          Lineio.write_string fd_out (Buffer.contents buf);
          (match verdict with
          | Protocol.Continue -> loop (lineno + List.length lines)
          | v -> v)
      in
      loop 1
    with Sys_error _ | Unix.Unix_error _ -> Protocol.Close
  in
  let run procs shards socket domains tcp auto_events auto_imbalance auto_seconds auto_k
      metrics_file journal_file journal_format supervise evac_budget trace_sample
      trace_slow_ms telemetry_interval telemetry_out alert_rules =
    let cli_trigger =
      match (auto_events, auto_imbalance, auto_seconds) with
      | Some events, None, None -> Some (Engine.Every_events { events; k = auto_k })
      | None, Some threshold, None -> Some (Engine.Imbalance_above { threshold; k = auto_k })
      | None, None, Some seconds -> Some (Engine.Every_seconds { seconds; k = auto_k })
      | None, None, None -> None
      | _ ->
        Printf.eprintf
          "error: give at most one of --auto-events, --auto-imbalance, --auto-seconds\n";
        exit 1
    in
    if shards < 1 || procs < shards then begin
      Printf.eprintf "error: need 1 <= --shards <= --procs (got %d shards, %d procs)\n"
        shards procs;
      exit 1
    end;
    if supervise && shards < 2 then begin
      Printf.eprintf "error: --supervise needs --shards >= 2 (failover needs survivors)\n";
      exit 1
    end;
    if domains < 0 then begin
      Printf.eprintf "error: --domains must be non-negative (got %d)\n" domains;
      exit 1
    end;
    if tcp <> None && socket <> None then begin
      Printf.eprintf "error: give at most one of --tcp and --socket\n";
      exit 1
    end;
    (match telemetry_interval with
    | Some s when (not (Float.is_finite s)) || s <= 0.0 ->
      Printf.eprintf "error: --telemetry-interval must be positive (got %g)\n" s;
      exit 1
    | _ -> ());
    (* The daemon is the observed artifact: spans and latency histograms
       are on for its whole lifetime. *)
    Rebal_obs.Control.set_enabled true;
    Optrace.set_sample_every trace_sample;
    Optrace.set_slow_threshold_ns
      (if trace_slow_ms < 0.0 then -1 else int_of_float (trace_slow_ms *. 1e6));
    let opened = ref [] in
    (* One engine bound to one journal file. An existing journal is the
       record of a previous run: replay it (resuming from the latest
       snapshot if compacted), verify it, re-arm its recorded trigger
       (CLI --auto-* flags override), and append. Line-flushed so a
       crash loses at most the event being written. *)
    (* Disk appends go through the resilient wrapper: a transient
       Sys_error (disk full, rotated fd) is retried with backoff, and a
       line that still cannot be written is dropped — counted in
       rebal_journal_dropped_total, kept in the tail ring — instead of
       crashing the serving thread. *)
    let resilient_channel_sink ?format ?start_seq ?header_written path oc =
      let write =
        Journal.resilient ~label:(Filename.basename path) (fun line ->
            output_string oc line;
            flush oc)
      in
      Journal.create ?format ?start_seq ?header_written ~write ()
    in
    (* A resumed journal keeps its on-disk format whatever the flag says
       — appending JSONL lines to a binary file (or vice versa) would
       corrupt it. *)
    let sniff_format path =
      let ic = open_in_bin path in
      let fmt =
        match really_input_string ic (String.length Journal.Binary.magic) with
        | head -> if head = Journal.Binary.magic then Journal.Binary else Journal.Jsonl
        | exception End_of_file -> Journal.Jsonl
      in
      close_in ic;
      fmt
    in
    let journaled_engine ~m path =
      let existing = Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 in
      if existing then begin
        match Result.bind (Journal.load_file path) Replay.resume with
        | Error msg ->
          Printf.eprintf "error: cannot resume journal %s: %s\n" path msg;
          exit 1
        | Ok (eng, outcome) ->
          if Engine.m eng <> m then begin
            Printf.eprintf
              "error: journal %s was recorded over %d processors, this serve would give it \
               %d\n"
              path (Engine.m eng) m;
            exit 1
          end;
          let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
          opened := oc :: !opened;
          let sink =
            resilient_channel_sink ~format:(sniff_format path)
              ~start_seq:(outcome.Replay.events) ~header_written:true path oc
          in
          Engine.set_journal eng (Some sink);
          (match cli_trigger with Some tr -> Engine.set_trigger eng tr | None -> ());
          Printf.eprintf
            "rebalance serve: resumed %s (%d events%s) -> %d jobs, makespan %d\n%!" path
            outcome.Replay.events
            (if outcome.Replay.resumed then ", from snapshot" else "")
            outcome.Replay.final_jobs outcome.Replay.final_makespan;
          eng
      end
      else begin
        let oc = open_out_bin path in
        opened := oc :: !opened;
        let sink = resilient_channel_sink ~format:journal_format path oc in
        let trigger = Option.value cli_trigger ~default:Engine.Manual in
        Engine.create ~trigger ~journal:sink ~m ()
      end
    in
    let fresh_engine ~m () =
      Engine.create ~trigger:(Option.value cli_trigger ~default:Engine.Manual) ~m ()
    in
    (* The journal of shard i: plain FILE when there is one shard, FILE.i
       otherwise — the same naming for sequential and parallel serves,
       so a journal set can be resumed under either runtime. *)
    let shard_journal_path base i = if shards = 1 then base else Printf.sprintf "%s.%d" base i in
    let shard_engine i =
      let m_i = (procs / shards) + if i < procs mod shards then 1 else 0 in
      match journal_file with
      | None -> fresh_engine ~m:m_i ()
      | Some base -> journaled_engine ~m:m_i (shard_journal_path base i)
    in
    let target =
      if shards = 1 && domains = 0 then
        Protocol.Single
          (match journal_file with
          | None -> fresh_engine ~m:procs ()
          | Some path -> journaled_engine ~m:procs path)
      else begin
        (* The sharded runtime, inline or on --domains worker domains:
           engines built per shard by the cluster so each binds (metric
           handles, journal drop counters) to its owner's registry. *)
        match Cluster.of_engines ~domains ~shards shard_engine with
        | Ok c when supervise ->
          let config =
            {
              Supervisor.default_config with
              Supervisor.evac_budget = Option.value evac_budget ~default:max_int;
            }
          in
          Protocol.Supervised (Supervisor.create ~config c)
        | Ok c -> Protocol.Cluster c
        | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
      end
    in
    (* ----- continuous telemetry ----- *)
    (* The operation lock: everything that touches the target from more
       than one thread — concurrent TCP sessions, the sampler tick —
       runs under it, except an unsupervised cluster with worker domains,
       which is internally thread-safe (mailbox-confined engines). A
       supervised cluster keeps it: the supervisor's state machine and
       watchdog are single-threaded. *)
    let op_lock =
      match target with
      | Protocol.Cluster c when Cluster.domain_count c > 0 -> None
      | _ -> Some (Mutex.create ())
    in
    let with_op_lock f =
      match op_lock with
      | None -> f ()
      | Some m ->
        Mutex.lock m;
        Fun.protect ~finally:(fun () -> Mutex.unlock m) f
    in
    let telemetry_on =
      telemetry_interval <> None || telemetry_out <> None || alert_rules <> None
    in
    let telemetry =
      if not telemetry_on then None
      else begin
        let sink =
          match telemetry_out with
          | None -> None
          | Some path ->
            let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
            opened := oc :: !opened;
            Some (resilient_channel_sink path oc)
        in
        let tsdb =
          Tsdb.create ?sink
            ~meta:
              [
                ("procs", Journal.Int procs);
                ("shards", Journal.Int shards);
                ( "interval_s",
                  Journal.Float (Option.value telemetry_interval ~default:1.0) );
              ]
            ~source:(fun () -> Metrics.Registry.metrics (Protocol.metrics_registry target))
            ()
        in
        let alerts =
          match alert_rules with
          | None -> None
          | Some path -> (
            match Alerts.parse_rules_file path with
            | Error msg ->
              Printf.eprintf "error: cannot load alert rules: %s\n" msg;
              exit 1
            | Ok [] ->
              Printf.eprintf "error: alert rules file %s holds no rules\n" path;
              exit 1
            | Ok rules ->
              Printf.eprintf "rebalance serve: loaded %d alert rule%s from %s\n%!"
                (List.length rules)
                (if List.length rules = 1 then "" else "s")
                path;
              Some (Alerts.create ?sink ~rules tsdb))
        in
        Protocol.set_telemetry ?alerts tsdb;
        Some (tsdb, alerts)
      end
    in
    let telemetry_stop = ref false in
    let telemetry_thread =
      match telemetry with
      | None -> None
      | Some (tsdb, alerts) ->
        let interval = Option.value telemetry_interval ~default:1.0 in
        let sup = match target with Protocol.Supervised s -> Some s | _ -> None in
        let tick () =
          with_op_lock (fun () ->
              Tsdb.sample tsdb;
              match alerts with
              | None -> ()
              | Some a ->
                ignore (Alerts.eval a);
                (* The feedback loop: every tick a suspect-annotated rule
                   spends Firing is one failure signal against its shard —
                   one tick marks it Suspect, [down_after] sustained ticks
                   tip it Down through the ordinary evacuation path, with
                   the rule's name as the journaled provenance. *)
                match sup with
                | None -> ()
                | Some sup ->
                  List.iter
                    (fun ((r : Alerts.rule), _) ->
                      match r.Alerts.suspect with
                      | Some i when i >= 0 && i < Supervisor.shard_count sup ->
                        ignore (Supervisor.fail ~reason:("alert:" ^ r.Alerts.rule_name) sup i)
                      | _ -> ())
                    (Alerts.firing a))
        in
        (* Sleep in short slices so shutdown never waits out a long
           interval. *)
        let rec pause remaining =
          if (not !telemetry_stop) && remaining > 0.0 then begin
            let step = Float.min 0.05 remaining in
            (try Thread.delay step with Unix.Unix_error _ -> ());
            pause (remaining -. step)
          end
        in
        Some
          (Thread.create
             (fun () ->
               while not !telemetry_stop do
                 tick ();
                 pause interval
               done)
             ())
    in
    let stop_telemetry () =
      telemetry_stop := true;
      (match telemetry_thread with None -> () | Some th -> Thread.join th);
      if telemetry <> None then Protocol.clear_telemetry ()
    in
    let dump_metrics () =
      match metrics_file with
      | None -> ()
      | Some path -> (
        (* A cluster's exposition merges its owner registries into a
           fresh one — metrics_lines is that path for every target. *)
        try
          let oc = open_out path in
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            (Protocol.metrics_lines target);
          close_out oc
        with Sys_error e -> Printf.eprintf "rebalance serve: metrics dump failed: %s\n%!" e)
    in
    if metrics_file <> None then begin
      try Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> dump_metrics ()))
      with Invalid_argument _ -> ()
    end;
    (* Graceful shutdown: a final snapshot marks a compaction point, so
       the next serve resumes from it instead of replaying the whole
       journal, and the channels are flushed and closed cleanly. *)
    let final_snapshot () =
      if journal_file <> None then
        try
          match target with
          | Protocol.Single e -> ignore (Engine.journal_snapshot e)
          | _ -> Option.iter (fun c -> ignore (Cluster.journal_snapshot c)) (Protocol.cluster_of target)
        with Failure msg ->
          Printf.eprintf "rebalance serve: final snapshot failed: %s\n%!" msg
    in
    let term_handler = Sys.Signal_handle (fun _ -> raise Terminated) in
    (try Sys.set_signal Sys.sigterm term_handler with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigint term_handler with Invalid_argument _ -> ());
    Fun.protect
      ~finally:(fun () ->
        (* Order matters: the sampler stops first (it holds handles into
           the target and the telemetry sink); the snapshot and the
           metrics merge need the worker domains alive (journals are
           written on their owners); the journal channels are closed
           only after the cluster has drained and joined. *)
        stop_telemetry ();
        final_snapshot ();
        dump_metrics ();
        Option.iter Cluster.shutdown (Protocol.cluster_of target);
        List.iter (fun oc -> try close_out oc with Sys_error _ -> ()) !opened)
    @@ fun () ->
    try
      match (tcp, socket) with
      | Some port, _ ->
        (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
        let srv =
          Server.create ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, port)) ()
        in
        let actual =
          match Server.bound_addr srv with Unix.ADDR_INET (_, p) -> p | _ -> port
        in
        Printf.printf "rebalance serve: listening on 127.0.0.1:%d (procs=%d, shards=%d, domains=%d)\n%!"
          actual procs shards
          (Option.fold ~none:0 ~some:Cluster.domain_count (Protocol.cluster_of target));
        (* Scrape dispatch: a connection whose first bytes sniff as an
           HTTP request gets one GET /metrics-style answer and closes;
           everything else is a line-protocol session. The sniff peeks
           without consuming, so the protocol stream is untouched. A
           metrics scrape reads the target under the op lock, as the
           sampler tick does. *)
        let http_alerts =
          match telemetry with
          | Some (_, Some a) ->
            Some (fun () -> String.concat "\n" (Alerts.status_lines a) ^ "\n")
          | _ -> None
        in
        let http_tsdb =
          match telemetry with
          | None -> None
          | Some (tsdb, _) ->
            Some
              (fun ~series ~window ->
                match
                  match window with None -> Ok 60.0 | Some w -> Tsdb.parse_duration w
                with
                | Error e -> Error e
                | Ok window_s -> Tsdb.render_json tsdb ~selector:series ~window_s)
        in
        let tcp_session ic oc =
          if Http.sniff (Unix.descr_of_in_channel ic) then begin
            Http.handle
              ~metrics:(fun () -> with_op_lock (fun () -> Protocol.metrics_text target))
              ?alerts:http_alerts ?tsdb:http_tsdb ic oc;
            Protocol.Close
          end
          else session ?lock:op_lock target ic oc
        in
        (* SIGTERM lands as Terminated in this accepting thread; drain
           reuses the graceful path — stop accepting, wait out live
           sessions, shut stragglers down — before the finalisers run. *)
        (try Server.run srv ~session:tcp_session
         with Terminated ->
           Printf.eprintf "rebalance serve: caught termination signal, draining\n%!");
        Server.drain ~grace:5.0 srv
      | None, None -> ignore (session ?lock:op_lock target stdin stdout)
      | None, Some path ->
      (* A client that hangs up mid-response must not kill the daemon:
         with SIGPIPE ignored the write fails as a Sys_error, which ends
         just that session. *)
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      Printf.printf "rebalance serve: listening on %s (procs=%d, shards=%d)\n%!" path procs
        shards;
      let rec accept_loop () =
        match Unix.accept sock with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | fd, _ ->
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          let verdict = session ?lock:op_lock target ic oc in
          (try close_in ic with Sys_error _ -> ());
          (* The engine (and its placement) outlives the connection: clients
             come and go, the daemon keeps serving the same cluster state. *)
          (match verdict with
          | Protocol.Stop -> ()
          | Protocol.Close | Protocol.Continue -> accept_loop ())
      in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close sock with Unix.Unix_error _ -> ());
          try Unix.unlink path with Unix.Unix_error _ -> ())
        accept_loop
    with Terminated ->
      Printf.eprintf "rebalance serve: caught termination signal, shutting down\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the online rebalancing engine as a long-running service speaking a \
          line-delimited protocol (ADD/REMOVE/RESIZE/REBALANCE/STATS/METRICS) on stdin or a \
          Unix domain socket. With --shards, processors are partitioned across that many \
          independent engines behind a consistent-hash router; with --domains, the shard \
          engines run on parallel worker domains behind bounded mailboxes and --tcp serves \
          many clients concurrently over TCP; with --journal, restarts resume from the \
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
   and derives per-shard queue depth, owner utilization and op rates
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
            let owner = i mod domains in
            let shard_l = [ ("shard", string_of_int i) ] in
            let dom_l = [ ("domain", string_of_int owner) ] in
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
              owner,
              Option.bind line (fun l -> kv_int l "jobs"),
              Option.bind line (fun l -> kv_int l "makespan"),
              Option.bind line (fun l -> kv_float l "imbalance"),
              sample_value samples "rebal_mailbox_depth" dom_l,
              sample_value samples "rebal_domain_utilization" dom_l,
              rate,
              read_spark ic oc i ))
      in
      prev_time := now;
      let p99 = session_p99 samples in
      match format with
      | `Json ->
        let j_opt f = function None -> Journal.Null | Some v -> f v in
        let j_num v = if Float.is_nan v then Journal.Null else Journal.Float v in
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
                         (fun (i, owner, jobs, makespan, imb, depth, util, rate, spark) ->
                           Journal.Obj
                             [
                               ("shard", Journal.Int i);
                               ("domain", Journal.Int owner);
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
        Printf.ksprintf (Buffer.add_string b) "%5s %4s %7s %7s %7s %7s %6s %9s %s\n" "SHARD"
          "DOM" "JOBS" "LOAD" "IMB" "DEPTH" "UTIL" "OPS/S" "TREND";
        List.iter
          (fun (i, owner, jobs, makespan, imb, depth, util, rate, spark) ->
            Printf.ksprintf (Buffer.add_string b) "%5d %4d %7s %7s %7s %7s %6s %9s %s\n" i
              owner (fmt_opt "%d" jobs) (fmt_opt "%d" makespan) (fmt_opt "%.3f" imb)
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
          load, queue depth, owner-domain utilization, op rate, session p99 and (when the \
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
  let module Engine = Rebal_online.Engine in
  let module Cluster = Rebal_online.Cluster in
  let module Supervisor = Rebal_online.Supervisor in
  let module Protocol = Rebal_online.Protocol in
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
    if shards < 2 || procs < shards then begin
      Printf.eprintf "error: need 2 <= --shards <= --procs (got %d shards, %d procs)\n"
        shards procs;
      exit 1
    end;
    List.iter
      (fun (s, t) ->
        if s < 0 || s >= shards || t < 0 || t >= horizon then begin
          Printf.eprintf "error: --kill %d:%d is outside %d shards x %d steps\n" s t shards
            horizon;
          exit 1
        end)
      kills;
    let fault =
      if kills = [] then
        Some
          (Rebal_sim.Fault.create ~seed:(seed + 1) ~servers:shards ~horizon ~crash_rate
             ~mttr ())
      else None
    in
    let live i t =
      match fault with
      | Some f -> Rebal_sim.Fault.is_live f ~server:i ~time:t
      | None -> not (List.exists (fun (s, st) -> s = i && t >= st && t < st + down_for) kills)
    in
    (* In-memory journals: one buffer per shard, written through the
       engines' ordinary sinks, replayed wholesale at the end. *)
    let buffers = Array.init shards (fun _ -> Buffer.create 4096) in
    let cluster =
      Cluster.create
        ~journal_for:(fun i -> Some (Journal.create ~write:(Buffer.add_string buffers.(i)) ()))
        ~m:procs ~shards ()
    in
    let time = ref 0 in
    let config =
      {
        Supervisor.default_config with
        Supervisor.suspect_after = 1;
        down_after = 2;
        recovery_steps = 4;
        evac_budget = Option.value evac_budget ~default:max_int;
      }
    in
    let sup = Supervisor.create ~config ~probe:(fun i -> live i !time) cluster in
    (* Per-step telemetry: the same store/rule-engine pair serve runs on
       a timer, ticked once per driven step. Journal events and samples
       share the monotonic clock, so postmortem lines them up. *)
    let telemetry_oc = ref None in
    let telemetry =
      if telemetry_out = None && alert_rules = None then None
      else begin
        Rebal_obs.Control.set_enabled true;
        let sink =
          match telemetry_out with
          | None -> None
          | Some path ->
            let oc = open_out path in
            telemetry_oc := Some oc;
            Some
              (Journal.create
                 ~write:(fun line ->
                   output_string oc line;
                   flush oc)
                 ())
        in
        let target = Protocol.Supervised sup in
        let tsdb =
          Tsdb.create ?sink
            ~meta:[ ("mode", Journal.Str "chaos-serve"); ("shards", Journal.Int shards) ]
            ~source:(fun () -> Metrics.Registry.metrics (Protocol.metrics_registry target))
            ()
        in
        let alerts =
          match alert_rules with
          | None -> None
          | Some path -> (
            match Alerts.parse_rules_file path with
            | Error msg ->
              Printf.eprintf "error: cannot load alert rules: %s\n" msg;
              exit 1
            | Ok rules -> Some (Alerts.create ?sink ~rules tsdb))
        in
        Some (tsdb, alerts)
      end
    in
    (* Reference model: what the workload believes is live. Anything the
       cluster accepted must survive every kill and recovery. *)
    let model = Hashtbl.create 1024 in
    let live_ids = ref (Array.make 16 "") in
    let n_live = ref 0 in
    let push id =
      if !n_live = Array.length !live_ids then begin
        let bigger = Array.make ((2 * !n_live) + 16) "" in
        Array.blit !live_ids 0 bigger 0 !n_live;
        live_ids := bigger
      end;
      !live_ids.(!n_live) <- id;
      incr n_live
    in
    let remove_at j =
      !live_ids.(j) <- !live_ids.(!n_live - 1);
      decr n_live
    in
    let rng = Rng.create seed in
    let next_id = ref 0 in
    let rejected = ref 0 in
    let down_at = Array.make shards (-1) in
    let recoveries = ref [] in
    let downtime_weighted = ref 0.0 in
    let failures = ref [] in
    let failf fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    for t = 0 to horizon - 1 do
      time := t;
      ignore (Supervisor.tick sup);
      for i = 0 to shards - 1 do
        (match Supervisor.health sup i with
        | Supervisor.Down when down_at.(i) < 0 -> down_at.(i) <- t
        | Supervisor.Healthy when down_at.(i) >= 0 ->
          recoveries := (i, down_at.(i), t) :: !recoveries;
          down_at.(i) <- -1
        | _ -> ());
        (* Re-admission: the fault plan revived the shard, so rebuild
           its engine from its own journal — the evacuation removes
           were recorded, so the restored engine agrees with the
           directory — and let the supervisor ramp it back in. *)
        if Supervisor.health sup i = Supervisor.Down && live i t then begin
          let restore () =
            Result.map
              (fun (eng, outcome) ->
                Engine.set_journal eng
                  (Some
                     (Journal.create ~start_seq:outcome.Replay.events ~header_written:true
                        ~write:(Buffer.add_string buffers.(i)) ()));
                eng)
              (Result.bind (Journal.parse_string (Buffer.contents buffers.(i))) Replay.resume)
          in
          match Supervisor.readmit sup i restore with
          | Ok () -> ()
          | Error msg -> failf "shard %d: readmission failed: %s" i msg
        end
      done;
      for _ = 1 to ops_per_step do
        let r = Rng.float rng 1.0 in
        if r < 0.6 || !n_live = 0 then begin
          let id = Printf.sprintf "c%d" !next_id in
          incr next_id;
          let size = Rng.int_range rng 1 100 in
          match Supervisor.add_job sup ~id ~size with
          | Ok _ ->
            Hashtbl.replace model id size;
            push id
          | Error _ -> incr rejected
        end
        else begin
          let j = Rng.int rng !n_live in
          let id = !live_ids.(j) in
          if r < 0.85 then (
            match Supervisor.remove_job sup ~id with
            | Ok _ ->
              Hashtbl.remove model id;
              remove_at j
            | Error _ -> incr rejected)
          else begin
            let size = Rng.int_range rng 1 100 in
            match Supervisor.resize_job sup ~id ~size with
            | Ok _ -> Hashtbl.replace model id size
            | Error _ -> incr rejected
          end
        end
      done;
      if (t + 1) mod period = 0 then ignore (Supervisor.rebalance sup ~k);
      (* Downtime-weighted makespan, the chaos scoring rule: a step
         served with dead shards counts its makespan once per missing
         shard on top of the base weight. *)
      let serving = Supervisor.serving_shards sup in
      downtime_weighted :=
        !downtime_weighted
        +. (float_of_int (Cluster.makespan cluster) *. float_of_int (1 + shards - serving));
      match telemetry with
      | None -> ()
      | Some (tsdb, alerts) ->
        Tsdb.sample tsdb;
        Option.iter (fun a -> ignore (Alerts.eval a)) alerts
    done;
    (* ----- the audit ----- *)
    let lost =
      Hashtbl.fold
        (fun id size acc ->
          match Cluster.find cluster id with
          | Some (sz, _) when sz = size -> acc
          | Some _ | None -> id :: acc)
        model []
    in
    if lost <> [] then
      failf "%d job(s) lost or corrupted (e.g. %s)" (List.length lost)
        (List.hd (List.sort compare lost));
    if Cluster.job_count cluster <> Hashtbl.length model then
      failf "cluster holds %d job(s), workload expects %d (strays or duplicates)"
        (Cluster.job_count cluster) (Hashtbl.length model);
    if not (Cluster.check_consistency cluster ~k:16) then failf "cluster consistency check failed";
    let replays_clean = ref 0 in
    Array.iteri
      (fun i buf ->
        match Result.bind (Journal.parse_string (Buffer.contents buf)) Replay.resume with
        | Error msg -> failf "shard %d journal replay: %s" i msg
        | Ok (eng, _) ->
          let live_eng = Cluster.engine cluster i in
          let same_jobs =
            Engine.fold_jobs live_eng
              (fun acc ~id ~size ~proc ->
                acc
                &&
                match Engine.find eng id with
                | Some (sz, p) -> sz = size && p = proc
                | None -> false)
              true
          in
          if
            Engine.job_count eng <> Engine.job_count live_eng
            || Engine.makespan eng <> Engine.makespan live_eng
            || not same_jobs
          then failf "shard %d journal replay diverges from live state" i
          else incr replays_clean)
      buffers;
    let h = Supervisor.stats sup in
    Printf.printf "chaos-serve: %d shards, %d procs, %d steps x %d ops, seed=%d%s\n" shards
      procs horizon ops_per_step seed
      (if kills = [] then
         Printf.sprintf " (crash-rate=%.3f, mttr=%d)" crash_rate mttr
       else Printf.sprintf " (%d explicit kill(s), down-for=%d)" (List.length kills) down_for);
    Printf.printf
      "  evacuations=%d evacuated_jobs=%d stranded=%d readmissions=%d rejected_ops=%d\n"
      h.Supervisor.evacuations h.Supervisor.evacuated_jobs h.Supervisor.stranded_jobs
      h.Supervisor.readmissions !rejected;
    List.iter
      (fun (i, went_down, healthy_again) ->
        Printf.printf "  shard %d: down at step %d, healthy again at step %d (%d steps)\n" i
          went_down healthy_again (healthy_again - went_down))
      (List.rev !recoveries);
    Array.iteri
      (fun i at ->
        if at >= 0 then
          Printf.printf "  shard %d: still %s at end (down since step %d)\n" i
            (Supervisor.health_name (Supervisor.health sup i))
            at)
      down_at;
    (match List.map (fun (_, d, h') -> h' - d) !recoveries with
    | [] -> ()
    | xs ->
      Printf.printf "  mean recovery: %.1f steps\n"
        (float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)));
    Printf.printf "  downtime-weighted makespan: %.0f\n" !downtime_weighted;
    Printf.printf "  jobs live: %d, makespan: %d\n" (Cluster.job_count cluster)
      (Cluster.makespan cluster);
    (match telemetry with
    | None -> ()
    | Some (tsdb, alerts) ->
      Printf.printf "  telemetry: %d samples, %d series%s\n" (Tsdb.samples_taken tsdb)
        (List.length (Tsdb.series_list tsdb))
        (match alerts with
        | None -> ""
        | Some a -> Printf.sprintf ", %d alert transition(s)" (List.length (Alerts.transitions a))));
    (match journal_out with
    | None -> ()
    | Some base ->
      Array.iteri
        (fun i buf ->
          let path = Printf.sprintf "%s.%d" base i in
          try
            let oc = open_out path in
            output_string oc (Buffer.contents buf);
            close_out oc
          with Sys_error e -> failf "cannot write journal %s: %s" path e)
        buffers;
      Printf.printf "  journals written to %s.0 .. %s.%d\n" base base (shards - 1));
    (match !telemetry_oc with
    | Some oc -> ( try close_out oc with Sys_error _ -> ())
    | None -> ());
    match !failures with
    | [] ->
      Printf.printf
        "  verification: OK (no lost jobs, %d/%d journals replay clean, consistency ok)\n"
        !replays_clean shards
    | fs ->
      List.iter (fun f -> Printf.eprintf "chaos-serve: FAIL: %s\n" f) (List.rev fs);
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
  let run file =
    match Replay.run_file file with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | Ok outcome -> print_endline (Replay.summary outcome)
  in
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
    match Result.bind (Journal.load_file file) Replay.resume with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | Ok (eng, outcome) ->
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
    match Result.bind (Journal.load_file file) Replay.compact with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | Ok (lines, dropped, kept) ->
      let dest = Option.value out ~default:file in
      (* Write-then-rename so an interrupted compaction never destroys
         the only copy of the journal. A binary journal stays binary:
         the compacted lines are re-parsed and re-framed. *)
      let binary_src =
        let ic = open_in_bin file in
        let is_bin =
          match really_input_string ic (String.length Journal.Binary.magic) with
          | head -> head = Journal.Binary.magic
          | exception End_of_file -> false
        in
        close_in ic;
        is_bin
      in
      let tmp = dest ^ ".tmp" in
      let oc = open_out_bin tmp in
      (if binary_src then begin
         match Journal.parse_lines lines with
         | Error msg ->
           Printf.eprintf "error: compacted journal does not re-parse: %s\n" msg;
           exit 1
         | Ok (h, evs) ->
           output_string oc Journal.Binary.magic;
           output_string oc (Journal.Binary.encode_header h);
           List.iter (fun e -> output_string oc (Journal.Binary.encode_event e)) evs
       end
       else
         List.iter
           (fun l ->
             output_string oc l;
             output_char oc '\n')
           lines);
      close_out oc;
      Sys.rename tmp dest;
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
    match Journal.load_file file with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | Ok parsed -> begin
      let show = function
        | Ok text -> print_string text
        | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
      in
      match (job, reb) with
      | Some _, Some _ ->
        Printf.eprintf "error: give either --job or --rebalance, not both\n";
        exit 1
      | Some id, None -> show (Replay.explain_job parsed ~id)
      | None, Some seq -> show (Replay.explain_rebalance parsed ~seq)
      | None, None -> print_string (Replay.explain_summary parsed)
    end
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
    match Journal.load_file file with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | Ok (h, evs) ->
      let src =
        let ic = open_in_bin file in
        let fmt =
          match really_input_string ic (String.length Journal.Binary.magic) with
          | head -> if head = Journal.Binary.magic then Journal.Binary else Journal.Jsonl
          | exception End_of_file -> Journal.Jsonl
        in
        close_in ic;
        fmt
      in
      let target =
        Option.value to_
          ~default:(match src with Journal.Jsonl -> Journal.Binary | Journal.Binary -> Journal.Jsonl)
      in
      let emit oc =
        match target with
        | Journal.Binary ->
          output_string oc Journal.Binary.magic;
          output_string oc (Journal.Binary.encode_header h);
          List.iter (fun e -> output_string oc (Journal.Binary.encode_event e)) evs
        | Journal.Jsonl ->
          output_string oc (Journal.render_header h);
          output_char oc '\n';
          List.iter
            (fun e ->
              output_string oc (Journal.render_event e);
              output_char oc '\n')
            evs
      in
      let name = function Journal.Jsonl -> "jsonl" | Journal.Binary -> "binary" in
      (match out with
      | None ->
        set_binary_mode_out stdout true;
        emit stdout;
        flush stdout
      | Some path ->
        (* Write-then-rename: converting over the input (or any existing
           file) never leaves a half-written journal behind. *)
        let tmp = path ^ ".tmp" in
        let oc = open_out_bin tmp in
        emit oc;
        close_out oc;
        Sys.rename tmp path);
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
