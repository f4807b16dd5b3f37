(* The benchmark harness: one experiment per measurable claim of the
   paper (the paper is a theory paper with no empirical tables, so the
   experiment set E1..E10 defined in DESIGN.md §3 validates each theorem
   and the motivating application; EXPERIMENTS.md records expected vs
   measured for every table printed here).

   Run with: dune exec bench/main.exe
   Options:  --only E1,E5      run a subset of the experiments
             --json [FILE]     also emit machine-readable results
                               (name, headline ratio, wall seconds)
             --baseline FILE   compare wall seconds against a previous
                               --json dump; exit nonzero if any selected
                               experiment regressed more than 2x *)

module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Budget = Rebal_core.Budget
module Lower_bounds = Rebal_core.Lower_bounds
module Greedy = Rebal_algo.Greedy
module M_partition = Rebal_algo.M_partition
module Local_search = Rebal_algo.Local_search
module Lpt = Rebal_algo.Lpt
module Exact = Rebal_algo.Exact
module BP = Rebal_algo.Budgeted_partition
module Ptas = Rebal_algo.Ptas
module Gap = Rebal_lp.Gap
module Dist = Rebal_workloads.Dist
module Gen = Rebal_workloads.Gen
module Rng = Rebal_workloads.Rng
module Tight = Rebal_workloads.Tight
module Table = Rebal_harness.Table
module Stats = Rebal_harness.Stats
module Timer = Rebal_harness.Timer
module Metrics = Rebal_obs.Metrics
module Journal = Rebal_obs.Journal
module Indexed_heap = Rebal_ds.Indexed_heap

let ratio = Stats.ratio
let pf = Printf.sprintf

let header title =
  Printf.printf "\n################ %s ################\n\n" title

(* ---------------------------------------------------------------------- *)
(* E1 — Theorem 1: GREEDY is a tight (2 - 1/m)-approximation.             *)
(* ---------------------------------------------------------------------- *)

let e1 () =
  header "E1: GREEDY tightness (Theorem 1)";
  let t = Table.create ~title:"adversarial family: one size-m job + m^2-m unit jobs, k = m-1"
      ~columns:[ "m"; "opt"; "greedy(asc)"; "greedy(desc)"; "ratio(asc)"; "bound 2-1/m" ]
  in
  List.iter
    (fun m ->
      let tight = Tight.greedy_tight ~m in
      let inst = tight.Tight.instance in
      let asc = Greedy.solve ~order:Greedy.Ascending inst ~k:tight.Tight.k in
      let desc = Greedy.solve ~order:Greedy.Descending inst ~k:tight.Tight.k in
      Table.add_row t
        [
          string_of_int m;
          string_of_int tight.Tight.opt;
          string_of_int (Assignment.makespan inst asc);
          string_of_int (Assignment.makespan inst desc);
          pf "%.4f" (ratio (Assignment.makespan inst asc) tight.Tight.opt);
          pf "%.4f" (2.0 -. (1.0 /. float_of_int m));
        ])
    [ 2; 4; 8; 16; 32; 64 ];
  Table.print t;
  (* On random workloads the measured ratio vs the exact optimum stays
     well below the guarantee. *)
  let rng = Rng.create 101 in
  let ratios = ref [] in
  for _ = 1 to 150 do
    let n = Rng.int_range rng 4 10 in
    let m = Rng.int_range rng 2 4 in
    let sizes = Array.init n (fun _ -> Rng.int_range rng 1 50) in
    let initial = Array.init n (fun _ -> Rng.int rng m) in
    let inst = Instance.create ~sizes ~m initial in
    let k = Rng.int_range rng 0 n in
    let opt = Exact.opt_makespan_exn inst ~budget:(Budget.Moves k) in
    let g = Assignment.makespan inst (Greedy.solve inst ~k) in
    ratios := ratio g opt :: !ratios
  done;
  let s = Stats.summarize (Array.of_list !ratios) in
  Printf.printf
    "random instances vs exact optimum (150 runs): mean ratio %.4f, max %.4f\n\
     (guarantee 2 - 1/m = 1.75 at m=4; the adversarial family above is what\n\
     makes the bound tight)\n"
    s.Stats.mean s.Stats.max;
  Some s.Stats.mean

(* ---------------------------------------------------------------------- *)
(* E2 — Theorems 2/3: M-PARTITION is a tight 1.5-approximation.           *)
(* ---------------------------------------------------------------------- *)

let e2 () =
  header "E2: M-PARTITION 1.5-approximation (Theorems 2 and 3)";
  let t = Table.create ~title:"adversarial 2-processor instance (scaled), k = 1"
      ~columns:[ "scale"; "opt"; "m-partition"; "ratio"; "bound" ]
  in
  List.iter
    (fun scale ->
      let tight = Tight.partition_tight ~scale () in
      let inst = tight.Tight.instance in
      let a = M_partition.solve inst ~k:tight.Tight.k in
      Table.add_row t
        [
          string_of_int scale;
          string_of_int tight.Tight.opt;
          string_of_int (Assignment.makespan inst a);
          pf "%.4f" (ratio (Assignment.makespan inst a) tight.Tight.opt);
          "1.5000";
        ])
    [ 1; 10; 100; 1000 ];
  Table.print t;
  let rng = Rng.create 102 in
  let mp_ratios = ref [] and g_ratios = ref [] in
  for _ = 1 to 200 do
    let n = Rng.int_range rng 4 10 in
    let m = Rng.int_range rng 2 4 in
    let sizes = Array.init n (fun _ -> Rng.int_range rng 1 50) in
    let initial = Array.init n (fun _ -> Rng.int rng m) in
    let inst = Instance.create ~sizes ~m initial in
    let k = Rng.int_range rng 0 n in
    let opt = Exact.opt_makespan_exn inst ~budget:(Budget.Moves k) in
    mp_ratios := ratio (Assignment.makespan inst (M_partition.solve inst ~k)) opt :: !mp_ratios;
    g_ratios := ratio (Assignment.makespan inst (Greedy.solve inst ~k)) opt :: !g_ratios
  done;
  let mp = Stats.summarize (Array.of_list !mp_ratios) in
  let g = Stats.summarize (Array.of_list !g_ratios) in
  let t2 = Table.create ~title:"random instances vs exact optimum (200 runs)"
      ~columns:[ "algorithm"; "mean ratio"; "p95"; "max"; "guarantee" ]
  in
  Table.add_row t2 [ "m-partition"; pf "%.4f" mp.Stats.mean; pf "%.4f" mp.Stats.p95; pf "%.4f" mp.Stats.max; "1.5" ];
  Table.add_row t2 [ "greedy"; pf "%.4f" g.Stats.mean; pf "%.4f" g.Stats.p95; pf "%.4f" g.Stats.max; "2 - 1/m" ];
  Table.print t2;
  Some mp.Stats.mean

(* ---------------------------------------------------------------------- *)
(* E3 — running time: O(n log n) scaling (Theorems 1 and 3).              *)
(* ---------------------------------------------------------------------- *)

let e3 () =
  header "E3: running time scaling (Bechamel, O(n log n) claim)";
  let open Bechamel in
  let open Toolkit in
  let make_instance n =
    let rng = Rng.create (1000 + n) in
    let dist = Dist.prepare (Dist.Zipf { ranks = 1000; alpha = 1.1; scale = 10_000 }) in
    Gen.random rng ~n ~m:64 ~dist ()
  in
  let sizes = [ 1_000; 4_000; 16_000; 64_000 ] in
  let tests =
    List.concat_map
      (fun n ->
        let inst = make_instance n in
        let k = n / 20 in
        [
          Test.make ~name:(pf "greedy/%d" n) (Staged.stage (fun () -> ignore (Greedy.solve inst ~k)));
          Test.make ~name:(pf "m-partition/%d" n)
            (Staged.stage (fun () -> ignore (M_partition.solve inst ~k)));
          Test.make ~name:(pf "lpt/%d" n) (Staged.stage (fun () -> ignore (Lpt.solve inst)));
        ])
      sizes
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make_grouped ~name:"E3" tests) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t = Table.create ~title:"per-call wall time (OLS estimate)"
      ~columns:[ "algorithm"; "n"; "time (ms)"; "ns / (n log2 n)" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (ns :: _) -> rows := (name, ns) :: !rows
      | _ -> ())
    results;
  let sorted =
    List.sort
      (fun (a, _) (b, _) ->
        let algo s = List.nth (String.split_on_char '/' s) 1 in
        let size s = int_of_string (List.nth (String.split_on_char '/' s) 2) in
        if algo a <> algo b then compare (algo a) (algo b) else compare (size a) (size b))
      !rows
  in
  List.iter
    (fun (name, ns) ->
      let parts = String.split_on_char '/' name in
      let algo = List.nth parts 1 and n = int_of_string (List.nth parts 2) in
      let nlogn = float_of_int n *. (log (float_of_int n) /. log 2.0) in
      Table.add_row t [ algo; string_of_int n; pf "%.3f" (ns /. 1e6); pf "%.2f" (ns /. nlogn) ])
    sorted;
  Table.print t;
  print_endline
    "the last column is flat when the running time is Theta(n log n); greedy\n\
     and m-partition track lpt's constant within a small factor.";
  None

(* ---------------------------------------------------------------------- *)
(* E4 — solution quality across workloads at scale (vs lower bound).      *)
(* ---------------------------------------------------------------------- *)

let e4 () =
  header "E4: quality across workloads, n=2000 m=32 k=100 (vs lower bound)";
  let n = 2000 and m = 32 in
  let k = 100 in
  let workloads =
    [
      ("uniform", fun rng -> Gen.random rng ~n ~m ~dist:(Dist.prepare (Dist.Uniform { lo = 1; hi = 100 })) ());
      ("zipf", fun rng -> Gen.random rng ~n ~m ~dist:(Dist.prepare (Dist.Zipf { ranks = 1000; alpha = 1.1; scale = 5000 })) ());
      ( "bimodal",
        fun rng ->
          Gen.random rng ~n ~m
            ~dist:(Dist.prepare (Dist.Bimodal { small_lo = 1; small_hi = 20; big_lo = 200; big_hi = 400; big_prob = 0.05 }))
            () );
      ( "drifted",
        fun rng ->
          Gen.drifted rng ~n ~m ~dist:(Dist.prepare (Dist.Exponential { mean = 50.0 })) ~drift:0.3 () );
      ( "skewed",
        fun rng ->
          Gen.skewed rng ~n ~m ~dist:(Dist.prepare (Dist.Exponential { mean = 50.0 })) ~skew:1.2 () );
    ]
  in
  let t = Table.create ~title:"makespan / lower bound (and wall time, ms)"
      ~columns:[ "workload"; "initial"; "greedy"; "m-partition"; "local-search"; "lpt(k=inf)"; "mp ms" ]
  in
  let mp_acc = ref [] in
  List.iter
    (fun (name, build) ->
      let inst = build (Rng.create 103) in
      let lb = Lower_bounds.best inst ~budget:(Budget.Moves k) in
      (* lpt ignores the move budget, so it is measured against the
         budget-free bound (average / max size), not the k-bound. *)
      let lb_free = max (Lower_bounds.average inst) (Lower_bounds.max_size inst) in
      let cell a = pf "%.3f" (ratio (Assignment.makespan inst a) lb) in
      let mp, mp_time = Timer.time (fun () -> M_partition.solve inst ~k) in
      mp_acc := ratio (Assignment.makespan inst mp) lb :: !mp_acc;
      Table.add_row t
        [
          name;
          pf "%.3f" (ratio (Instance.initial_makespan inst) lb);
          cell (Greedy.solve inst ~k);
          cell mp;
          cell (Local_search.solve inst ~k);
          pf "%.3f" (ratio (Assignment.makespan inst (Lpt.solve inst)) lb_free);
          pf "%.1f" (mp_time *. 1e3);
        ])
    workloads;
  Table.print t;
  print_endline
    "m-partition stays within its 1.5 guarantee of the *lower bound* (hence\n\
     of OPT) everywhere; lpt ignores the move budget entirely and is the\n\
     what-if-moves-were-free reference.";
  Some (Stats.mean (Array.of_list !mp_acc))

(* ---------------------------------------------------------------------- *)
(* E5 — the moves/makespan tradeoff curve.                                *)
(* ---------------------------------------------------------------------- *)

let e5 () =
  header "E5: moves vs makespan tradeoff (drifted workload, n=1000 m=16)";
  let rng = Rng.create 104 in
  let dist = Dist.prepare (Dist.Exponential { mean = 60.0 }) in
  let inst = Gen.drifted rng ~n:1000 ~m:16 ~dist ~drift:0.25 () in
  let t = Table.create ~title:"makespan after at most k moves"
      ~columns:[ "k"; "greedy"; "m-partition"; "mp moves used"; "local-search"; "lower bound" ]
  in
  List.iter
    (fun k ->
      let mp = M_partition.solve inst ~k in
      Table.add_row t
        [
          string_of_int k;
          string_of_int (Assignment.makespan inst (Greedy.solve inst ~k));
          string_of_int (Assignment.makespan inst mp);
          string_of_int (Assignment.moves inst mp);
          string_of_int (Assignment.makespan inst (Local_search.solve inst ~k));
          string_of_int (Lower_bounds.best inst ~budget:(Budget.Moves k));
        ])
    [ 0; 1; 2; 4; 8; 16; 32; 64; 128; 256; 1000 ];
  Table.print t;
  None

(* ---------------------------------------------------------------------- *)
(* E6 — §3.2: arbitrary relocation costs within a budget.                 *)
(* ---------------------------------------------------------------------- *)

let e6 () =
  header "E6: arbitrary-cost rebalancing (Section 3.2)";
  (* Small instances against the exact optimum. *)
  let rng = Rng.create 105 in
  let ratios = ref [] in
  for _ = 1 to 100 do
    let n = Rng.int_range rng 4 9 in
    let m = Rng.int_range rng 2 4 in
    let sizes = Array.init n (fun _ -> Rng.int_range rng 1 30) in
    let costs = Array.init n (fun _ -> Rng.int_range rng 0 9) in
    let initial = Array.init n (fun _ -> Rng.int rng m) in
    let inst = Instance.create ~costs ~sizes ~m initial in
    let b = Rng.int_range rng 0 20 in
    let opt = Exact.opt_makespan_exn inst ~budget:(Budget.Cost b) in
    let a, _ = BP.solve inst ~budget:b in
    ratios := ratio (Assignment.makespan inst a) opt :: !ratios
  done;
  let s = Stats.summarize (Array.of_list !ratios) in
  Printf.printf
    "small instances vs exact (100 runs): mean ratio %.4f, p95 %.4f, max %.4f\n\
     (guarantee 1.5 * (1 + alpha) = 1.575 at alpha = 0.05)\n\n"
    s.Stats.mean s.Stats.p95 s.Stats.max;
  (* A medium instance across cost models and budget sweep. *)
  let t = Table.create ~title:"n=60 m=6, makespan vs budget (exact-knapsack §3.2 algorithm)"
      ~columns:[ "cost model"; "B=0"; "B=10"; "B=25"; "B=50"; "B=100"; "lower bound" ]
  in
  List.iter
    (fun (name, cost) ->
      let rng = Rng.create 106 in
      let dist = Dist.prepare (Dist.Uniform { lo = 5; hi = 100 }) in
      let inst = Gen.skewed rng ~n:60 ~m:6 ~dist ~skew:1.0 ~cost () in
      let at b = string_of_int (Assignment.makespan inst (fst (BP.solve inst ~budget:b))) in
      Table.add_row t
        [
          name;
          at 0;
          at 10;
          at 25;
          at 50;
          at 100;
          string_of_int (Lower_bounds.best inst ~budget:(Budget.Cost 0));
        ])
    [
      ("unit", Gen.Unit);
      ("size-proportional", Gen.Proportional_to_size { per = 10 });
      ("inverse-size", Gen.Inverse_size { numerator = 100 });
      ("random", Gen.Uniform_random { lo = 1; hi = 10 });
    ];
  Table.print t;
  print_endline
    "makespan decreases monotonically with the budget under every cost model;\n\
     inverse-size costs (sticky small jobs) are the hardest to exploit.";
  Some s.Stats.mean

(* ---------------------------------------------------------------------- *)
(* E7 — §4: the PTAS reaches (1 + eps) OPT on toy instances.              *)
(* ---------------------------------------------------------------------- *)

let e7 () =
  header "E7: PTAS quality and cost (Section 4 / Theorem 4)";
  let t = Table.create ~title:"30 toy instances per delta, vs exact optimum"
      ~columns:[ "delta"; "mean ratio"; "max ratio"; "mean DP states"; "mean ms"; "m-partition ratio" ]
  in
  let headline = ref None in
  List.iter
    (fun delta ->
      let rng = Rng.create 107 in
      let ratios = ref [] and states = ref [] and times = ref [] and mp_ratios = ref [] in
      for _ = 1 to 30 do
        let n = Rng.int_range rng 4 9 in
        let m = Rng.int_range rng 2 3 in
        let sizes = Array.init n (fun _ -> Rng.int_range rng 10 300 * 10) in
        let initial = Array.init n (fun _ -> Rng.int rng m) in
        let inst = Instance.create ~sizes ~m initial in
        let k = Rng.int_range rng 0 n in
        let budget = Budget.Moves k in
        let opt = Exact.opt_makespan_exn inst ~budget in
        let (a, stats), dt = Timer.time (fun () -> Ptas.solve_with_stats ~delta inst ~budget) in
        ratios := ratio (Assignment.makespan inst a) opt :: !ratios;
        states := float_of_int stats.Ptas.dp_states :: !states;
        times := dt *. 1e3 :: !times;
        mp_ratios := ratio (Assignment.makespan inst (M_partition.solve inst ~k)) opt :: !mp_ratios
      done;
      let r = Stats.summarize (Array.of_list !ratios) in
      let st = Stats.mean (Array.of_list !states) in
      let tm = Stats.mean (Array.of_list !times) in
      let mp = Stats.mean (Array.of_list !mp_ratios) in
      headline := Some r.Stats.mean;
      Table.add_row t
        [ pf "%.2f" delta; pf "%.4f" r.Stats.mean; pf "%.4f" r.Stats.max; pf "%.0f" st; pf "%.2f" tm; pf "%.4f" mp ])
    [ 0.5; 0.3; 0.2; 0.1 ];
  Table.print t;
  print_endline
    "smaller delta buys quality at a steep state-space price — the paper's\n\
     point that M-PARTITION, not the PTAS, is the practical algorithm.";
  !headline

(* ---------------------------------------------------------------------- *)
(* E8 — §5: the hardness reductions, executed.                            *)
(* ---------------------------------------------------------------------- *)

let e8 () =
  header "E8: hardness reductions verified in both directions (Section 5)";
  let module Tdm = Rebal_reductions.Three_dm in
  let module Conflict = Rebal_reductions.Conflict in
  let module Move_min = Rebal_reductions.Move_min in
  let module Restricted = Rebal_reductions.Restricted in
  let t = Table.create ~title:"random 3DM / PARTITION inputs through each gadget"
      ~columns:[ "reduction"; "instances"; "yes"; "no"; "agreements" ]
  in
  let rng = Rng.create 108 in
  let conflict_yes = ref 0 and conflict_no = ref 0 and conflict_ok = ref 0 in
  for _ = 1 to 30 do
    let n = Rng.int_range rng 1 3 in
    let dm = Tdm.random rng ~n ~triples:(Rng.int_range rng n 6) in
    if Tdm.has_perfect_matching dm then incr conflict_yes else incr conflict_no;
    if Conflict.verify_reduction dm then incr conflict_ok
  done;
  Table.add_row t
    [ "3DM -> conflict scheduling (Thm 7)"; "30"; string_of_int !conflict_yes; string_of_int !conflict_no; string_of_int !conflict_ok ];
  let restricted_yes = ref 0 and restricted_no = ref 0 and restricted_ok = ref 0 in
  for _ = 1 to 30 do
    let n = Rng.int_range rng 1 3 in
    let dm = Tdm.random rng ~n ~triples:(Rng.int_range rng n 6) in
    if Tdm.has_perfect_matching dm then incr restricted_yes else incr restricted_no;
    if Restricted.verify_reduction dm then incr restricted_ok
  done;
  Table.add_row t
    [ "3DM -> two-cost makespan (Thm 6/Cor 1)"; "30"; string_of_int !restricted_yes; string_of_int !restricted_no; string_of_int !restricted_ok ];
  let mm_yes = ref 0 and mm_no = ref 0 and mm_ok = ref 0 and mm_count = ref 0 in
  while !mm_count < 30 do
    let r = Rng.int_range rng 2 8 in
    let numbers = Array.init r (fun _ -> Rng.int_range rng 1 15) in
    if Array.fold_left ( + ) 0 numbers mod 2 = 0 then begin
      incr mm_count;
      if Move_min.partition_exists numbers then incr mm_yes else incr mm_no;
      if Move_min.verify_reduction numbers then incr mm_ok
    end
  done;
  Table.add_row t
    [ "PARTITION -> move minimization (Thm 5)"; "30"; string_of_int !mm_yes; string_of_int !mm_no; string_of_int !mm_ok ];
  Table.print t;
  print_endline
    "every row must show agreements = instances: the gadgets decide the\n\
     source problem exactly, which is the content of the hardness theorems.";
  Some (float_of_int (!conflict_ok + !restricted_ok + !mm_ok) /. 90.0)

(* ---------------------------------------------------------------------- *)
(* E9 — §1: the web-server migration case study.                          *)
(* ---------------------------------------------------------------------- *)

let e9 () =
  header "E9: web-server migration over a simulated week (Section 1 motivation)";
  let traffic =
    Rebal_sim.Traffic.create (Rng.create 109) ~sites:240 ~horizon:168 ~zipf_alpha:0.6
      ~scale:400 ~period:24 ~diurnal_depth:0.7 ~noise:0.12 ~flash_prob:0.002
      ~flash_mult:6 ~flash_len:5 ()
  in
  let t = Table.create ~title:"240 sites, 12 servers, rebalance every 6h"
      ~columns:[ "policy"; "mean imbalance"; "p95 imbalance"; "peak"; "migrations" ]
  in
  List.iter
    (fun policy ->
      let r =
        Rebal_sim.Simulation.run traffic
          { Rebal_sim.Simulation.servers = 12; period = 6; policy }
      in
      Table.add_row t
        [
          Rebal_sim.Policy.name policy;
          pf "%.3f" r.Rebal_sim.Simulation.mean_imbalance;
          pf "%.3f" r.Rebal_sim.Simulation.p95_imbalance;
          string_of_int r.Rebal_sim.Simulation.peak_makespan;
          string_of_int r.Rebal_sim.Simulation.total_moves;
        ])
    [
      Rebal_sim.Policy.No_rebalance;
      Rebal_sim.Policy.Greedy 8;
      Rebal_sim.Policy.M_partition 8;
      Rebal_sim.Policy.Local_search 8;
      Rebal_sim.Policy.Triggered { k = 8; threshold = 1.25 };
      Rebal_sim.Policy.Full_lpt;
    ];
  Table.print t;
  print_endline
    "bounded-move policies recover most of full rebalancing's imbalance\n\
     reduction with around 2% of its migrations — the Linder-Shah claim.";
  None

(* ---------------------------------------------------------------------- *)
(* E10 — the Shmoys-Tardos GAP baseline.                                  *)
(* ---------------------------------------------------------------------- *)

let e10 () =
  header "E10: Shmoys-Tardos GAP baseline vs the paper's algorithms";
  let rng = Rng.create 110 in
  let gap_r = ref [] and bp_r = ref [] and gap_t = ref [] and bp_t = ref [] in
  for _ = 1 to 60 do
    let n = Rng.int_range rng 6 13 in
    let m = Rng.int_range rng 2 4 in
    let sizes = Array.init n (fun _ -> Rng.int_range rng 1 30) in
    let costs = Array.init n (fun _ -> Rng.int_range rng 0 9) in
    let initial = Array.init n (fun _ -> Rng.int rng m) in
    let inst = Instance.create ~costs ~sizes ~m initial in
    let b = Rng.int_range rng 0 25 in
    let opt = Exact.opt_makespan_exn inst ~budget:(Budget.Cost b) in
    let g, dt_g = Timer.time (fun () -> fst (Gap.solve inst ~budget:b)) in
    let p, dt_p = Timer.time (fun () -> fst (BP.solve inst ~budget:b)) in
    gap_r := ratio (Assignment.makespan inst g) opt :: !gap_r;
    bp_r := ratio (Assignment.makespan inst p) opt :: !bp_r;
    gap_t := dt_g *. 1e3 :: !gap_t;
    bp_t := dt_p *. 1e3 :: !bp_t
  done;
  let t = Table.create ~title:"60 random costed instances vs exact optimum"
      ~columns:[ "algorithm"; "mean ratio"; "p95 ratio"; "max ratio"; "guarantee"; "mean ms" ]
  in
  let row name rs ts guarantee =
    let s = Stats.summarize (Array.of_list rs) in
    Table.add_row t
      [ name; pf "%.4f" s.Stats.mean; pf "%.4f" s.Stats.p95; pf "%.4f" s.Stats.max; guarantee; pf "%.2f" (Stats.mean (Array.of_list ts)) ]
  in
  row "st-gap (LP rounding)" !gap_r !gap_t "2.0";
  row "budgeted-partition (§3.2)" !bp_r !bp_t "1.5(1+a)";
  Table.print t;
  print_endline
    "the paper's combinatorial algorithm matches or beats the LP baseline in\n\
     quality and is far cheaper — its stated motivation for bettering the\n\
     generalized-assignment route.";
  Some (Stats.mean (Array.of_list !bp_r))


(* ---------------------------------------------------------------------- *)
(* E11 — Corollary 1: constrained load rebalancing, ST upper bound.       *)
(* ---------------------------------------------------------------------- *)

let e11 () =
  header "E11: constrained load rebalancing (Corollary 1 upper bound)";
  let module Restricted = Rebal_reductions.Restricted in
  let rng = Rng.create 111 in
  let ratios = ref [] and targets_ok = ref 0 and runs = ref 0 in
  for _ = 1 to 60 do
    let n = Rng.int_range rng 2 7 in
    let m = Rng.int_range rng 2 3 in
    let sizes = Array.init n (fun _ -> Rng.int_range rng 1 20) in
    let eligible =
      Array.init n (fun _ ->
          let count = Rng.int_range rng 1 m in
          let all = Array.init m Fun.id in
          Rng.shuffle rng all;
          List.sort compare (Array.to_list (Array.sub all 0 count)))
    in
    let initial = Array.map List.hd eligible in
    let inst = Instance.create ~sizes ~m initial in
    let restricted = Restricted.create ~sizes ~machines:m ~eligible in
    match Restricted.min_makespan restricted with
    | None -> ()
    | Some opt -> begin
      match Gap.solve_constrained inst ~eligible ~budget:n with
      | None -> ()
      | Some (a, target) ->
        incr runs;
        ratios := ratio (Assignment.makespan inst a) opt :: !ratios;
        if target <= opt then incr targets_ok
    end
  done;
  let s = Stats.summarize (Array.of_list !ratios) in
  Printf.printf
    "constrained ST rounding vs brute-force constrained optimum (%d runs):\n\
     mean ratio %.4f, p95 %.4f, max %.4f (guarantee 2.0);\n\
     LP target lower-bounded the optimum in %d/%d runs.\n\
     Corollary 1 says no polynomial algorithm can guarantee < 1.5 here;\n\
     factor 2 remains the best known upper bound (open problem in §5).\n"
    !runs s.Stats.mean s.Stats.p95 s.Stats.max !targets_ok !runs;
  Some s.Stats.mean

(* ---------------------------------------------------------------------- *)
(* E12 — ablation: how much of the threshold set does the scan visit?     *)
(* ---------------------------------------------------------------------- *)

let e12 () =
  header "E12: M-PARTITION threshold-scan ablation (value of the G1 bound)";
  let t = Table.create
      ~title:"thresholds evaluated, scanning from max(avg,max) vs from the G1-augmented bound"
      ~columns:[ "n"; "m"; "k"; "candidates"; "tried (with G1)"; "tried (without G1)" ]
  in
  List.iter
    (fun (n, m) ->
      let rng = Rng.create (112 + n) in
      let dist = Dist.prepare (Dist.Exponential { mean = 50.0 }) in
      let inst = Gen.drifted rng ~n ~m ~dist ~drift:0.3 () in
      let views = Instance.sorted_views inst in
      let candidates = M_partition.candidate_thresholds inst in
      List.iter
        (fun k ->
          let _, stats = M_partition.solve_with_stats inst ~k in
          (* Ablated scan: start at the G1-free lower bound and walk the
             same candidate set. *)
          let lb0 = max (Lower_bounds.average inst) (Lower_bounds.max_size inst) in
          let tried0 = ref 0 in
          let feasible threshold =
            incr tried0;
            match Rebal_algo.Partition.plan inst ~views ~threshold with
            | Some plan -> plan.Rebal_algo.Partition.moves <= k
            | None -> false
          in
          (if not (feasible lb0) then begin
             let i = ref 0 in
             let stop = ref false in
             while not !stop do
               if !i >= Array.length candidates then stop := true
               else begin
                 let c = candidates.(!i) in
                 incr i;
                 if c >= lb0 && feasible c then stop := true
               end
             done
           end);
          Table.add_row t
            [
              string_of_int n;
              string_of_int m;
              string_of_int k;
              string_of_int stats.M_partition.candidates;
              string_of_int stats.M_partition.tried;
              string_of_int !tried0;
            ])
        [ 1; n / 100; n / 10 ])
    [ (1_000, 16); (10_000, 32); (100_000, 64) ];
  Table.print t;
  print_endline
    "starting the scan at Lemma 1's G1 bound collapses it to a single plan\n\
     evaluation at small k, where the average-load bound alone can be far\n\
     below the reachable makespan and costs thousands of evaluations.";
  None


(* ---------------------------------------------------------------------- *)
(* E13 — §1: process migration under heavy vs light-tailed lifetimes.     *)
(* ---------------------------------------------------------------------- *)

let e13 () =
  header "E13: process migration and lifetime tails (the [6] vs [9] debate)";
  let module PS = Rebal_sim.Process_sim in
  let run lifetime rate policy =
    PS.run (Rng.create 113)
      { PS.cpus = 8; arrival_rate = rate; lifetime; horizon = 6000; period = 10; policy }
  in
  let t = Table.create
      ~title:"8 processor-sharing CPUs, rebalance every 10 steps, greedy budget sweep"
      ~columns:[ "lifetimes"; "policy"; "mean slowdown"; "benefit %"; "migrations" ]
  in
  let scenario name lifetime rate =
    let none = run lifetime rate Rebal_sim.Policy.No_rebalance in
    let full = run lifetime rate Rebal_sim.Policy.Full_lpt in
    let denom = none.PS.mean_slowdown -. full.PS.mean_slowdown in
    let row policy_name r =
      Table.add_row t
        [
          name;
          policy_name;
          pf "%.3f" r.PS.mean_slowdown;
          pf "%.0f" (100.0 *. (none.PS.mean_slowdown -. r.PS.mean_slowdown) /. denom);
          string_of_int r.PS.migrations;
        ]
    in
    row "none" none;
    List.iter
      (fun k -> row (pf "greedy k=%d" k) (run lifetime rate (Rebal_sim.Policy.Greedy k)))
      [ 1; 4 ];
    row "full-lpt" full
  in
  scenario "pareto(1.1)" (PS.Pareto_work { alpha = 1.1; xmin = 1.0 }) 0.5;
  scenario "exponential" (PS.Exponential_work 5.5) 0.82;
  Table.print t;
  print_endline
    "both regimes saturate by k = 4, but the heavy-tailed one needs 2-3x\n\
     fewer actual migrations for the same benefit: the gain concentrates in\n\
     relocating a few marathon processes (Harchol-Balter & Downey's point),\n\
     while light-tailed workloads must churn many processes to profit\n\
     (Lazowska et al's cost concern).";
  None

(* ---------------------------------------------------------------------- *)
(* E15 — the online engine: incremental events vs from-scratch re-solve.  *)
(* ---------------------------------------------------------------------- *)

let e15 () =
  header "E15: online engine throughput (incremental vs from-scratch)";
  let module Engine = Rebal_online.Engine in
  let n = 10_000 and m = 64 in
  let rng = Rng.create 115 in
  let eng = Engine.create ~m () in
  (* A growable pool of live job ids so REMOVE/RESIZE hit uniformly. *)
  let live = ref (Array.make (2 * n) "") in
  let count = ref 0 in
  let push id =
    if !count = Array.length !live then begin
      let bigger = Array.make (2 * Array.length !live) "" in
      Array.blit !live 0 bigger 0 !count;
      live := bigger
    end;
    !live.(!count) <- id;
    incr count
  in
  let next = ref 0 in
  let fresh_size () = Rng.int_range rng 1 1000 in
  let add () =
    let id = pf "j%d" !next in
    incr next;
    (match Engine.add_job eng ~id ~size:(fresh_size ()) with
    | Ok _ -> ()
    | Error e -> failwith e);
    push id
  in
  for _ = 1 to n do
    add ()
  done;
  ignore (Engine.rebalance eng ~k:(n / 20));
  let apply_event () =
    match Rng.int rng 3 with
    | 0 -> add ()
    | 1 when !count > 1 ->
      let i = Rng.int rng !count in
      let id = !live.(i) in
      (match Engine.remove_job eng ~id with Ok _ -> () | Error e -> failwith e);
      decr count;
      !live.(i) <- !live.(!count)
    | _ ->
      let id = !live.(Rng.int rng !count) in
      (match Engine.resize_job eng ~id ~size:(fresh_size ()) with
      | Ok _ -> ()
      | Error e -> failwith e)
  in
  let events = 50_000 in
  let (), dt_inc = Timer.time (fun () -> for _ = 1 to events do apply_event () done) in
  let per_event = dt_inc /. float_of_int events in
  (* The from-scratch alternative per event: materialize the instance and
     run batch GREEDY over all n jobs. *)
  let solves = 20 in
  let k = Engine.job_count eng / 20 in
  let (), dt_scratch =
    Timer.time (fun () ->
        for _ = 1 to solves do
          let inst, _ = Engine.to_instance eng in
          ignore (Greedy.solve inst ~k)
        done)
  in
  let per_solve = dt_scratch /. float_of_int solves in
  let speedup = per_solve /. per_event in
  let t = Table.create ~title:(pf "n≈%d jobs on m=%d, %d-event stream" n m events)
      ~columns:[ "path"; "per event"; "events/sec" ]
  in
  Table.add_row t
    [ "incremental (O(log m))"; pf "%.2f us" (per_event *. 1e6); pf "%.0f" (1.0 /. per_event) ];
  Table.add_row t
    [ "from-scratch greedy"; pf "%.2f ms" (per_solve *. 1e3); pf "%.1f" (1.0 /. per_solve) ];
  Table.print t;
  let consistent = Engine.check_consistency eng ~k:max_int in
  let s = Engine.stats eng in
  Printf.printf
    "speedup: %.0fx per event (acceptance floor: 10x)\n\
     consistency with batch greedy at k=inf: %s (%d check(s), %d failure(s))\n"
    speedup
    (if consistent then "bit-match" else "MISMATCH")
    s.Engine.consistency_checks s.Engine.consistency_failures;
  if not consistent then failwith "E15: online engine diverged from batch greedy";
  Some speedup

(* ---------------------------------------------------------------------- *)
(* E16 — measured operation counts vs the O(n log n) analysis.            *)
(* ---------------------------------------------------------------------- *)

let e16 () =
  header "E16: measured operation counts vs the O(n log n) analysis";
  let t =
    Table.create
      ~title:"per-solve counts from the metrics registry + heap hook; m=64, k=n/20"
      ~columns:
        [ "algorithm"; "n"; "heap ops"; "sift steps"; "solver counter"; "count/(n log2 n)" ]
  in
  let headline = ref None in
  List.iter
    (fun n ->
      let rng = Rng.create (116 + n) in
      let dist = Dist.prepare (Dist.Uniform { lo = 1; hi = 1000 }) in
      let inst = Gen.random rng ~n ~m:64 ~dist () in
      let k = n / 20 in
      let nlogn = float_of_int n *. (log (float_of_int n) /. log 2.0) in
      List.iter
        (fun (name, solve, dominant) ->
          (* Fresh registry and fresh heap counters per solve, so each
             cell is exactly one run's work. *)
          let reg = Metrics.Registry.create () in
          Metrics.Registry.with_registry reg @@ fun () ->
          let hc = Indexed_heap.fresh_counters () in
          Indexed_heap.install_counters hc;
          Fun.protect ~finally:Indexed_heap.remove_counters @@ fun () ->
          solve inst ~k;
          let heap_ops = hc.Indexed_heap.sets + hc.Indexed_heap.removes + hc.Indexed_heap.pops in
          let sifts = hc.Indexed_heap.sift_up_steps + hc.Indexed_heap.sift_down_steps in
          let counter_value cname =
            match
              List.find_opt
                (fun (mtr : Metrics.metric) -> mtr.Metrics.name = cname)
                (Metrics.Registry.metrics reg)
            with
            | Some { Metrics.kind = Metrics.Counter c; _ } -> Metrics.Counter.value c
            | _ -> 0
          in
          let dom = counter_value dominant in
          if name = "greedy" && n = 100_000 then
            headline := Some (float_of_int dom /. nlogn);
          Table.add_row t
            [
              name;
              string_of_int n;
              string_of_int heap_ops;
              string_of_int sifts;
              pf "%s=%d" dominant dom;
              pf "%.4f" (float_of_int dom /. nlogn);
            ])
        [
          ( "greedy",
            (fun inst ~k -> ignore (Greedy.solve inst ~k)),
            "rebal_solver_comparisons_total" );
          ( "m-partition",
            (fun inst ~k -> ignore (M_partition.solve inst ~k)),
            "rebal_mpartition_candidates_total" );
        ])
    [ 1_000; 10_000; 100_000 ];
  Table.print t;
  print_endline
    "heap ops scale with k + m (the budget), not with n: the paper's point\n\
     that the per-round work after the one-off O(n log n) sort is small.\n\
     greedy's dominant count (sort comparisons over the k removed jobs) and\n\
     m-partition's (candidate thresholds, O(n + m log n) of them) both stay\n\
     a bounded fraction of n log2 n as n grows 100x.";
  !headline

(* ---------------------------------------------------------------------- *)
(* E17 — flight-recorder overhead on the E15 event stream.                *)
(* ---------------------------------------------------------------------- *)

let e17 () =
  header "E17: flight-recorder journal overhead (E15's event mix, buffer sink)";
  let module Engine = Rebal_online.Engine in
  let n = 10_000 and m = 64 in
  let events = 50_000 in
  (* The same workload as E15 — load n jobs, one repair pass, then a
     50k-event add/remove/resize stream — run twice: once bare, once
     with a journal sink writing into a Buffer (so the measured cost is
     event rendering, not disk I/O, matching the serve daemon's
     buffered-channel sink). *)
  let run ?journal () =
    (* Start every repetition from a compacted heap: by this point a full
       bench run has left enough major-heap pressure behind to swing a
       single sample by 30%, which would drown the ratio being measured. *)
    Gc.compact ();
    let rng = Rng.create 117 in
    let eng = Engine.create ?journal ~m () in
    let live = ref (Array.make (2 * n) "") in
    let count = ref 0 in
    let push id =
      if !count = Array.length !live then begin
        let bigger = Array.make (2 * Array.length !live) "" in
        Array.blit !live 0 bigger 0 !count;
        live := bigger
      end;
      !live.(!count) <- id;
      incr count
    in
    let next = ref 0 in
    let fresh_size () = Rng.int_range rng 1 1000 in
    let add () =
      let id = pf "j%d" !next in
      incr next;
      (match Engine.add_job eng ~id ~size:(fresh_size ()) with
      | Ok _ -> ()
      | Error e -> failwith e);
      push id
    in
    for _ = 1 to n do
      add ()
    done;
    ignore (Engine.rebalance eng ~k:(n / 20));
    let apply_event () =
      match Rng.int rng 3 with
      | 0 -> add ()
      | 1 when !count > 1 ->
        let i = Rng.int rng !count in
        let id = !live.(i) in
        (match Engine.remove_job eng ~id with Ok _ -> () | Error e -> failwith e);
        decr count;
        !live.(i) <- !live.(!count)
      | _ ->
        let id = !live.(Rng.int rng !count) in
        (match Engine.resize_job eng ~id ~size:(fresh_size ()) with
        | Ok _ -> ()
        | Error e -> failwith e)
    in
    let (), dt = Timer.time (fun () -> for _ = 1 to events do apply_event () done) in
    dt /. float_of_int events
  in
  (* Absolute per-event times swing 2x between runs on a shared machine,
     but the off/on *ratio* is stable when the two configurations run
     back-to-back. So: three (off, on) pairs, report the median pair by
     ratio. *)
  let pair () =
    let off = run () in
    let buf = Buffer.create (1 lsl 23) in
    let sink = Journal.create ~write:(Buffer.add_string buf) () in
    let on = run ~journal:sink () in
    (off, on, sink, buf)
  in
  let pairs = List.init 3 (fun _ -> pair ()) in
  let sorted =
    List.sort
      (fun (o1, n1, _, _) (o2, n2, _, _) -> compare (n1 /. o1) (n2 /. o2))
      pairs
  in
  let per_off, per_on, sink, buf = List.nth sorted 1 in
  let overhead = per_on /. per_off in
  let t = Table.create ~title:(pf "n≈%d jobs on m=%d, %d-event stream" n m events)
      ~columns:[ "journal"; "per event"; "events/sec" ]
  in
  Table.add_row t [ "off"; pf "%.2f us" (per_off *. 1e6); pf "%.0f" (1.0 /. per_off) ];
  Table.add_row t
    [ "on (buffer sink)"; pf "%.2f us" (per_on *. 1e6); pf "%.0f" (1.0 /. per_on) ];
  Table.print t;
  (* Gated on the added cost, as E24 gates the binary journal: the ratio
     swings with the journal-off time it divides by, the difference does
     not. 2.5 us/event is about 4x the 0.57-0.65 us measured on a 2-CPU
     container, and 3x the 0.84 us an earlier, slower run of that host
     read, so only a real regression trips it. *)
  let added_us = (per_on -. per_off) *. 1e6 in
  Printf.printf
    "journal captured %d events, %.1f MB of JSONL; overhead %.2fx, +%.3f us/event\n\
     (gate: +2.5 us/event; with no sink attached every emission site is a\n\
     single None branch, so the cost only exists when a recording is wanted)\n"
    (Journal.events_written sink)
    (float_of_int (Buffer.length buf) /. 1e6)
    overhead added_us;
  if added_us > 2.5 then failwith (pf "E17: JSONL journal adds %.3f us/event, gate 2.5" added_us);
  Some overhead

(* ---------------------------------------------------------------------- *)
(* E18 — sharded router vs single engine on the E15 event mix.            *)
(* ---------------------------------------------------------------------- *)

let e18 () =
  header "E18: sharded router vs single engine (E15's event mix)";
  let module Engine = Rebal_online.Engine in
  let module Cluster = Rebal_online.Cluster in
  let n = 10_000 and m = 64 in
  let events = 50_000 in
  (* One driver, parameterized over the serving shape, so single and
     sharded runs see byte-identical id/size/event streams. *)
  let run ~add_job ~remove_job ~resize_job ~rebalance ~makespan =
    Gc.compact ();
    let rng = Rng.create 118 in
    let live = ref (Array.make (2 * n) "") in
    let count = ref 0 in
    let push id =
      if !count = Array.length !live then begin
        let bigger = Array.make (2 * Array.length !live) "" in
        Array.blit !live 0 bigger 0 !count;
        live := bigger
      end;
      !live.(!count) <- id;
      incr count
    in
    let next = ref 0 in
    let fresh_size () = Rng.int_range rng 1 1000 in
    let add () =
      let id = pf "j%d" !next in
      incr next;
      (match add_job id (fresh_size ()) with Ok _ -> () | Error e -> failwith e);
      push id
    in
    for _ = 1 to n do
      add ()
    done;
    ignore (rebalance (n / 20));
    let apply_event () =
      match Rng.int rng 3 with
      | 0 -> add ()
      | 1 when !count > 1 ->
        let i = Rng.int rng !count in
        let id = !live.(i) in
        (match remove_job id with Ok _ -> () | Error e -> failwith e);
        decr count;
        !live.(i) <- !live.(!count)
      | _ ->
        let id = !live.(Rng.int rng !count) in
        (match resize_job id (fresh_size ()) with Ok _ -> () | Error e -> failwith e)
    in
    let (), dt = Timer.time (fun () -> for _ = 1 to events do apply_event () done) in
    ignore (rebalance (n / 20));
    (dt /. float_of_int events, makespan ())
  in
  let t =
    Table.create
      ~title:(pf "n≈%d jobs, m=%d procs, %d-event stream" n m events)
      ~columns:[ "configuration"; "per event"; "events/sec"; "final makespan" ]
  in
  let per_single, ms_single =
    let eng = Engine.create ~m () in
    let r =
      run
        ~add_job:(fun id size -> Engine.add_job eng ~id ~size)
        ~remove_job:(fun id -> Engine.remove_job eng ~id)
        ~resize_job:(fun id size -> Engine.resize_job eng ~id ~size)
        ~rebalance:(fun k -> Engine.rebalance eng ~k)
        ~makespan:(fun () -> Engine.makespan eng)
    in
    if not (Engine.check_consistency eng ~k:max_int) then
      failwith "E18: single engine diverged from batch greedy";
    r
  in
  Table.add_row t
    [
      "single engine";
      pf "%.2f us" (per_single *. 1e6);
      pf "%.0f" (1.0 /. per_single);
      string_of_int ms_single;
    ];
  let last_ratio = ref 1.0 and last_ms = ref ms_single in
  List.iter
    (fun shards ->
      let sh = Cluster.create ~m ~shards () in
      let per, ms =
        run
          ~add_job:(fun id size -> Cluster.add_job sh ~id ~size)
          ~remove_job:(fun id -> Cluster.remove_job sh ~id)
          ~resize_job:(fun id size -> Cluster.resize_job sh ~id ~size)
          ~rebalance:(fun k -> Cluster.rebalance sh ~k)
          ~makespan:(fun () -> Cluster.makespan sh)
      in
      if not (Cluster.check_consistency sh ~k:max_int) then
        failwith (pf "E18: %d-shard router diverged from batch greedy" shards);
      last_ratio := per_single /. per;
      last_ms := ms;
      Table.add_row t
        [
          pf "%d shards" shards;
          pf "%.2f us" (per *. 1e6);
          pf "%.0f" (1.0 /. per);
          string_of_int ms;
        ])
    [ 2; 4; 8 ];
  Table.print t;
  Printf.printf
    "8-shard throughput: %.2fx single-engine; final makespan %d vs %d single\n\
     (each shard's heaps cover m/S processors; the cross-shard pass keeps the\n\
     global peak within a few largest-job transfers of the single-engine repair,\n\
     and the shards are independent — the parallel headroom is S workers)\n"
    !last_ratio !last_ms ms_single;
  Some !last_ratio

(* ---------------------------------------------------------------------- *)
(* E19 — restart from snapshot vs genesis replay.                         *)
(* ---------------------------------------------------------------------- *)

let e19 () =
  header "E19: restart-from-snapshot vs genesis replay (journal compaction)";
  let module Engine = Rebal_online.Engine in
  let module Replay = Rebal_online.Replay in
  let m = 64 in
  let events = 100_000 in
  let snapshot_at = 92_000 in
  (* Record a 100k-event session with a snapshot near the end — the
     periodic-snapshot discipline a production daemon would run — then
     compare recovering the final state by genesis replay vs by
     compacting to the snapshot and replaying only the tail. *)
  let buf = Buffer.create (1 lsl 24) in
  let tick = ref 0 in
  let sink =
    Journal.create
      ~clock_ns:(fun () ->
        incr tick;
        !tick)
      ~write:(Buffer.add_string buf) ()
  in
  let eng = Engine.create ~journal:sink ~m () in
  let rng = Rng.create 119 in
  let live = ref (Array.make 1024 "") in
  let count = ref 0 in
  let push id =
    if !count = Array.length !live then begin
      let bigger = Array.make (2 * Array.length !live) "" in
      Array.blit !live 0 bigger 0 !count;
      live := bigger
    end;
    !live.(!count) <- id;
    incr count
  in
  let next = ref 0 in
  let fresh_size () = Rng.int_range rng 1 1000 in
  let add () =
    let id = pf "j%d" !next in
    incr next;
    (match Engine.add_job eng ~id ~size:(fresh_size ()) with
    | Ok _ -> ()
    | Error e -> failwith e);
    push id
  in
  let apply_event () =
    match Rng.int rng 3 with
    | 0 -> add ()
    | 1 when !count > 1 ->
      let i = Rng.int rng !count in
      let id = !live.(i) in
      (match Engine.remove_job eng ~id with Ok _ -> () | Error e -> failwith e);
      decr count;
      !live.(i) <- !live.(!count)
    | _ when !count > 0 ->
      let id = !live.(Rng.int rng !count) in
      (match Engine.resize_job eng ~id ~size:(fresh_size ()) with
      | Ok _ -> ()
      | Error e -> failwith e)
    | _ -> add ()
  in
  for i = 1 to events do
    apply_event ();
    if i = snapshot_at then
      match Engine.journal_snapshot eng with Ok _ -> () | Error e -> failwith e
  done;
  let parsed =
    match Journal.load_string (Buffer.contents buf) with
    | Ok p -> p
    | Error e -> failwith ("E19: journal does not parse: " ^ e)
  in
  let replay what parsed =
    Gc.compact ();
    let r, dt = Timer.time (fun () -> Replay.run parsed) in
    match r with
    | Error e -> failwith (pf "E19: %s replay failed: %s" what e)
    | Ok o -> (o, dt)
  in
  let full, dt_full = replay "genesis" parsed in
  let compacted =
    match Replay.compact parsed with
    | Error e -> failwith ("E19: compaction failed: " ^ e)
    | Ok (compacted, _, _) -> compacted
  in
  let resumed, dt_resumed = replay "resumed" compacted in
  if resumed.Replay.final_makespan <> full.Replay.final_makespan
     || resumed.Replay.final_jobs <> full.Replay.final_jobs
  then failwith "E19: resumed replay disagrees with genesis replay";
  let factor =
    float_of_int full.Replay.events /. float_of_int resumed.Replay.events
  in
  let t =
    Table.create
      ~title:(pf "m=%d, %d recorded events, snapshot at event %d" m events snapshot_at)
      ~columns:[ "recovery path"; "events re-executed"; "wall time" ]
  in
  Table.add_row t
    [ "genesis replay"; string_of_int full.Replay.events; pf "%.3f s" dt_full ];
  Table.add_row t
    [
      "compact + resume";
      string_of_int resumed.Replay.events;
      pf "%.3f s" dt_resumed;
    ];
  Table.print t;
  Printf.printf
    "re-executed %.1fx fewer events after compaction (acceptance floor: 10x);\n\
     both paths reach %d jobs at makespan %d and pass the final consistency check\n"
    factor resumed.Replay.final_jobs resumed.Replay.final_makespan;
  if factor < 10.0 then failwith "E19: snapshot recovery below the 10x acceptance floor";
  Some factor

(* ---------------------------------------------------------------------- *)
(* E20 — failover cost: downtime-weighted makespan under shard kills.     *)
(* ---------------------------------------------------------------------- *)

let e20 () =
  header "E20: self-healing failover (supervised cluster under shard kills)";
  let module Chaos = Rebal_online.Chaos in
  let module Supervisor = Rebal_online.Supervisor in
  let shards = 8 and m = 32 in
  let horizon = 400 and ops_per_step = 8 in
  let kills = [ (2, 100); (5, 200) ] and down_for = 80 in
  (* The chaos-serve driver under two schedules: the identical seeded
     workload runs once with no faults and once with two mid-stream
     shard kills (each down for 80 steps, evacuated, restored from its
     own journal, readmitted and re-weighted). Scoring weights each
     step's makespan by 1 + (shards - serving), so downtime is charged
     on top of whatever load imbalance the failover caused. *)
  let config =
    { Chaos.shards; procs = m; horizon; ops_per_step; period = 10; k = 16; evac_budget = None; seed = 120 }
  in
  let drive ~faults () =
    let schedule = if faults then kills else [] in
    let live =
      match Chaos.kill_schedule config ~down_for schedule with
      | Ok live -> live
      | Error e -> failwith ("E20: " ^ e)
    in
    let r = Chaos.run (Chaos.create ~live config) in
    (* The audit: nothing lost, every job where the directory says,
       every journal still replays to the live state. *)
    List.iter (fun f -> failwith ("E20: " ^ f)) r.Chaos.failures;
    if r.Chaos.rejected > 0 then failwith (pf "E20: %d workload ops rejected" r.Chaos.rejected);
    (r.Chaos.downtime_weighted, r.Chaos.stats)
  in
  Gc.compact ();
  let (dw_base, _), dt_base = Timer.time (fun () -> drive ~faults:false ()) in
  Gc.compact ();
  let (dw_fault, h), dt_fault = Timer.time (fun () -> drive ~faults:true ()) in
  if h.Supervisor.readmissions <> List.length kills then
    failwith
      (pf "E20: only %d of %d killed shards were readmitted" h.Supervisor.readmissions
         (List.length kills));
  let ratio = dw_fault /. dw_base in
  let t =
    Table.create
      ~title:
        (pf "S=%d shards, m=%d, %d steps x %d ops, %d kills (down for %d steps)" shards m
           horizon ops_per_step (List.length kills) down_for)
      ~columns:[ "schedule"; "dw makespan"; "evacuated"; "readmitted"; "wall time" ]
  in
  Table.add_row t [ "no faults"; pf "%.0f" dw_base; "0"; "0"; pf "%.3f s" dt_base ];
  Table.add_row t
    [
      "2 shard kills";
      pf "%.0f" dw_fault;
      string_of_int h.Supervisor.evacuated_jobs;
      string_of_int h.Supervisor.readmissions;
      pf "%.3f s" dt_fault;
    ];
  Table.print t;
  Printf.printf
    "downtime-weighted makespan degraded %.2fx under two shard kills (acceptance: within \
     2x);\nno job lost, all %d journals replay clean, both shards evacuated (%d jobs) and \
     readmitted\n"
    ratio shards h.Supervisor.evacuated_jobs;
  if ratio > 2.0 then failwith "E20: failover cost above the 2x acceptance ceiling";
  Some ratio

(* ---------------------------------------------------------------------- *)
(* The serving benches' shared load and audit (E21, E22, E23).            *)
(* ---------------------------------------------------------------------- *)

(* A cluster whose shards journal into memory, for the replay audit. *)
let journaled_cluster ~m ~shards ~domains =
  let buffers = Array.init shards (fun _ -> Buffer.create 65536) in
  let journal_for i = Some (Journal.create ~write:(Buffer.add_string buffers.(i)) ()) in
  (Rebal_online.Cluster.create ~journal_for ~m ~shards ~domains (), buffers)

(* Run [bodies] as systhreads spread over [cluster]'s session domains
   the way the serve daemon spreads its sessions — body [i] on domain
   [i mod D], each domain under its registry from
   [Cluster.domain_registries] — or on this domain when there are none,
   and wait for them all. A body's exception is re-raised once all are
   done. *)
let run_on_domains cluster bodies =
  let registries = Rebal_online.Cluster.domain_registries cluster in
  let d = Array.length registries and n = Array.length bodies in
  let failure = Atomic.make None in
  let threads indices =
    List.map
      (fun i ->
        Thread.create
          (fun () ->
            try bodies.(i) () with e -> ignore (Atomic.compare_and_set failure None (Some e)))
          ())
      indices
  in
  (if d = 0 then List.iter Thread.join (threads (List.init n Fun.id))
   else
     List.init (min d n) (fun k ->
         let mine = List.filter (fun i -> i mod d = k) (List.init n Fun.id) in
         Domain.spawn (fun () ->
             Metrics.Registry.with_registry registries.(k) (fun () ->
                 List.iter Thread.join (threads mine))))
     |> List.iter Domain.join);
  Option.iter raise (Atomic.get failure)

(* [threads] client threads, spread over the cluster's session domains
   by [run_on_domains] as the serve daemon's sessions are, push the
   60/25/15 add/remove/resize mix straight into [cluster] (the calls the
   TCP sessions make, minus the sockets), each over [sessions] private
   id universes so every command is valid and an error is a cluster
   bug, not noise; thread 0 also rebalances (k = 8) every 500 ops.
   [wrap verb f] runs each op (E22 puts the session-boundary span
   there). Every op is timed. Returns the wall time, the jobs the
   clients left live and the sorted per-op latencies in seconds. *)
let drive_clients ?(wrap = fun _ f -> f ()) ?(sessions = 1) ~what ~seed ~id ~threads ~ops
    cluster =
  let module Cluster = Rebal_online.Cluster in
  let survivors = Array.make threads 0 in
  let latencies = Array.make (threads * ops) 0.0 in
  let client t () =
    let rng = Rng.create (seed + t) in
    let live = Array.make sessions [] and next = Array.make sessions 0 in
    let n = ref 0 in
    let check verb = function
      | Ok _ -> ()
      | Error e -> failwith (pf "%s: %s rejected: %s" what verb e)
    in
    for i = 0 to ops - 1 do
      let s = i mod sessions in
      let started = Timer.now_ns () in
      (match Rng.float rng 1.0 with
      | r when r < 0.6 || live.(s) = [] ->
        let id = id t s next.(s) in
        next.(s) <- next.(s) + 1;
        wrap "ADD" (fun () ->
            check "add" (Cluster.add_job cluster ~id ~size:(Rng.int_range rng 1 100));
            live.(s) <- id :: live.(s);
            incr n)
      | r when r < 0.85 ->
        wrap "REMOVE" (fun () ->
            check "remove" (Cluster.remove_job cluster ~id:(List.hd live.(s)));
            live.(s) <- List.tl live.(s);
            decr n)
      | _ ->
        wrap "RESIZE" (fun () ->
            check "resize"
              (Cluster.resize_job cluster ~id:(List.hd live.(s)) ~size:(Rng.int_range rng 1 100))));
      latencies.((t * ops) + i) <- Int64.to_float (Int64.sub (Timer.now_ns ()) started) /. 1e9;
      if t = 0 && (i + 1) mod 500 = 0 then
        wrap "REBALANCE" (fun () -> ignore (Cluster.rebalance cluster ~k:8))
    done;
    survivors.(t) <- !n
  in
  Gc.compact ();
  (* The wall time ends with the last client, not with the domain
     joins: a domain's teardown waits out its systhreads' tick thread,
     up to 50 ms, which is no serving time. *)
  let ends = Array.make threads 0L in
  let start = Timer.now_ns () in
  run_on_domains cluster
    (Array.init threads (fun t () ->
         client t ();
         ends.(t) <- Timer.now_ns ()));
  let wall = Int64.to_float (Int64.sub (Array.fold_left max start ends) start) /. 1e9 in
  Array.sort compare latencies;
  (wall, Array.fold_left ( + ) 0 survivors, latencies)

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* Audit before scoring, the way the serve daemon is audited: nothing
   lost, directory consistent, and — after shutdown — every shard's
   journal replays to exactly the engine the cluster left behind.
   Returns the journal events replayed. *)
let audit_cluster ~what ~jobs cluster buffers =
  let module Cluster = Rebal_online.Cluster in
  let module Replay = Rebal_online.Replay in
  if Cluster.job_count cluster <> jobs then
    failwith (what ^ ": jobs lost or duplicated under concurrency");
  if not (Cluster.check_consistency cluster ~k:max_int) then
    failwith (what ^ ": directory/engine consistency check failed");
  Cluster.shutdown cluster;
  let replayed i buf =
    match Result.bind (Journal.load_string (Buffer.contents buf)) Replay.resume with
    | Error e -> failwith (pf "%s: shard %d journal replay: %s" what i e)
    | Ok (eng, o) ->
      if not (Replay.same_state eng (Cluster.engine cluster i)) then
        failwith (pf "%s: shard %d journal replay diverges" what i);
      o.Replay.events
  in
  Array.fold_left ( + ) 0 (Array.mapi replayed buffers)

(* ---------------------------------------------------------------------- *)
(* E21 — parallel serving: throughput and p99 vs session domain count.     *)
(* ---------------------------------------------------------------------- *)

let e21 () =
  header "E21: parallel serving throughput (sessions over D domains, 1024 sessions)";
  let module Cluster = Rebal_online.Cluster in
  let shards = 8 and m = 32 in
  let driver_threads = 8 and sessions_per_thread = 128 in
  let ops_per_thread = 3_000 in
  let total_sessions = driver_threads * sessions_per_thread in
  let total_ops = driver_threads * ops_per_thread in
  (* One driver, parameterized by session domain count: 1024 logical
     loadgen sessions multiplexed over 8 client threads, spread over
     the session domains, submit the 60/25/15 add/remove/resize mix
     straight into the cluster (the same calls the TCP sessions make,
     minus the sockets), each op running on its client thread under the
     shard's lock. Every op is timed; every run is audited the same way
     the serve daemon is — nothing lost, directory consistent, and each
     shard's journal replays to exactly the engine the cluster left
     behind. *)
  let drive ~domains () =
    let cluster, buffers = journaled_cluster ~m ~shards ~domains in
    let wall, jobs, latencies =
      drive_clients ~what:"E21" ~seed:4242
        ~id:(pf "t%ds%d.%d")
        ~sessions:sessions_per_thread ~threads:driver_threads ~ops:ops_per_thread cluster
    in
    let events = audit_cluster ~what:"E21" ~jobs cluster buffers in
    let makespan = Cluster.makespan cluster in
    Cluster.merge_metrics cluster ~into:(Metrics.Registry.current ());
    let pctl = percentile latencies in
    (wall, float_of_int total_ops /. wall, pctl 0.5, pctl 0.99, makespan, events)
  in
  let w1, tput1, p50_1, p99_1, mk1, ev1 = drive ~domains:1 () in
  let w4, tput4, p50_4, p99_4, mk4, ev4 = drive ~domains:4 () in
  let t =
    Table.create
      ~title:
        (pf "S=%d shards, m=%d, %d sessions x %d total ops (8 driver threads)" shards m
           total_sessions total_ops)
      ~columns:
        [ "domains"; "wall time"; "ops/sec"; "p50"; "p99"; "makespan"; "journal events" ]
  in
  let row d w tput p50 p99 mk ev =
    Table.add_row t
      [
        string_of_int d;
        pf "%.3f s" w;
        pf "%.0f" tput;
        pf "%.0f us" (p50 *. 1e6);
        pf "%.0f us" (p99 *. 1e6);
        string_of_int mk;
        string_of_int ev;
      ]
  in
  row 1 w1 tput1 p50_1 p99_1 mk1 ev1;
  row 4 w4 tput4 p50_4 p99_4 mk4 ev4;
  Table.print t;
  let speedup = tput4 /. tput1 in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "sessions on 4 session domains served %.2fx the single-domain throughput (%d cores available);\n\
     both runs audited: no job lost, directories consistent, all %d journals replay\n\
     with zero divergence\n"
    speedup cores shards;
  (* The parallel-speedup acceptance bound (>= 2x at 4 domains) is a
     claim about parallel hardware: on fewer than 4 cores the session
     domains time-slice one another and the honest expectation is
     parity, so there the guard only rejects collapse. The correctness
     audits above hold unconditionally either way. *)
  if cores >= 4 && speedup < 2.0 then
    failwith "E21: parallel speedup below the 2x acceptance floor";
  if speedup < 0.25 then
    failwith "E21: multi-domain throughput collapsed against the single-domain run";
  Some speedup

(* ---------------------------------------------------------------------- *)
(* E22 — tracing overhead: 1/64 head sampling + 10ms tail capture.        *)
(* ---------------------------------------------------------------------- *)

let e22 () =
  header "E22: tracing overhead (1/64 head sampling + 10ms tail capture, 4 domains)";
  let module Optrace = Rebal_obs.Optrace in
  let shards = 8 and m = 32 and domains = 4 in
  let driver_threads = 8 and ops_per_thread = 2_000 in
  let total_ops = driver_threads * ops_per_thread in
  (* The E21 driver with every op wrapped in the session-boundary
     [Optrace.with_op] — exactly what handle_line does. [traced] flips
     the production knobs (head 1/64 + 10ms tail); untraced leaves both
     off, where with_op must cost two atomic loads. Both runs keep the
     full E21 audit: nothing lost, directory consistent, every shard
     journal replays without divergence — tracing must not perturb the
     event stream. *)
  let drive ~traced () =
    Optrace.reset ();
    if traced then begin
      Optrace.set_sample_every 64;
      Optrace.set_slow_threshold_ns 10_000_000
    end
    else begin
      Optrace.set_sample_every 0;
      Optrace.set_slow_threshold_ns (-1)
    end;
    let cluster, buffers = journaled_cluster ~m ~shards ~domains in
    let wall, jobs, latencies =
      drive_clients ~what:"E22" ~seed:22422
        ~id:(fun t _ n -> pf "e22t%d.%d" t n)
        ~wrap:(fun verb f -> Optrace.with_op ~verb f)
        ~threads:driver_threads ~ops:ops_per_thread cluster
    in
    if traced && Optrace.traces () = [] then
      failwith "E22: tracing enabled but no spans recorded at the op boundary";
    ignore (audit_cluster ~what:"E22" ~jobs cluster buffers);
    Optrace.set_sample_every 0;
    Optrace.set_slow_threshold_ns (-1);
    (wall, float_of_int total_ops /. wall, percentile latencies 0.99)
  in
  (* Interleaved pairs, scored best-of per arm: scheduler noise only
     ever slows a run down, never speeds it up, so the fastest run of
     each arm is the cleanest estimate of its true cost — and tracing
     overhead is systematic, so it cannot hide in the best traced run. *)
  let pairs = 5 in
  let t =
    Table.create
      ~title:(pf "S=%d shards, %d domains, %d ops per run, %d interleaved pairs" shards domains total_ops pairs)
      ~columns:[ "pair"; "untraced ops/s"; "traced ops/s"; "ratio"; "untraced p99"; "traced p99" ]
  in
  let runs =
    List.init pairs (fun i ->
        let _, tput_u, p99_u = drive ~traced:false () in
        let _, tput_t, p99_t = drive ~traced:true () in
        Table.add_row t
          [
            string_of_int (i + 1);
            pf "%.0f" tput_u;
            pf "%.0f" tput_t;
            pf "%.3f" (tput_t /. tput_u);
            pf "%.0f us" (p99_u *. 1e6);
            pf "%.0f us" (p99_t *. 1e6);
          ];
        (tput_u, tput_t))
  in
  Table.print t;
  let best f = List.fold_left (fun acc r -> Float.max acc (f r)) 0.0 runs in
  let ratio = best snd /. best fst in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "best traced / best untraced throughput ratio %.3f (%d cores available);\n\
     every run audited: directories consistent, all %d journals replay with zero\n\
     divergence with tracing enabled\n"
    ratio cores shards;
  (* Like E21's speedup bound, the 10%% overhead budget is a claim about
     parallel hardware: with fewer than 4 cores the session domains
     time-slice one another and run-to-run scheduling noise exceeds the
     budget being measured, so there the guard only rejects collapse.
     The correctness audits above hold unconditionally either way. *)
  if cores >= 4 && ratio < 0.9 then
    failwith "E22: tracing overhead above the 10%% acceptance budget";
  if ratio < 0.5 then
    failwith "E22: traced throughput collapsed against the untraced run";
  Some ratio

(* ---------------------------------------------------------------------- *)
(* E23 — telemetry overhead: 50 Hz sampling + 10 active alert rules.      *)
(* ---------------------------------------------------------------------- *)

let e23 () =
  header "E23: telemetry overhead (50 Hz sampling + 10 active alert rules, 4 domains)";
  let module Cluster = Rebal_online.Cluster in
  let module Tsdb = Rebal_obs.Tsdb in
  let module Alerts = Rebal_obs.Alerts in
  let shards = 8 and m = 32 and domains = 4 in
  let driver_threads = 8 and ops_per_thread = 2_000 in
  let total_ops = driver_threads * ops_per_thread in
  (* Ten rules over series the cluster actually produces — per-shard
     utilization and lock-queue depth, engine latency quantiles and rates,
     and one multi-window burn rate — so every tick pays for real
     window scans, not missing-series early-outs. *)
  let rules_text =
    String.concat "\n"
      ([
         "alert add_p99 p99(rebal_engine_op_latency_seconds{op=\"add\"}[2s]) > 0.01 for 1s";
         "alert rm_p99 p99(rebal_engine_op_latency_seconds{op=\"remove\"}[2s]) > 0.01 for 1s";
         "alert add_rate rate(rebal_engine_op_latency_seconds_count{op=\"add\"}[2s]) > 0 for 0s";
         "burnrate rebalance_share bad=rebal_engine_op_latency_seconds_count{op=\"rebalance\"} \
          total=rebal_engine_op_latency_seconds_count{op=\"add\"} budget=0.5 factor=1 \
          short=1s long=3s";
       ]
      @ List.init 4 (fun s ->
            pf "alert util%d avg(rebal_domain_utilization{shard=\"%d\"}[2s]) > 0.95 for 1s" s s)
      @ List.init 2 (fun s ->
            pf "alert mbox%d max(rebal_mailbox_depth{shard=\"%d\"}[2s]) > 512 for 1s" s s))
  in
  let rules =
    match Alerts.parse_rules rules_text with
    | Ok rs -> rs
    | Error e -> failwith ("E23: rules: " ^ e)
  in
  if List.length rules <> 10 then failwith "E23: expected 10 rules";
  (* The E21/E22 driver mix, with [Control] (latency histograms) on in
     BOTH arms so the ratio isolates exactly what this PR added: the
     sampler walking a merged snapshot of every shard and session-domain
     registry into the ring store, ten rule evaluations per tick and the
     JSONL telemetry sink. 50 Hz is 50x the production 1 s cadence — headroom, not
     flattery. Both arms keep the full audit: nothing lost, directory
     consistent, every shard journal replays with zero divergence. *)
  let drive ~telemetry () =
    let cluster, buffers = journaled_cluster ~m ~shards ~domains in
    let telemetry_buf = Buffer.create 65536 in
    let stop = ref false in
    let sampler =
      if not telemetry then None
      else begin
        let sink = Journal.create ~write:(Buffer.add_string telemetry_buf) () in
        let tsdb =
          Tsdb.create ~sink
            ~meta:[ ("mode", Journal.Str "bench-e23"); ("shards", Journal.Int shards) ]
            ~source:(fun () ->
              let reg = Metrics.Registry.create () in
              Cluster.merge_metrics cluster ~into:reg;
              Metrics.Registry.metrics reg)
            ()
        in
        let alerts = Alerts.create ~sink ~rules tsdb in
        let thread =
          Thread.create
            (fun () ->
              while not !stop do
                Tsdb.sample tsdb;
                ignore (Alerts.eval alerts);
                Thread.delay 0.02
              done)
            ()
        in
        Some (tsdb, alerts, thread)
      end
    in
    let wall, jobs, latencies =
      drive_clients ~what:"E23" ~seed:23523
        ~id:(fun t _ n -> pf "e23t%d.%d" t n)
        ~threads:driver_threads ~ops:ops_per_thread cluster
    in
    (match sampler with
    | None -> ()
    | Some (tsdb, alerts, thread) ->
      stop := true;
      Thread.join thread;
      (* One final tick over the settled cluster, then audit the
         telemetry itself: samples were taken, every rule evaluated
         against live data, and the JSONL sink parses back. *)
      Tsdb.sample tsdb;
      ignore (Alerts.eval alerts);
      if Tsdb.samples_taken tsdb < 2 then failwith "E23: sampler never ran";
      List.iter
        (fun (r : Alerts.rule) ->
          if Alerts.state alerts r.Alerts.rule_name = None then
            failwith (pf "E23: rule %s not evaluated" r.Alerts.rule_name))
        rules;
      if Alerts.last_value alerts "add_rate" = None then
        failwith "E23: add_rate rule saw no data";
      (match Journal.load_string (Buffer.contents telemetry_buf) with
      | Error e -> failwith ("E23: telemetry journal: " ^ e)
      | Ok (hdr, events) ->
        if hdr.Journal.journal <> "rebal-telemetry" then
          failwith "E23: telemetry journal mislabeled";
        if List.length events < Tsdb.samples_taken tsdb then
          failwith "E23: telemetry journal lost samples"));
    ignore (audit_cluster ~what:"E23" ~jobs cluster buffers);
    (wall, float_of_int total_ops /. wall, percentile latencies 0.99)
  in
  Rebal_obs.Control.with_enabled true (fun () ->
      let pairs = 5 in
      let t =
        Table.create
          ~title:
            (pf "S=%d shards, %d domains, %d ops per run, %d interleaved pairs" shards
               domains total_ops pairs)
          ~columns:[ "pair"; "quiet ops/s"; "telemetry ops/s"; "ratio"; "quiet p99"; "telemetry p99" ]
      in
      let runs =
        List.init pairs (fun i ->
            let _, tput_q, p99_q = drive ~telemetry:false () in
            let _, tput_t, p99_t = drive ~telemetry:true () in
            Table.add_row t
              [
                string_of_int (i + 1);
                pf "%.0f" tput_q;
                pf "%.0f" tput_t;
                pf "%.3f" (tput_t /. tput_q);
                pf "%.0f us" (p99_q *. 1e6);
                pf "%.0f us" (p99_t *. 1e6);
              ];
            (tput_q, tput_t))
      in
      Table.print t;
      let best f = List.fold_left (fun acc r -> Float.max acc (f r)) 0.0 runs in
      let ratio = best snd /. best fst in
      let cores = Domain.recommended_domain_count () in
      Printf.printf
        "best telemetry / best quiet throughput ratio %.3f (%d cores available);\n\
         every run audited: directories consistent, all %d journals replay with zero\n\
         divergence, and the telemetry arm took real samples through 10 live rules\n"
        ratio cores shards;
      (* Same hardware caveat as E21/E22: under 4 cores the sampler
         thread time-slices the clients and scheduler noise swamps the
         10%% budget being measured, so there the guard only rejects
         collapse. The correctness audits above hold unconditionally. *)
      if cores >= 4 && ratio < 1.0 /. 1.10 then
        failwith "E23: telemetry overhead above the 10%% acceptance budget";
      if ratio < 0.5 then
        failwith "E23: telemetried throughput collapsed against the quiet run";
      Some ratio)

(* ---------------------------------------------------------------------- *)
(* E24 — the flat hot path: µs/event, minor words/event, binary journal.  *)
(* ---------------------------------------------------------------------- *)

let e24 () =
  header "E24: flat-core hot path (us/event, alloc/event, binary journal overhead)";
  let module Engine = Rebal_online.Engine in
  let n = 10_000 and m = 64 in
  let events = 50_000 in
  (* The E15 mix, but PREGENERATED: the measured loop contains no
     Printf, no rng draws, no pool bookkeeping — only
     [Engine.apply_bulk] over immutable op arrays, so the numbers are
     the engine's, not the harness's. The stream is built against a
     shadow pool so every op is valid when it executes. *)
  let rng = Rng.create 124 in
  let pool = Array.make (n + events + 1) "" in
  let count = ref 0 and next = ref 0 in
  let fresh_size () = Rng.int_range rng 1 1000 in
  let add () =
    let id = pf "j%d" !next in
    incr next;
    pool.(!count) <- id;
    incr count;
    Engine.Add { id; size = fresh_size () }
  in
  let preload = Array.init n (fun _ -> add ()) in
  let stream =
    Array.init events (fun _ ->
        match Rng.int rng 3 with
        | 0 -> add ()
        | 1 when !count > 1 ->
          let i = Rng.int rng !count in
          let id = pool.(i) in
          decr count;
          pool.(i) <- pool.(!count);
          Engine.Remove { id }
        | _ -> Engine.Resize { id = pool.(Rng.int rng !count); size = fresh_size () })
  in
  (* Pre-chunk into batch-sized slices once; every run reuses them, so
     slicing never happens inside a measured or counted window. *)
  let batch = 1024 in
  let slices =
    let rec go i acc =
      if i >= events then List.rev acc
      else
        let len = min batch (events - i) in
        go (i + len) (Array.sub stream i len :: acc)
    in
    go 0 []
  in
  let run ?journal () =
    Gc.compact ();
    let eng = Engine.create ?journal ~m () in
    Engine.apply_bulk eng preload;
    ignore (Engine.rebalance eng ~k:(n / 20));
    Engine.reserve eng ~jobs:(n + events);
    let (), dt =
      Timer.time (fun () -> List.iter (fun s -> Engine.apply_bulk eng s) slices)
    in
    dt /. float_of_int events
  in
  (* Ratio stability as in E17: absolute times swing on a shared box,
     back-to-back ratios don't. Three (off, binary, jsonl) triples,
     median by binary ratio. *)
  let triple () =
    let off = run () in
    let bbuf = Buffer.create (1 lsl 22) in
    let bin = run ~journal:(Journal.create ~format:Journal.Binary ~write:(Buffer.add_string bbuf) ()) () in
    let jbuf = Buffer.create (1 lsl 23) in
    let jsonl = run ~journal:(Journal.create ~write:(Buffer.add_string jbuf) ()) () in
    (off, bin, jsonl, Buffer.length bbuf, Buffer.length jbuf)
  in
  let triples = List.init 3 (fun _ -> triple ()) in
  let sorted =
    List.sort (fun (o1, b1, _, _, _) (o2, b2, _, _, _) -> compare (b1 /. o1) (b2 /. o2)) triples
  in
  let per_off, per_bin, per_jsonl, bbytes, jbytes = List.nth sorted 1 in
  (* The allocation audit: a 10k-op steady-state window in the middle of
     the stream, journal off, counted with [Gc.minor_words]. The probe
     itself boxes a float, so an empty window is measured first and
     subtracted. *)
  let words_per_op =
    Gc.compact ();
    let eng = Engine.create ~m () in
    Engine.apply_bulk eng preload;
    ignore (Engine.rebalance eng ~k:(n / 20));
    Engine.reserve eng ~jobs:(n + events);
    let warm, window, _rest =
      let rec split k l =
        if k = 0 then ([], l)
        else
          match l with
          | [] -> ([], [])
          | x :: tl ->
            let a, b = split (k - 1) tl in
            (x :: a, b)
      in
      let warm, rest = split 20 slices in
      let window, rest = split 10 rest in
      (warm, window, rest)
    in
    List.iter (fun s -> Engine.apply_bulk eng s) warm;
    let window_ops = List.fold_left (fun a s -> a + Array.length s) 0 window in
    let apply_window = fun () -> List.iter (fun s -> Engine.apply_bulk eng s) window in
    let calib =
      let a = Gc.minor_words () in
      Gc.minor_words () -. a
    in
    let before = Gc.minor_words () in
    apply_window ();
    let after = Gc.minor_words () in
    (after -. before -. calib) /. float_of_int window_ops
  in
  let t =
    Table.create
      ~title:(pf "n≈%d jobs on m=%d, %d-event pregenerated stream, batch=%d" n m events batch)
      ~columns:[ "journal"; "per event"; "events/sec"; "overhead"; "bytes/event" ]
  in
  Table.add_row t
    [ "off"; pf "%.3f us" (per_off *. 1e6); pf "%.0f" (1.0 /. per_off); "1.00x"; "-" ];
  Table.add_row t
    [
      "binary (buffer sink)";
      pf "%.3f us" (per_bin *. 1e6);
      pf "%.0f" (1.0 /. per_bin);
      pf "%.2fx" (per_bin /. per_off);
      pf "%.0f" (float_of_int bbytes /. float_of_int events);
    ];
  Table.add_row t
    [
      "jsonl (buffer sink)";
      pf "%.3f us" (per_jsonl *. 1e6);
      pf "%.0f" (1.0 /. per_jsonl);
      pf "%.2fx" (per_jsonl /. per_off);
      pf "%.0f" (float_of_int jbytes /. float_of_int events);
    ];
  Table.print t;
  let bin_overhead = per_bin /. per_off in
  (* The binary journal's added cost is gated in absolute terms: the
     ratio swings with the journal-off time it divides by, the
     difference does not. 2.0 us/event is 3x the 0.67 us measured on a
     2-CPU container, so only a real regression trips it. *)
  let bin_added_us = (per_bin -. per_off) *. 1e6 in
  Printf.printf
    "steady-state allocation: %.4f minor words/op over a 10k-op window\n\
     (acceptance: 0 — the flat core neither boxes nor grows on the quiet path)\n\
     binary journal overhead %.2fx, +%.3f us/event (gate: +2.0 us/event); journal-off %.3f \
     us/event (target <= 1.0)\n"
    words_per_op bin_overhead bin_added_us (per_off *. 1e6);
  if words_per_op > 0.5 then
    failwith
      (pf "E24: steady-state path allocates (%.2f minor words/op, budget 0)" words_per_op);
  if bin_added_us > 2.0 then
    failwith (pf "E24: binary journal adds %.3f us/event, gate 2.0" bin_added_us);
  if per_off > 1.0e-6 then
    print_endline "WARNING: journal-off hot path above the 1.0 us/event target";
  Some bin_overhead

(* ---------------------------------------------------------------------- *)
(* Runner: --only to subset, --json for machine-readable results.         *)
(* ---------------------------------------------------------------------- *)

let experiments =
  [
    ("E1", e1);
    ("E2", e2);
    ("E3", e3);
    ("E4", e4);
    ("E5", e5);
    ("E6", e6);
    ("E7", e7);
    ("E8", e8);
    ("E9", e9);
    ("E10", e10);
    ("E11", e11);
    ("E12", e12);
    ("E13", e13);
    ("E15", e15);
    ("E16", e16);
    ("E17", e17);
    ("E18", e18);
    ("E19", e19);
    ("E20", e20);
    ("E21", e21);
    ("E22", e22);
    ("E23", e23);
    ("E24", e24);
  ]

(* Baseline regression guard: --baseline FILE compares each selected
   experiment's wall seconds against a previous --json dump and fails
   the run when one slowed down more than 2x (plus 50ms of absolute
   slack, so microsecond-scale experiments don't trip on scheduler
   noise). It also fails when a solver counter ([rebal_solver_*]) the
   dump recorded for a deterministic experiment differs from the run's:
   those counts are exact, so a changed one means changed work, and a
   stale dump shows. CI runs the smoke subset against the committed
   BENCH_online.json. *)

(* E1..E13 solve fixed seeded instances, all but E3: its counters count
   however many repetitions Bechamel's time quota ran. *)
let counters_exact name =
  List.mem name [ "E1"; "E2"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11"; "E12"; "E13" ]

(* "name{k=v,...}", the key a --json dump files a metric under. *)
let metric_key (m : Metrics.metric) =
  match m.Metrics.labels with
  | [] -> m.Metrics.name
  | ls -> pf "%s{%s}" m.Metrics.name (String.concat "," (List.map (fun (k, v) -> pf "%s=%s" k v) ls))

let read_baseline path =
  let contents = In_channel.with_open_text path In_channel.input_all in
  match Journal.json_of_string contents with
  | Error e -> Error (pf "%s: %s" path e)
  | Ok (Journal.List entries) ->
    let counters fields =
      match List.assoc_opt "metrics" fields with
      | Some (Journal.Obj ms) ->
        List.filter_map
          (function
            | key, Journal.Int v when String.starts_with ~prefix:"rebal_solver_" key -> Some (key, v)
            | _ -> None)
          ms
      | _ -> []
    in
    Ok
      (List.filter_map
         (function
           | Journal.Obj fields -> begin
             match (List.assoc_opt "name" fields, List.assoc_opt "seconds" fields) with
             | Some (Journal.Str name), Some (Journal.Float s) -> Some (name, (s, counters fields))
             | Some (Journal.Str name), Some (Journal.Int s) ->
               Some (name, (float_of_int s, counters fields))
             | _ -> None
           end
           | _ -> None)
         entries)
  | Ok _ -> Error (pf "%s: expected a JSON array of experiment results" path)

let check_baseline path results =
  match read_baseline path with
  | Error e ->
    Printf.eprintf "baseline error: %s\n" e;
    exit 2
  | Ok base ->
    (* Experiments newer than the baseline dump are skipped loudly, not
       silently: a CI baseline that predates E18/E19 should say so
       rather than pretend those experiments were guarded. *)
    let missing =
      List.filter_map
        (fun (name, _, _, _) ->
          if List.mem_assoc name base then None else Some name)
        results
    in
    List.iter
      (fun name ->
        Printf.printf
          "baseline %s: WARNING %s not in baseline, skipped (refresh with --json)\n"
          path name)
      missing;
    let regressions =
      List.filter_map
        (fun (name, _, secs, _) ->
          match List.assoc_opt name base with
          | Some (b, _) when secs > (2.0 *. b) +. 0.05 -> Some (name, b, secs)
          | _ -> None)
        results
    in
    let counter_drift =
      List.concat_map
        (fun (name, _, _, metrics) ->
          match List.assoc_opt name base with
          | Some (_, recorded) when counters_exact name ->
            let ran (m : Metrics.metric) =
              match m.Metrics.kind with
              | Metrics.Counter c -> Some (metric_key m, Metrics.Counter.value c)
              | _ -> None
            in
            let ran = List.filter_map ran metrics in
            List.filter_map
              (fun (key, want) ->
                match List.assoc_opt key ran with
                | Some got when got = want -> None
                | got -> Some (name, key, want, got))
              recorded
          | _ -> [])
        results
    in
    List.iter
      (fun (name, b, s) ->
        Printf.eprintf "REGRESSION %s: %.3fs vs baseline %.3fs (limit %.3fs)\n" name s b
          ((2.0 *. b) +. 0.05))
      regressions;
    List.iter
      (fun (name, key, want, got) ->
        Printf.eprintf "COUNTER %s: %s = %s vs baseline %d\n" name key
          (match got with Some v -> string_of_int v | None -> "absent")
          want)
      counter_drift;
    if regressions <> [] || counter_drift <> [] then exit 1;
    Printf.printf
      "baseline %s: no regressions among %d guarded experiment(s) (threshold 2x + 50ms slack; \
       solver counters exact)\n"
      path
      (List.length results - List.length missing)

(* One "name{labels}": value pair per metric the experiment produced;
   histograms are summarized as count/sum. *)
let metric_json_pairs ms =
  List.map
    (fun (m : Metrics.metric) ->
      let value =
        match m.Metrics.kind with
        | Metrics.Counter c -> string_of_int (Metrics.Counter.value c)
        | Metrics.Gauge g -> pf "%g" (Metrics.Gauge.value g)
        | Metrics.Histogram h ->
          pf "{\"count\": %d, \"sum\": %g}" (Metrics.Histogram.observations h)
            (Metrics.Histogram.sum h)
      in
      pf "\"%s\": %s" (metric_key m) value)
    ms

let write_json path results =
  let oc = open_out path in
  output_string oc "[\n";
  let last = List.length results - 1 in
  List.iteri
    (fun i (name, ratio, secs, metrics) ->
      Printf.fprintf oc "  {\"name\": \"%s\", \"ratio\": %s, \"seconds\": %.3f, \
                         \"metrics\": {%s}}%s\n"
        name
        (match ratio with
        | None -> "null"
        | Some r -> pf "%.4f" r)
        secs
        (String.concat ", " (metric_json_pairs metrics))
        (if i < last then "," else ""))
    results;
  output_string oc "]\n";
  close_out oc

let () =
  let only = ref [] in
  let json = ref None in
  let baseline = ref None in
  let usage () =
    prerr_endline
      "usage: main.exe [--only E1,E5,...] [--json [FILE]] [--baseline FILE]";
    exit 2
  in
  let rec parse_args = function
    | [] -> ()
    | "--only" :: spec :: rest ->
      only := !only @ String.split_on_char ',' spec;
      parse_args rest
    | [ "--json" ] -> json := Some "bench.json"
    | "--json" :: v :: rest when String.length v > 0 && v.[0] <> '-' ->
      json := Some v;
      parse_args rest
    | "--json" :: rest ->
      json := Some "bench.json";
      parse_args rest
    | "--baseline" :: file :: rest ->
      baseline := Some file;
      parse_args rest
    | _ -> usage ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let selected =
    match !only with
    | [] -> experiments
    | names ->
      List.iter
        (fun name ->
          if not (List.mem_assoc name experiments) then begin
            Printf.eprintf "unknown experiment %s (have %s)\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2
          end)
        names;
      List.filter (fun (name, _) -> List.mem name names) experiments
  in
  let t0 = Unix.gettimeofday () in
  let results =
    List.map
      (fun (name, f) ->
        (* Each experiment gets its own registry, so the counters in the
           JSON output are attributable to that experiment alone. *)
        let reg = Metrics.Registry.create () in
        Metrics.Registry.with_registry reg @@ fun () ->
        let ratio, secs = Timer.time f in
        (name, ratio, secs, Metrics.Registry.metrics reg))
      selected
  in
  Printf.printf "\nall experiments done in %.1f s\n" (Unix.gettimeofday () -. t0);
  (match !json with
  | None -> ()
  | Some path ->
    write_json path results;
    Printf.printf "wrote %s\n" path);
  match !baseline with
  | None -> ()
  | Some path -> check_baseline path results
