module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Verify = Rebal_core.Verify
module Stats = Rebal_harness.Stats
module Metrics = Rebal_obs.Metrics
module Control = Rebal_obs.Control
module Journal = Rebal_obs.Journal
module Timer = Rebal_harness.Timer

(* Move counters are labeled by the policy that drove the run, so a
   sweep over policies in one registry stays separable. *)
let policy_labels policy = [ ("policy", Policy.name policy) ]

let metric_steps policy =
  Metrics.counter ~labels:(policy_labels policy) ~help:"Simulation steps executed"
    "rebal_sim_steps_total"

let metric_moves policy kind =
  Metrics.counter
    ~labels:(("kind", kind) :: policy_labels policy)
    ~help:"Site migrations by kind: policy, failed, emergency" "rebal_sim_moves_total"

let metric_policy_latency policy =
  Metrics.histogram ~labels:(policy_labels policy)
    ~help:"Latency of one policy round in seconds" "rebal_sim_policy_latency_seconds"

type step = {
  time : int;
  makespan : int;
  average : float;
  imbalance : float;
  moves : int;
  failed_moves : int;
  emergency_moves : int;
  live_servers : int;
}

type recovery = { crash_time : int; steps_to_recover : int option }

type result = {
  steps : step array;
  total_moves : int;
  peak_makespan : int;
  mean_imbalance : float;
  p95_imbalance : float;
  final_placement : int array;
  failed_migrations : int;
  emergency_moves : int;
  fallbacks : int;
  downtime_weighted_makespan : float;
  recoveries : recovery list;
}

type config = {
  servers : int;
  period : int;
  policy : Policy.t;
}

(* Map the live servers onto a dense [0 .. live-1] range so policies see
   an ordinary instance: [map] takes compact index -> server id, [inv]
   takes server id -> compact index (-1 when dead). *)
let compact live =
  let m = Array.length live in
  let inv = Array.make m (-1) in
  let map = ref [] in
  let count = ref 0 in
  for s = 0 to m - 1 do
    if live.(s) then begin
      inv.(s) <- !count;
      map := s :: !map;
      incr count
    end
  done;
  (!count, Array.of_list (List.rev !map), inv)

let check_invariant ~servers ~live ~placement ~round_moves ~policy =
  match
    Verify.check_live_placement ~m:servers ~live ~placement ~round_moves
      ~budget:(Policy.budget policy)
  with
  | Ok () -> ()
  | Error msg -> failwith ("Simulation.run: step invariant violated: " ^ msg)

let run ?(fault = Fault.none) ?(recovery_threshold = 1.5) ?journal traffic
    { servers; period; policy } =
  if servers <= 0 then invalid_arg "Simulation.run: servers must be positive";
  if period <= 0 then invalid_arg "Simulation.run: period must be positive";
  let sites = Traffic.sites traffic in
  let horizon = Traffic.horizon traffic in
  let jemit kind fields =
    match journal with None -> () | Some sink -> Journal.emit sink ~kind fields
  in
  (match journal with
  | None -> ()
  | Some sink ->
    Journal.write_header sink ~journal:"rebal-sim"
      [
        ("servers", Journal.Int servers);
        ("period", Journal.Int period);
        ("policy", Journal.Str (Policy.name policy));
        ("sites", Journal.Int sites);
        ("horizon", Journal.Int horizon);
      ]);
  let m_steps = metric_steps policy in
  let m_policy_moves = metric_moves policy "policy" in
  let m_failed_moves = metric_moves policy "failed" in
  let m_emergency_moves = metric_moves policy "emergency" in
  let m_latency = metric_policy_latency policy in
  let live_at time = Array.init servers (fun s -> Fault.is_live fault ~server:s ~time) in
  (* Initial placement: LPT on the rates at time 0, over the servers
     live at time 0. *)
  let placement =
    let live0 = live_at 0 in
    let live_n, map, _ = compact live0 in
    let rates0 = Traffic.rates_at traffic ~time:0 in
    let inst0 = Instance.create ~sizes:rates0 ~m:live_n (Array.make sites 0) in
    let lpt = Assignment.to_array (Rebal_algo.Lpt.solve inst0) in
    Array.map (fun p -> map.(p)) lpt
  in
  let steps =
    Array.make horizon
      {
        time = 0;
        makespan = 0;
        average = 0.0;
        imbalance = 1.0;
        moves = 0;
        failed_moves = 0;
        emergency_moves = 0;
        live_servers = servers;
      }
  in
  let total_moves = ref 0 in
  let total_failed = ref 0 in
  let total_emergency = ref 0 in
  let total_fallbacks = ref 0 in
  let prev_live = Array.make servers true in
  for time = 0 to horizon - 1 do
    let live = live_at time in
    (* Crash/recovery transitions, for replayable fault timelines. *)
    if journal <> None then
      Array.iteri
        (fun s now ->
          if now <> prev_live.(s) then
            jemit
              (if now then "sim_recover" else "sim_crash")
              [ ("time", Journal.Int time); ("server", Journal.Int s) ])
        live;
    Array.blit live 0 prev_live 0 servers;
    let rates = Traffic.rates_at traffic ~time in
    (* Forced evacuation: sites on a crashed server go to the least
       loaded live server. These are emergency moves, not policy moves. *)
    let emergency = ref 0 in
    let load = Array.make servers 0 in
    Array.iteri (fun s p -> load.(p) <- load.(p) + rates.(s)) placement;
    Array.iteri
      (fun site p ->
        if not live.(p) then begin
          let target = ref (-1) in
          for s = 0 to servers - 1 do
            if live.(s) && (!target < 0 || load.(s) < load.(!target)) then target := s
          done;
          load.(p) <- load.(p) - rates.(site);
          load.(!target) <- load.(!target) + rates.(site);
          jemit "sim_evacuate"
            [
              ("time", Journal.Int time);
              ("site", Journal.Int site);
              ("src", Journal.Int p);
              ("dst", Journal.Int !target);
              ("rate", Journal.Int rates.(site));
            ];
          placement.(site) <- !target;
          incr emergency
        end)
      placement;
    (* Policy round, over live servers only and on observed (possibly
       stale, noisy) rates. A failed migration leaves the site in place
       but still consumed a move of the round's budget. *)
    let moves, failed, fallbacks =
      if time > 0 && time mod period = 0 then begin
        let observed =
          Fault.observe fault ~time (fun t -> Traffic.rates_at traffic ~time:t)
        in
        let live_n, map, inv = compact live in
        let initial = Array.map (fun p -> inv.(p)) placement in
        let inst = Instance.create ~sizes:observed ~m:live_n initial in
        let next, fallbacks =
          if Control.enabled () then begin
            let start = Timer.now_ns () in
            let r = Policy.apply_count policy inst in
            Metrics.Histogram.observe_ns m_latency (Int64.sub (Timer.now_ns ()) start);
            r
          end
          else Policy.apply_count policy inst
        in
        let attempted = ref 0 and failed = ref 0 in
        for site = 0 to sites - 1 do
          let dst = map.(Assignment.processor next site) in
          if dst <> placement.(site) then begin
            incr attempted;
            if Fault.migration_fails fault ~time ~job:site then incr failed
            else placement.(site) <- dst
          end
        done;
        (!attempted, !failed, fallbacks)
      end
      else (0, 0, 0)
    in
    if moves > 0 || fallbacks > 0 then
      jemit "sim_round"
        [
          ("time", Journal.Int time);
          ("policy", Journal.Str (Policy.name policy));
          ("moves", Journal.Int moves);
          ("failed", Journal.Int failed);
          ("fallbacks", Journal.Int fallbacks);
        ];
    check_invariant ~servers ~live ~placement ~round_moves:moves ~policy;
    Metrics.Counter.inc m_steps;
    Metrics.Counter.add m_policy_moves moves;
    Metrics.Counter.add m_failed_moves failed;
    Metrics.Counter.add m_emergency_moves !emergency;
    total_moves := !total_moves + moves;
    total_failed := !total_failed + failed;
    total_emergency := !total_emergency + !emergency;
    total_fallbacks := !total_fallbacks + fallbacks;
    (* Metrics always use the true rates, never the observed ones. *)
    let load = Array.make servers 0 in
    Array.iteri (fun s p -> load.(p) <- load.(p) + rates.(s)) placement;
    let makespan = Array.fold_left max 0 load in
    let live_n = ref 0 in
    Array.iter (fun l -> if l then incr live_n) live;
    let total = Array.fold_left ( + ) 0 rates in
    let average = float_of_int total /. float_of_int !live_n in
    let imbalance = if average > 0.0 then float_of_int makespan /. average else 1.0 in
    jemit "sim_step"
      [
        ("time", Journal.Int time);
        ("makespan", Journal.Int makespan);
        ("imbalance", Journal.Float imbalance);
        ("moves", Journal.Int moves);
        ("failed", Journal.Int failed);
        ("emergency", Journal.Int !emergency);
        ("live", Journal.Int !live_n);
      ];
    steps.(time) <-
      {
        time;
        makespan;
        average;
        imbalance;
        moves;
        failed_moves = failed;
        emergency_moves = !emergency;
        live_servers = !live_n;
      }
  done;
  (* Idle steps (zero offered load) report imbalance 1.0 by convention;
     they carry no information, so the aggregates skip them. *)
  let active =
    Array.of_list
      (List.filter_map
         (fun s -> if s.average > 0.0 then Some s.imbalance else None)
         (Array.to_list steps))
  in
  let mean_imbalance =
    if Array.length active = 0 then 1.0
    else Array.fold_left ( +. ) 0.0 active /. float_of_int (Array.length active)
  in
  let downtime_weighted_makespan =
    (* Steps weighted by 1 + number of crashed servers: survival while
       degraded counts for more. Equals the plain mean when nothing
       crashes. *)
    let num = ref 0.0 and den = ref 0.0 in
    Array.iter
      (fun s ->
        let w = float_of_int (1 + servers - s.live_servers) in
        num := !num +. (w *. float_of_int s.makespan);
        den := !den +. w)
      steps;
    if !den = 0.0 then 0.0 else !num /. !den
  in
  let recoveries =
    let crash_times =
      List.sort_uniq compare (List.map fst (Fault.crash_events fault))
    in
    List.filter_map
      (fun crash_time ->
        if crash_time < 0 || crash_time >= horizon then None
        else begin
          let rec scan t =
            if t >= horizon then None
            else if steps.(t).imbalance <= recovery_threshold then
              Some (t - crash_time)
            else scan (t + 1)
          in
          Some { crash_time; steps_to_recover = scan crash_time }
        end)
      crash_times
  in
  {
    steps;
    total_moves = !total_moves;
    peak_makespan = Array.fold_left (fun acc s -> max acc s.makespan) 0 steps;
    mean_imbalance;
    p95_imbalance =
      (if Array.length active = 0 then 1.0 else Stats.percentile active 0.95);
    final_placement = placement;
    failed_migrations = !total_failed;
    emergency_moves = !total_emergency;
    fallbacks = !total_fallbacks;
    downtime_weighted_makespan;
    recoveries;
  }
