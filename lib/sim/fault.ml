module Rng = Rebal_workloads.Rng
module Metrics = Rebal_obs.Metrics

let metric_planned_crashes () =
  Metrics.counter ~help:"Server crashes planned by fault schedules"
    "rebal_fault_planned_crashes_total"

type t = {
  seed : int;
  servers : int;
  horizon : int;
  migration_fail : float;
  lag : int;
  noise : float;
  down : bool array array; (* down.(time).(server); [||] when no crashes *)
  events : (int * int) list; (* (time, server) crash transitions, time order *)
}

let none =
  {
    seed = 0;
    servers = 0;
    horizon = 0;
    migration_fail = 0.0;
    lag = 0;
    noise = 0.0;
    down = [||];
    events = [];
  }

let is_none t =
  t.down = [||] && t.migration_fail = 0.0 && t.lag = 0 && t.noise = 0.0

(* Per-(time, job) decisions are drawn from a generator seeded by mixing
   the plan seed with the coordinates, so queries are order-independent:
   splitmix's seed scrambler decorrelates adjacent seeds. *)
let draw_at t ~time ~job =
  Rng.create ((((t.seed * 1_000_003) + time) * 1_000_003) + job)

let create ~seed ~servers ~horizon ?(crash_rate = 0.0) ?(mttr = 10)
    ?(migration_fail = 0.0) ?(lag = 0) ?(noise = 0.0) () =
  if servers <= 0 then invalid_arg "Fault.create: servers must be positive";
  if horizon <= 0 then invalid_arg "Fault.create: horizon must be positive";
  if mttr <= 0 then invalid_arg "Fault.create: mttr must be positive";
  if crash_rate < 0.0 || crash_rate > 1.0 then
    invalid_arg "Fault.create: crash_rate must be in [0, 1]";
  if migration_fail < 0.0 || migration_fail > 1.0 then
    invalid_arg "Fault.create: migration_fail must be in [0, 1]";
  if lag < 0 then invalid_arg "Fault.create: lag must be non-negative";
  if noise < 0.0 then invalid_arg "Fault.create: noise must be non-negative";
  let down, events =
    if crash_rate = 0.0 then ([||], [])
    else begin
      let rng = Rng.create seed in
      let down_until = Array.make servers (-1) in
      let events = ref [] in
      let down =
        Array.init horizon (fun time ->
            (* Resolve this step's crashes first, then snapshot. *)
            for s = 0 to servers - 1 do
              if time > down_until.(s) && Rng.float rng 1.0 < crash_rate then begin
                let live =
                  let c = ref 0 in
                  for s' = 0 to servers - 1 do
                    if time > down_until.(s') then incr c
                  done;
                  !c
                in
                (* Never take the last live server down. *)
                if live > 1 then begin
                  (* Geometric outage length with mean [mttr]. *)
                  let duration =
                    max 1
                      (int_of_float
                         (Float.round (Rng.exponential rng ~mean:(float_of_int mttr))))
                  in
                  down_until.(s) <- time + duration - 1;
                  events := (time, s) :: !events
                end
              end
            done;
            Array.init servers (fun s -> time <= down_until.(s)))
      in
      (down, List.rev !events)
    end
  in
  Metrics.Counter.add (metric_planned_crashes ()) (List.length events);
  { seed; servers; horizon; migration_fail; lag; noise; down; events }

let is_live t ~server ~time =
  t.down = [||]
  || server < 0
  || server >= t.servers
  || time < 0
  || time >= t.horizon
  || not t.down.(time).(server)

let live_count t ~m ~time =
  let c = ref 0 in
  for s = 0 to m - 1 do
    if is_live t ~server:s ~time then incr c
  done;
  !c

let crash_events t = t.events
let lag t = t.lag

let migration_fails t ~time ~job =
  t.migration_fail > 0.0
  && Rng.float (draw_at t ~time ~job:(job + 1)) 1.0 < t.migration_fail

let observe t ~time rates_at =
  if t.lag = 0 && t.noise = 0.0 then rates_at time
  else begin
    let rates = rates_at (max 0 (time - t.lag)) in
    if t.noise = 0.0 then rates
    else
      Array.mapi
        (fun i r ->
          let u = Rng.float (draw_at t ~time ~job:(-i - 1)) 1.0 in
          let jitter = 1.0 +. (((2.0 *. u) -. 1.0) *. t.noise) in
          max 1 (int_of_float (float_of_int r *. jitter)))
        rates
  end
