module Journal = Rebal_obs.Journal

type move = Engine.move = {
  id : string;
  src : int;
  dst : int;
}

type health =
  | Healthy
  | Suspect
  | Down
  | Recovering

let health_name = function
  | Healthy -> "healthy"
  | Suspect -> "suspect"
  | Down -> "down"
  | Recovering -> "recovering"

type config = {
  suspect_after : int;
  down_after : int;
  op_deadline : float;
  evac_budget : int;
  recovery_steps : int;
}

let default_config =
  { suspect_after = 1; down_after = 3; op_deadline = 1.0; evac_budget = max_int; recovery_steps = 4 }

let validate_config c =
  if c.suspect_after < 1 then invalid_arg "Supervisor: suspect_after must be >= 1";
  if c.down_after < c.suspect_after then
    invalid_arg "Supervisor: down_after must be >= suspect_after";
  if not (Float.is_finite c.op_deadline) || c.op_deadline <= 0.0 then
    invalid_arg "Supervisor: op_deadline must be positive";
  if c.evac_budget < 0 then invalid_arg "Supervisor: evac_budget must be >= 0";
  if c.recovery_steps < 1 then invalid_arg "Supervisor: recovery_steps must be >= 1"

type shard_state = {
  mutable health : health;
  mutable fails : int;  (* consecutive failure signals since the last success *)
  mutable ramp : int;  (* recovery progress, 0..recovery_steps *)
}

type stats = {
  shards : int;
  healthy : int;
  suspect : int;
  down : int;
  recovering : int;
  evacuations : int;
  evacuated_jobs : int;
  stranded_jobs : int;
  readmissions : int;
  probe_failures : int;
  watchdog_trips : int;
  degraded_rejections : int;
}

type t = {
  cluster : Cluster.t;
  config : config;
  probe : int -> bool;
  clock : unit -> float;
  states : shard_state array;
  mutable evacuations : int;
  mutable evacuated_jobs : int;
  mutable stranded_jobs : int;
  mutable readmissions : int;
  mutable probe_failures : int;
  mutable watchdog_trips : int;
  mutable degraded_rejections : int;
}

let create ?(config = default_config) ?(probe = fun _ -> true) ?(clock = Unix.gettimeofday)
    cluster =
  validate_config config;
  {
    cluster;
    config;
    probe;
    clock;
    states =
      Array.init (Cluster.shard_count cluster) (fun _ ->
          { health = Healthy; fails = 0; ramp = 0 });
    evacuations = 0;
    evacuated_jobs = 0;
    stranded_jobs = 0;
    readmissions = 0;
    probe_failures = 0;
    watchdog_trips = 0;
    degraded_rejections = 0;
  }

let cluster t = t.cluster
let shard_count t = Array.length t.states

let check_shard t i =
  if i < 0 || i >= Array.length t.states then invalid_arg "Supervisor: no such shard"

let health t i =
  check_shard t i;
  t.states.(i).health

let serving_shards t =
  Array.fold_left (fun acc s -> if s.health <> Down then acc + 1 else acc) 0 t.states

(* The Down transition: stop routing to the shard, then re-home its
   jobs onto the survivors as two-phase moves (both halves journaled,
   directory updated). The provenance event lands in the evacuated
   shard's own journal — it explains the burst of removes that follows
   nothing the workload did — and is informational on replay, so the
   journal stays replayable. The engine is reached only through
   [Cluster.query], so the journal write runs on the shard's owner. *)
let transition_down t i ~reason =
  let st = t.states.(i) in
  st.health <- Down;
  st.ramp <- 0;
  Cluster.set_weight t.cluster i 0.0;
  let before = Cluster.query t.cluster i Engine.job_count in
  let moves, leftover =
    match Cluster.evacuate t.cluster ~from:i ~budget:t.config.evac_budget with
    | Ok (moves, leftover) -> (moves, leftover)
    | Error _ ->
      (* No routable survivor: the jobs stay stranded on the dead
         shard until a survivor comes back or the shard is readmitted.
         Degraded-mode guards keep callers from touching them. *)
      ([], before)
  in
  t.evacuations <- t.evacuations + 1;
  t.evacuated_jobs <- t.evacuated_jobs + (before - leftover);
  t.stranded_jobs <- t.stranded_jobs + leftover;
  Cluster.query t.cluster i (fun e ->
      match Engine.journal e with
      | None -> ()
      | Some sink ->
        Journal.emit sink ~kind:"evacuation"
          [
            ("shard", Journal.Int i);
            ("reason", Journal.Str reason);
            ("jobs", Journal.Int (before - leftover));
            ("leftover", Journal.Int leftover);
            ("budget",
             Journal.Int (if t.config.evac_budget = max_int then -1 else t.config.evac_budget));
          ]);
  moves

let note_failure t i ~reason =
  let st = t.states.(i) in
  match st.health with
  | Down -> []
  | Recovering ->
    (* A failure while ramping back sends the shard straight down
       again — anything it accumulated during the ramp is evacuated. *)
    transition_down t i ~reason
  | Healthy | Suspect ->
    st.fails <- st.fails + 1;
    if st.fails >= t.config.down_after then transition_down t i ~reason
    else begin
      if st.fails >= t.config.suspect_after then st.health <- Suspect;
      []
    end

let note_success t i =
  let st = t.states.(i) in
  match st.health with
  | Down -> ()
  | Healthy | Suspect ->
    st.fails <- 0;
    st.health <- Healthy
  | Recovering ->
    st.fails <- 0;
    st.ramp <- min t.config.recovery_steps (st.ramp + 1);
    let w = float_of_int st.ramp /. float_of_int t.config.recovery_steps in
    Cluster.set_weight t.cluster i w;
    if st.ramp >= t.config.recovery_steps then st.health <- Healthy

let tick t =
  let moves = ref [] in
  Array.iteri
    (fun i st ->
      if st.health <> Down then begin
        if t.probe i then note_success t i
        else begin
          t.probe_failures <- t.probe_failures + 1;
          moves := List.rev_append (List.rev (note_failure t i ~reason:"probe")) !moves
        end
      end)
    t.states;
  List.rev !moves

let fail ?(reason = "report") t i =
  check_shard t i;
  t.probe_failures <- t.probe_failures + 1;
  note_failure t i ~reason

let mark_down t i =
  check_shard t i;
  if t.states.(i).health = Down then [] else transition_down t i ~reason:"manual"

let readmit t i build =
  check_shard t i;
  let st = t.states.(i) in
  if st.health <> Down then
    Error (Printf.sprintf "shard %d is %s, not down" i (health_name st.health))
  else
    match Cluster.replace_engine t.cluster i build with
    | Error _ as e -> e
    | Ok () ->
      st.health <- Recovering;
      st.fails <- 0;
      st.ramp <- 0;
      Cluster.set_weight t.cluster i 0.0;
      t.readmissions <- t.readmissions + 1;
      Ok ()

let reject t msg =
  t.degraded_rejections <- t.degraded_rejections + 1;
  Error msg

(* The degraded-mode guard, [Some reason] when an op on [id] must be
   refused: nothing serves, or the id is stranded on a Down shard (a
   resident the evacuation budget did not cover). [serving] is
   {!serving_shards}; only a Down shard strands jobs, so a fully
   serving cluster skips the directory lookup. Weight-aware routing
   never picks a Down shard while any serving shard remains, so an op
   the guard admits is safe to run. *)
let refusal t ~serving id =
  if serving = 0 then Some "no serving shards"
  else if serving = shard_count t then None
  else
    match Cluster.shard_of t.cluster id with
    | Some s when t.states.(s).health = Down ->
      Some (Printf.sprintf "job %s is stranded on down shard %d" id s)
    | _ -> None

(* The watchdog, for one op and for a batch alike: [f] runs the
   cluster call with a [timed] hook that sums, per shard, the ops it
   served and the seconds its tasks took. Once the call has returned,
   every shard whose [n] ops took longer than [n * op_deadline] takes
   one failure signal ([note_failure] — a trip that crosses
   [down_after] evacuates at once); the evacuations' moves come back
   with [f]'s result. *)
let watched t f =
  let shards = shard_count t in
  let ops = Array.make shards 0 and seconds = Array.make shards 0.0 in
  let r =
    f
      ( t.clock,
        fun s n dt ->
          ops.(s) <- ops.(s) + n;
          seconds.(s) <- seconds.(s) +. dt )
  in
  let evacuated = ref [] in
  for s = 0 to shards - 1 do
    if seconds.(s) > float_of_int ops.(s) *. t.config.op_deadline then begin
      t.watchdog_trips <- t.watchdog_trips + 1;
      evacuated := !evacuated @ note_failure t s ~reason:"watchdog"
    end
  done;
  (r, !evacuated)

let apply t op =
  match refusal t ~serving:(serving_shards t) (Engine.op_id op) with
  | Some msg -> reject t msg
  | None -> (
    match watched t (fun timed -> Cluster.apply t.cluster ~timed op) with
    | Ok (p, moves), (_ :: _ as evacuated) -> Ok (p, moves @ evacuated)
    | r, _ -> r)

(* A batch: the guard refuses ops up front, everything it admits goes
   to one [Cluster.apply_bulk] under the watchdog. [admitted.(j)] is the
   batch index of the j-th admitted op; when the guard refuses nothing
   the batch goes down as it is. *)
let apply_bulk t ?on_result ops =
  let n = Array.length ops in
  let serving = serving_shards t in
  let results = Array.make n (Error "") in
  let admitted = Array.make n 0 and count = ref 0 in
  for i = 0 to n - 1 do
    match refusal t ~serving (Engine.op_id ops.(i)) with
    | Some msg -> results.(i) <- reject t msg
    | None ->
      admitted.(!count) <- i;
      incr count
  done;
  let sub = if !count = n then ops else Array.init !count (fun j -> ops.(admitted.(j))) in
  let (), evacuated =
    watched t (fun timed ->
        Cluster.apply_bulk t.cluster
          ~on_result:(fun j _ r -> results.(admitted.(j)) <- r)
          ~timed sub)
  in
  (* The evacuation's moves ride on the last acknowledged op's reply. *)
  (if evacuated <> [] then
     let rec last i =
       if i >= 0 then
         match results.(i) with
         | Ok (p, moves) -> results.(i) <- Ok (p, moves @ evacuated)
         | Error _ -> last (i - 1)
     in
     last (n - 1));
  Option.iter
    (fun f ->
      for i = 0 to n - 1 do
        f i ops.(i) results.(i)
      done)
    on_result

let rebalance t ~k = Cluster.rebalance t.cluster ~k

let stats t =
  let count h = Array.fold_left (fun acc s -> if s.health = h then acc + 1 else acc) 0 t.states in
  {
    shards = Array.length t.states;
    healthy = count Healthy;
    suspect = count Suspect;
    down = count Down;
    recovering = count Recovering;
    evacuations = t.evacuations;
    evacuated_jobs = t.evacuated_jobs;
    stranded_jobs = t.stranded_jobs;
    readmissions = t.readmissions;
    probe_failures = t.probe_failures;
    watchdog_trips = t.watchdog_trips;
    degraded_rejections = t.degraded_rejections;
  }
