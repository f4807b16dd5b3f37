module Journal = Rebal_obs.Journal
module Rng = Rebal_workloads.Rng

type config = {
  shards : int;
  procs : int;
  horizon : int;
  ops_per_step : int;
  period : int;
  k : int;
  evac_budget : int option;
  seed : int;
}

let pf = Printf.sprintf

let validate c =
  let checks =
    [
      ( c.shards >= 2 && c.procs >= c.shards,
        lazy (pf "need 2 <= --shards <= --procs (got %d shards, %d procs)" c.shards c.procs) );
      (c.horizon >= 1, lazy (pf "--horizon must be positive (got %d)" c.horizon));
      (c.ops_per_step >= 0, lazy (pf "--ops-per-step must be non-negative (got %d)" c.ops_per_step));
      (c.period >= 1, lazy (pf "--period must be positive (got %d)" c.period));
      (c.k >= 0, lazy (pf "-k must be non-negative (got %d)" c.k));
      ( Option.fold ~none:true ~some:(fun b -> b >= 0) c.evac_budget,
        lazy (pf "--evac-budget must be non-negative (got %d)" (Option.get c.evac_budget)) );
    ]
  in
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | Some (_, msg) -> Error (Lazy.force msg)
  | None -> Ok ()

let kill_schedule c ~down_for kills =
  match
    List.find_opt (fun (s, t) -> s < 0 || s >= c.shards || t < 0 || t >= c.horizon) kills
  with
  | Some (s, t) ->
    Error (pf "--kill %d:%d is outside %d shards x %d steps" s t c.shards c.horizon)
  | None ->
    Ok (fun i t -> not (List.exists (fun (s, st) -> s = i && t >= st && t < st + down_for) kills))

type t = {
  config : config;
  live : int -> int -> bool;
  cluster : Cluster.t;  (** supervised *)
  buffers : Buffer.t array;
  time : int ref;  (** the step the supervisor's probe asks about *)
}

let create ~live config =
  let buffers = Array.init config.shards (fun _ -> Buffer.create 4096) in
  let cluster =
    Cluster.create
      ~journal_for:(fun i -> Some (Journal.create ~write:(Buffer.add_string buffers.(i)) ()))
      ~m:config.procs ~shards:config.shards ()
  in
  let time = ref 0 in
  let evac_budget = Option.value config.evac_budget ~default:max_int in
  let sup_config =
    { Supervisor.default_config with suspect_after = 1; down_after = 2; recovery_steps = 4; evac_budget }
  in
  ignore (Supervisor.create ~config:sup_config ~probe:(fun i -> live i !time) cluster);
  { config; live; cluster; buffers; time }

let supervisor t = t.cluster

type report = {
  rejected : int;
  recoveries : (int * int * int) list;
  still_down : (int * Supervisor.health * int) list;
  downtime_weighted : float;
  stats : Supervisor.stats;
  jobs : int;
  makespan : int;
  journals : string array;
  replays_clean : int;
  failures : string list;
}

let replay_matches cluster i journal =
  match Result.bind (Journal.load_string journal) Replay.resume with
  | Error msg -> Error (pf "shard %d journal replay: %s" i msg)
  | Ok (eng, _) ->
    if Cluster.query cluster i (Replay.same_state eng) then Ok ()
    else Error (pf "shard %d journal replay diverges from live state" i)

let run ?(on_step = ignore) t =
  let { shards; horizon; ops_per_step; period; k; seed; _ } = t.config in
  let cluster = t.cluster in
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
  for step = 0 to horizon - 1 do
    t.time := step;
    ignore (Supervisor.tick cluster);
    for i = 0 to shards - 1 do
      (match Supervisor.health cluster i with
      | Supervisor.Down when down_at.(i) < 0 -> down_at.(i) <- step
      | Supervisor.Healthy when down_at.(i) >= 0 ->
        recoveries := (i, down_at.(i), step) :: !recoveries;
        down_at.(i) <- -1
      | _ -> ());
      (* Re-admission: the schedule revived the shard, so rebuild its
         engine from its own journal — the evacuation removes were
         recorded, so the restored engine agrees with the directory —
         and let the supervisor ramp it back in. *)
      if Supervisor.health cluster i = Supervisor.Down && t.live i step then begin
        let buf = t.buffers.(i) in
        let restore () =
          Result.map fst
            (Result.bind
               (Journal.load_string (Buffer.contents buf))
               (Replay.resume_appending ~write:(Buffer.add_string buf)))
        in
        match Supervisor.readmit cluster i restore with
        | Ok () -> ()
        | Error msg -> failf "shard %d: readmission failed: %s" i msg
      end
    done;
    for _ = 1 to ops_per_step do
      let r = Rng.float rng 1.0 in
      if r < 0.6 || !n_live = 0 then begin
        let id = pf "c%d" !next_id in
        incr next_id;
        let size = Rng.int_range rng 1 100 in
        match Cluster.apply cluster (Engine.Add { id; size }) with
        | Ok _ ->
          Hashtbl.replace model id size;
          push id
        | Error _ -> incr rejected
      end
      else begin
        let j = Rng.int rng !n_live in
        let id = !live_ids.(j) in
        if r < 0.85 then (
          match Cluster.apply cluster (Engine.Remove { id }) with
          | Ok _ ->
            Hashtbl.remove model id;
            remove_at j
          | Error _ -> incr rejected)
        else begin
          let size = Rng.int_range rng 1 100 in
          match Cluster.apply cluster (Engine.Resize { id; size }) with
          | Ok _ -> Hashtbl.replace model id size
          | Error _ -> incr rejected
        end
      end
    done;
    if (step + 1) mod period = 0 then ignore (Cluster.rebalance cluster ~k);
    (* Downtime-weighted makespan, the chaos scoring rule: a step served
       with dead shards counts its makespan once per missing shard on
       top of the base weight. *)
    let serving = Supervisor.serving_shards cluster in
    downtime_weighted :=
      !downtime_weighted
      +. (float_of_int (Cluster.makespan cluster) *. float_of_int (1 + shards - serving));
    on_step step
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
  let journals = Array.map Buffer.contents t.buffers in
  let replays_clean = ref 0 in
  Array.iteri
    (fun i journal ->
      match replay_matches cluster i journal with
      | Ok () -> incr replays_clean
      | Error msg -> failf "%s" msg)
    journals;
  let still_down =
    List.filter_map
      (fun i -> if down_at.(i) >= 0 then Some (i, Supervisor.health cluster i, down_at.(i)) else None)
      (List.init shards Fun.id)
  in
  {
    rejected = !rejected;
    recoveries = List.rev !recoveries;
    still_down;
    downtime_weighted = !downtime_weighted;
    stats = Supervisor.stats cluster;
    jobs = Cluster.job_count cluster;
    makespan = Cluster.makespan cluster;
    journals;
    replays_clean = !replays_clean;
    failures = List.rev !failures;
  }
