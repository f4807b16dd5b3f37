(* Supervisor tests, each run with 0 and 2 hosting domains: the health
   state machine (probe streaks, watchdog deadlines, recovery ramp),
   degraded mode, the qcheck failover property — for S ∈ {2, 8},
   evacuating a shard under an adversarial stream conserves every job,
   keeps the directory consistent, leaves every journal (evacuated
   shard included) replaying to the live state, and the evacuated shard
   restores from its own journal and readmits — and a supervised
   protocol transcript that must not depend on the domain count. *)

module Engine = Rebal_online.Engine
module Cluster = Rebal_online.Cluster
module Protocol = Rebal_online.Protocol
module Supervisor = Rebal_online.Supervisor
module Replay = Rebal_online.Replay
module Chaos = Rebal_online.Chaos
module Journal = Rebal_obs.Journal
module Metrics = Rebal_obs.Metrics

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let health_eq =
  Alcotest.testable
    (fun ppf h -> Format.pp_print_string ppf (Supervisor.health_name h))
    ( = )

(* The hosting-domain counts every case runs over. *)
let executors = [ 0; 2 ]

(* A cluster whose every shard journals into a buffer, so tests can
   replay what the engines recorded. Each buffer is written only by its
   shard's lock holder; the test reads it while the cluster is idle. *)
let journaled_cluster ~domains ~m ~shards =
  let buffers = Array.init shards (fun _ -> Buffer.create 1024) in
  let cluster =
    Cluster.create
      ~journal_for:(fun i -> Some (Journal.create ~write:(Buffer.add_string buffers.(i)) ()))
      ~m ~shards ~domains ()
  in
  (cluster, buffers)

(* Run [f] over a fresh journaled cluster at each hosting-domain count,
   shutting it down afterwards. *)
let over_executors ~m ~shards f =
  List.iter
    (fun domains ->
      let cluster, buffers = journaled_cluster ~domains ~m ~shards in
      Fun.protect ~finally:(fun () -> Cluster.shutdown cluster) (fun () -> f cluster buffers))
    executors

let jobs_on cluster i = Cluster.query cluster i Engine.job_count

(* The engine of shard [i] restored from its own journal, appending to it —
   the builder [Supervisor.readmit] takes. *)
let restore buffers i () =
  Result.map fst
    (Result.bind
       (Journal.parse_string (Buffer.contents buffers.(i)))
       (Replay.resume_appending ~write:(Buffer.add_string buffers.(i))))

let replay_matches cluster buffers i =
  Result.is_ok (Chaos.replay_matches cluster i (Buffer.contents buffers.(i)))

let live_jobs cluster =
  List.concat
    (List.init (Cluster.shard_count cluster) (fun i ->
         Cluster.query cluster i (fun e ->
             Engine.fold_jobs e (fun acc ~id ~size ~proc:_ -> (id, size) :: acc) [])))

(* ----- the failover property ----- *)

let stream_gen =
  let open QCheck2 in
  Gen.(
    let* m = int_range 8 16 in
    let id = map (fun i -> Printf.sprintf "j%d" i) (int_range 0 24) in
    let* events =
      list_size (int_range 0 80)
        (oneof
           [
             map2 (fun id size -> `Add (id, size)) id (int_range 1 60);
             map (fun id -> `Remove id) id;
             map2 (fun id size -> `Resize (id, size)) id (int_range 1 60);
             map (fun k -> `Rebalance k) (int_range 0 8);
           ])
    in
    let* victim = int_range 0 1000 in
    return (m, events, victim))

let apply_events sup events =
  List.iter
    (fun ev ->
      match ev with
      | `Add (id, size) -> ignore (Supervisor.add_job sup ~id ~size)
      | `Remove id -> ignore (Supervisor.remove_job sup ~id)
      | `Resize (id, size) -> ignore (Supervisor.resize_job sup ~id ~size)
      | `Rebalance k -> ignore (Supervisor.rebalance sup ~k))
    events

let prop_failover_conserves_work =
  QCheck2.Test.make
    ~name:"evacuate + readmit conserves work and replays cleanly for S in {2,8}, D in {0,2}"
    ~count:100 stream_gen
    (fun (m, events, victim) ->
      List.for_all
        (fun (shards, domains) ->
          let cluster, buffers = journaled_cluster ~domains ~m ~shards in
          Fun.protect ~finally:(fun () -> Cluster.shutdown cluster) @@ fun () ->
          let sup = Supervisor.create cluster in
          apply_events sup events;
          let before = List.sort compare (live_jobs cluster) in
          let victim = victim mod shards in
          (* Kill: every journaled job must survive on the survivors. *)
          ignore (Supervisor.mark_down sup victim);
          let after = List.sort compare (live_jobs cluster) in
          let conserved = before = after in
          let evacuated =
            jobs_on cluster victim = 0
            && Cluster.weight cluster victim = 0.0
            && Supervisor.health sup victim = Supervisor.Down
          in
          let consistent = Cluster.check_consistency cluster ~k:8 in
          let replays =
            List.for_all (replay_matches cluster buffers) (List.init shards Fun.id)
          in
          (* Readmit from the victim's own journal, ramp back, keep going. *)
          let readmitted = Result.is_ok (Supervisor.readmit sup victim (restore buffers victim)) in
          let ramped =
            readmitted
            && begin
                 for _ = 1 to 4 do
                   ignore (Supervisor.tick sup)
                 done;
                 Supervisor.health sup victim = Supervisor.Healthy
                 && Cluster.weight cluster victim = 1.0
               end
          in
          apply_events sup events;
          let final_consistent = Cluster.check_consistency cluster ~k:8 in
          let final_replays =
            List.for_all (replay_matches cluster buffers) (List.init shards Fun.id)
          in
          conserved && evacuated && consistent && replays && ramped && final_consistent
          && final_replays)
        (List.concat_map (fun shards -> List.map (fun d -> (shards, d)) executors) [ 2; 8 ]))

(* ----- state machine units ----- *)

let config ?(suspect_after = 1) ?(down_after = 3) ?(op_deadline = 1.0)
    ?(evac_budget = max_int) ?(recovery_steps = 4) () =
  { Supervisor.suspect_after; down_after; op_deadline; evac_budget; recovery_steps }

let test_probe_streaks () =
  over_executors ~m:8 ~shards:2 @@ fun cluster _ ->
  let alive = [| true; true |] in
  let sup = Supervisor.create ~config:(config ()) ~probe:(fun i -> alive.(i)) cluster in
  for i = 0 to 19 do
    ignore (ok (Supervisor.add_job sup ~id:(Printf.sprintf "j%d" i) ~size:(1 + (i mod 7))))
  done;
  check health_eq "starts healthy" Supervisor.Healthy (Supervisor.health sup 1);
  alive.(1) <- false;
  ignore (Supervisor.tick sup);
  check health_eq "one failure -> suspect" Supervisor.Suspect (Supervisor.health sup 1);
  (* A success before the down threshold heals the streak. *)
  alive.(1) <- true;
  ignore (Supervisor.tick sup);
  check health_eq "success heals suspect" Supervisor.Healthy (Supervisor.health sup 1);
  alive.(1) <- false;
  ignore (Supervisor.tick sup);
  ignore (Supervisor.tick sup);
  check health_eq "two failures -> still suspect" Supervisor.Suspect (Supervisor.health sup 1);
  let jobs_on_1 = jobs_on cluster 1 in
  ignore (Supervisor.tick sup);
  check health_eq "third failure -> down" Supervisor.Down (Supervisor.health sup 1);
  check_bool "weight dropped" true (Cluster.weight cluster 1 = 0.0);
  check_int "victim drained" 0 (jobs_on cluster 1);
  check_int "survivor absorbed the jobs" 20 (jobs_on cluster 0);
  let h = Supervisor.stats sup in
  check_int "one evacuation" 1 h.Supervisor.evacuations;
  check_int "evacuated jobs counted" jobs_on_1 h.Supervisor.evacuated_jobs;
  (* A live probe alone does not resurrect a Down shard: it needs readmit. *)
  alive.(1) <- true;
  ignore (Supervisor.tick sup);
  check health_eq "down stays down without readmit" Supervisor.Down (Supervisor.health sup 1);
  check_bool "cluster still consistent" true (Cluster.check_consistency cluster ~k:8)

let test_watchdog_deadline () =
  over_executors ~m:8 ~shards:2 @@ fun cluster _ ->
  (* Every clock read advances 0.8s: each timed op sees dt = 0.8 under a
     1.0s deadline (no trip) — until the deadline is tightened. *)
  let now = ref 0.0 in
  let clock () =
    now := !now +. 0.8;
    !now
  in
  let sup =
    Supervisor.create ~config:(config ~op_deadline:1.0 ~down_after:2 ()) ~clock cluster
  in
  ignore (ok (Supervisor.add_job sup ~id:"a" ~size:5));
  check_int "no trip under the deadline" 0 (Supervisor.stats sup).Supervisor.watchdog_trips;
  (* With down_after = 1 a single blown deadline downs the serving
     shard, whichever one the ring picked. *)
  let tight =
    Supervisor.create ~config:(config ~op_deadline:0.5 ~down_after:1 ()) ~clock cluster
  in
  (match Supervisor.add_job tight ~id:"b" ~size:5 with
  | Ok (_, _) -> ()
  | Error e -> Alcotest.failf "add under watchdog: %s" e);
  let h = Supervisor.stats tight in
  check_int "blown deadline counted" 1 h.Supervisor.watchdog_trips;
  check_int "the slow shard went down" 1 h.Supervisor.down;
  check_bool "evacuation ran" true (h.Supervisor.evacuations >= 1);
  check_bool "cluster consistent after watchdog evacuation" true
    (Cluster.check_consistency cluster ~k:8)

let test_recovery_ramp () =
  over_executors ~m:8 ~shards:2 @@ fun cluster buffers ->
  let alive = [| true; true |] in
  let sup =
    Supervisor.create
      ~config:(config ~down_after:1 ~recovery_steps:4 ())
      ~probe:(fun i -> alive.(i))
      cluster
  in
  for i = 0 to 15 do
    ignore (ok (Supervisor.add_job sup ~id:(Printf.sprintf "j%d" i) ~size:(1 + i)))
  done;
  alive.(0) <- false;
  ignore (Supervisor.tick sup);
  check health_eq "down" Supervisor.Down (Supervisor.health sup 0);
  alive.(0) <- true;
  ok (Supervisor.readmit sup 0 (restore buffers 0));
  check health_eq "readmitted -> recovering" Supervisor.Recovering (Supervisor.health sup 0);
  check_bool "re-enters at weight 0" true (Cluster.weight cluster 0 = 0.0);
  let expected = [ 0.25; 0.5; 0.75; 1.0 ] in
  List.iteri
    (fun step w ->
      ignore (Supervisor.tick sup);
      check (Alcotest.float 1e-9) (Printf.sprintf "ramp step %d" (step + 1)) w
        (Cluster.weight cluster 0))
    expected;
  check health_eq "full ramp -> healthy" Supervisor.Healthy (Supervisor.health sup 0);
  (* A failure mid-ramp sends the shard straight back down. *)
  alive.(1) <- false;
  ignore (Supervisor.tick sup);
  alive.(1) <- true;
  ok (Supervisor.readmit sup 1 (restore buffers 1));
  ignore (Supervisor.tick sup);
  check health_eq "ramping" Supervisor.Recovering (Supervisor.health sup 1);
  alive.(1) <- false;
  ignore (Supervisor.tick sup);
  check health_eq "failure mid-ramp -> down again" Supervisor.Down (Supervisor.health sup 1);
  check_bool "weight back to 0" true (Cluster.weight cluster 1 = 0.0)

let test_degraded_mode () =
  over_executors ~m:8 ~shards:2 @@ fun cluster _ ->
  let sup = Supervisor.create ~config:(config ~evac_budget:3 ()) cluster in
  for i = 0 to 19 do
    ignore (ok (Supervisor.add_job sup ~id:(Printf.sprintf "j%d" i) ~size:(1 + (i mod 7))))
  done;
  let victim_jobs = jobs_on cluster 0 in
  Alcotest.(check bool) "victim holds more than the budget" true (victim_jobs > 3);
  ignore (Supervisor.mark_down sup 0);
  let h = Supervisor.stats sup in
  check_int "budget honoured" 3 h.Supervisor.evacuated_jobs;
  check_int "rest stranded" (victim_jobs - 3) h.Supervisor.stranded_jobs;
  check_int "stranded jobs stay on the dead engine" (victim_jobs - 3) (jobs_on cluster 0);
  (* Ops on a stranded job are refused, not routed into the corpse. *)
  let stranded_id =
    Cluster.query cluster 0 (fun e ->
        Engine.fold_jobs e (fun _ ~id ~size:_ ~proc:_ -> Some id) None)
    |> Option.get
  in
  (match Supervisor.remove_job sup ~id:stranded_id with
  | Ok _ -> Alcotest.fail "remove of a stranded job must be rejected"
  | Error e -> check_bool ("names the shard: " ^ e) true (String.length e > 0));
  (match Supervisor.resize_job sup ~id:stranded_id ~size:9 with
  | Ok _ -> Alcotest.fail "resize of a stranded job must be rejected"
  | Error _ -> ());
  check_int "rejections counted" 2 (Supervisor.stats sup).Supervisor.degraded_rejections;
  (* New placements keep working and never land on the dead shard. *)
  for i = 100 to 199 do
    let id = Printf.sprintf "n%d" i in
    ignore (ok (Supervisor.add_job sup ~id ~size:3));
    check_int ("new job routed to the survivor: " ^ id) 1
      (Option.get (Cluster.shard_of cluster id))
  done;
  check_bool "still consistent in degraded mode" true (Cluster.check_consistency cluster ~k:8)

let test_readmit_validation () =
  over_executors ~m:8 ~shards:2 @@ fun cluster _ ->
  let sup = Supervisor.create cluster in
  let fresh m () = Ok (Engine.create ~m ()) in
  (match Supervisor.readmit sup 0 (fresh 4) with
  | Ok () -> Alcotest.fail "readmit of a healthy shard must fail"
  | Error e -> check_bool ("says not down: " ^ e) true (String.length e > 0));
  ignore (ok (Supervisor.add_job sup ~id:"x" ~size:5));
  ignore (Supervisor.mark_down sup 0);
  (* Wrong processor count and phantom jobs are both rejected. *)
  (match Supervisor.readmit sup 0 (fresh 3) with
  | Ok () -> Alcotest.fail "wrong processor count accepted"
  | Error _ -> ());
  let phantom = Engine.create ~m:4 () in
  ignore (Engine.add_job phantom ~id:"ghost" ~size:2);
  (match Supervisor.readmit sup 0 (fun () -> Ok phantom) with
  | Ok () -> Alcotest.fail "engine with phantom jobs accepted"
  | Error _ -> ());
  (match Supervisor.readmit sup 0 (fun () -> Error "journal unreadable") with
  | Ok () -> Alcotest.fail "a failed restore readmitted"
  | Error e -> check Alcotest.string "the builder's error passes through" "journal unreadable" e);
  (* The builder runs under the shard owner's private registry, so the
     new engine's metric handles land where only its executor writes. *)
  let in_owner_registry = ref false in
  ok
    (Supervisor.readmit sup 0 (fun () ->
         in_owner_registry := Metrics.Registry.current () != Metrics.Registry.default;
         fresh 4 ()));
  check_bool "built under the owner's registry" true !in_owner_registry;
  check health_eq "clean engine readmits" Supervisor.Recovering (Supervisor.health sup 0)

let test_all_down_refuses () =
  over_executors ~m:8 ~shards:2 @@ fun cluster _ ->
  let sup = Supervisor.create cluster in
  ignore (ok (Supervisor.add_job sup ~id:"x" ~size:5));
  ignore (Supervisor.mark_down sup 0);
  ignore (Supervisor.mark_down sup 1);
  check_int "nothing serving" 0 (Supervisor.serving_shards sup);
  (match Supervisor.add_job sup ~id:"y" ~size:1 with
  | Ok _ -> Alcotest.fail "add with no serving shards must fail"
  | Error e -> check_bool ("refuses: " ^ e) true (String.length e > 0));
  (* The last evacuation had no survivors: the job stays stranded. *)
  check_int "job survived as stranded" 1 (Cluster.job_count cluster);
  check_bool "stranded on a dead shard" true
    ((Supervisor.stats sup).Supervisor.stranded_jobs >= 1)

(* ----- the supervised protocol at both domain counts ----- *)

(* A supervised session in three segments — load, then shard 1 marked
   down and evacuated, then shard 1 readmitted from its own journal and
   ramped — answers the same lines whatever the hosting-domain count,
   driven from a spawned thread as the daemon's sessions are. The
   banner is compared without the [domains=] field hosting domains
   add. *)
let session cluster buffers =
  let sup = Supervisor.create cluster in
  let t = Protocol.Supervised sup in
  let banner () =
    String.split_on_char ' ' (Protocol.greeting t)
    |> List.filter (fun w -> not (String.starts_with ~prefix:"domains=" w))
    |> String.concat " "
  in
  let run lines = fst (Protocol.handle_lines t lines) in
  let move_lines =
    List.map (fun (mv : Supervisor.move) -> Printf.sprintf "MOVE %s %d %d" mv.id mv.src mv.dst)
  in
  let load =
    run
      (List.init 30 (fun i -> Printf.sprintf "ADD j%d %d" i (1 + (i * 7 mod 23)))
      @ [ "REMOVE j3"; "REBALANCE 4"; "HEALTH"; "SHARDS"; "STATS" ])
  in
  let evacuation = move_lines (Supervisor.mark_down sup 1) in
  let degraded =
    run [ "HEALTH"; "ADD k1 9"; "ADD k2 30"; "REMOVE j5"; "RESIZE j7 11"; "REBALANCE"; "SHARDS"; "STATS" ]
  in
  ok (Supervisor.readmit sup 1 (restore buffers 1));
  let ramp = List.concat_map (fun _ -> move_lines (Supervisor.tick sup)) [ 1; 2 ] in
  let recovered =
    run [ "ADD k3 14"; "ADD k4 2"; "REBALANCE 8"; "HEALTH"; "SHARDS"; "STATS" ]
  in
  (banner () :: load) @ evacuation @ degraded @ ramp @ recovered @ [ banner () ]

let supervised_transcript domains =
  let cluster, buffers = journaled_cluster ~domains ~m:8 ~shards:4 in
  Fun.protect ~finally:(fun () -> Cluster.shutdown cluster) @@ fun () ->
  let transcript = ref [] in
  Cluster.spawn cluster (fun () -> transcript := session cluster buffers) ();
  !transcript

let test_transcript_executor_independent () =
  let inline = supervised_transcript 0 in
  check_bool "the evacuation moved jobs" true
    (List.exists (String.starts_with ~prefix:"MOVE ") inline);
  check_bool "a shard was reported down" true
    (List.exists (String.starts_with ~prefix:"HEALTH 1 down") inline);
  check Alcotest.(list string) "D=0 and D=2 transcripts" inline (supervised_transcript 2)

let () =
  Alcotest.run "rebal_supervisor"
    [
      ( "failover property",
        [ QCheck_alcotest.to_alcotest prop_failover_conserves_work ] );
      ( "state machine",
        [
          Alcotest.test_case "probe streaks drive the transitions" `Quick test_probe_streaks;
          Alcotest.test_case "watchdog deadline counts as failure" `Quick
            test_watchdog_deadline;
          Alcotest.test_case "recovery ramps the weight back" `Quick test_recovery_ramp;
        ] );
      ( "degraded mode",
        [
          Alcotest.test_case "budgeted evacuation strands loudly" `Quick test_degraded_mode;
          Alcotest.test_case "readmission validation" `Quick test_readmit_validation;
          Alcotest.test_case "all shards down refuses service" `Quick test_all_down_refuses;
        ] );
      ( "executors",
        [
          Alcotest.test_case "supervised transcript: D=0 = D=2" `Quick
            test_transcript_executor_independent;
        ] );
    ]
