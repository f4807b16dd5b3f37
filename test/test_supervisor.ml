(* Supervisor tests, each run with 0 and 2 session domains: the health
   state machine (probe streaks, watchdog deadlines, recovery ramp),
   degraded mode, the qcheck failover property — for S ∈ {2, 8},
   evacuating a shard under an adversarial stream conserves every job,
   keeps the directory consistent, leaves every journal (evacuated
   shard included) replaying to the live state, and the evacuated shard
   restores from its own journal and readmits — a supervised
   protocol transcript that must not depend on the domain count, and
   the batched path: pipelined sessions answer, journal and count as
   one-by-one ones do, and the watchdog gives a shard's share of a
   batch [n * op_deadline]; and supervision without a lock: workers
   and a control thread failing, ticking and readmitting shards drive
   one cluster concurrently, audited against a shadow and the
   journals. *)

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

(* The session-domain counts every case runs over. *)
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

(* Run [f] over a fresh journaled cluster at each session-domain count,
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
       (Journal.load_string (Buffer.contents buffers.(i)))
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
      | `Add (id, size) -> ignore (Cluster.apply sup (Engine.Add { id; size }))
      | `Remove id -> ignore (Cluster.apply sup (Engine.Remove { id }))
      | `Resize (id, size) -> ignore (Cluster.apply sup (Engine.Resize { id; size }))
      | `Rebalance k -> ignore (Cluster.rebalance sup ~k))
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
    ignore (ok (Cluster.apply sup (Engine.Add { id = Printf.sprintf "j%d" i; size = 1 + (i mod 7) })))
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
  ignore (ok (Cluster.apply sup (Engine.Add { id = "a"; size = 5 })));
  check_int "no trip under the deadline" 0 (Supervisor.stats sup).Supervisor.watchdog_trips;
  (* With down_after = 1 a single blown deadline downs the serving
     shard, whichever one the ring picked — on a second cluster, since a
     cluster carries one policy. *)
  let fresh = Cluster.create ~m:8 ~shards:2 ~domains:(Cluster.domain_count cluster) () in
  Fun.protect ~finally:(fun () -> Cluster.shutdown fresh) @@ fun () ->
  let tight =
    Supervisor.create ~config:(config ~op_deadline:0.5 ~down_after:1 ()) ~clock fresh
  in
  (match Cluster.apply tight (Engine.Add { id = "b"; size = 5 }) with
  | Ok (_, _) -> ()
  | Error e -> Alcotest.failf "add under watchdog: %s" e);
  let h = Supervisor.stats tight in
  check_int "blown deadline counted" 1 h.Supervisor.watchdog_trips;
  check_int "the slow shard went down" 1 h.Supervisor.down;
  check_bool "evacuation ran" true (h.Supervisor.evacuations >= 1);
  check_bool "cluster consistent after watchdog evacuation" true
    (Cluster.check_consistency fresh ~k:8)

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
    ignore (ok (Cluster.apply sup (Engine.Add { id = Printf.sprintf "j%d" i; size = 1 + i })))
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
    ignore (ok (Cluster.apply sup (Engine.Add { id = Printf.sprintf "j%d" i; size = 1 + (i mod 7) })))
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
  (match Cluster.apply sup (Engine.Remove { id = stranded_id }) with
  | Ok _ -> Alcotest.fail "remove of a stranded job must be rejected"
  | Error e -> check_bool ("names the shard: " ^ e) true (String.length e > 0));
  (match Cluster.apply sup (Engine.Resize { id = stranded_id; size = 9 }) with
  | Ok _ -> Alcotest.fail "resize of a stranded job must be rejected"
  | Error _ -> ());
  check_int "rejections counted" 2 (Supervisor.stats sup).Supervisor.degraded_rejections;
  (* New placements keep working and never land on the dead shard. *)
  for i = 100 to 199 do
    let id = Printf.sprintf "n%d" i in
    ignore (ok (Cluster.apply sup (Engine.Add { id; size = 3 })));
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
  ignore (ok (Cluster.apply sup (Engine.Add { id = "x"; size = 5 })));
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
  ignore (ok (Cluster.apply sup (Engine.Add { id = "x"; size = 5 })));
  ignore (Supervisor.mark_down sup 0);
  ignore (Supervisor.mark_down sup 1);
  check_int "nothing serving" 0 (Supervisor.serving_shards sup);
  (match Cluster.apply sup (Engine.Add { id = "y"; size = 1 }) with
  | Ok _ -> Alcotest.fail "add with no serving shards must fail"
  | Error e -> check_bool ("refuses: " ^ e) true (String.length e > 0));
  (* The last evacuation had no survivors: the job stays stranded. *)
  check_int "job survived as stranded" 1 (Cluster.job_count cluster);
  check_bool "stranded on a dead shard" true
    ((Supervisor.stats sup).Supervisor.stranded_jobs >= 1)

(* Both shards Down, then shard 1 readmitted at ramp 0: a shard serves,
   so the guard admits, but no shard is routable — every add is refused
   and counted, none lands on the Down shard. The first tick ramps
   shard 1 up, and then every add lands there. *)
let test_ramp_zero_routes_nowhere () =
  over_executors ~m:8 ~shards:2 @@ fun cluster _ ->
  let sup = Supervisor.create cluster in
  ignore (Supervisor.mark_down sup 0);
  ignore (Supervisor.mark_down sup 1);
  ok (Supervisor.readmit sup 1 (fun () -> Ok (Engine.create ~m:4 ())));
  check_int "the readmitted shard serves" 1 (Supervisor.serving_shards sup);
  let ids prefix = List.init 20 (Printf.sprintf "%s%d" prefix) in
  List.iter
    (fun id ->
      check Alcotest.(result unit string) (id ^ " refused") (Error "no routable shards")
        (Result.map ignore (Cluster.apply sup (Engine.Add { id; size = 3 }))))
    (ids "n");
  check_int "nothing placed" 0 (Cluster.job_count cluster);
  check_int "nothing on the Down shard" 0 (jobs_on cluster 0);
  check_int "each refusal counted" 20 (Supervisor.stats sup).Supervisor.degraded_rejections;
  ignore (Supervisor.tick sup);
  List.iter
    (fun id ->
      ignore (ok (Cluster.apply sup (Engine.Add { id; size = 3 })));
      check Alcotest.(option int) (id ^ " lands on the ramping shard") (Some 1)
        (Cluster.shard_of cluster id))
    (ids "r");
  check_int "still nothing on the Down shard" 0 (jobs_on cluster 0)

(* ----- the supervised protocol at both domain counts ----- *)

(* A supervised session in three segments — load, then shard 1 marked
   down and evacuated, then shard 1 readmitted from its own journal and
   ramped — answers the same lines whatever the session-domain count,
   driven from a session domain's thread as the daemon's sessions are.
   The banner is compared without the [domains=] field session domains
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
    List.map (fun (mv : Cluster.move) -> Printf.sprintf "MOVE %s %d %d" mv.id mv.src mv.dst)
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
  On_domains.call cluster (fun () -> session cluster buffers)

let test_transcript_executor_independent () =
  let inline = supervised_transcript 0 in
  check_bool "the evacuation moved jobs" true
    (List.exists (String.starts_with ~prefix:"MOVE ") inline);
  check_bool "a shard was reported down" true
    (List.exists (String.starts_with ~prefix:"HEALTH 1 down") inline);
  check Alcotest.(list string) "D=0 and D=2 transcripts" inline (supervised_transcript 2)

(* ----- batches: pipelined ≡ one-by-one ----- *)

(* A supervised session over a fresh journaled cluster whose journal
   clock is constant, so the per-shard journal bytes of two runs are
   comparable, and whose watchdog clock never advances (no trips). *)
let constant_journal_cluster ?trigger ~domains ~m ~shards () =
  let buffers = Array.init shards (fun _ -> Buffer.create 1024) in
  let cluster =
    Cluster.create ?trigger
      ~journal_for:(fun i ->
        Some (Journal.create ~clock_ns:(fun () -> 0) ~write:(Buffer.add_string buffers.(i)) ()))
      ~m ~shards ~domains ()
  in
  (cluster, buffers)

(* Batched replies report [makespan=] as of the end of the op's chunk, so
   the comparison drops that field. *)
let strip_makespan line =
  String.split_on_char ' ' line
  |> List.filter (fun w -> not (String.starts_with ~prefix:"makespan=" w))
  |> String.concat " "

let script_gen =
  let open QCheck2 in
  Gen.(
    let id = map (Printf.sprintf "j%d") (int_range 0 24) in
    let line =
      frequency
        [
          (4, map2 (Printf.sprintf "ADD %s %d") id (int_range 1 60));
          (2, map (Printf.sprintf "REMOVE %s") id);
          (2, map2 (Printf.sprintf "RESIZE %s %d") id (int_range 1 60));
          (1, map (Printf.sprintf "REBALANCE %d") (int_range 0 4));
          (1, pure "STATS");
        ]
    in
    let segments = list_size (int_range 1 3) (list_size (int_range 1 40) line) in
    let* trigger =
      oneofl [ Engine.Manual; Engine.Every_events { events = 7; k = 2 } ]
    in
    let* before = segments in
    let* victim = int_range 0 1 in
    let* budget = int_range 0 3 in
    let* after = segments in
    return (trigger, before, victim, budget, after))

(* Load, mark [victim] down with an evacuation budget that may strand
   jobs, keep serving. [run t lines] answers one segment. *)
let scripted_session ~domains (trigger, before, victim, budget, after) run =
  let cluster, buffers = constant_journal_cluster ~trigger ~domains ~m:8 ~shards:2 () in
  Fun.protect ~finally:(fun () -> Cluster.shutdown cluster) @@ fun () ->
  let sup =
    Supervisor.create ~config:(config ~evac_budget:budget ()) ~clock:(fun () -> 0.0) cluster
  in
  let t = Protocol.Supervised sup in
  let replies = List.concat_map (run t) before in
  let evacuation = Supervisor.mark_down sup victim in
  let replies = replies @ List.concat_map (run t) after in
  ( List.map strip_makespan replies,
    evacuation,
    Array.map Buffer.contents buffers,
    Supervisor.stats sup,
    List.init 2 (Supervisor.health sup) )

let prop_pipelined_matches_one_by_one =
  QCheck2.Test.make
    ~name:"supervised pipelined = one-by-one (replies, journals, stats) at D in {0,2}"
    ~count:100 script_gen
    (fun script ->
      List.for_all
        (fun domains ->
          let pipelined = scripted_session ~domains script (fun t ls -> fst (Protocol.handle_lines t ls)) in
          let one_by_one =
            scripted_session ~domains script (fun t ls ->
                List.concat_map (fun l -> fst (Protocol.handle_line t l)) ls)
          in
          pipelined = one_by_one)
        executors)

(* Stranded ids inside a batch are refused in line order, the rest of
   the batch is applied, and each refusal counts. *)
let test_batch_rejects_in_line_order () =
  over_executors ~m:8 ~shards:2 @@ fun cluster _ ->
  let sup = Supervisor.create ~config:(config ~evac_budget:2 ()) cluster in
  let t = Protocol.Supervised sup in
  ignore (Protocol.handle_lines t (List.init 20 (fun i -> Printf.sprintf "ADD j%d %d" i (1 + (i mod 7)))));
  ignore (Supervisor.mark_down sup 0);
  let stranded =
    Cluster.query cluster 0 (fun e -> Engine.fold_jobs e (fun acc ~id ~size:_ ~proc:_ -> id :: acc) [])
    |> List.sort compare
  in
  let a, b = match stranded with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "need 2 stranded jobs" in
  let replies, _ =
    Protocol.handle_lines t
      [ "ADD n1 4"; "RESIZE " ^ a ^ " 9"; "ADD n2 5"; "REMOVE " ^ b; "ADD n3 6" ]
  in
  check
    Alcotest.(list string)
    "refusals in line order"
    [
      "PLACED n1";
      Printf.sprintf "ERR job %s is stranded on down shard 0" a;
      "PLACED n2";
      Printf.sprintf "ERR job %s is stranded on down shard 0" b;
      "PLACED n3";
    ]
    (List.map
       (fun l ->
         if String.starts_with ~prefix:"PLACED" l then
           String.concat " " (List.filteri (fun i _ -> i < 2) (String.split_on_char ' ' l))
         else l)
       replies);
  check_int "each refusal counted" 2 (Supervisor.stats sup).Supervisor.degraded_rejections;
  check_int "admitted ops applied" 3
    (List.length (List.filter (fun id -> Cluster.mem cluster id) [ "n1"; "n2"; "n3" ]))

(* ----- the per-batch watchdog on a fake clock ----- *)

(* A supervisor whose clock advances [!step] seconds per read: a
   sub-batch task, timed by two reads, takes exactly [!step]. Loads
   20 jobs with the clock still, and returns the ids on each shard. *)
let stepped ?(down_after = 3) cluster =
  let step = ref 0.0 and now = ref 0.0 in
  let clock () =
    now := !now +. !step;
    !now
  in
  let sup = Supervisor.create ~config:(config ~op_deadline:1.0 ~down_after ()) ~clock cluster in
  for i = 0 to 19 do
    ignore (ok (Cluster.apply sup (Engine.Add { id = Printf.sprintf "j%d" i; size = 1 + (i mod 7) })))
  done;
  let on s =
    List.filter
      (fun id -> Cluster.shard_of cluster id = Some s)
      (List.init 20 (Printf.sprintf "j%d"))
  in
  (sup, step, on)

let resizes ids = Array.of_list (List.map (fun id -> Engine.Resize { id; size = 3 }) ids)
let trips sup = (Supervisor.stats sup).Supervisor.watchdog_trips

let take n xs = List.filteri (fun i _ -> i < n) xs

let test_batch_deadline_scales () =
  over_executors ~m:8 ~shards:2 @@ fun cluster _ ->
  let sup, step, on = stepped cluster in
  let batch = take 3 (on 1) in
  check_int "three jobs on shard 1" 3 (List.length batch);
  (* 3 ops get 3 s together: 2.99 s would blow a per-op deadline, not this one. *)
  step := 2.99;
  Cluster.apply_bulk sup (resizes batch);
  check_int "just under 3 x op_deadline: no trip" 0 (trips sup);
  step := 3.01;
  Cluster.apply_bulk sup (resizes batch);
  check_int "just over: one trip" 1 (trips sup);
  check health_eq "charged to shard 1" Supervisor.Suspect (Supervisor.health sup 1);
  check health_eq "shard 0 untouched" Supervisor.Healthy (Supervisor.health sup 0);
  (* A batch touching both shards: each shard's share has its own
     deadline, so a 3 s task trips shard 1 (2 ops) but not shard 0 (4). *)
  step := 3.0;
  Cluster.apply_bulk sup (resizes (take 4 (on 0) @ take 2 (on 1)));
  check_int "only the short share trips" 2 (trips sup);
  check health_eq "shard 0 still healthy" Supervisor.Healthy (Supervisor.health sup 0)

let test_batch_watchdog_evacuates_into_reply () =
  over_executors ~m:8 ~shards:2 @@ fun cluster _ ->
  let sup, step, on = stepped ~down_after:1 cluster in
  let t = Protocol.Supervised sup in
  let on1 = on 1 in
  step := 10.0;
  let replies, _ =
    Protocol.handle_lines t (List.map (fun id -> Printf.sprintf "RESIZE %s 4" id) (take 2 on1))
  in
  check_int "one trip" 1 (trips sup);
  check health_eq "shard 1 down" Supervisor.Down (Supervisor.health sup 1);
  let moves = List.filter (String.starts_with ~prefix:"MOVE ") replies in
  check_int "every evacuated job has its MOVE line" (List.length on1) (List.length moves);
  (match replies with
  | first :: second :: rest ->
    check_bool "both ops acknowledged first" true
      (String.starts_with ~prefix:"RESIZED" first
      && String.starts_with ~prefix:"RESIZED" second);
    check_bool "evacuation rides on the last ack" true
      (List.for_all (String.starts_with ~prefix:"MOVE ") (take (List.length moves) rest));
    check_bool "closed by the auto line" true
      (List.exists
         (String.starts_with ~prefix:(Printf.sprintf "REBALANCED auto moves=%d" (List.length moves)))
         rest)
  | _ -> Alcotest.fail "short reply");
  check_int "nothing left on shard 1" 0 (jobs_on cluster 1);
  check_bool "consistent after the batch evacuation" true (Cluster.check_consistency cluster ~k:8)

(* A one-by-one remove has no id left in the directory once it ran:
   its blown deadline is charged to the shard whose task served it. *)
let test_remove_watchdog_attribution () =
  over_executors ~m:8 ~shards:2 @@ fun cluster _ ->
  let sup, step, on = stepped cluster in
  step := 2.0;
  ignore (ok (Cluster.apply sup (Engine.Remove { id = List.hd (on 1) })));
  check_int "one trip" 1 (trips sup);
  check health_eq "charged to shard 1" Supervisor.Suspect (Supervisor.health sup 1);
  check health_eq "shard 0 untouched" Supervisor.Healthy (Supervisor.health sup 0)

(* ----- supervision without a lock ----- *)

(* Shard [i]'s evacuation events, audited against the job set its own
   journal builds: from a Down transition on, no op or foreign transfer
   touches the shard, so the [jobs] job-set changes right before the
   event are the evacuation's removes, the shard held [jobs + leftover]
   before them, and the [leftover] jobs are its residents at the event.
   Returns the number of events, or what went wrong. *)
let audit_evacuations journal =
  let _, events = ok (Journal.load_string journal) in
  let live = Hashtbl.create 64 in
  (* Newest first: (whether the change was a remove, residents before it). *)
  let changes = ref [] in
  let change ev ~remove =
    let id = ok (Journal.str_field ev "id") in
    changes := (remove, Hashtbl.length live) :: !changes;
    if remove then Hashtbl.remove live id else Hashtbl.replace live id ()
  in
  List.fold_left
    (fun acc (ev : Journal.event) ->
      match (acc, ev.kind) with
      | Error _, _ -> acc
      | Ok _, "add" -> change ev ~remove:false; acc
      | Ok _, "remove" -> change ev ~remove:true; acc
      | Ok n, "evacuation" ->
        let jobs = ok (Journal.int_field ev "jobs")
        and left = ok (Journal.int_field ev "leftover") in
        let evacuation = take jobs !changes in
        let held =
          match List.rev evacuation with (_, before) :: _ -> before | [] -> Hashtbl.length live
        in
        if List.length evacuation <> jobs || not (List.for_all fst evacuation) then
          Error (Printf.sprintf "event %d: its %d removes are not the last changes" ev.seq jobs)
        else if held <> jobs + left then
          Error (Printf.sprintf "event %d: held %d, jobs + leftover = %d" ev.seq held (jobs + left))
        else if Hashtbl.length live <> left then
          Error
            (Printf.sprintf "event %d: %d residents, leftover %d" ev.seq (Hashtbl.length live) left)
        else Ok (n + 1)
      | Ok _, _ -> acc)
    (Ok 0) events

(* Three workers run random ADD/REMOVE/RESIZE batches, single ops and
   REBALANCE over 40 shared ids, on the cluster's session domains, while
   a control thread fails, marks down, ticks and readmits shards 1..3
   (shard 0 always serves). The audit: the job set is the shadow of
   the acknowledged ops, the directory agrees with the engines, every
   journal replays to its live engine, the health census sums to S,
   and each Down transition wrote exactly one evacuation event that
   accounts for what its shard held. *)
let test_concurrent_supervision domains () =
  let shards = 4 and ids = 40 and workers = 3 in
  let cluster, buffers = journaled_cluster ~domains ~m:16 ~shards in
  Fun.protect ~finally:(fun () -> Cluster.shutdown cluster) @@ fun () ->
  let alive = Array.make shards true in
  let sup =
    Supervisor.create
      ~config:(config ~down_after:2 ~evac_budget:4 ())
      ~probe:(fun i -> alive.(i))
      ~clock:(fun () -> 0.0)
      cluster
  in
  let adds = Array.make ids 0 and removes = Array.make ids 0 and sizes = Array.make ids [] in
  let mu = Mutex.create () in
  let acknowledged op r =
    match (op, r) with
    | _, Error _ -> ()
    | op, Ok _ ->
      Mutex.protect mu (fun () ->
          let id = Engine.op_id op in
          let i = int_of_string (String.sub id 1 (String.length id - 1)) in
          match op with
          | Engine.Add { size; _ } ->
            adds.(i) <- adds.(i) + 1;
            sizes.(i) <- size :: sizes.(i)
          | Engine.Remove _ -> removes.(i) <- removes.(i) + 1
          | Engine.Resize { size; _ } -> sizes.(i) <- size :: sizes.(i))
  in
  let finished = Atomic.make 0 and controlled = Atomic.make false in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let worker w () =
    let rng = Random.State.make [| 27; w |] in
    let op () =
      let id = "x" ^ string_of_int (Random.State.int rng ids) in
      match Random.State.int rng 3 with
      | 0 -> Engine.Add { id; size = 1 + Random.State.int rng 30 }
      | 1 -> Engine.Remove { id }
      | _ -> Engine.Resize { id; size = 1 + Random.State.int rng 30 }
    in
    let rounds = ref 0 in
    while (not (Atomic.get controlled)) && !rounds < 50_000 && Unix.gettimeofday () < deadline do
      (match Random.State.int rng 8 with
      | 0 -> ignore (Cluster.rebalance cluster ~k:(Random.State.int rng 4))
      | 1 | 2 ->
        let o = op () in
        acknowledged o (Cluster.apply cluster o)
      | _ ->
        Cluster.apply_bulk cluster
          ~on_result:(fun _ o r -> acknowledged o r)
          (Array.init (1 + Random.State.int rng 12) (fun _ -> op ())));
      incr rounds
    done;
    Atomic.incr finished
  in
  (* Only the control thread changes health, so it sees every Down
     transition as the difference between two of its own reads. *)
  let downs = Array.make shards 0 in
  let control () =
    let rng = Random.State.make [| 28; domains |] in
    let rounds = ref 0 in
    while !rounds < 120 && Unix.gettimeofday () < deadline do
      let before = Array.init shards (Supervisor.health sup) in
      let i = 1 + Random.State.int rng (shards - 1) in
      (match Random.State.int rng 4 with
      | 0 -> ignore (Supervisor.fail sup i)
      | 1 -> ignore (Supervisor.mark_down sup i)
      | 2 ->
        alive.(i) <- Random.State.bool rng;
        ignore (Supervisor.tick sup)
      | _ ->
        if before.(i) = Supervisor.Down then
          ok (Supervisor.readmit sup i (restore buffers i)));
      Array.iteri
        (fun s h ->
          if h <> Supervisor.Down && Supervisor.health sup s = Supervisor.Down then
            downs.(s) <- downs.(s) + 1)
        before;
      incr rounds;
      Thread.delay 0.0005
    done;
    Atomic.set controlled true;
    Atomic.incr finished
  in
  let join = On_domains.start cluster (control :: List.init workers worker) in
  while Atomic.get finished < workers + 1 && Unix.gettimeofday () < deadline +. 10.0 do
    Thread.delay 0.01
  done;
  if Atomic.get finished < workers + 1 then
    Alcotest.fail "the workers and the control thread deadlocked";
  join ();
  for i = 0 to ids - 1 do
    let id = "x" ^ string_of_int i in
    let d = adds.(i) - removes.(i) in
    check_bool (id ^ ": adds and removes alternate") true (d = 0 || d = 1);
    check_bool (id ^ ": resident as the shadow says") (d = 1) (Cluster.mem cluster id);
    match Cluster.find cluster id with
    | None -> ()
    | Some (size, _) -> check_bool (id ^ ": size was set by an op") true (List.mem size sizes.(i))
  done;
  check_bool "directory and engines agree" true (Cluster.check_consistency cluster ~k:8);
  List.iter
    (fun i ->
      check_bool (Printf.sprintf "shard %d journal replays" i) true
        (replay_matches cluster buffers i))
    (List.init shards Fun.id);
  let h = Supervisor.stats sup in
  check_int "the census sums to S" shards (h.healthy + h.suspect + h.down + h.recovering);
  check_bool "some shard went down" true (h.evacuations > 0);
  check_bool "ops met the degraded-mode guard" true (h.degraded_rejections > 0);
  check_int "one evacuation per Down transition" (Array.fold_left ( + ) 0 downs) h.evacuations;
  Array.iteri
    (fun i journal ->
      match audit_evacuations journal with
      | Ok n -> check_int (Printf.sprintf "shard %d: one event per Down transition" i) downs.(i) n
      | Error e -> Alcotest.failf "shard %d: %s" i e)
    (Array.map Buffer.contents buffers)

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
          Alcotest.test_case "ramp 0 everywhere routes nowhere" `Quick
            test_ramp_zero_routes_nowhere;
        ] );
      ( "executors",
        [
          Alcotest.test_case "supervised transcript: D=0 = D=2" `Quick
            test_transcript_executor_independent;
        ] );
      ( "batches",
        [
          QCheck_alcotest.to_alcotest prop_pipelined_matches_one_by_one;
          Alcotest.test_case "stranded ids refused in line order" `Quick
            test_batch_rejects_in_line_order;
          Alcotest.test_case "deadline scales with the shard's share" `Quick
            test_batch_deadline_scales;
          Alcotest.test_case "watchdog evacuation rides on the reply" `Quick
            test_batch_watchdog_evacuates_into_reply;
          Alcotest.test_case "remove charged through its processor" `Quick
            test_remove_watchdog_attribution;
        ] );
      ( "concurrency",
        List.map
          (fun d ->
            Alcotest.test_case (Printf.sprintf "supervision without a lock, D=%d" d) `Quick
              (test_concurrent_supervision d))
          executors );
    ]
