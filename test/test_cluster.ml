(* Cluster executor tests: the qcheck equivalence properties (a command
   stream driven from a thread on one of D session domains must land in
   the same state as the same stream on the calling thread of a cluster
   with no session domain, for D ∈ {1, 2, 8}, with every per-shard
   journal byte-identical and individually replayable, and must draw
   identical protocol replies, one line at a time and pipelined),
   two-phase move crash points, genuinely concurrent drivers spread over
   the session domains checked for directory integrity and journal
   replay, shutdown at D ∈ {0, 2}, and the published-makespan contract
   (never waits on a lock holder, costs no shard task). *)

module Engine = Rebal_online.Engine
module Cluster = Rebal_online.Cluster
module Replay = Rebal_online.Replay
module Protocol = Rebal_online.Protocol
module Journal = Rebal_obs.Journal
module Metrics = Rebal_obs.Metrics

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected cluster error: %s" e

(* Deterministic in-memory journals, one per shard: each Buffer and
   fake clock is touched only by its shard's lock holder, which is
   exactly the confinement the cluster promises its sinks. *)
let buffer_journals shards =
  let bufs = Array.init shards (fun _ -> Buffer.create 512) in
  let journal_for i =
    let tick = ref 0 in
    Some
      (Journal.create
         ~clock_ns:(fun () ->
           incr tick;
           Int64.of_int (!tick * 1000))
         ~write:(Buffer.add_string bufs.(i))
         ())
  in
  (bufs, journal_for)

(* The same adversarial stream shape as the inline suite: m >= 8 so an
   8-shard split is constructible. *)
let stream_gen =
  let open QCheck2 in
  Gen.(
    let* m = int_range 8 16 in
    let id = map (fun i -> Printf.sprintf "j%d" i) (int_range 0 24) in
    let* events =
      list_size (int_range 0 60)
        (oneof
           [
             map2 (fun id size -> `Add (id, size)) id (int_range 1 60);
             map (fun id -> `Remove id) id;
             map2 (fun id size -> `Resize (id, size)) id (int_range 1 60);
             map (fun k -> `Rebalance k) (int_range 0 8);
           ])
    in
    let* k = int_range 0 20 in
    return (m, events, k))

let apply_to_cluster c events =
  List.iter
    (fun ev ->
      match ev with
      | `Add (id, size) -> ignore (Cluster.add_job c ~id ~size)
      | `Remove id -> ignore (Cluster.remove_job c ~id)
      | `Resize (id, size) -> ignore (Cluster.resize_job c ~id ~size)
      | `Rebalance k -> ignore (Cluster.rebalance c ~k))
    events

(* Every per-shard journal of a shut-down (or quiescent) cluster
   replays to the engine the cluster left behind. *)
let journals_replay c bufs =
  Array.for_all
    (fun i ->
      let eng = Cluster.engine c i in
      match Result.bind (Journal.load_string (Buffer.contents bufs.(i))) Replay.run with
      | Error _ -> false
      | Ok o ->
        o.Replay.consistency_ok
        && o.Replay.final_makespan = Engine.makespan eng
        && o.Replay.final_jobs = Engine.job_count eng)
    (Array.init (Cluster.shard_count c) Fun.id)

(* The tentpole property: a quiescent cluster is observationally the
   same whatever domain its caller runs on and however many session
   domains it has — same loads, same global peak, same directory, same
   repair decisions, byte-identical journals — and every per-shard
   journal replays to the engine the cluster left behind. *)
let prop_cluster_matches_shard =
  QCheck2.Test.make
    ~name:"cluster = sequential shard router (inline, D=0) for D in {1,2,8}, journals replayable"
    ~count:40 stream_gen
    (fun (m, events, k) ->
      let shards = 8 in
      let seq_bufs, seq_journal_for = buffer_journals shards in
      let seq = Cluster.create ~journal_for:seq_journal_for ~m ~shards () in
      apply_to_cluster seq events;
      let seq_moves = Cluster.rebalance seq ~k in
      journals_replay seq seq_bufs
      && List.for_all
           (fun domains ->
             let bufs, journal_for = buffer_journals shards in
             let c = Cluster.create ~journal_for ~m ~shards ~domains () in
             let par_moves =
               On_domains.call c (fun () ->
                   apply_to_cluster c events;
                   Cluster.rebalance c ~k)
             in
             (* Before the consistency checks below, which journal. *)
             let journals_equal =
               Array.for_all2 (fun a b -> Buffer.contents a = Buffer.contents b) bufs seq_bufs
             in
             let state_equal =
               Cluster.loads c = Cluster.loads seq
               && Cluster.makespan c = Cluster.makespan seq
               && Cluster.job_count c = Cluster.job_count seq
               && par_moves = seq_moves
               && Cluster.stats c = Cluster.stats seq
               && Cluster.shard_stats c = Cluster.shard_stats seq
               && List.for_all
                    (fun id -> Cluster.shard_of c id = Cluster.shard_of seq id)
                    (List.init 25 (Printf.sprintf "j%d"))
               && Cluster.check_consistency c ~k
               && Cluster.check_consistency c ~k:max_int
             in
             Cluster.shutdown c;
             state_equal && journals_equal && journals_replay c bufs)
           [ 1; 2; 8 ])

(* The reply stream a client sees — every acknowledgement's [makespan=]
   field included — is the one a cluster without session domains gives
   its calling thread, line for line, whether the script is sent one
   line at a time or pipelined (batched through [Cluster.apply_bulk]),
   when the session runs on a session domain. The READY banners differ
   only by the [domains=] field session domains add; they are compared
   with it dropped, before the script and after it (a loaded cluster's
   banner reports a non-trivial makespan). *)
let script_gen =
  let open QCheck2 in
  Gen.(
    let* m = int_range 8 16 in
    let id = map (Printf.sprintf "j%d") (int_range 0 24) in
    let* script =
      list_size (int_range 0 60)
        (oneof
           [
             map2 (Printf.sprintf "ADD %s %d") id (int_range 1 60);
             map (Printf.sprintf "REMOVE %s") id;
             map2 (Printf.sprintf "RESIZE %s %d") id (int_range 1 60);
             map (Printf.sprintf "REBALANCE %d") (int_range 0 8);
             return "STATS";
           ])
    in
    return (m, script))

let without_domains banner =
  String.split_on_char ' ' banner
  |> List.filter (fun w -> not (String.starts_with ~prefix:"domains=" w))
  |> String.concat " "

let transcript target script =
  let banner () = without_domains (Protocol.greeting target) in
  let first = banner () in
  let replies =
    List.concat (List.mapi (fun i l -> fst (Protocol.handle_line ~line:(i + 1) target l)) script)
  in
  (first :: replies) @ [ banner () ]

let pipelined target script = fst (Protocol.handle_lines target script)

let prop_protocol_replies_match =
  QCheck2.Test.make
    ~name:"Parallel protocol replies = sequential inline Cluster replies for D in {1,2,8}"
    ~count:40
    ~print:QCheck2.Print.(pair int (list string))
    script_gen
    (fun (m, script) ->
      let shards = 8 in
      let expected = transcript (Protocol.Cluster (Cluster.create ~m ~shards ())) script in
      let expected_piped = pipelined (Protocol.Cluster (Cluster.create ~m ~shards ())) script in
      List.for_all
        (fun domains ->
          let c = Cluster.create ~m ~shards ~domains () in
          let got = On_domains.call c (fun () -> transcript (Protocol.Parallel c) script) in
          Cluster.shutdown c;
          let c = Cluster.create ~m ~shards ~domains () in
          let got_piped = On_domains.call c (fun () -> pipelined (Protocol.Parallel c) script) in
          Cluster.shutdown c;
          got = expected && got_piped = expected_piped)
        [ 1; 2; 8 ])

(* --- two-phase moves ----------------------------------------------------- *)

(* Two single-processor shards so residency is unambiguous. *)
let two_shard_cluster () =
  let bufs, journal_for = buffer_journals 2 in
  (Cluster.create ~journal_for ~m:2 ~shards:2 ~domains:2 (), bufs)

let replayable bufs =
  Array.for_all
    (fun (buf : Buffer.t) ->
      match Result.bind (Journal.load_string (Buffer.contents buf)) Replay.run with
      | Ok o -> o.Replay.consistency_ok
      | Error e -> Alcotest.failf "journal did not replay: %s" e)
    bufs

let test_move_commits () =
  let c, bufs = two_shard_cluster () in
  ignore (ok (Cluster.add_job c ~id:"big" ~size:100));
  let src = Option.get (Cluster.shard_of c "big") in
  let dst = 1 - src in
  let moves = ok (Cluster.move c ~id:"big" ~dst) in
  check_int "one recorded transfer" 1 (List.length moves);
  check Alcotest.(option int) "directory follows the move" (Some dst)
    (Cluster.shard_of c "big");
  check_int "inter_moves counted" 1 (Cluster.stats c).Cluster.inter_moves;
  check_bool "consistent after commit" true (Cluster.check_consistency c ~k:8);
  check Alcotest.(result (list unit) string) "move to own shard is a no-op" (Ok [])
    (Result.map (List.map ignore) (Cluster.move c ~id:"big" ~dst));
  Cluster.shutdown c;
  check_bool "both shard journals replay" true (replayable bufs)

let test_move_crash_rolls_back () =
  let c, bufs = two_shard_cluster () in
  ignore (ok (Cluster.add_job c ~id:"big" ~size:100));
  ignore (ok (Cluster.add_job c ~id:"other" ~size:7));
  let src = Option.get (Cluster.shard_of c "big") in
  let before_jobs = Cluster.job_count c and before_peak = Cluster.makespan c in
  (* The crash point: after the journaled remove on the source, before
     the journaled add on the destination. The transfer must roll back
     through the ordinary journaled path, leaving both shard journals
     replayable and the job where it started. *)
  (match Cluster.move c ~on_removed:(fun () -> failwith "injected crash") ~id:"big" ~dst:(1 - src) with
  | Ok _ -> Alcotest.fail "crashed transfer reported success"
  | Error e -> check_bool ("reports the failure: " ^ e) true (String.length e > 0));
  check Alcotest.(option int) "job back on the source shard" (Some src)
    (Cluster.shard_of c "big");
  check_int "no job lost" before_jobs (Cluster.job_count c);
  check_int "load restored" before_peak (Cluster.makespan c);
  check_int "rolled-back transfer not counted" 0 (Cluster.stats c).Cluster.inter_moves;
  check_bool "consistent after rollback" true (Cluster.check_consistency c ~k:8);
  (* The id is fully settled: ordinary traffic proceeds. *)
  ignore (ok (Cluster.resize_job c ~id:"big" ~size:50));
  check_int "resize landed after rollback" 50 (fst (Option.get (Cluster.find c "big")));
  check_bool "still consistent" true (Cluster.check_consistency c ~k:8);
  Cluster.shutdown c;
  check_bool "both shard journals replay after the crash" true (replayable bufs)

let test_move_validation () =
  let c, _ = two_shard_cluster () in
  (match Cluster.move c ~id:"ghost" ~dst:1 with
  | Ok _ -> Alcotest.fail "moved a job that does not exist"
  | Error e -> check_bool ("names the job: " ^ e) true (String.length e > 0));
  (match Cluster.move c ~id:"ghost" ~dst:7 with
  | Ok _ -> Alcotest.fail "accepted an out-of-range destination"
  | Error e -> check_bool ("names the shard: " ^ e) true (String.length e > 0));
  Cluster.shutdown c

(* --- concurrency and shutdown -------------------------------------------- *)

let test_concurrent_drivers () =
  let shards = 4 in
  let bufs, journal_for = buffer_journals shards in
  let c = Cluster.create ~journal_for ~m:8 ~shards ~domains:4 () in
  let threads = 8 and per_thread = 150 in
  let survivors = Array.make threads 0 in
  let driver t () =
    (* Private id namespace per thread, so every command is valid and
       the only contention is inside the cluster. *)
    let live = ref [] and n = ref 0 in
    for i = 0 to per_thread - 1 do
      let id = Printf.sprintf "t%d.%d" t i in
      (match i mod 5 with
      | 0 | 1 | 2 ->
        ignore (ok (Cluster.add_job c ~id ~size:(1 + ((t + i) mod 40))));
        live := id :: !live;
        incr n
      | 3 -> (
        match !live with
        | [] -> ()
        | victim :: rest ->
          ignore (ok (Cluster.remove_job c ~id:victim));
          live := rest;
          decr n)
      | _ -> (
        match !live with
        | [] -> ()
        | id :: _ -> ignore (ok (Cluster.resize_job c ~id ~size:(1 + (i mod 40))))));
      if i mod 37 = 0 then ignore (Cluster.rebalance c ~k:3)
    done;
    survivors.(t) <- !n
  in
  On_domains.run c (List.init threads driver);
  check_int "no job lost or duplicated under contention"
    (Array.fold_left ( + ) 0 survivors)
    (Cluster.job_count c);
  check_bool "directory and engines agree after the storm" true
    (Cluster.check_consistency c ~k:max_int);
  check_int "snapshot reaches every shard" shards
    (List.length (ok (Cluster.journal_snapshot c)));
  Cluster.shutdown c;
  check_bool "every journal from the concurrent run replays" true (replayable bufs)

(* Eight threads over four session domains fight over one small
   id space: adds, removes and resizes of the same ids, batches, cross-
   shard moves and REBALANCE passes, all at once — every lane lock and
   every reservation path contended. The drivers stop after 5 s of
   wall time at the latest, and a lock cycle fails the test instead of
   hanging the suite. Whatever interleaving happened, the directory must
   agree with the engines and every shard journal must replay to its
   engine. *)
let test_overlapping_storm () =
  let shards = 4 and threads = 8 in
  let bufs, journal_for = buffer_journals shards in
  let c = Cluster.create ~journal_for ~m:8 ~shards ~domains:4 () in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let finished = Atomic.make 0 in
  let driver t () =
    let rng = Random.State.make [| 4711; t |] in
    let id () = Printf.sprintf "j%d" (Random.State.int rng 24) in
    let size () = 1 + Random.State.int rng 40 in
    let ops = ref 0 in
    while !ops < 400 && Unix.gettimeofday () < deadline do
      (match Random.State.int rng 10 with
      | 0 | 1 | 2 -> ignore (Cluster.add_job c ~id:(id ()) ~size:(size ()))
      | 3 -> ignore (Cluster.remove_job c ~id:(id ()))
      | 4 -> ignore (Cluster.resize_job c ~id:(id ()) ~size:(size ()))
      | 5 | 6 -> ignore (Cluster.move c ~id:(id ()) ~dst:(Random.State.int rng shards))
      | 7 -> ignore (Cluster.rebalance c ~k:2)
      | _ ->
        Cluster.apply_bulk c
          [|
            Engine.Add { id = id (); size = size () };
            Engine.Resize { id = id (); size = size () };
            Engine.Remove { id = id () };
          |]);
      incr ops
    done;
    Atomic.incr finished
  in
  let join = On_domains.start c (List.init threads driver) in
  let give_up = deadline +. 10.0 in
  while Atomic.get finished < threads && Unix.gettimeofday () < give_up do
    Thread.delay 0.01
  done;
  if Atomic.get finished < threads then
    Alcotest.failf "only %d of %d drivers finished: the lane locks deadlocked"
      (Atomic.get finished) threads;
  join ();
  let resident = List.filter (Cluster.mem c) (List.init 24 (Printf.sprintf "j%d")) in
  check_int "job_count is the resident ids" (List.length resident) (Cluster.job_count c);
  check_int "engines hold the directory's jobs" (Cluster.job_count c)
    (Array.fold_left ( + ) 0 (Array.map (fun st -> st.Engine.jobs) (Cluster.shard_stats c)));
  check_bool "directory and engines agree after the storm" true
    (Cluster.check_consistency c ~k:max_int);
  Cluster.shutdown c;
  check_bool "every shard journal replays to its engine" true (journals_replay c bufs)

(* With and without session domains, a shut-down cluster refuses work
   and raises on inspection. *)
let test_shutdown_semantics () =
  List.iter
    (fun domains ->
      let c = Cluster.create ~m:4 ~shards:2 ~domains () in
      ignore (ok (Cluster.add_job c ~id:"x" ~size:5));
      Cluster.shutdown c;
      Cluster.shutdown c (* idempotent *);
      (match Cluster.add_job c ~id:"y" ~size:1 with
      | Ok _ -> Alcotest.fail "accepted work after shutdown"
      | Error e -> check Alcotest.string "reports shutdown" "cluster is shut down" e);
      let shut = ref [] in
      Cluster.apply_bulk c ~on_result:(fun _ _ r -> shut := r :: !shut)
        [| Engine.Add { id = "z"; size = 1 } |];
      check Alcotest.(list (result unit string)) "batched work refused"
        [ Error "cluster is shut down" ]
        (List.map (Result.map ignore) !shut);
      Alcotest.check_raises "inspection raises after shutdown" Cluster.Shut_down (fun () ->
          ignore (Cluster.query c 0 Engine.makespan));
      Alcotest.check_raises "stats raise after shutdown" Cluster.Shut_down (fun () ->
          ignore (Cluster.stats c));
      check_int "makespan returns the final value after shutdown" 5 (Cluster.makespan c);
      (* The engines themselves remain readable — the replay-audit path. *)
      check_int "post-shutdown engine access" 1
        (Engine.job_count (Cluster.engine c 0) + Engine.job_count (Cluster.engine c 1)))
    [ 0; 2 ]

(* --- the published makespan --------------------------------------------- *)

(* [makespan] reads the shards' published values, so it answers while
   another thread holds a shard's lock inside a task; and because every
   task publishes before it releases the lock, the caller's next read
   includes its own completed add. *)
let test_makespan_never_waits () =
  let c =
    ok
      (Cluster.of_engines ~domains:1 ~shards:2 (fun i ->
           let e = Engine.create ~m:2 () in
           if i = 0 then ignore (Engine.add_job e ~id:"a" ~size:9);
           e))
  in
  let before = Cluster.makespan c in
  check_int "seeded from the engines as resumed" 9 before;
  let gate = Mutex.create () in
  Mutex.lock gate;
  let parked = Atomic.make false in
  let helper =
    Thread.create
      (fun () ->
        Cluster.query c 0 (fun _ ->
            Atomic.set parked true;
            Mutex.lock gate;
            Mutex.unlock gate))
      ()
  in
  let wait_for cond =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      Thread.delay 0.001
    done;
    cond ()
  in
  let holder_parked = wait_for (fun () -> Atomic.get parked) in
  let read = Atomic.make None in
  let reader = Thread.create (fun () -> Atomic.set read (Some (Cluster.makespan c))) () in
  let answered = holder_parked && wait_for (fun () -> Atomic.get read <> None) in
  (* Release the lock holder whatever happened, so a regression fails
     here instead of hanging the suite. *)
  Mutex.unlock gate;
  Thread.join helper;
  Thread.join reader;
  check_bool "lock holder parked inside the query" true holder_parked;
  check_bool "makespan answered while the lock holder was parked" true answered;
  check Alcotest.(option int) "pre-park value" (Some before) (Atomic.get read);
  ignore (ok (Cluster.add_job c ~id:"b" ~size:100));
  check_int "own add visible on the next read" 100 (Cluster.makespan c);
  Cluster.shutdown c

(* Every shard task observes [rebal_mailbox_wait_seconds] once, in its
   shard's registry, so the merged observation count is the number of
   shard tasks. One-by-one ops each followed by a makespan read must
   cost one task apiece — the read itself runs none — with and without
   session domains, the ops driven from a session domain's thread. On an
   uncontended lock the wait is observed as 0, so the mean stays
   finite. *)
let wait_histogram c =
  let into = Metrics.Registry.create () in
  Cluster.merge_metrics c ~into;
  List.fold_left
    (fun (n, sum) (m : Metrics.metric) ->
      match m.Metrics.kind with
      | Metrics.Histogram h when m.Metrics.name = "rebal_mailbox_wait_seconds" ->
        (n + Metrics.Histogram.observations h, sum +. Metrics.Histogram.sum h)
      | _ -> (n, sum))
    (0, 0.0) (Metrics.Registry.metrics into)

let test_mailbox_task_budget () =
  List.iter
    (fun domains ->
      let c = Cluster.create ~m:8 ~shards:4 ~domains () in
      let before, _ = wait_histogram c in
      let n = 90 in
      let peak =
        On_domains.call c (fun () ->
            let peak = ref 0 in
            for i = 0 to n - 1 do
              let id = Printf.sprintf "b%d" (i / 3) in
              (match i mod 3 with
              | 0 -> ignore (ok (Cluster.add_job c ~id ~size:(1 + (i mod 17))))
              | 1 -> ignore (ok (Cluster.resize_job c ~id ~size:(2 + (i mod 13))))
              | _ -> ignore (ok (Cluster.remove_job c ~id)));
              peak := max !peak (Cluster.makespan c)
            done;
            !peak)
      in
      let after, sum = wait_histogram c in
      check_bool "makespan reads saw the load" true (peak > 0);
      check_int "one wait observation per op, none per makespan read" n (after - before);
      check_bool "observed waits are finite" true (Float.is_finite (sum /. float_of_int after));
      Cluster.shutdown c)
    [ 0; 2 ]

let test_create_validation () =
  Alcotest.check_raises "negative domains"
    (Invalid_argument "Cluster: negative domain count") (fun () ->
      ignore (Cluster.create ~m:4 ~shards:2 ~domains:(-1) ()));
  (* Zero session domains is the default. *)
  List.iter
    (fun c ->
      check_int "no session domain" 0 (Cluster.domain_count c);
      ignore (ok (Cluster.add_job c ~id:"x" ~size:3));
      check_int "inline cluster serves" 3 (Cluster.makespan c);
      Cluster.shutdown c)
    [ Cluster.create ~m:4 ~shards:2 ~domains:0 (); Cluster.create ~m:4 ~shards:2 () ];
  (* Session domains clamp to the shard count; uneven splits go to the
     first shards. *)
  let c = Cluster.create ~m:7 ~shards:3 ~domains:64 () in
  check_int "domains clamped to shards" 3 (Cluster.domain_count c);
  check_int "one registry per session domain" 3 (Array.length (Cluster.domain_registries c));
  check_int "offsets partition" 3 (Cluster.offset c 1);
  check_int "offsets partition" 5 (Cluster.offset c 2);
  (match Cluster.journal_snapshot c with
  | Ok _ -> Alcotest.fail "snapshot without journals must fail"
  | Error e -> check_bool "names the missing sinks" true (String.length e > 0));
  Cluster.shutdown c;
  let e0 = Engine.create ~m:1 () and e1 = Engine.create ~m:1 () in
  ignore (Engine.add_job e0 ~id:"x" ~size:5);
  ignore (Engine.add_job e1 ~id:"x" ~size:7);
  match Cluster.of_engines ~domains:2 ~shards:2 (fun i -> if i = 0 then e0 else e1) with
  | Ok c ->
    Cluster.shutdown c;
    Alcotest.fail "duplicate residency accepted"
  | Error e -> check_bool ("names the duplicate: " ^ e) true (String.length e > 0)

(* --- routing and residency --------------------------------------------- *)

(* The shard each of a fixed list of 1,200 new ids lands on at S = 4,
   recorded from the tuple-array ring and the [String.iter] FNV-1a hash
   that preceded the int-array ring and the loop hash: first with every
   weight at 1, then with shard 0 at 0 and shard 2 at 0.25 (its first 16
   of 64 virtual nodes active). One digit per id, in list order. *)
let routed_ids =
  List.init 1200 (fun i ->
      match i mod 3 with
      | 0 -> Printf.sprintf "j%d" i
      | 1 -> Printf.sprintf "job-%05d" i
      | _ -> Printf.sprintf "%x" (i * 2654435761 land 0xFFFFFF))

let routes_even =
  String.concat ""
    [
      "233112202103112110112223323203233212121322032202011223101123312022211212111221001201102302311230";
      "030200133000212311330100210103122113321330320212031331221120333221203030231312013313012303302103";
      "220123120110031203301321022133130121231120102201021233133100312111222032121120131331121113232303";
      "323031211031321203310013001211133032000133233301032031021023221013333123311311010330021313110031";
      "331222011312322220313212333222230210212100212012132221113000303323312103311323002310333122331112";
      "103231223002130332013231102020233013312121000323021212010232213122201033113010331203233010031300";
      "101000130021320300002020010022000101233300222303311131332112201320131133220301202313232021230113";
      "222312331320331223003100133111120113322200013001101130203111231202013003211321031312221313231121";
      "131022311100110011132302312010233103213221101321213131303102133121222230313112102201311221310101";
      "113221003230110303312133322202121313110222013233231021130110110231332010212020221012013020333130";
      "321332232320312022322303210121323202001202110102200030133332031211112022210022232020213101012112";
      "303303131211002132031110111110123303310223312320100120202121023202230012312133303131010023312320";
      "113131312122310300013323231113332012000112020110";
    ]

let routes_weighted =
  String.concat ""
    [
      "233112332133111113111233323233233111121321132233111333131133312321111212111121121311132332311231";
      "331211133133111311331112213113121113331332312111331331221113333321233333331311113313313323311113";
      "121123113113131133321321122133133121331111131211321333133131312111211333121111131331111113232333";
      "323331111131311213312313131211133332213133333311233231321313231213333133311311311333321313113131";
      "331221111311332231313212333113231213113113312312131321113311333323312113311333332311333132331112";
      "113231123113133333113231121323133213313121213313211213113231313111111133113112331133233211131311";
      "131113133321312312322311211111132111233321222333311131331111131333131133121311233313231111133113";
      "121312331323331123313131133111121113331322313131111132213111331211313123311311231311221313331121";
      "131113311133112111132311311311333133313231111331213131333121133111222233313113111131311311313111";
      "113321113232111313311133312212111313113213313133231131133111113231332112211311131211213223333131";
      "311332232331311312332313211111323132121332113111231331133333331111111133311221331311213111112112";
      "333323131211331133231111111111123323311123312322123123232111223132233311311133313131312223312323";
      "113131312122312331113313131113332112213113123112";
    ]

let routes_under weights =
  let c = Cluster.create ~m:4 ~shards:4 () in
  Array.iteri (Cluster.set_weight c) weights;
  let b = Buffer.create 1200 in
  List.iter
    (fun id ->
      ignore (ok (Cluster.add_job c ~id ~size:1));
      match Cluster.shard_of c id with
      | Some s -> Buffer.add_char b (Char.chr (Char.code '0' + s))
      | None -> Alcotest.failf "%s placed but not resident" id)
    routed_ids;
  Cluster.shutdown c;
  Buffer.contents b

let test_routes_pinned () =
  check Alcotest.string "every weight 1" routes_even (routes_under [| 1.; 1.; 1.; 1. |]);
  check Alcotest.string "shard 0 at 0, shard 2 at 0.25" routes_weighted
    (routes_under [| 0.; 1.; 0.25; 1. |])

(* A restart whose journals disagree about residency is refused: four
   ADDs over two shards with binary journals, then shard 0's journal
   copied over shard 1's, so the job shard 0 holds resumes on both. *)
let test_duplicate_journals_refused () =
  let bufs = Array.init 2 (fun _ -> Buffer.create 256) in
  let journal_for i =
    Some (Journal.create ~format:Journal.Binary ~write:(Buffer.add_string bufs.(i)) ())
  in
  let c = Cluster.create ~journal_for ~m:4 ~shards:2 () in
  List.iteri (fun i id -> ignore (ok (Cluster.add_job c ~id ~size:(3 + i)))) [ "a"; "b"; "c"; "d" ];
  Cluster.shutdown c;
  let shard0 = Buffer.contents bufs.(0) in
  let resume _ = fst (ok (Result.bind (Journal.load_string shard0) Replay.resume)) in
  check Alcotest.(list string) "shard 0's journal resumes b" [ "b" ]
    (Engine.fold_jobs (resume 0) (fun acc ~id ~size:_ ~proc:_ -> id :: acc) []);
  match Cluster.of_engines ~shards:2 resume with
  | Ok c ->
    Cluster.shutdown c;
    Alcotest.fail "duplicate residency accepted"
  | Error e -> check Alcotest.string "refusal" "Cluster.of_engines: job b lives in two shards" e

let () =
  Alcotest.run "rebal_cluster"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_cluster_matches_shard;
          QCheck_alcotest.to_alcotest prop_protocol_replies_match;
        ] );
      ( "two-phase moves",
        [
          Alcotest.test_case "commit updates the directory" `Quick test_move_commits;
          Alcotest.test_case "crash between halves rolls back" `Quick
            test_move_crash_rolls_back;
          Alcotest.test_case "validation" `Quick test_move_validation;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "eight threads against four domains" `Quick
            test_concurrent_drivers;
          Alcotest.test_case "overlapping ids, moves, repairs" `Quick test_overlapping_storm;
          Alcotest.test_case "shutdown semantics" `Quick test_shutdown_semantics;
          Alcotest.test_case "creation validation" `Quick test_create_validation;
        ] );
      ( "makespan reads",
        [
          Alcotest.test_case "makespan never waits on a worker" `Quick
            test_makespan_never_waits;
          Alcotest.test_case "one mailbox task per op" `Quick test_mailbox_task_budget;
        ] );
      ( "routing",
        [
          Alcotest.test_case "routes pinned, S=4" `Quick test_routes_pinned;
          Alcotest.test_case "duplicate journals refused" `Quick test_duplicate_journals_refused;
        ] );
    ]
