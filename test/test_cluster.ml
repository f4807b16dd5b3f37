(* Cluster executor tests: the qcheck equivalence properties (a command
   stream fanned across D worker domains must land in the same state as
   the inline executor, D = 0, for D ∈ {1, 2, 8}, with every per-shard
   journal byte-identical and individually replayable, and must draw
   identical protocol replies, one line at a time and pipelined),
   mailbox backpressure and close semantics, two-phase move crash
   points, a genuinely concurrent multi-thread driver checked for
   directory integrity, shutdown on both executors, and the
   published-makespan contract (never waits on a worker, costs no
   mailbox task). *)

module Engine = Rebal_online.Engine
module Cluster = Rebal_online.Cluster
module Mailbox = Rebal_online.Mailbox
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
   fake clock is touched only by its shard's owner, which is exactly
   the confinement the cluster promises its sinks. *)
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

(* Every per-shard journal of a shut-down (or inline) cluster replays
   to the engine its executor left behind. *)
let journals_replay c bufs =
  Array.for_all
    (fun i ->
      let eng = Cluster.engine c i in
      match Result.bind (Journal.parse_string (Buffer.contents bufs.(i))) Replay.run with
      | Error _ -> false
      | Ok o ->
        o.Replay.consistency_ok
        && o.Replay.final_makespan = Engine.makespan eng
        && o.Replay.final_jobs = Engine.job_count eng)
    (Array.init (Cluster.shard_count c) Fun.id)

(* The tentpole property: a quiescent cluster is observationally the
   inline executor, whatever the domain count — same loads, same
   global peak, same directory, same repair decisions, byte-identical
   journals — and every per-shard journal replays to the engine its
   executor left behind. *)
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
             apply_to_cluster c events;
             let par_moves = Cluster.rebalance c ~k in
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
   field included — is the inline executor's, line for line, whether
   the script is sent one line at a time or pipelined (batched through
   [Cluster.apply_bulk]). The READY banners differ only by the
   [domains=] field worker domains add; they are compared with it
   dropped, before the script and after it (a loaded cluster's banner
   reports a non-trivial makespan). *)
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
          let got = transcript (Protocol.Parallel c) script in
          Cluster.shutdown c;
          let c = Cluster.create ~m ~shards ~domains () in
          let got_piped = pipelined (Protocol.Parallel c) script in
          Cluster.shutdown c;
          got = expected && got_piped = expected_piped)
        [ 1; 2; 8 ])

(* --- mailbox ------------------------------------------------------------- *)

let test_mailbox_backpressure () =
  let mb = Mailbox.create ~capacity:2 in
  check Alcotest.(result unit string) "capacity validated"
    (Error "cap")
    (match Mailbox.create ~capacity:0 with
    | exception Invalid_argument _ -> Error "cap"
    | _ -> Ok ());
  check_int "capacity reported" 2 (Mailbox.capacity mb);
  check_bool "send into space" true (Mailbox.send mb 1);
  check_bool "send fills" true (Mailbox.send mb 2);
  (match Mailbox.try_send mb 3 with
  | `Full -> ()
  | `Sent | `Closed -> Alcotest.fail "full mailbox accepted a third element");
  check_int "length is the fill" 2 (Mailbox.length mb);
  (* A blocked sender parks until the consumer makes room. *)
  let unblocked = ref false in
  let t =
    Thread.create
      (fun () ->
        ignore (Mailbox.send mb 3);
        unblocked := true)
      ()
  in
  Thread.delay 0.02;
  check_bool "sender is parked while full" false !unblocked;
  check Alcotest.(option int) "fifo order" (Some 1) (Mailbox.recv mb);
  Thread.join t;
  check_bool "sender woke after recv" true !unblocked;
  check Alcotest.(option int) "fifo order" (Some 2) (Mailbox.recv mb);
  check Alcotest.(option int) "fifo order" (Some 3) (Mailbox.recv mb)

let test_mailbox_close () =
  let mb = Mailbox.create ~capacity:4 in
  check_bool "accepted before close" true (Mailbox.send mb "a");
  check_bool "accepted before close" true (Mailbox.send mb "b");
  Mailbox.close mb;
  Mailbox.close mb (* idempotent *);
  check_bool "closed" true (Mailbox.is_closed mb);
  check_bool "send refused after close" false (Mailbox.send mb "c");
  (match Mailbox.try_send mb "c" with
  | `Closed -> ()
  | `Sent | `Full -> Alcotest.fail "closed mailbox accepted a send");
  (* Everything accepted before close still drains, then end-of-stream. *)
  check Alcotest.(option string) "drains a" (Some "a") (Mailbox.recv mb);
  check Alcotest.(option string) "drains b" (Some "b") (Mailbox.recv mb);
  check Alcotest.(option string) "end of stream" None (Mailbox.recv mb);
  (* close wakes a sender blocked on a full mailbox. *)
  let full = Mailbox.create ~capacity:1 in
  ignore (Mailbox.send full 0);
  let refused = ref None in
  let t = Thread.create (fun () -> refused := Some (Mailbox.send full 1)) () in
  Thread.delay 0.02;
  Mailbox.close full;
  Thread.join t;
  check Alcotest.(option bool) "blocked sender refused on close" (Some false) !refused

(* --- two-phase moves ----------------------------------------------------- *)

(* Two single-processor shards so residency is unambiguous. *)
let two_shard_cluster () =
  let bufs, journal_for = buffer_journals 2 in
  (Cluster.create ~journal_for ~m:2 ~shards:2 ~domains:2 (), bufs)

let replayable bufs =
  Array.for_all
    (fun (buf : Buffer.t) ->
      match Result.bind (Journal.parse_string (Buffer.contents buf)) Replay.run with
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
  let ts = Array.init threads (fun t -> Thread.create (driver t) ()) in
  Array.iter Thread.join ts;
  check_int "no job lost or duplicated under contention"
    (Array.fold_left ( + ) 0 survivors)
    (Cluster.job_count c);
  check_bool "directory and engines agree after the storm" true
    (Cluster.check_consistency c ~k:max_int);
  check_int "snapshot reaches every shard" shards
    (List.length (ok (Cluster.journal_snapshot c)));
  Cluster.shutdown c;
  check_bool "every journal from the concurrent run replays" true (replayable bufs)

(* Both executors refuse work and raise on inspection once shut down. *)
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

(* [makespan] reads the owners' published values, so it answers while
   the only worker domain is parked inside a task; and because the
   owner publishes before it fills the reply cell, the caller's next
   read includes its own completed add. *)
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
  let worker_parked = wait_for (fun () -> Atomic.get parked) in
  let read = Atomic.make None in
  let reader = Thread.create (fun () -> Atomic.set read (Some (Cluster.makespan c))) () in
  let answered = worker_parked && wait_for (fun () -> Atomic.get read <> None) in
  (* Release the worker whatever happened, so a regression fails here
     instead of hanging the suite. *)
  Mutex.unlock gate;
  Thread.join helper;
  Thread.join reader;
  check_bool "worker parked inside the query" true worker_parked;
  check_bool "makespan answered while the worker was parked" true answered;
  check Alcotest.(option int) "pre-park value" (Some before) (Atomic.get read);
  ignore (ok (Cluster.add_job c ~id:"b" ~size:100));
  check_int "own add visible on the next read" 100 (Cluster.makespan c);
  Cluster.shutdown c

(* Every worker observes [rebal_mailbox_wait_seconds] once per task it
   dequeues, so the merged observation count is the number of mailbox
   tasks. One-by-one ops each followed by a makespan read must cost one
   task apiece: the read itself posts none. *)
let mailbox_tasks c =
  let into = Metrics.Registry.create () in
  Cluster.merge_metrics c ~into;
  List.fold_left
    (fun acc (m : Metrics.metric) ->
      match m.Metrics.kind with
      | Metrics.Histogram h when m.Metrics.name = "rebal_mailbox_wait_seconds" ->
        acc + Metrics.Histogram.observations h
      | _ -> acc)
    0 (Metrics.Registry.metrics into)

let test_mailbox_task_budget () =
  let c = Cluster.create ~m:8 ~shards:4 ~domains:2 () in
  let before = mailbox_tasks c in
  let n = 90 in
  let peak = ref 0 in
  for i = 0 to n - 1 do
    let id = Printf.sprintf "b%d" (i / 3) in
    (match i mod 3 with
    | 0 -> ignore (ok (Cluster.add_job c ~id ~size:(1 + (i mod 17))))
    | 1 -> ignore (ok (Cluster.resize_job c ~id ~size:(2 + (i mod 13))))
    | _ -> ignore (ok (Cluster.remove_job c ~id)));
    peak := max !peak (Cluster.makespan c)
  done;
  check_bool "makespan reads saw the load" true (!peak > 0);
  check_int "one mailbox task per op, none per makespan read" n (mailbox_tasks c - before);
  Cluster.shutdown c

let test_create_validation () =
  Alcotest.check_raises "negative domains"
    (Invalid_argument "Cluster: negative domain count") (fun () ->
      ignore (Cluster.create ~m:4 ~shards:2 ~domains:(-1) ()));
  (* Zero domains is the inline executor, and the default. *)
  List.iter
    (fun c ->
      check_int "inline: no worker domain" 0 (Cluster.domain_count c);
      ignore (ok (Cluster.add_job c ~id:"x" ~size:3));
      check_int "inline cluster serves" 3 (Cluster.makespan c);
      Cluster.shutdown c)
    [ Cluster.create ~m:4 ~shards:2 ~domains:0 (); Cluster.create ~m:4 ~shards:2 () ];
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Cluster.create: need a positive mailbox capacity") (fun () ->
      ignore (Cluster.create ~m:4 ~shards:2 ~mailbox_capacity:0 ()));
  (* Domains clamp to the shard count; uneven splits go to the first shards. *)
  let c = Cluster.create ~m:7 ~shards:3 ~domains:64 () in
  check_int "domains clamped to shards" 3 (Cluster.domain_count c);
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

let () =
  Alcotest.run "rebal_cluster"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_cluster_matches_shard;
          QCheck_alcotest.to_alcotest prop_protocol_replies_match;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "backpressure blocks and wakes" `Quick
            test_mailbox_backpressure;
          Alcotest.test_case "close refuses, drains, wakes" `Quick test_mailbox_close;
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
          Alcotest.test_case "shutdown semantics" `Quick test_shutdown_semantics;
          Alcotest.test_case "creation validation" `Quick test_create_validation;
        ] );
      ( "makespan reads",
        [
          Alcotest.test_case "makespan never waits on a worker" `Quick
            test_makespan_never_waits;
          Alcotest.test_case "one mailbox task per op" `Quick test_mailbox_task_budget;
        ] );
    ]
