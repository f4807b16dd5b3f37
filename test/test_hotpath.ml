(* The batched serving path, layer by layer.

   - The index parser against the token-list parser it replaced, copied
     here as the oracle: every [Ok] and every [Error] string must be
     equal on random lines.
   - [Cluster.apply_bulk]'s chunk rule: batches with duplicate ids,
     failed validations followed by ops on the same id, and a shutdown
     in the middle give the results and per-shard journals of one-by-one
     [Cluster.apply]; two threads batching over overlapping ids leave a
     consistent cluster holding the shadow model's job set.
   - Allocation pins on the restart-sharded stream: words per op through
     [Cluster.apply_bulk] and through [Protocol] on a supervised target
     with binary journals; words per event of a batched binary sink;
     live words per job of a loaded cluster; words per job of GREEDY's
     two steps.
   - [METRICS] exports the process's GC counters, the heap's peak
     included.
   - [Replay.compact] keeps the recording's consistency-check count. *)

module Engine = Rebal_online.Engine
module Cluster = Rebal_online.Cluster
module Supervisor = Rebal_online.Supervisor
module Protocol = Rebal_online.Protocol
module Replay = Rebal_online.Replay
module Journal = Rebal_obs.Journal
module Gen_stream = Perfbench.Gen
open QCheck2

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* ----- the parser against its oracle ----- *)

(* The token-list parser the index parser replaced, verbatim. *)
module Oracle = struct
  open Protocol

  let pf = Printf.sprintf

  let tokens line =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")

  let int_arg what s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (pf "%s must be an integer, got %S" what s)

  let positive_arg what s =
    Result.bind (int_arg what s) (fun v ->
        if v > 0 then Ok v else Error (pf "%s must be positive, got %d" what v))

  let non_negative_arg what s =
    Result.bind (int_arg what s) (fun v ->
        if v >= 0 then Ok v else Error (pf "%s must be non-negative, got %d" what v))

  let parse line =
    match tokens line with
    | [] -> Ok None
    | word :: _ when String.length word > 0 && word.[0] = '#' -> Ok None
    | verb :: args -> begin
      match (String.uppercase_ascii verb, args) with
      | "ADD", [ id; size ] ->
        Result.map (fun size -> Some (Add { id; size })) (positive_arg "size" size)
      | "ADD", _ -> Error "usage: ADD <id> <size>"
      | "REMOVE", [ id ] -> Ok (Some (Remove id))
      | "REMOVE", _ -> Error "usage: REMOVE <id>"
      | "RESIZE", [ id; size ] ->
        Result.map (fun size -> Some (Resize { id; size })) (positive_arg "size" size)
      | "RESIZE", _ -> Error "usage: RESIZE <id> <size>"
      | "REBALANCE", [ k ] -> Result.map (fun k -> Some (Rebalance k)) (non_negative_arg "k" k)
      | "REBALANCE", [] -> Ok (Some (Rebalance max_int))
      | "REBALANCE", _ -> Error "usage: REBALANCE [<k>]"
      | "STATS", [] -> Ok (Some Stats)
      | "SHARDS", [] -> Ok (Some Shards_info)
      | "SHARDS", _ -> Error "usage: SHARDS"
      | "HEALTH", [] -> Ok (Some Health)
      | "HEALTH", _ -> Error "usage: HEALTH"
      | "SNAPSHOT", [] -> Ok (Some Snapshot_now)
      | "SNAPSHOT", _ -> Error "usage: SNAPSHOT"
      | "METRICS", [] -> Ok (Some Metrics_dump)
      | "METRICS", _ -> Error "usage: METRICS"
      | "JOURNAL", [] -> Ok (Some (Journal_tail 10))
      | "JOURNAL", [ n ] -> Result.map (fun n -> Some (Journal_tail n)) (non_negative_arg "n" n)
      | "JOURNAL", _ -> Error "usage: JOURNAL [<n>]"
      | "TRACES", [] -> Ok (Some (Traces 10))
      | "TRACES", [ n ] -> Result.map (fun n -> Some (Traces n)) (positive_arg "n" n)
      | "TRACES", _ -> Error "usage: TRACES [<n>]"
      | "ALERTS", [] -> Ok (Some Alerts_status)
      | "ALERTS", _ -> Error "usage: ALERTS"
      | "TSDB", [ selector ] -> Ok (Some (Tsdb_query { selector; window_s = 60. }))
      | "TSDB", [ selector; window ] ->
        Result.map
          (fun window_s -> Some (Tsdb_query { selector; window_s }))
          (Rebal_obs.Tsdb.parse_duration window)
      | "TSDB", _ -> Error "usage: TSDB <series> [<window>]"
      | "HELP", [] -> Ok (Some Help)
      | "QUIT", [] | "EXIT", [] -> Ok (Some Quit)
      | "SHUTDOWN", [] -> Ok (Some Shutdown)
      | v, _ -> Error (pf "unknown command %S (try HELP)" v)
    end
end

let mixed_case s =
  Gen.map
    (fun flips ->
      String.mapi
        (fun i c -> if List.nth flips (i mod List.length flips) then Char.lowercase_ascii c else c)
        s)
    (Gen.list_size (Gen.return 4) Gen.bool)

let verb_gen =
  Gen.(
    oneof
      [
        oneofl
          [ "ADD"; "REMOVE"; "RESIZE"; "REBALANCE"; "STATS"; "SHARDS"; "HEALTH"; "SNAPSHOT";
            "METRICS"; "JOURNAL"; "TRACES"; "ALERTS"; "TSDB"; "HELP"; "QUIT"; "EXIT"; "SHUTDOWN" ]
        >>= mixed_case;
        oneofl [ "FOO"; "ADDX"; "AD"; "#"; "#ADD"; "é"; "ADD\ta"; "" ];
      ])

let arg_gen =
  Gen.(
    oneof
      [
        oneofl
          [ "0"; "1"; "7"; "42"; "007"; "0x1f"; "0X1F"; "0b101"; "0o17"; "1_000"; "+5"; "-3"; "-0";
            "99999999999999999"; "999999999999999999"; "9999999999999999999";
            "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
            "123456789012345678901234567890"; "1e3"; "12a"; "_1"; "0x"; "30s"; "2m"; "1h"; "1.5s";
            "ms"; "#c"; "a"; "job-1"; "\t5"; "5\t"; "x\r" ];
        map (fun i -> "j" ^ string_of_int i) (int_range 0 50);
        string_size ~gen:(oneofl [ 'a'; '1'; '#'; '\t'; '\r'; '-'; '_'; 'x' ]) (int_range 1 4);
      ])

let sep_gen = Gen.oneofl [ " "; " "; " "; "  "; "   "; "\t"; " \t "; "\t " ]
let edge_gen = Gen.oneofl [ ""; ""; " "; "  "; "\t"; "\r"; " \r"; "\012"; "\n"; "\t \r" ]

let line_gen =
  Gen.(
    let* lead = edge_gen in
    let* verb = verb_gen in
    let* args = list_size (int_range 0 4) (pair sep_gen arg_gen) in
    let* trail = edge_gen in
    let* comment =
      frequency [ (5, return ""); (1, map (fun s -> " #" ^ s) (oneofl [ ""; " x"; "ADD a 1" ])) ]
    in
    return (lead ^ verb ^ String.concat "" (List.map (fun (s, a) -> s ^ a) args) ^ comment ^ trail))

let prop_parser_matches_oracle =
  Test.make ~count:3000 ~name:"index parser == token-list parser" ~print:(Printf.sprintf "%S")
    line_gen (fun line ->
      let got = Protocol.parse line and want = Oracle.parse line in
      if got <> want then
        Test.fail_reportf "line %S: got %s, oracle %s" line
          (match got with Ok _ -> "Ok" | Error e -> "Error " ^ e)
          (match want with Ok _ -> "Ok" | Error e -> "Error " ^ e)
      else true)

(* ----- the chunk rule ----- *)

let shards = 3

(* Per-shard journals into buffers, under a clock that reads 0: two
   runs of the same events write the same bytes. *)
let buffer_journals () =
  let bufs = Array.init shards (fun _ -> Buffer.create 512) in
  let journal_for i =
    Some (Journal.create ~clock_ns:(fun () -> 0) ~write:(Buffer.add_string bufs.(i)) ())
  in
  (bufs, journal_for)

let cluster ?domains () =
  let bufs, journal_for = buffer_journals () in
  (Cluster.create ~journal_for ?domains ~m:(2 * shards) ~shards (), bufs)

let journals bufs = Array.map Buffer.contents bufs

let replays bufs =
  Array.for_all
    (fun b -> Result.is_ok (Result.bind (Journal.load_string (Buffer.contents b)) Replay.run))
    bufs

let bulk_results c ops =
  let results = Array.make (Array.length ops) (Error "never delivered") in
  Cluster.apply_bulk c ~on_result:(fun i _ r -> results.(i) <- r) ops;
  results

(* [ops] as one batch and one by one, from the same state: equal
   results, equal journal bytes, and journals that replay. *)
let check_against_one_by_one name ?(preload = [||]) ops =
  let bulk, bulk_bufs = cluster () and seq, seq_bufs = cluster () in
  Array.iter (fun op -> ignore (Cluster.apply bulk op); ignore (Cluster.apply seq op)) preload;
  let got = bulk_results bulk ops in
  let want = Array.map (Cluster.apply seq) ops in
  check_bool (name ^ ": results") true (got = want);
  check_bool (name ^ ": per-shard journals") true (journals bulk_bufs = journals seq_bufs);
  check_bool (name ^ ": journals replay") true (replays bulk_bufs);
  check_bool (name ^ ": consistent") true (Cluster.check_consistency bulk ~k:max_int)

let add id size = Engine.Add { id; size }
let remove id = Engine.Remove { id }
let resize id size = Engine.Resize { id; size }

let test_duplicate_ids () =
  check_against_one_by_one "duplicates"
    [| add "a" 5; add "b" 3; resize "a" 7; add "c" 2; remove "a"; add "a" 4; resize "b" 9;
       add "a" 1; remove "b"; remove "b"; add "b" 6; resize "c" 8; resize "c" 1 |]

let test_failed_then_same_id () =
  check_against_one_by_one "failures then the same id"
    ~preload:[| add "p" 4; add "q" 6 |]
    [| remove "x"; add "x" 4; add "p" 9; remove "p"; resize "z" 2; add "z" 5; resize "z" 3;
       add "q" 1; add "q" 2; resize "q" 7; remove "y"; remove "y"; add "y" 8; add "w" 0;
       add "w" 3 |]

let prop_random_batches =
  let op_gen =
    Gen.(
      let id = map (fun i -> "j" ^ string_of_int i) (int_range 0 12) in
      oneof
        [
          map2 add id (int_range 0 30);
          map remove id;
          map2 resize id (int_range 0 30);
        ])
  in
  Test.make ~count:200 ~name:"random batches == one by one"
    ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
    Gen.(list_size (int_range 1 60) op_gen)
    (fun ops ->
      let ops = Array.of_list ops in
      let bulk, bulk_bufs = cluster () and seq, seq_bufs = cluster () in
      let got = bulk_results bulk ops in
      let want = Array.map (Cluster.apply seq) ops in
      got = want && journals bulk_bufs = journals seq_bufs && replays bulk_bufs)

(* The cluster shuts down right after the first shard task of the
   batch's first chunk returns — injected through a supervised
   cluster's watchdog clock, whose second read follows that task: that
   task's ops applied, every other op reads "cluster is shut down". The
   applied ops, one by one in batch order on a fresh cluster, give the
   same results and journals. *)
let test_shutdown_mid_batch () =
  let ops =
    Array.init 40 (fun i ->
        if i < 30 then add (Printf.sprintf "s%d" i) (1 + (i mod 7))
        else resize (Printf.sprintf "s%d" (i - 30)) 9)
  in
  let c, bufs = cluster () in
  let reads = ref 0 in
  let clock () =
    incr reads;
    if !reads = 2 then Cluster.shutdown c;
    0.0
  in
  ignore (Supervisor.create ~clock c);
  let got = bulk_results c ops in
  let down = Error "cluster is shut down" in
  let applied = List.filter (fun i -> got.(i) <> down) (List.init 40 Fun.id) in
  check_bool "some ops applied" true (applied <> []);
  check_bool "some ops refused" true (List.length applied < 40);
  check_bool "no op applied after the first chunk" true (List.for_all (fun i -> i < 30) applied);
  let seq, seq_bufs = cluster () in
  List.iter
    (fun i ->
      check_bool (Printf.sprintf "op %d result" i) true (Cluster.apply seq ops.(i) = got.(i)))
    applied;
  check_bool "per-shard journals" true (journals bufs = journals seq_bufs);
  check_bool "journals replay" true (replays bufs);
  check_bool "later batches refused" true (bulk_results c [| add "late" 1 |] = [| down |])

(* Two threads batch over one small id space. Per id, successful adds
   and removes alternate in any linearization, so the id is resident
   exactly when its successful adds outnumber its successful removes. *)
let test_two_batchers domains () =
  let c, bufs = cluster ~domains () in
  let ids = 16 in
  let adds = Array.make ids 0 and removes = Array.make ids 0 and sizes = Array.make ids [] in
  let mu = Mutex.create () in
  let finished = Atomic.make 0 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let batcher t () =
    let rng = Random.State.make [| 26; t |] in
    let rounds = ref 0 in
    while !rounds < 150 && Unix.gettimeofday () < deadline do
      let ops =
        Array.init (1 + Random.State.int rng 24) (fun _ ->
            let id = "o" ^ string_of_int (Random.State.int rng ids) in
            match Random.State.int rng 3 with
            | 0 -> add id (1 + Random.State.int rng 20)
            | 1 -> remove id
            | _ -> resize id (1 + Random.State.int rng 20))
      in
      Cluster.apply_bulk c
        ~on_result:(fun _ op r ->
          if Result.is_ok r then
            Mutex.protect mu (fun () ->
                let id = Engine.op_id op in
                let i = int_of_string (String.sub id 1 (String.length id - 1)) in
                match op with
                | Engine.Add { size; _ } ->
                  adds.(i) <- adds.(i) + 1;
                  sizes.(i) <- size :: sizes.(i)
                | Engine.Remove _ -> removes.(i) <- removes.(i) + 1
                | Engine.Resize { size; _ } -> sizes.(i) <- size :: sizes.(i)))
        ops;
      incr rounds
    done;
    Atomic.incr finished
  in
  let join = On_domains.start c (List.init 2 batcher) in
  while Atomic.get finished < 2 && Unix.gettimeofday () < deadline +. 10.0 do
    Thread.delay 0.01
  done;
  if Atomic.get finished < 2 then Alcotest.fail "the batchers deadlocked";
  join ();
  for i = 0 to ids - 1 do
    let id = "o" ^ string_of_int i in
    let d = adds.(i) - removes.(i) in
    check_bool (id ^ ": adds and removes alternate") true (d = 0 || d = 1);
    check_bool (id ^ ": resident as the shadow says") (d = 1) (Cluster.mem c id);
    match Cluster.find c id with
    | None -> ()
    | Some (size, _) -> check_bool (id ^ ": size was set by an op") true (List.mem size sizes.(i))
  done;
  check_bool "directory and engines agree" true (Cluster.check_consistency c ~k:max_int);
  Cluster.shutdown c;
  check_bool "journals replay" true (replays bufs)

(* ----- allocation pins ----- *)

(* The restart-sharded stream: a 100k-job preload, then steady lines
   cut into the client's 256-line chunks and, within a chunk, into the
   runs of mutations between REBALANCE lines. *)
let restart_mix =
  { Gen_stream.prefix = "r"; live = 100_000; rebalance_every = 2000; rebalance_k = 32 }

let stream_lines chunk =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' chunk)

let stream () =
  let g = Gen_stream.create ~seed:7 restart_mix in
  let preload = Gen_stream.preload g in
  let steady = Gen_stream.steady g 60_000 in
  (preload.Gen_stream.chunks, steady.Gen_stream.chunks)

let op_of line =
  match Protocol.parse line with
  | Ok (Some (Protocol.Add { id; size })) -> Some (Engine.Add { id; size })
  | Ok (Some (Protocol.Remove id)) -> Some (Engine.Remove { id })
  | Ok (Some (Protocol.Resize { id; size })) -> Some (Engine.Resize { id; size })
  | _ -> None

(* Runs of ops, each a batch, with [None] for a REBALANCE between them. *)
let batches chunks =
  List.concat_map
    (fun chunk ->
      let out = ref [] and run = ref [] in
      let cut () =
        if !run <> [] then out := Some (Array.of_list (List.rev !run)) :: !out;
        run := []
      in
      List.iter
        (fun line ->
          match op_of line with
          | Some op -> run := op :: !run
          | None ->
            cut ();
            out := None :: !out)
        (stream_lines chunk);
      cut ();
      List.rev !out)
    (Array.to_list chunks)

let words_per f n =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int n

let test_apply_bulk_words () =
  let preload, steady = stream () in
  let c = Cluster.create ~m:64 ~shards:4 () in
  let run bs =
    List.iter
      (function
        | Some ops -> Cluster.apply_bulk c ~on_result:(fun _ _ _ -> ()) ops
        | None -> ())
      bs
  in
  run (batches preload);
  let steady = batches steady in
  let ops = List.fold_left (fun n -> function Some b -> n + Array.length b | None -> n) 0 steady in
  let words = words_per (fun () -> run steady) ops in
  Cluster.shutdown c;
  check_bool (Printf.sprintf "apply_bulk allocates %.1f words per op (pinned at <= 25)" words) true
    (words <= 25.)

let test_protocol_words () =
  let preload, steady = stream () in
  let journal_for _ = Some (Journal.create ~format:Journal.Binary ~write:ignore ()) in
  let c = Cluster.create ~journal_for ~m:64 ~shards:4 () in
  let t = Protocol.Supervised (Supervisor.create c) in
  let out = Buffer.create 65536 and errors = ref 0 in
  (* A reply line opening with "ERR", found without allocating. *)
  let has_err b =
    let n = Buffer.length b in
    let rec at i =
      i + 3 <= n
      && ((Buffer.nth b i = 'E' && Buffer.nth b (i + 1) = 'R' && Buffer.nth b (i + 2) = 'R')
         || next (i + 1))
    and next i = i < n && if Buffer.nth b (i - 1) = '\n' then at i else next (i + 1) in
    at 0
  in
  let feed chunks =
    List.iter
      (fun lines ->
        Buffer.clear out;
        ignore (Protocol.handle_lines_into t out lines);
        if has_err out then incr errors)
      chunks
  in
  feed (List.map stream_lines (Array.to_list preload));
  let steady = List.map stream_lines (Array.to_list steady) in
  let lines = List.fold_left (fun n l -> n + List.length l) 0 steady in
  let words = words_per (fun () -> feed steady) lines in
  check_int "batches with an ERR reply" 0 !errors;
  Cluster.shutdown c;
  check_bool (Printf.sprintf "Protocol allocates %.2f words per op (pinned at <= 45)" words) true
    (words <= 45.)

(* A batched binary sink encodes each event once into its scratch
   writer and copies the frame into the batch buffer and the tail's byte
   ring: a steady-state event allocates nothing on the minor heap. The
   per-batch string handed to [write] is larger than a minor-heap block,
   so it goes to the major heap. *)
let test_binary_sink_words () =
  let sink = Journal.create ~format:Journal.Binary ~write:ignore () in
  let ids = Array.init 1024 (Printf.sprintf "job%d") in
  let emit_batches n =
    for b = 0 to (n / 256) - 1 do
      Journal.begin_batch sink;
      for i = 0 to 255 do
        let j = (b * 256) + i in
        Journal.Emit.start sink ~kind:"add" ~fields:3;
        Journal.Emit.str sink "id" ids.(j land 1023);
        Journal.Emit.int sink "size" (1 + (j mod 97));
        Journal.Emit.int sink "proc" (j mod 64);
        Journal.Emit.finish sink
      done;
      Journal.end_batch sink
    done
  in
  emit_batches 4096;
  let n = 200_000 in
  let words = words_per (fun () -> emit_batches n) n in
  check_bool (Printf.sprintf "a batched binary sink allocates %.2f words per event (pinned at 0)" words)
    true (words < 0.01)

(* GREEDY's two steps run inside every shard's full-budget check at
   restart ([Greedy.solve ~k:n]): past their fixed arrays, neither loop
   allocates per job. The removal's words are counted net of the sorted
   views it builds first, which allocate the same either way. *)
let test_greedy_steps_words () =
  let n = 20_000 and m = 16 in
  let inst =
    Rebal_core.Instance.create
      ~sizes:(Array.init n (fun j -> 1 + (j * 7919 mod 1000)))
      ~m
      (Array.init n (fun j -> j * 31 mod m))
  in
  let views = words_per (fun () -> ignore (Rebal_core.Instance.sorted_views inst)) n in
  let removal =
    words_per (fun () -> ignore (Rebal_core.Greedy_steps.remove_largest inst ~k:n)) n -. views
  in
  let order = Array.init n Fun.id and assign = Array.make n 0 in
  let placement =
    words_per
      (fun () ->
        Rebal_core.Greedy_steps.list_schedule ~size:(Rebal_core.Instance.size inst)
          ~load:(Array.make m 0) order ~assign)
      n
  in
  check_bool (Printf.sprintf "the removal allocates %.4f words per job (pinned at 0)" removal)
    true (removal < 0.01);
  check_bool (Printf.sprintf "list scheduling allocates %.4f words per job (pinned at 0)" placement)
    true (placement < 0.01)

(* Live words per job of a loaded cluster, ids included: the engines'
   slot arrays and heaps, the id maps and the directory, nothing sized
   by slot capacity beyond those. Measured at 100,000 jobs after one
   k = 32 repair: 24.3 words. Repair scratch as long as each engine's
   slot capacity would add 5.2. *)
let test_live_words () =
  let jobs = 100_000 in
  let c = Cluster.create ~m:64 ~shards:4 () in
  let ops = Array.init jobs (fun i -> Engine.Add { id = Printf.sprintf "j%d" i; size = 1 + (i * 7919 mod 1000) }) in
  Cluster.apply_bulk c ops;
  ignore (Cluster.rebalance c ~k:32);
  check_int "jobs" jobs (Cluster.job_count c);
  let per_job = float_of_int (Obj.reachable_words (Obj.repr c)) /. float_of_int jobs in
  Cluster.shutdown c;
  check_bool (Printf.sprintf "%.2f live words per job (pinned at <= 25)" per_job) true
    (per_job <= 25.)

(* ----- GC counters on METRICS ----- *)

let gc_value t name =
  let prefix = name ^ " " in
  match List.find_opt (String.starts_with ~prefix) (Protocol.metrics_lines t) with
  | None -> Alcotest.fail ("METRICS has no " ^ name)
  | Some l ->
    float_of_string (String.sub l (String.length prefix) (String.length l - String.length prefix))

let gc_minor_words t = gc_value t "rebal_gc_minor_words_total"

(* The runtime samples a domain's counters at its minor collections,
   so the batch between the scrapes is large enough to run some. *)
let test_gc_metrics () =
  let c = Cluster.create ~m:4 ~shards:2 () in
  let t = Protocol.Cluster c in
  let lines = List.init 50_000 (fun i -> Printf.sprintf "ADD g%d %d" i (1 + (i mod 9))) in
  let before = gc_minor_words t in
  ignore (Protocol.handle_lines t lines);
  let after = gc_minor_words t in
  check_bool (Printf.sprintf "minor words grew across a batch (%.0f -> %.0f)" before after) true
    (after > before);
  let lines = Protocol.metrics_lines t in
  List.iter
    (fun name ->
      check_bool (name ^ " exported") true
        (List.exists (String.starts_with ~prefix:(name ^ " ")) lines))
    [ "rebal_gc_promoted_words_total"; "rebal_gc_minor_collections_total";
      "rebal_gc_major_collections_total"; "rebal_gc_heap_words"; "rebal_gc_top_heap_words" ];
  (* The peak is the heap's high-water mark: never below the heap now. *)
  let heap = gc_value t "rebal_gc_heap_words" and top = gc_value t "rebal_gc_top_heap_words" in
  check_bool (Printf.sprintf "top_heap_words %.0f >= heap_words %.0f" top heap) true
    (top >= heap && top > 0.);
  Cluster.shutdown c

(* ----- compaction keeps the recording's check count ----- *)

let test_compact_checks () =
  let buf = Buffer.create 1024 in
  let sink = Journal.create ~clock_ns:(fun () -> 0) ~write:(Buffer.add_string buf) () in
  let e = Engine.create ~journal:sink ~m:3 () in
  List.iteri
    (fun i size -> ignore (Engine.add_job e ~id:(Printf.sprintf "c%d" i) ~size))
    [ 5; 9; 2; 7; 4 ];
  ignore (Engine.check_consistency e ~k:2);
  ignore (Engine.remove_job e ~id:"c1");
  ignore (Engine.rebalance e ~k:1);
  let parsed = ok (Journal.load_string (Buffer.contents buf)) in
  let genesis, _ = ok (Replay.resume parsed) in
  let compacted, _, kept = ok (Replay.compact parsed) in
  check_int "one snapshot kept" 1 kept;
  let compacted = ok (Journal.load_string (Journal.encode Journal.Jsonl compacted)) in
  let resumed, _ = ok (Replay.resume compacted) in
  let checks eng = (Engine.stats eng).Engine.consistency_checks in
  check_int "checks= after the compacted resume equals genesis" (checks genesis) (checks resumed);
  let stats_line eng = List.hd (fst (Protocol.handle_line (Protocol.Single eng) "STATS")) in
  check Alcotest.string "STATS equal" (stats_line genesis) (stats_line resumed)

let () =
  Alcotest.run "hotpath"
    [
      ("parser", [ QCheck_alcotest.to_alcotest prop_parser_matches_oracle ]);
      ( "chunks",
        [
          Alcotest.test_case "duplicate ids" `Quick test_duplicate_ids;
          Alcotest.test_case "failures then same id" `Quick test_failed_then_same_id;
          QCheck_alcotest.to_alcotest prop_random_batches;
          Alcotest.test_case "shutdown mid-batch" `Quick test_shutdown_mid_batch;
          Alcotest.test_case "two batchers, D=0" `Quick (test_two_batchers 0);
          Alcotest.test_case "two batchers, D=2" `Quick (test_two_batchers 2);
        ] );
      ( "alloc",
        [
          Alcotest.test_case "apply_bulk words per op" `Quick test_apply_bulk_words;
          Alcotest.test_case "Protocol words per op" `Quick test_protocol_words;
          Alcotest.test_case "binary sink words per event" `Quick test_binary_sink_words;
          Alcotest.test_case "live words per job" `Quick test_live_words;
          Alcotest.test_case "GREEDY steps words per job" `Quick test_greedy_steps_words;
        ] );
      ("metrics", [ Alcotest.test_case "GC counters" `Quick test_gc_metrics ]);
      ("compact", [ Alcotest.test_case "checks= kept" `Quick test_compact_checks ]);
    ]
