module Journal = Rebal_obs.Journal
module Table = Rebal_harness.Table

type outcome = {
  header : Journal.header;
  m : int;
  events : int;
  final_jobs : int;
  final_makespan : int;
  rebalances : int;
  moves : int;
  checks : int;
  snapshots : int;
  resumed : bool;
  trigger : Engine.trigger;
  consistency_ok : bool;
}

exception Fail of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Fail msg)) fmt
let faill line fmt = Printf.ksprintf (fun msg -> raise (Fail (Printf.sprintf "line %d: %s" line msg))) fmt

let get = function Ok v -> v | Error msg -> raise (Fail msg)

(* ----- reading the provenance sub-objects ----- *)

let move_of_json line j =
  match j with
  | Journal.Obj kvs -> (
    match
      ( List.assoc_opt "id" kvs,
        List.assoc_opt "src" kvs,
        List.assoc_opt "dst" kvs )
    with
    | Some (Journal.Str id), Some (Journal.Int src), Some (Journal.Int dst) ->
      { Engine.id; src; dst }
    | _ -> faill line "rebalance event: malformed move object")
  | _ -> faill line "rebalance event: moves must be objects"

(* ----- replay ----- *)

let engine_of_header (header : Journal.header) =
  if header.journal <> "rebal-engine" then
    fail "not an engine journal (producer %S, wanted \"rebal-engine\")" header.journal;
  if header.version <> Journal.current_version then
    fail "unsupported journal version %d (this library reads %d)" header.version
      Journal.current_version;
  match List.assoc_opt "m" header.meta with
  | Some (Journal.Int m) when m >= 1 -> Engine.create ~m ()
  | _ -> fail "header is missing a positive integer \"m\" field"

(* The trigger config the journal was recorded under. Headers written
   before the config was recorded (only the policy name) fall back to
   Manual — there is nothing to re-arm. *)
let trigger_of_header (header : Journal.header) =
  match List.assoc_opt "trigger_config" header.meta with
  | None -> Ok Engine.Manual
  | Some json -> Engine.trigger_of_json json

let verify_makespan eng (ev : Journal.event) key =
  let want = get (Journal.int_field ev key) in
  let got = Engine.makespan eng in
  if got <> want then
    faill ev.line "replay diverged: makespan %d, journal recorded %d" got want

(* Makespan alone can miss a divergence that happens off the hottest
   processor (e.g. a tampered size on a cold one); the recorded per-event
   [load_after] pins the touched processor's exact load. *)
let verify_load eng (ev : Journal.event) p =
  let want = get (Journal.int_field ev "load_after") in
  let got = (Engine.loads eng).(p) in
  if got <> want then
    faill ev.line "replay diverged: processor %d load %d, journal recorded %d" p got want

(* A mid-journal snapshot must be a faithful picture of the replayed
   state: compare the structural fields of a freshly taken snapshot
   against the recorded one. Counters are skipped — a recording made
   under a live trigger counts auto-rebalances that replay re-executes
   as manual ones. *)
let verify_snapshot eng (ev : Journal.event) state =
  let live = Engine.snapshot eng in
  let get json name =
    match json with Journal.Obj kvs -> List.assoc_opt name kvs | _ -> None
  in
  List.iter
    (fun key ->
      if get live key <> get state key then
        faill ev.line "replay diverged: snapshot field %S does not match the replayed state"
          key)
    [ "m"; "next_seq"; "events_since_repair"; "jobs" ]

let apply eng_ref (ev : Journal.event) st =
  let eng = !eng_ref in
  let rebalances, moves, checks, snapshots, resumed = st in
  match ev.kind with
  | "snapshot" ->
    let state =
      match Journal.field ev "state" with
      | Some state -> state
      | None -> faill ev.line "snapshot event: missing state"
    in
    if ev.seq = 0 then begin
      (* A compacted journal: the snapshot replaces genesis. Replay on a
         Manual engine — recorded auto-repairs are re-applied explicitly
         below, never re-fired. *)
      match Engine.of_snapshot ~trigger:Engine.Manual state with
      | Error msg -> faill ev.line "snapshot event: %s" msg
      | Ok resumed_eng ->
        if Engine.m resumed_eng <> Engine.m eng then
          faill ev.line "snapshot event: snapshot has m=%d, header recorded m=%d"
            (Engine.m resumed_eng) (Engine.m eng);
        eng_ref := resumed_eng;
        (rebalances, moves, checks, snapshots + 1, true)
    end
    else begin
      verify_snapshot eng ev state;
      (rebalances, moves, checks, snapshots + 1, resumed)
    end
  | "add" ->
    let id = get (Journal.str_field ev "id") in
    let size = get (Journal.int_field ev "size") in
    let want_proc = get (Journal.int_field ev "proc") in
    (match Engine.add_job eng ~id ~size with
    | Error msg -> faill ev.line "replay diverged: %s" msg
    | Ok (p, _) ->
      if p <> want_proc then
        faill ev.line "replay diverged: %s placed on processor %d, journal recorded %d" id p
          want_proc;
      verify_load eng ev p);
    verify_makespan eng ev "makespan";
    st
  | "remove" ->
    let id = get (Journal.str_field ev "id") in
    let want_proc = get (Journal.int_field ev "proc") in
    (match Engine.remove_job eng ~id with
    | Error msg -> faill ev.line "replay diverged: %s" msg
    | Ok (p, _) ->
      if p <> want_proc then
        faill ev.line "replay diverged: %s removed from processor %d, journal recorded %d" id
          p want_proc;
      verify_load eng ev p);
    verify_makespan eng ev "makespan";
    st
  | "resize" ->
    let id = get (Journal.str_field ev "id") in
    let size = get (Journal.int_field ev "size") in
    let want_proc = get (Journal.int_field ev "proc") in
    (match Engine.resize_job eng ~id ~size with
    | Error msg -> faill ev.line "replay diverged: %s" msg
    | Ok (p, _) ->
      if p <> want_proc then
        faill ev.line "replay diverged: %s resized on processor %d, journal recorded %d" id p
          want_proc;
      verify_load eng ev p);
    verify_makespan eng ev "makespan";
    st
  | "trigger" ->
    (* Informational: the recorded rebalance that follows carries the
       budget. Replay never re-evaluates trigger policies — that is what
       makes wall-clock-triggered sessions replayable. *)
    st
  | "evacuation" ->
    (* Informational provenance from the shard supervisor: the remove
       (on the evacuated shard) and add (on the survivors) halves of
       each re-homing are ordinary journaled events replayed like any
       other; this record only explains why they happened. *)
    st
  | "rebalance" ->
    let k = get (Journal.int_field ev "k") in
    let want_moves = List.map (move_of_json ev.line) (get (Journal.list_field ev "moves")) in
    let got_moves = Engine.rebalance eng ~k in
    if List.length got_moves <> List.length want_moves then
      faill ev.line "replay diverged: repair made %d moves, journal recorded %d"
        (List.length got_moves) (List.length want_moves);
    List.iteri
      (fun i ((got : Engine.move), want) ->
        if got <> want then
          faill ev.line
            "replay diverged: move %d relocated %s %d->%d, journal recorded %s %d->%d" i
            got.Engine.id got.Engine.src got.Engine.dst want.Engine.id want.Engine.src
            want.Engine.dst)
      (List.combine got_moves want_moves);
    verify_makespan eng ev "makespan_after";
    (rebalances + 1, moves + List.length got_moves, checks, snapshots, resumed)
  | "check" ->
    let k = get (Journal.int_field ev "k") in
    let want_ok = get (Journal.bool_field ev "ok") in
    let got_ok = Engine.check_consistency eng ~k in
    if got_ok <> want_ok then
      faill ev.line "replay diverged: consistency check %b, journal recorded %b" got_ok
        want_ok;
    (rebalances, moves, checks + 1, snapshots, resumed)
  | kind -> faill ev.line "unknown event kind %S" kind

let run_engine (header, evs) =
  try
    let eng = ref (engine_of_header header) in
    let rebalances, moves, checks, snapshots, resumed =
      List.fold_left (fun st ev -> apply eng ev st) (0, 0, 0, 0, false) evs
    in
    let eng = !eng in
    let final_jobs = Engine.job_count eng in
    let consistency_ok =
      final_jobs = 0 || Engine.check_consistency eng ~k:final_jobs
    in
    if not consistency_ok then
      fail "replayed state fails check_consistency against the batch solver";
    (* Re-arm the recorded trigger config: a journal recorded under
       --auto-* must not silently come back as Manual when the replayed
       engine is put back into service. *)
    let trigger = get (trigger_of_header header) in
    Engine.set_trigger eng trigger;
    Ok
      ( eng,
        {
          header;
          m = Engine.m eng;
          events = List.length evs;
          final_jobs;
          final_makespan = Engine.makespan eng;
          rebalances;
          moves;
          checks;
          snapshots;
          resumed;
          trigger;
          consistency_ok;
        } )
  with Fail msg -> Error msg

let run parsed = Result.map snd (run_engine parsed)
let resume = run_engine

let resume_appending ?format ~write parsed =
  Result.map
    (fun (eng, outcome) ->
      Engine.set_journal eng
        (Some (Journal.create ?format ~start_seq:outcome.events ~header_written:true ~write ()));
      (eng, outcome))
    (run_engine parsed)

let same_state a b =
  Engine.job_count a = Engine.job_count b
  && Engine.makespan a = Engine.makespan b
  && Engine.fold_jobs a
       (fun acc ~id ~size ~proc -> acc && Engine.find b id = Some (size, proc))
       true

let run_file path =
  (* Auto-detect: replay verifies binary journals just like JSONL. *)
  match Journal.load_file path with
  | Error msg -> Error msg
  | Ok parsed -> run parsed

let summary o =
  Printf.sprintf
    "replay OK: %d events over m=%d%s -> %d jobs, makespan %d; re-executed %d rebalances \
     (%d moves), re-verified %d recorded checks, final check_consistency passed%s"
    o.events o.m
    (if o.resumed then " (resumed from snapshot)" else "")
    o.final_jobs o.final_makespan o.rebalances o.moves o.checks
    (match o.trigger with
    | Engine.Manual -> ""
    | t -> Printf.sprintf "; re-armed %s trigger" (Engine.trigger_name t))

(* ----- compaction ----- *)

let compact (header, evs) =
  let is_snapshot (ev : Journal.event) = ev.kind = "snapshot" in
  let renumber evs =
    List.mapi (fun i (ev : Journal.event) -> { ev with Journal.seq = i }) evs
  in
  if List.exists is_snapshot evs then begin
    (* Keep the suffix from the latest snapshot on; everything before it
       is reconstructible from the snapshot itself. *)
    let rec split dropped = function
      | [] -> assert false
      | ev :: rest when is_snapshot ev && not (List.exists is_snapshot rest) ->
        (dropped, ev :: rest)
      | _ :: rest -> split (dropped + 1) rest
    in
    let dropped, kept = split 0 evs in
    Ok ((header, renumber kept), dropped, List.length kept)
  end
  else
    (* No snapshot recorded: replay (verifying the whole journal) and
       compact to a single snapshot of the final state. *)
    match run_engine (header, evs) with
    | Error msg -> Error msg
    | Ok (eng, _) ->
      let ts_ns =
        match List.rev evs with [] -> 0 | last :: _ -> last.Journal.ts_ns
      in
      let snap =
        {
          Journal.seq = 0;
          ts_ns;
          kind = "snapshot";
          fields = [ ("state", Engine.snapshot eng) ];
          line = 0;
        }
      in
      Ok ((header, [ snap ]), List.length evs, 1)

(* ----- provenance views ----- *)

let fmt_imb f = Printf.sprintf "%.3f" f

let event_detail (ev : Journal.event) =
  let istr key = match Journal.int_field ev key with Ok v -> string_of_int v | Error _ -> "?" in
  let sstr key = match Journal.str_field ev key with Ok v -> v | Error _ -> "?" in
  match ev.kind with
  | "add" -> Printf.sprintf "%s (%s) -> p%s" (sstr "id") (istr "size") (istr "proc")
  | "remove" -> Printf.sprintf "%s (%s) off p%s" (sstr "id") (istr "size") (istr "proc")
  | "resize" ->
    Printf.sprintf "%s %s->%s on p%s" (sstr "id") (istr "old_size") (istr "size")
      (istr "proc")
  | "trigger" ->
    let imb = match Journal.float_field ev "imbalance" with Ok f -> fmt_imb f | Error _ -> "?" in
    Printf.sprintf "%s k=%s imbalance=%s" (sstr "trigger") (istr "k") imb
  | "rebalance" ->
    Printf.sprintf "k=%s lifted=%s moves=%s (%s) makespan %s->%s" (istr "k")
      (istr "lifted") (istr "n_moves")
      (if sstr "trigger" = "manual" then "manual" else "auto:" ^ sstr "trigger")
      (istr "makespan_before") (istr "makespan_after")
  | "check" ->
    Printf.sprintf "k=%s batch=%s repair=%s %s" (istr "k") (istr "batch_makespan")
      (istr "repair_makespan")
      (match Journal.bool_field ev "ok" with
      | Ok true -> "ok"
      | Ok false -> "FAILED"
      | Error _ -> "?")
  | "evacuation" ->
    Printf.sprintf "shard %s %s: %s job(s) re-homed, %s left (budget %s)" (istr "shard")
      (sstr "reason") (istr "jobs") (istr "leftover") (istr "budget")
  | _ -> "?"

let event_makespan (ev : Journal.event) =
  let key = if ev.kind = "rebalance" then "makespan_after" else "makespan" in
  match Journal.int_field ev key with Ok v -> string_of_int v | Error _ -> ""

let explain_summary ((header : Journal.header), evs) =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "journal %s v%d (%d events)" header.journal header.version
           (List.length evs))
      ~columns:[ "seq"; "event"; "detail"; "makespan" ]
  in
  List.iter
    (fun (ev : Journal.event) ->
      Table.add_row tbl
        [ string_of_int ev.seq; ev.kind; event_detail ev; event_makespan ev ])
    evs;
  Table.render tbl

let moves_of_event (ev : Journal.event) =
  match Journal.list_field ev "moves" with
  | Error _ -> []
  | Ok l -> List.filter_map (function Journal.Obj kvs -> Some kvs | _ -> None) l

let assoc_int kvs key = match List.assoc_opt key kvs with Some (Journal.Int v) -> string_of_int v | _ -> "?"
let assoc_str kvs key = match List.assoc_opt key kvs with Some (Journal.Str v) -> v | _ -> "?"

let explain_job (_, evs) ~id =
  let tbl =
    Table.create
      ~title:(Printf.sprintf "decision history of job %s" id)
      ~columns:[ "seq"; "event"; "detail"; "makespan" ]
  in
  let hits = ref 0 in
  List.iter
    (fun (ev : Journal.event) ->
      match ev.kind with
      | "add" | "remove" | "resize" ->
        if Journal.str_field ev "id" = Ok id then begin
          incr hits;
          Table.add_row tbl
            [ string_of_int ev.seq; ev.kind; event_detail ev; event_makespan ev ]
        end
      | "rebalance" ->
        List.iter
          (fun kvs ->
            if assoc_str kvs "id" = id then begin
              incr hits;
              Table.add_row tbl
                [
                  string_of_int ev.seq;
                  "move";
                  Printf.sprintf "p%s -> p%s (src load %s->%s, dst load %s->%s)"
                    (assoc_int kvs "src") (assoc_int kvs "dst")
                    (assoc_int kvs "src_load_before") (assoc_int kvs "src_load_after")
                    (assoc_int kvs "dst_load_before") (assoc_int kvs "dst_load_after");
                  event_makespan ev;
                ]
            end)
          (moves_of_event ev)
      | _ -> ())
    evs;
  if !hits = 0 then Error (Printf.sprintf "job %s does not appear in this journal" id)
  else Ok (Table.render tbl)

let explain_rebalance (_, evs) ~seq =
  match List.find_opt (fun (ev : Journal.event) -> ev.seq = seq) evs with
  | None -> Error (Printf.sprintf "no event with sequence number %d" seq)
  | Some ev when ev.kind <> "rebalance" ->
    Error
      (Printf.sprintf "event %d is %S, not a rebalance (see explain with no --rebalance)"
         seq ev.kind)
  | Some ev ->
    let istr key = match Journal.int_field ev key with Ok v -> string_of_int v | Error _ -> "?" in
    let sstr key = match Journal.str_field ev key with Ok v -> v | Error _ -> "?" in
    let imb = match Journal.float_field ev "imbalance_before" with Ok f -> fmt_imb f | Error _ -> "?" in
    let head =
      Printf.sprintf
        "rebalance seq=%d: trigger=%s budget k=%s lifted=%s imbalance=%s makespan %s -> %s\n"
        ev.seq (sstr "trigger") (istr "k") (istr "lifted") imb (istr "makespan_before")
        (istr "makespan_after")
    in
    let tbl =
      Table.create
        ~title:(Printf.sprintf "moves of rebalance seq=%d" ev.seq)
        ~columns:[ "job"; "size"; "src"; "dst"; "src load"; "dst load" ]
    in
    List.iter
      (fun kvs ->
        Table.add_row tbl
          [
            assoc_str kvs "id";
            assoc_int kvs "size";
            "p" ^ assoc_int kvs "src";
            "p" ^ assoc_int kvs "dst";
            Printf.sprintf "%s->%s" (assoc_int kvs "src_load_before")
              (assoc_int kvs "src_load_after");
            Printf.sprintf "%s->%s" (assoc_int kvs "dst_load_before")
              (assoc_int kvs "dst_load_after");
          ])
      (moves_of_event ev);
    Ok (head ^ Table.render tbl)
