module Journal = Rebal_obs.Journal
module Frame = Journal.Frame
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

(* The replay in progress: one per journal, threaded through the fold. *)
type state = {
  header : Journal.header;
  mutable eng : Engine.t;
  mutable events : int;
  mutable rebalances : int;
  mutable moves : int;
  mutable checks : int;
  mutable snapshots : int;
  mutable resumed : bool;
}

let start header =
  {
    header;
    eng = engine_of_header header;
    events = 0;
    rebalances = 0;
    moves = 0;
    checks = 0;
    snapshots = 0;
    resumed = false;
  }

(* A failure on the line of frame [f]. *)
let failf f fmt = faill (Frame.line f) fmt

let verify_makespan eng f key =
  let want = Frame.int f key in
  let got = Engine.makespan eng in
  if got <> want then
    failf f "replay diverged: makespan %d, journal recorded %d" got want

(* Makespan alone can miss a divergence that happens off the hottest
   processor (e.g. a tampered size on a cold one); the recorded per-event
   [load_after] pins the touched processor's exact load. *)
let verify_load eng f p =
  let want = Frame.int f "load_after" in
  let got = Engine.load eng p in
  if got <> want then
    failf f "replay diverged: processor %d load %d, journal recorded %d" p got want

(* A mid-journal snapshot must be a faithful picture of the replayed
   state: its structural fields are compared, in place, with the engine.
   Counters are skipped — a recording made under a live trigger counts
   auto-rebalances that replay re-executes as manual ones. *)
let verify_snapshot eng f state =
  match Engine.snapshot_differs eng state with
  | None -> ()
  | Some key ->
    failf f "replay diverged: snapshot field %S does not match the replayed state" key

(* An add/remove/resize outcome: the recorded processor, its load and
   the makespan. *)
let verify_placement eng f ~id ~want_proc ~verb result =
  (match result with
  | Error msg -> failf f "replay diverged: %s" msg
  | Ok (p, _) ->
    if p <> want_proc then
      failf f "replay diverged: %s %s processor %d, journal recorded %d" id verb p want_proc;
    verify_load eng f p);
  verify_makespan eng f "makespan"

let apply st f =
  let eng = st.eng in
  st.events <- st.events + 1;
  (match Frame.kind f with
  | "snapshot" ->
    let state =
      match Frame.cursor f "state" with
      | Some state -> state
      | None -> failf f "snapshot event: missing state"
    in
    if Frame.seq f = 0 then begin
      (* A compacted journal: the snapshot replaces genesis. Replay on a
         Manual engine — recorded auto-repairs are re-applied explicitly
         below, never re-fired. *)
      match Engine.of_snapshot ~trigger:Engine.Manual state with
      | Error msg -> failf f "snapshot event: %s" msg
      | Ok resumed_eng ->
        if Engine.m resumed_eng <> Engine.m eng then
          failf f "snapshot event: snapshot has m=%d, header recorded m=%d"
            (Engine.m resumed_eng) (Engine.m eng);
        st.eng <- resumed_eng;
        st.resumed <- true
    end
    else verify_snapshot eng f state;
    st.snapshots <- st.snapshots + 1
  | "add" ->
    let id = Frame.str f "id" in
    let size = Frame.int f "size" in
    let want_proc = Frame.int f "proc" in
    verify_placement eng f ~id ~want_proc ~verb:"placed on"
      (Engine.replay_apply eng (Engine.Add { id; size }))
  | "remove" ->
    let id = Frame.str f "id" in
    let want_proc = Frame.int f "proc" in
    verify_placement eng f ~id ~want_proc ~verb:"removed from"
      (Engine.replay_apply eng (Engine.Remove { id }))
  | "resize" ->
    let id = Frame.str f "id" in
    let size = Frame.int f "size" in
    let want_proc = Frame.int f "proc" in
    verify_placement eng f ~id ~want_proc ~verb:"resized on"
      (Engine.replay_apply eng (Engine.Resize { id; size }))
  | "trigger" ->
    (* Informational: the recorded rebalance that follows carries the
       budget. Replay never re-evaluates trigger policies — that is what
       makes wall-clock-triggered sessions replayable. *)
    ()
  | "evacuation" ->
    (* Informational provenance from the shard supervisor: the remove
       (on the evacuated shard) and add (on the survivors) halves of
       each re-homing are ordinary journaled events replayed like any
       other; this record only explains why they happened. *)
    ()
  | "rebalance" ->
    let line = Frame.line f in
    let k = Frame.int f "k" in
    let want_moves = List.map (move_of_json line) (Frame.list f "moves") in
    let got_moves = Engine.replay_rebalance eng ~k in
    if List.length got_moves <> List.length want_moves then
      faill line "replay diverged: repair made %d moves, journal recorded %d"
        (List.length got_moves) (List.length want_moves);
    List.iteri
      (fun i ((got : Engine.move), want) ->
        if got <> want then
          faill line "replay diverged: move %d relocated %s %d->%d, journal recorded %s %d->%d"
            i got.Engine.id got.Engine.src got.Engine.dst want.Engine.id want.Engine.src
            want.Engine.dst)
      (List.combine got_moves want_moves);
    verify_makespan eng f "makespan_after";
    st.rebalances <- st.rebalances + 1;
    st.moves <- st.moves + List.length got_moves
  | "check" ->
    let k = Frame.int f "k" in
    let want_ok = Frame.bool f "ok" in
    let got_ok = Engine.check_consistency eng ~k in
    if got_ok <> want_ok then
      failf f "replay diverged: consistency check %b, journal recorded %b" got_ok want_ok;
    st.checks <- st.checks + 1
  | kind -> failf f "unknown event kind %S" kind);
  st

(* After the last event: the recorded trigger re-armed — a journal
   recorded under --auto-* must not silently come back as Manual when
   the replayed engine is put back into service — then [settled] sees
   the replayed state, and the full-budget consistency check against
   the batch solver runs last, counted in the engine's
   [consistency_checks]. *)
let finish ?(settled = ignore) st =
  let eng = st.eng in
  let trigger = get (trigger_of_header st.header) in
  Engine.set_trigger eng trigger;
  settled eng;
  let final_jobs = Engine.job_count eng in
  let consistency_ok = final_jobs = 0 || Engine.check_consistency eng ~k:final_jobs in
  if not consistency_ok then
    fail "replayed state fails check_consistency against the batch solver";
  ( eng,
    {
      header = st.header;
      m = Engine.m eng;
      events = st.events;
      final_jobs;
      final_makespan = Engine.makespan eng;
      rebalances = st.rebalances;
      moves = st.moves;
      checks = st.checks;
      snapshots = st.snapshots;
      resumed = st.resumed;
      trigger;
      consistency_ok;
    } )

(* One replay, whatever the source: [fold] is one of [Journal]'s folds
   over a file, or over an already-parsed journal. *)
let replay ?settled fold =
  try Result.map (finish ?settled) (fold ~header:start apply) with Fail msg -> Error msg

let resume parsed = replay (Journal.fold_parsed parsed)
let run parsed = Result.map snd (resume parsed)

let append_to ?format ~write (eng, (outcome : outcome)) =
  Engine.set_journal eng
    (Some (Journal.create ?format ~start_seq:outcome.events ~header_written:true ~write ()));
  (eng, outcome)

let resume_appending ?format ~write parsed = Result.map (append_to ?format ~write) (resume parsed)

let resume_file ?append path =
  let resumed = replay (Journal.fold_file path) in
  match append with
  | None -> resumed
  | Some write -> Result.map (append_to ~format:(Journal.sniff_file path) ~write) resumed

let same_state a b =
  Engine.job_count a = Engine.job_count b
  && Engine.makespan a = Engine.makespan b
  && Engine.fold_jobs a
       (fun acc ~id ~size ~proc -> acc && Engine.find b id = Some (size, proc))
       true

let run_file path = Result.map snd (resume_file path)

let summary (o : outcome) =
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
       compact to a single snapshot of the final state, taken before the
       replay's own final check — that check belongs to the replay, not
       to the recording, so the snapshot's [consistency_checks] is the
       recording engine's. *)
    let state = ref None in
    let settled eng = state := Some (Engine.snapshot eng) in
    match replay ~settled (Journal.fold_parsed (header, evs)) with
    | Error msg -> Error msg
    | Ok _ ->
      let ts_ns =
        match List.rev evs with [] -> 0 | last :: _ -> last.Journal.ts_ns
      in
      let snap =
        {
          Journal.seq = 0;
          ts_ns;
          kind = "snapshot";
          fields = [ ("state", Option.get !state) ];
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
