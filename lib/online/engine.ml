module Instance = Rebal_core.Instance
module Assignment = Rebal_core.Assignment
module Indexed_heap = Rebal_ds.Indexed_heap
module Flat_str_map = Rebal_ds.Flat_str_map
module Metrics = Rebal_obs.Metrics
module Optrace = Rebal_obs.Optrace
module Control = Rebal_obs.Control
module Journal = Rebal_obs.Journal
module Timer = Rebal_harness.Timer

(* The flat core. Every job lives in a slot of a set of parallel int
   arrays (plus one string array for the external id); slots are
   recycled through a free-list, so once the arrays have grown to the
   workload's high-water mark a steady add/remove/resize churn performs
   zero minor-heap allocation. The orderings the repair pass consumes
   are flat binary heaps of slot indices:

   - one per-processor heap ordered (size desc, seq asc), whose root is
     exactly the element [Job_set.max_elt] used to yield — the largest
     job, smallest sequence number on ties;
   - one global heap in the same order, whose root gives the largest
     live job for the imbalance lower bound;
   - the two [Indexed_heap]s over processor loads, unchanged.

   The id -> slot directory is an open-addressing [Flat_str_map], the
   only string-keyed structure left on the hot path. *)

type trigger =
  | Manual
  | Every_events of { events : int; k : int }
  | Imbalance_above of { threshold : float; k : int }
  | Every_seconds of { seconds : float; k : int }

type move = {
  id : string;
  src : int;
  dst : int;
}

type op =
  | Add of { id : string; size : int }
  | Remove of { id : string }
  | Resize of { id : string; size : int }

let op_id = function Add { id; _ } | Remove { id } | Resize { id; _ } -> id

type counters = {
  mutable events : int;
  mutable adds : int;
  mutable removes : int;
  mutable resizes : int;
  mutable rebalances : int;
  mutable auto_rebalances : int;
  mutable trigger_firings : int;
  mutable moved : int;
  mutable last_rebalance_moves : int;
  mutable consistency_checks : int;
  mutable consistency_failures : int;
}

(* Histogram handles bound to the registry current at [create] time, so
   a serve daemon's engine and a test's [with_registry]-scoped engine
   never share series. Observing when disabled would still be cheap, but
   latency observations need two clock reads — those are gated on
   [Control.enabled] so the engine stays on the fast path by default. *)
type obs = {
  lat_add : Metrics.histogram;
  lat_remove : Metrics.histogram;
  lat_resize : Metrics.histogram;
  lat_rebalance : Metrics.histogram;
  moves_per_rebalance : Metrics.histogram;
}

let make_obs () =
  let lat op =
    Metrics.histogram
      ~labels:[ ("op", op) ]
      ~help:"Engine operation latency in seconds" "rebal_engine_op_latency_seconds"
  in
  {
    lat_add = lat "add";
    lat_remove = lat "remove";
    lat_resize = lat "resize";
    lat_rebalance = lat "rebalance";
    moves_per_rebalance =
      Metrics.histogram ~help:"Jobs relocated per repair pass"
        ~buckets:[| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]
        "rebal_engine_moves_per_rebalance";
  }

let timed hist f a b =
  if Control.enabled () then begin
    let start = Timer.now_ns () in
    let r = f a b in
    Metrics.Histogram.observe_ns hist (Int64.sub (Timer.now_ns ()) start);
    r
  end
  else f a b

type stats = {
  jobs : int;
  procs : int;
  makespan : int;
  total_size : int;
  imbalance : float;
  events : int;
  adds : int;
  removes : int;
  resizes : int;
  rebalances : int;
  auto_rebalances : int;
  trigger_firings : int;
  moved : int;
  last_rebalance_moves : int;
  consistency_checks : int;
  consistency_failures : int;
}

(* Placeholder id for free slots: assigning it releases the reference to
   the departed job's id string. Never compared physically. *)
let no_id = ""

type t = {
  m : int;
  mutable trigger : trigger;
  clock : unit -> float;
  dir : Flat_str_map.t; (* external id -> slot *)
  (* ----- the slot table: parallel arrays indexed by slot ----- *)
  mutable cap : int;
  mutable job_ext : string array;
  mutable job_size : int array;
  mutable job_seq : int array;
  mutable job_proc : int array; (* -1 marks a free slot *)
  mutable job_hpos : int array; (* position in its processor's heap *)
  mutable job_gpos : int array; (* position in the global size heap *)
  mutable free : int array; (* stack of recycled slots below [hw] *)
  mutable free_len : int;
  mutable hw : int; (* slots ever handed out (the scan bound) *)
  mutable live : int;
  (* per-processor heaps of slots, ordered (size desc, seq asc) *)
  pheap : int array array;
  plen : int array;
  (* global size heap in the same order — replaces the size multiset *)
  mutable gheap : int array;
  mutable glen : int;
  load : int array;
  (* Two views of the same load vector: [min_heap] keyed by load answers
     "least-loaded processor" for greedy placement, [max_heap] keyed by
     negated load answers "most-loaded processor" for the repair pass and
     makes [makespan] O(1). Both are updated on every load change. *)
  min_heap : Indexed_heap.t;
  max_heap : Indexed_heap.t;
  mutable next_seq : int;
  mutable total_size : int;
  mutable events_since_repair : int;
  mutable last_repair : float;
  (* Repair scratch: the lifted slots, their sources and source loads,
     and the placement order. Sized by the largest budget a pass has
     used ([min k live]), never by the slot capacity, so a served
     repair of k = 32 on a 100k-job engine holds 4 x 32 words. *)
  mutable scr_slot : int array;
  mutable scr_src : int array;
  mutable scr_before : int array;
  mutable scr_ord : int array;
  c : counters;
  obs : obs;
  (* The flight recorder. Gating is sink presence: every emission site is
     one [match] on [journal] when off, and field lists are only built in
     the [Some] branch. *)
  mutable journal : Journal.sink option;
}

let trigger_name = function
  | Manual -> "manual"
  | Every_events _ -> "every_events"
  | Imbalance_above _ -> "imbalance_above"
  | Every_seconds _ -> "every_seconds"

let trigger_to_json trigger =
  let kind = ("kind", Journal.Str (trigger_name trigger)) in
  match trigger with
  | Manual -> Journal.Obj [ kind ]
  | Every_events { events; k } ->
    Journal.Obj [ kind; ("events", Journal.Int events); ("k", Journal.Int k) ]
  | Imbalance_above { threshold; k } ->
    Journal.Obj [ kind; ("threshold", Journal.Float threshold); ("k", Journal.Int k) ]
  | Every_seconds { seconds; k } ->
    Journal.Obj [ kind; ("seconds", Journal.Float seconds); ("k", Journal.Int k) ]

let trigger_of_json json =
  let ( let* ) = Result.bind in
  match json with
  | Journal.Obj fields ->
    let str name =
      match List.assoc_opt name fields with
      | Some (Journal.Str s) -> Ok s
      | _ -> Error (Printf.sprintf "trigger: missing string field %S" name)
    in
    let int name =
      match List.assoc_opt name fields with
      | Some (Journal.Int i) -> Ok i
      | _ -> Error (Printf.sprintf "trigger: missing integer field %S" name)
    in
    let num name =
      match List.assoc_opt name fields with
      | Some (Journal.Float f) -> Ok f
      | Some (Journal.Int i) -> Ok (float_of_int i)
      | _ -> Error (Printf.sprintf "trigger: missing numeric field %S" name)
    in
    let* kind = str "kind" in
    (match kind with
    | "manual" -> Ok Manual
    | "every_events" ->
      let* events = int "events" in
      let* k = int "k" in
      Ok (Every_events { events; k })
    | "imbalance_above" ->
      let* threshold = num "threshold" in
      let* k = int "k" in
      Ok (Imbalance_above { threshold; k })
    | "every_seconds" ->
      let* seconds = num "seconds" in
      let* k = int "k" in
      Ok (Every_seconds { seconds; k })
    | other -> Error (Printf.sprintf "trigger: unknown kind %S" other))
  | _ -> Error "trigger: expected an object"

let journal_header t sink =
  Journal.write_header sink ~journal:"rebal-engine"
    [
      ("m", Journal.Int t.m);
      ("trigger", Journal.Str (trigger_name t.trigger));
      ("trigger_config", trigger_to_json t.trigger);
    ]

let initial_cap = 64

let create ?(trigger = Manual) ?(clock = Unix.gettimeofday) ?journal ~m () =
  if m < 1 then invalid_arg "Engine.create: need at least one processor";
  let min_heap = Indexed_heap.create m in
  let max_heap = Indexed_heap.create m in
  for p = 0 to m - 1 do
    Indexed_heap.set min_heap p 0;
    Indexed_heap.set max_heap p 0
  done;
  {
    m;
    trigger;
    clock;
    dir = Flat_str_map.create initial_cap;
    cap = initial_cap;
    job_ext = Array.make initial_cap no_id;
    job_size = Array.make initial_cap 0;
    job_seq = Array.make initial_cap 0;
    job_proc = Array.make initial_cap (-1);
    job_hpos = Array.make initial_cap 0;
    job_gpos = Array.make initial_cap 0;
    free = Array.make initial_cap 0;
    free_len = 0;
    hw = 0;
    live = 0;
    pheap = Array.init m (fun _ -> Array.make 8 0);
    plen = Array.make m 0;
    gheap = Array.make initial_cap 0;
    glen = 0;
    load = Array.make m 0;
    min_heap;
    max_heap;
    next_seq = 0;
    total_size = 0;
    events_since_repair = 0;
    last_repair = clock ();
    scr_slot = [||];
    scr_src = [||];
    scr_before = [||];
    scr_ord = [||];
    c =
      {
        events = 0;
        adds = 0;
        removes = 0;
        resizes = 0;
        rebalances = 0;
        auto_rebalances = 0;
        trigger_firings = 0;
        moved = 0;
        last_rebalance_moves = 0;
        consistency_checks = 0;
        consistency_failures = 0;
      };
    obs = make_obs ();
    journal;
  }
  |> fun t ->
  (match journal with Some sink -> journal_header t sink | None -> ());
  t

let m t = t.m
let journal t = t.journal
let trigger t = t.trigger

let set_trigger t trigger =
  t.trigger <- trigger;
  (* A fresh policy should not fire off stale state: restart the
     wall-clock epoch, but keep events_since_repair — an Every_events
     policy armed mid-stream still owes a repair for the backlog. *)
  t.last_repair <- t.clock ()

let set_journal t sink =
  t.journal <- sink;
  match sink with Some s -> journal_header t s | None -> ()

let job_count t = t.live
let makespan t = -Indexed_heap.min_prio_exn t.max_heap
let loads t = Array.copy t.load
let load t p = t.load.(p)
let max_job_size t = if t.glen = 0 then 0 else t.job_size.(t.gheap.(0))

(* Makespan over the batch lower bound max(average load, largest job) —
   the same ratio Verify reports. Using the average alone would make a
   single oversized job read as permanent imbalance no repair can fix,
   and an imbalance trigger would thrash on it. *)
let imbalance t =
  if t.total_size = 0 then 1.0
  else begin
    let bound =
      Float.max
        (float_of_int t.total_size /. float_of_int t.m)
        (float_of_int (max_job_size t))
    in
    float_of_int (makespan t) /. bound
  end

let min_load t = Indexed_heap.min_exn t.min_heap

let peek_heaviest t =
  let p = Indexed_heap.min_key_exn t.max_heap in
  if t.load.(p) = 0 then None
  else begin
    let slot = t.pheap.(p).(0) in
    Some (t.job_ext.(slot), t.job_size.(slot), p)
  end

let fold_jobs t f acc =
  let acc = ref acc in
  for slot = 0 to t.hw - 1 do
    if t.job_proc.(slot) >= 0 then
      acc :=
        f !acc ~id:t.job_ext.(slot) ~size:t.job_size.(slot)
          ~proc:t.job_proc.(slot)
  done;
  !acc

let mem t id = Flat_str_map.mem t.dir id

let find t id =
  let slot = Flat_str_map.find t.dir id in
  if slot < 0 then None else Some (t.job_size.(slot), t.job_proc.(slot))

let set_load t p l =
  t.load.(p) <- l;
  Indexed_heap.set t.min_heap p l;
  Indexed_heap.set t.max_heap p (-l)

(* ----- flat heaps of slots, ordered (size desc, seq asc) ----- *)

(* [a] extracts before [b]: strictly larger, or same size and earlier
   arrival — exactly the order the batch GREEDY consumes. *)
let slot_before t a b =
  let sa = t.job_size.(a) and sb = t.job_size.(b) in
  sa > sb || (sa = sb && t.job_seq.(a) < t.job_seq.(b))

let rec jsift_up t heap pos i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let si = heap.(i) and sp = heap.(parent) in
    if slot_before t si sp then begin
      heap.(i) <- sp;
      heap.(parent) <- si;
      pos.(sp) <- i;
      pos.(si) <- parent;
      jsift_up t heap pos parent
    end
  end

let rec jsift_down t heap pos len i =
  let l = (2 * i) + 1 in
  if l < len then begin
    let r = l + 1 in
    let best = if r < len && slot_before t heap.(r) heap.(l) then r else l in
    if slot_before t heap.(best) heap.(i) then begin
      let sb = heap.(best) and si = heap.(i) in
      heap.(i) <- sb;
      heap.(best) <- si;
      pos.(sb) <- i;
      pos.(si) <- best;
      jsift_down t heap pos len best
    end
  end

let pheap_push t p slot =
  let n = t.plen.(p) in
  (if n >= Array.length t.pheap.(p) then begin
     let bigger = Array.make (2 * Array.length t.pheap.(p)) 0 in
     Array.blit t.pheap.(p) 0 bigger 0 n;
     t.pheap.(p) <- bigger
   end);
  let h = t.pheap.(p) in
  h.(n) <- slot;
  t.job_hpos.(slot) <- n;
  t.plen.(p) <- n + 1;
  jsift_up t h t.job_hpos n

(* Standard last-element replacement (same pattern as
   [Indexed_heap.remove]): the replacement sifts up or down, and the one
   that doesn't apply is a no-op. *)
let pheap_remove t p slot =
  let h = t.pheap.(p) in
  let i = t.job_hpos.(slot) in
  let last = t.plen.(p) - 1 in
  t.plen.(p) <- last;
  if i < last then begin
    let moved = h.(last) in
    h.(i) <- moved;
    t.job_hpos.(moved) <- i;
    jsift_up t h t.job_hpos i;
    jsift_down t h t.job_hpos last i
  end

(* After a resize only one direction can be violated: a grown job
   extracts earlier (sift up), a shrunk one later (sift down). *)
let pheap_reorder t p slot ~up =
  let h = t.pheap.(p) in
  if up then jsift_up t h t.job_hpos t.job_hpos.(slot)
  else jsift_down t h t.job_hpos t.plen.(p) t.job_hpos.(slot)

let gheap_push t slot =
  let n = t.glen in
  t.gheap.(n) <- slot;
  t.job_gpos.(slot) <- n;
  t.glen <- n + 1;
  jsift_up t t.gheap t.job_gpos n

let gheap_remove t slot =
  let i = t.job_gpos.(slot) in
  let last = t.glen - 1 in
  t.glen <- last;
  if i < last then begin
    let moved = t.gheap.(last) in
    t.gheap.(i) <- moved;
    t.job_gpos.(moved) <- i;
    jsift_up t t.gheap t.job_gpos i;
    jsift_down t t.gheap t.job_gpos last i
  end

let gheap_reorder t slot ~up =
  if up then jsift_up t t.gheap t.job_gpos t.job_gpos.(slot)
  else jsift_down t t.gheap t.job_gpos t.glen t.job_gpos.(slot)

(* ----- slot allocation ----- *)

let grow_slots_to t cap =
  if cap > t.cap then begin
    let exts = Array.make cap no_id in
    Array.blit t.job_ext 0 exts 0 t.cap;
    t.job_ext <- exts;
    let grown a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 t.cap;
      b
    in
    t.job_size <- grown t.job_size;
    t.job_seq <- grown t.job_seq;
    let procs = Array.make cap (-1) in
    Array.blit t.job_proc 0 procs 0 t.cap;
    t.job_proc <- procs;
    t.job_hpos <- grown t.job_hpos;
    t.job_gpos <- grown t.job_gpos;
    t.free <- grown t.free;
    t.gheap <- grown t.gheap;
    t.cap <- cap
  end

let alloc_slot t =
  if t.free_len > 0 then begin
    t.free_len <- t.free_len - 1;
    t.free.(t.free_len)
  end
  else begin
    if t.hw >= t.cap then grow_slots_to t (2 * t.cap);
    let slot = t.hw in
    t.hw <- t.hw + 1;
    slot
  end

let rec pow2_above k n = if k >= n then k else pow2_above (k * 2) n

(* Pre-size the slot arrays, the directory and every processor heap for
   [jobs] live jobs so that no later add, remove or resize allocates
   even in the worst placement skew (all jobs on one processor).
   Latency-sensitive callers and the allocation benchmark use this to
   take growth out of the measured window. The repair scratch is not
   presized: the first pass at a budget grows it. *)
let reserve t ~jobs =
  if jobs < 0 then invalid_arg "Engine.reserve: negative job count";
  grow_slots_to t (pow2_above initial_cap jobs);
  Flat_str_map.reserve t.dir jobs;
  for p = 0 to t.m - 1 do
    if Array.length t.pheap.(p) < jobs then begin
      let bigger = Array.make (max jobs 8) 0 in
      Array.blit t.pheap.(p) 0 bigger 0 t.plen.(p);
      t.pheap.(p) <- bigger
    end
  done

(* ----- the bounded-move repair pass ----- *)

(* Sort the lift indices [scr_ord.(0 .. n - 1)] into placement order:
   size desc, then lift order. A total order, so any sort yields exactly
   the permutation of a stable sort by size. A merge sort, so a lift
   order far from size order (small jobs lifted before larger ones)
   still costs O(n log n); runs of at most [small] and already-ordered
   halves cost what an insertion sort costs, so a lift order that is
   nearly by size (the common case) stays near-linear. The left half of
   a merge is parked in [tmp], allocated per pass: a buffer kept with
   the scratch would hold half the largest budget ever used for the
   engine's lifetime. *)
let sort_placements t n =
  let ord = t.scr_ord and tmp = Array.make (n / 2) 0 in
  let before a b =
    let sa = t.job_size.(t.scr_slot.(a)) and sb = t.job_size.(t.scr_slot.(b)) in
    sa > sb || (sa = sb && a < b)
  in
  let small = 16 in
  let rec sort lo hi =
    if hi - lo <= small then
      for i = lo + 1 to hi - 1 do
        let o = ord.(i) in
        let j = ref (i - 1) in
        while !j >= lo && before o ord.(!j) do
          ord.(!j + 1) <- ord.(!j);
          decr j
        done;
        ord.(!j + 1) <- o
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      sort lo mid;
      sort mid hi;
      if before ord.(mid) ord.(mid - 1) then begin
        let left = mid - lo in
        Array.blit ord lo tmp 0 left;
        (* [i] walks the parked left half, [j] the right half in place;
           the write position never passes [j]. *)
        let i = ref 0 and j = ref mid and w = ref lo in
        while !i < left && !j < hi do
          if before ord.(!j) tmp.(!i) then begin
            ord.(!w) <- ord.(!j);
            incr j
          end
          else begin
            ord.(!w) <- tmp.(!i);
            incr i
          end;
          incr w
        done;
        Array.blit tmp !i ord !w (left - !i)
      end
    end
  in
  sort 0 n

(* GREEDY on the live state, and nothing else: no move list, journal,
   counters or telemetry, so the consistency probe runs exactly this.
   Removal phase = GREEDY step 1: k times, take the largest job off the
   most-loaded processor (ties: smaller index), recording in lift order
   its slot, source and the source's load before. Reinsertion = step 2:
   descending size, ties in lift order, onto the least-loaded processor;
   [scr_ord.(i)] is the lift index of the i-th placement and [job_proc]
   the destination. Returns the number of jobs lifted. The scratch grows
   to the pass's budget and keeps it; its contents mean nothing between
   passes, so growth copies nothing. *)
let lift_and_place t ~k =
  let lifted = ref 0 in
  let limit = min k t.live in
  if Array.length t.scr_slot < limit then begin
    t.scr_slot <- Array.make limit 0;
    t.scr_src <- Array.make limit 0;
    t.scr_before <- Array.make limit 0;
    t.scr_ord <- Array.make limit 0
  end;
  (try
     while !lifted < limit do
       let p = Indexed_heap.min_key_exn t.max_heap in
       if t.load.(p) = 0 then raise Exit;
       let slot = t.pheap.(p).(0) in
       pheap_remove t p slot;
       let src_before = t.load.(p) in
       set_load t p (src_before - t.job_size.(slot));
       t.scr_slot.(!lifted) <- slot;
       t.scr_src.(!lifted) <- p;
       t.scr_before.(!lifted) <- src_before;
       t.scr_ord.(!lifted) <- !lifted;
       incr lifted
     done
   with Exit -> ());
  let lifted = !lifted in
  sort_placements t lifted;
  for i = 0 to lifted - 1 do
    let slot = t.scr_slot.(t.scr_ord.(i)) in
    let p = Indexed_heap.min_key_exn t.min_heap in
    pheap_push t p slot;
    set_load t p (t.load.(p) + t.job_size.(slot));
    t.job_proc.(slot) <- p
  done;
  lifted

(* A repair pass as the engine's history records it: [lift_and_place],
   then the moves, the counters and the journal's provenance. Both the
   move list and the provenance are built from the last placement back,
   walking the destination loads back to what each placement saw. *)
let repair ~auto t ~k =
  if k < 0 then invalid_arg "Engine.rebalance: negative k";
  (* Decision-time context for the journal, captured before any load
     changes. Both reads are O(1); skipped entirely when not journaling. *)
  let decision =
    match t.journal with
    | None -> None
    | Some sink -> Some (sink, makespan t, imbalance t)
  in
  let journaling = Option.is_some decision in
  let lifted = lift_and_place t ~k in
  let dst_load = if journaling then Array.copy t.load else [||] in
  let moves = ref [] and n_moves = ref 0 and provenance = ref [] in
  for i = lifted - 1 downto 0 do
    let j = t.scr_ord.(i) in
    let slot = t.scr_slot.(j) in
    let src = t.scr_src.(j) and dst = t.job_proc.(slot) in
    if src <> dst then begin
      moves := { id = t.job_ext.(slot); src; dst } :: !moves;
      incr n_moves
    end;
    if journaling then begin
      let size = t.job_size.(slot) in
      let after = dst_load.(dst) in
      dst_load.(dst) <- after - size;
      if src <> dst then
        provenance :=
          Journal.Obj
            [
              ("id", Journal.Str t.job_ext.(slot));
              ("size", Journal.Int size);
              ("src", Journal.Int src);
              ("dst", Journal.Int dst);
              ("src_load_before", Journal.Int t.scr_before.(j));
              ("src_load_after", Journal.Int (t.scr_before.(j) - size));
              ("dst_load_before", Journal.Int (after - size));
              ("dst_load_after", Journal.Int after);
            ]
          :: !provenance
    end
  done;
  let n_moves = !n_moves in
  t.c.rebalances <- t.c.rebalances + 1;
  if auto then t.c.auto_rebalances <- t.c.auto_rebalances + 1;
  t.c.moved <- t.c.moved + n_moves;
  t.c.last_rebalance_moves <- n_moves;
  t.events_since_repair <- 0;
  (match decision with
  | None -> ()
  | Some (sink, makespan_before, imbalance_before) ->
    Journal.emit sink ~kind:"rebalance"
      [
        ("k", Journal.Int k);
        ("auto", Journal.Bool auto);
        ("trigger", Journal.Str (trigger_name t.trigger));
        ("imbalance_before", Journal.Float imbalance_before);
        ("makespan_before", Journal.Int makespan_before);
        ("makespan_after", Journal.Int (makespan t));
        ("lifted", Journal.Int lifted);
        ("n_moves", Journal.Int n_moves);
        ("moves", Journal.List !provenance);
      ]);
  !moves

(* A served repair: [repair] plus the trigger epoch, the span and the
   histograms. *)
let served_repair ~auto t ~k =
  timed t.obs.lat_rebalance
    (fun t k ->
      Optrace.with_span "engine.repair"
        ~attrs:[ ("k", string_of_int k); ("auto", string_of_bool auto) ]
      @@ fun () ->
      let moves = repair ~auto t ~k in
      let n_moves = t.c.last_rebalance_moves in
      Metrics.Histogram.observe t.obs.moves_per_rebalance (float_of_int n_moves);
      Optrace.add_attr "moves" (string_of_int n_moves);
      t.last_repair <- t.clock ();
      moves)
    t k

let rebalance t ~k = served_repair ~auto:false t ~k

(* ----- trigger policy ----- *)

let trigger_budget t =
  match t.trigger with
  | Manual -> None
  | Every_events { events; k } ->
    if t.events_since_repair >= events then Some k else None
  | Imbalance_above { threshold; k } -> if imbalance t > threshold then Some k else None
  | Every_seconds { seconds; k } ->
    if t.clock () -. t.last_repair >= seconds then Some k else None

let after_event t =
  t.c.events <- t.c.events + 1;
  t.events_since_repair <- t.events_since_repair + 1;
  match trigger_budget t with
  | None -> []
  | Some k ->
    t.c.trigger_firings <- t.c.trigger_firings + 1;
    (match t.journal with
    | None -> ()
    | Some sink ->
      Journal.emit sink ~kind:"trigger"
        [
          ("trigger", Journal.Str (trigger_name t.trigger));
          ("k", Journal.Int k);
          ("imbalance", Journal.Float (imbalance t));
          ("events_since_repair", Journal.Int t.events_since_repair);
        ]);
    served_repair ~auto:true t ~k

(* ----- single-event updates, all O(log m) and allocation-free -----

   These assume validated input (positive size, presence checked by
   [kernel] below), mutate the flat state, bump counters and journal.
   Every mutation path goes through [kernel], so a batch leaves state,
   stats and journal bytes identical to one-by-one application. *)

let add_slot t id size =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let p = Indexed_heap.min_key_exn t.min_heap in
  let l = t.load.(p) in
  let slot = alloc_slot t in
  t.job_ext.(slot) <- id;
  t.job_size.(slot) <- size;
  t.job_seq.(slot) <- seq;
  t.job_proc.(slot) <- p;
  Flat_str_map.set t.dir id slot;
  pheap_push t p slot;
  gheap_push t slot;
  set_load t p (l + size);
  t.total_size <- t.total_size + size;
  t.live <- t.live + 1;
  t.c.adds <- t.c.adds + 1;
  (match t.journal with
  | None -> ()
  | Some sink ->
    (* Streamed: same bytes as [Journal.emit], no field-list alloc. *)
    Journal.Emit.start sink ~kind:"add" ~fields:5;
    Journal.Emit.str sink "id" id;
    Journal.Emit.int sink "size" size;
    Journal.Emit.int sink "proc" p;
    Journal.Emit.int sink "load_after" t.load.(p);
    Journal.Emit.int sink "makespan" (makespan t);
    Journal.Emit.finish sink);
  p

let remove_slot t slot =
  let id = t.job_ext.(slot) in
  let size = t.job_size.(slot) in
  let p = t.job_proc.(slot) in
  pheap_remove t p slot;
  gheap_remove t slot;
  set_load t p (t.load.(p) - size);
  t.total_size <- t.total_size - size;
  Flat_str_map.remove t.dir id;
  t.job_proc.(slot) <- -1;
  t.job_ext.(slot) <- no_id;
  t.free.(t.free_len) <- slot;
  t.free_len <- t.free_len + 1;
  t.live <- t.live - 1;
  t.c.removes <- t.c.removes + 1;
  (match t.journal with
  | None -> ()
  | Some sink ->
    Journal.Emit.start sink ~kind:"remove" ~fields:5;
    Journal.Emit.str sink "id" id;
    Journal.Emit.int sink "size" size;
    Journal.Emit.int sink "proc" p;
    Journal.Emit.int sink "load_after" t.load.(p);
    Journal.Emit.int sink "makespan" (makespan t);
    Journal.Emit.finish sink);
  p

let resize_slot t slot size =
  let p = t.job_proc.(slot) in
  let old_size = t.job_size.(slot) in
  t.job_size.(slot) <- size;
  pheap_reorder t p slot ~up:(size > old_size);
  gheap_reorder t slot ~up:(size > old_size);
  set_load t p (t.load.(p) - old_size + size);
  t.total_size <- t.total_size - old_size + size;
  t.c.resizes <- t.c.resizes + 1;
  (match t.journal with
  | None -> ()
  | Some sink ->
    Journal.Emit.start sink ~kind:"resize" ~fields:6;
    Journal.Emit.str sink "id" t.job_ext.(slot);
    Journal.Emit.int sink "size" size;
    Journal.Emit.int sink "old_size" old_size;
    Journal.Emit.int sink "proc" p;
    Journal.Emit.int sink "load_after" t.load.(p);
    Journal.Emit.int sink "makespan" (makespan t);
    Journal.Emit.finish sink);
  p

(* ----- the validated kernel ----- *)

(* Codes [kernel] returns for an op that cannot apply; every valid op
   returns its processor, which is never negative. *)
let bad_size = -1
let present = -2
let missing = -3

(* One event, validated then applied: the processor, or an error code
   with no state changed. Allocation-free — the quiet bulk loop calls
   it directly. *)
let kernel t = function
  | Add { id; size } ->
    if size <= 0 then bad_size
    else if Flat_str_map.mem t.dir id then present
    else add_slot t id size
  | Remove { id } ->
    let slot = Flat_str_map.find t.dir id in
    if slot < 0 then missing else remove_slot t slot
  | Resize { id; size } ->
    if size <= 0 then bad_size
    else begin
      let slot = Flat_str_map.find t.dir id in
      if slot < 0 then missing else resize_slot t slot size
    end

let error_message op code =
  let id = op_id op in
  if code = bad_size then Printf.sprintf "job %s: size must be positive" id
  else if code = present then Printf.sprintf "job %s already present" id
  else Printf.sprintf "job %s not found" id

(* The kernel plus the trigger evaluation of an applied event, as a
   result: the batch loop's per-op step when a consumer wants results. *)
let step t op =
  let p = kernel t op in
  if p < 0 then Error (error_message op p) else Ok (p, after_event t)

(* ----- public single-event updates ----- *)

let apply t op =
  let hist =
    match op with
    | Add _ -> t.obs.lat_add
    | Remove _ -> t.obs.lat_remove
    | Resize _ -> t.obs.lat_resize
  in
  timed hist step t op

let add_job t ~id ~size = apply t (Add { id; size })
let remove_job t ~id = apply t (Remove { id })
let resize_job t ~id ~size = apply t (Resize { id; size })

(* ----- batched application ----- *)

(* The two loops differ only in whether per-op results are materialized:
   without a consumer, building [Ok (p, moves)] per op would be the one
   remaining steady-state allocation. An invalid op changes no state in
   either loop, so the quiet one skips it silently. *)
let apply_bulk_loop t on_result ops =
  match on_result with
  | None ->
    for i = 0 to Array.length ops - 1 do
      if kernel t ops.(i) >= 0 then ignore (after_event t)
    done
  | Some f ->
    for i = 0 to Array.length ops - 1 do
      f i ops.(i) (step t ops.(i))
    done

let apply_bulk t ?on_result ops =
  match t.journal with
  | None -> apply_bulk_loop t on_result ops
  | Some sink ->
    (* One sink write for the whole batch; the bytes are identical to
       per-op writes, so replay and tail see the same journal. *)
    Journal.begin_batch sink;
    Fun.protect
      ~finally:(fun () -> Journal.end_batch sink)
      (fun () -> apply_bulk_loop t on_result ops)

(* ----- snapshots and the consistency-with-batch invariant ----- *)

let stats t =
  {
    jobs = t.live;
    procs = t.m;
    makespan = makespan t;
    total_size = t.total_size;
    imbalance = imbalance t;
    events = t.c.events;
    adds = t.c.adds;
    removes = t.c.removes;
    resizes = t.c.resizes;
    rebalances = t.c.rebalances;
    auto_rebalances = t.c.auto_rebalances;
    trigger_firings = t.c.trigger_firings;
    moved = t.c.moved;
    last_rebalance_moves = t.c.last_rebalance_moves;
    consistency_checks = t.c.consistency_checks;
    consistency_failures = t.c.consistency_failures;
  }

(* The live slots in slot order. *)
let live_slot_array t =
  let slots = Array.make t.live 0 in
  let n = ref 0 in
  for slot = 0 to t.hw - 1 do
    if t.job_proc.(slot) >= 0 then begin
      slots.(!n) <- slot;
      incr n
    end
  done;
  slots

let to_instance t =
  let slots = live_slot_array t in
  Array.stable_sort (fun a b -> String.compare t.job_ext.(a) t.job_ext.(b)) slots;
  let ids = Array.map (fun s -> t.job_ext.(s)) slots in
  let sizes = Array.map (fun s -> t.job_size.(s)) slots in
  let initial = Array.map (fun s -> t.job_proc.(s)) slots in
  (Instance.create ~sizes ~m:t.m initial, ids)

(* The live state as a batch instance in slot order, in one pass. Jobs
   are numbered differently from [to_instance]'s, which leaves GREEDY's
   makespan unchanged: the loads evolve alike under any numbering, only
   which of two equal-size jobs moves differs. *)
let slot_instance t =
  let sizes = Array.make t.live 0 and initial = Array.make t.live 0 in
  let j = ref 0 in
  for slot = 0 to t.hw - 1 do
    if t.job_proc.(slot) >= 0 then begin
      sizes.(!j) <- t.job_size.(slot);
      initial.(!j) <- t.job_proc.(slot);
      incr j
    end
  done;
  Instance.create ~sizes ~m:t.m initial

(* An engine to run [lift_and_place] on without touching [t]: fresh
   copies of what it writes (placements, heap positions, processor
   heaps and loads), shared references to what it only reads (sizes,
   sequence numbers, ids, the directory). Its repair scratch starts
   empty and is its own: a full-budget check grows it to the live job
   count, and it goes with the probe instead of staying with [t]. It
   never journals, counts or observes. *)
let probe t =
  let min_heap = Indexed_heap.create t.m in
  let max_heap = Indexed_heap.create t.m in
  for p = 0 to t.m - 1 do
    Indexed_heap.set min_heap p t.load.(p);
    Indexed_heap.set max_heap p (-t.load.(p))
  done;
  {
    t with
    job_proc = Array.sub t.job_proc 0 t.hw;
    job_hpos = Array.sub t.job_hpos 0 t.hw;
    pheap = Array.map Array.copy t.pheap;
    plen = Array.copy t.plen;
    load = Array.copy t.load;
    min_heap;
    max_heap;
    scr_slot = [||];
    scr_src = [||];
    scr_before = [||];
    scr_ord = [||];
    journal = None;
  }

(* ----- versioned state snapshots ----- *)

let snapshot_version = 1

(* Canonical order: ascending sequence number. Job seqs are preserved
   so the (size, seq) repair tie-breaks — hence future move lists —
   survive the round trip bit-exactly. *)
let slots_by_seq t =
  let slots = live_slot_array t in
  Array.stable_sort (fun a b -> Int.compare t.job_seq.(a) t.job_seq.(b)) slots;
  slots

let snapshot t =
  let slots = Array.to_list (slots_by_seq t) in
  Journal.Obj
    [
      ("snapshot", Journal.Str "rebal-engine");
      ("version", Journal.Int snapshot_version);
      ("m", Journal.Int t.m);
      ("trigger", trigger_to_json t.trigger);
      ("next_seq", Journal.Int t.next_seq);
      ("events_since_repair", Journal.Int t.events_since_repair);
      ( "jobs",
        Journal.List
          (List.map
             (fun s ->
               Journal.Obj
                 [
                   ("id", Journal.Str t.job_ext.(s));
                   ("seq", Journal.Int t.job_seq.(s));
                   ("size", Journal.Int t.job_size.(s));
                   ("proc", Journal.Int t.job_proc.(s));
                 ])
             slots) );
      ( "counters",
        Journal.Obj
          [
            ("events", Journal.Int t.c.events);
            ("adds", Journal.Int t.c.adds);
            ("removes", Journal.Int t.c.removes);
            ("resizes", Journal.Int t.c.resizes);
            ("rebalances", Journal.Int t.c.rebalances);
            ("auto_rebalances", Journal.Int t.c.auto_rebalances);
            ("trigger_firings", Journal.Int t.c.trigger_firings);
            ("moved", Journal.Int t.c.moved);
            ("last_rebalance_moves", Journal.Int t.c.last_rebalance_moves);
            ("consistency_checks", Journal.Int t.c.consistency_checks);
            ("consistency_failures", Journal.Int t.c.consistency_failures);
          ] );
    ]

(* Place a job at an explicit (seq, proc) — snapshot restore, where the
   recorded placement overrides greedy choice. *)
let restore_slot t ~id ~seq ~size ~proc =
  let slot = alloc_slot t in
  t.job_ext.(slot) <- id;
  t.job_size.(slot) <- size;
  t.job_seq.(slot) <- seq;
  t.job_proc.(slot) <- proc;
  Flat_str_map.set t.dir id slot;
  pheap_push t proc slot;
  gheap_push t slot;
  set_load t proc (t.load.(proc) + size);
  t.total_size <- t.total_size + size;
  t.live <- t.live + 1

(* ----- reading a recorded snapshot in place -----

   One walk over the encoded snapshot at a cursor serves both readers:
   [of_snapshot] restores an engine from it, [snapshot_differs] compares
   it with a live one. Neither builds a tree of the jobs. *)

module C = Journal.Cursor

(* [read] on the member [key] of the object at [top], when it has one
   that [read] accepts. *)
let read_member c top key read =
  C.seek c top;
  match if C.member c key then read c else raise Not_found with
  | v -> Some v
  | exception Not_found -> None

let int_member c top key = read_member c top key C.int

(* The next [n] jobs, each exactly {id, seq, size, proc} in that order
   as [snapshot] writes it, handed to [job] in recorded order with
   whatever [id] reads off the id (which is a string). Stops at the
   first malformed job or the first [false] from [job]: [true] when all
   [n] were read and accepted. Reads nothing into the heap itself. *)
let walk_jobs c n ~id job =
  let int key = if C.key_is c key then C.int c else raise Not_found in
  let rec go i =
    i = n
    || C.obj c = 4
       && C.key_is c "id"
       &&
       let id = id c in
       let seq = int "seq" in
       let size = int "size" in
       job id ~seq ~size ~proc:(int "proc") && go (i + 1)
  in
  try go 0 with Not_found -> false

let of_snapshot ?trigger ?clock ?journal c =
  let ( let* ) = Result.bind in
  let top = C.pos c in
  let int name =
    match int_member c top name with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "snapshot: missing integer field %S" name)
  in
  let* () =
    match read_member c top "snapshot" C.str with
    | Some "rebal-engine" -> Ok ()
    | Some other -> Error (Printf.sprintf "snapshot: producer %S, wanted \"rebal-engine\"" other)
    | None -> Error "snapshot: not a rebal-engine snapshot object"
  in
  let* version = int "version" in
  let* () =
    if version = snapshot_version then Ok ()
    else Error (Printf.sprintf "snapshot: version %d, this build reads %d" version snapshot_version)
  in
  let* m = int "m" in
  let* () = if m >= 1 then Ok () else Error "snapshot: need at least one processor" in
  let* recorded_trigger =
    match read_member c top "trigger" C.value with
    | Some json -> trigger_of_json json
    | None -> Error "snapshot: missing trigger"
  in
  let* next_seq = int "next_seq" in
  let* events_since_repair = int "events_since_repair" in
  (* The job list's length, the cursor at its first job. *)
  let n = Option.value (read_member c top "jobs" C.list) ~default:(-1) in
  let* () = if n >= 0 then Ok () else Error "snapshot: missing jobs list" in
  let trigger = match trigger with Some t -> t | None -> recorded_trigger in
  let t = create ~trigger ?clock ?journal ~m () in
  (* Sized once for the recorded jobs: no growth copies while restoring. *)
  grow_slots_to t (pow2_above initial_cap n);
  Flat_str_map.reserve t.dir n;
  let seen_seq = Hashtbl.create (max 16 n) in
  let error = ref None in
  let reject fmt = Printf.ksprintf (fun msg -> error := Some msg; false) fmt in
  let restore id ~seq ~size ~proc =
    if size <= 0 then reject "snapshot job %s: size must be positive" id
    else if proc < 0 || proc >= m then reject "snapshot job %s: processor %d out of range" id proc
    else if seq < 0 || seq >= next_seq then reject "snapshot job %s: seq %d out of range" id seq
    else if Flat_str_map.mem t.dir id then reject "snapshot job %s: duplicate id" id
    else if Hashtbl.mem seen_seq seq then reject "snapshot job %s: duplicate seq %d" id seq
    else begin
      Hashtbl.replace seen_seq seq ();
      restore_slot t ~id ~seq ~size ~proc;
      true
    end
  in
  let* () =
    if walk_jobs c n ~id:C.str restore then Ok ()
    else
      Error
        (match !error with
        | Some msg -> msg
        | None -> Printf.sprintf "snapshot job %d: not an {id, seq, size, proc} object" t.live)
  in
  t.next_seq <- next_seq;
  t.events_since_repair <- events_since_repair;
  Option.iter
    (fun counters ->
      let get name = Option.value (int_member c counters name) ~default:0 in
      t.c.events <- get "events";
      t.c.adds <- get "adds";
      t.c.removes <- get "removes";
      t.c.resizes <- get "resizes";
      t.c.rebalances <- get "rebalances";
      t.c.auto_rebalances <- get "auto_rebalances";
      t.c.trigger_firings <- get "trigger_firings";
      t.c.moved <- get "moved";
      t.c.last_rebalance_moves <- get "last_rebalance_moves";
      t.c.consistency_checks <- get "consistency_checks";
      t.c.consistency_failures <- get "consistency_failures")
    (read_member c top "counters" C.pos);
  Ok t

let snapshot_differs t c =
  let top = C.pos c in
  let differs key v = int_member c top key <> Some v in
  if differs "m" t.m then Some "m"
  else if differs "next_seq" t.next_seq then Some "next_seq"
  else if differs "events_since_repair" t.events_since_repair then Some "events_since_repair"
  else begin
    let slots = slots_by_seq t in
    let i = ref 0 in
    let same_id c = C.str_is c t.job_ext.(slots.(!i)) in
    let same same_id ~seq ~size ~proc =
      let s = slots.(!i) in
      incr i;
      same_id && seq = t.job_seq.(s) && size = t.job_size.(s) && proc = t.job_proc.(s)
    in
    let n = Option.value (read_member c top "jobs" C.list) ~default:(-1) in
    if n = Array.length slots && walk_jobs c n ~id:same_id same then None else Some "jobs"
  end

let journal_snapshot t =
  match t.journal with
  | None -> Error "no journal attached"
  | Some sink ->
    let seq = Journal.events_written sink in
    Journal.emit sink ~kind:"snapshot" [ ("state", snapshot t) ];
    Ok seq

let check_consistency t ~k =
  let inst = slot_instance t in
  let batch = Assignment.makespan inst (Rebal_algo.Greedy.solve inst ~k) in
  let probe = probe t in
  ignore (lift_and_place probe ~k);
  let repaired = makespan probe in
  let ok = repaired = batch in
  t.c.consistency_checks <- t.c.consistency_checks + 1;
  if not ok then t.c.consistency_failures <- t.c.consistency_failures + 1;
  (match t.journal with
  | None -> ()
  | Some sink ->
    Journal.emit sink ~kind:"check"
      [
        ("k", Journal.Int k);
        ("ok", Journal.Bool ok);
        ("batch_makespan", Journal.Int batch);
        ("repair_makespan", Journal.Int repaired);
      ]);
  ok

(* ----- replay ----- *)

let replay_apply = step
let replay_rebalance t ~k = repair ~auto:false t ~k
