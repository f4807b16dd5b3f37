(* The time-series store. One {!series} per (name, sorted labels); each
   series owns three rings (raw, /10, /60). Aggregation is incremental:
   a raw push folds into the pending mid accumulator, every 10th push
   seals it into the mid ring, every 6th sealed mid point seals a
   coarse point — no rescan of the raw ring on downsampling. *)

type point = {
  at_ns : int;
  last : float;
  min : float;
  max : float;
  sum : float;
  samples : int;
}

type stats = {
  s_points : int;
  s_first_ns : int;
  s_last_ns : int;
  s_first : float;
  s_last : float;
  s_min : float;
  s_max : float;
  s_avg : float;
  s_delta : float;
  s_rate : float;
}

let zero_point = { at_ns = 0; last = 0.; min = 0.; max = 0.; sum = 0.; samples = 0 }

let merge_point older newer =
  {
    at_ns = newer.at_ns;
    last = newer.last;
    min = Float.min older.min newer.min;
    max = Float.max older.max newer.max;
    sum = older.sum +. newer.sum;
    samples = older.samples + newer.samples;
  }

let ring_oldest_ns r = match Ring.oldest r with None -> max_int | Some p -> p.at_ns

type series = {
  s_name : string;
  s_labels : Metrics.labels;
  raw : point Ring.t;
  mid : point Ring.t;
  coarse : point Ring.t;
  mutable acc_mid : point;  (* pending mid aggregate; samples = 0 when empty *)
  mutable acc_coarse : point;
  mutable coarse_pending : int;  (* sealed mid points since last coarse seal *)
}

let mid_factor = 10
let coarse_factor = 6 (* of mid points, i.e. 60 raw samples *)

let series_push s p =
  Ring.push s.raw p;
  s.acc_mid <- (if s.acc_mid.samples = 0 then p else merge_point s.acc_mid p);
  if s.acc_mid.samples >= mid_factor then begin
    let sealed = s.acc_mid in
    s.acc_mid <- zero_point;
    Ring.push s.mid sealed;
    s.acc_coarse <-
      (if s.acc_coarse.samples = 0 then sealed else merge_point s.acc_coarse sealed);
    s.coarse_pending <- s.coarse_pending + 1;
    if s.coarse_pending >= coarse_factor then begin
      Ring.push s.coarse s.acc_coarse;
      s.acc_coarse <- zero_point;
      s.coarse_pending <- 0
    end
  end

(* The multi-resolution window view: each tier contributes only the
   part of the window older than the next finer tier's retained reach,
   so no raw sample is represented twice. *)
let series_window_points s ~start_ns =
  let raw_oldest = ring_oldest_ns s.raw in
  let mid_oldest = ring_oldest_ns s.mid in
  let in_range lo hi pts = List.filter (fun p -> p.at_ns >= lo && p.at_ns < hi) pts in
  let raw_pts = List.filter (fun p -> p.at_ns >= start_ns) (Ring.to_list s.raw) in
  if raw_oldest <= start_ns then raw_pts
  else
    let mid_pts = in_range start_ns raw_oldest (Ring.to_list s.mid) in
    if mid_oldest <= start_ns then mid_pts @ raw_pts
    else
      let coarse_pts =
        in_range start_ns (min mid_oldest raw_oldest) (Ring.to_list s.coarse)
      in
      coarse_pts @ mid_pts @ raw_pts

type t = {
  source : unit -> Metrics.metric list;
  clock_ns : unit -> int64;
  raw_cap : int;
  mid_cap : int;
  coarse_cap : int;
  sink : Journal.sink option;
  table : (string * Metrics.labels, series) Hashtbl.t;
  mutable order : series list;  (* newest first *)
  mutable samples_taken : int;
  mutable last_sample_ns : int;
  lock : Mutex.t;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?(raw_capacity = 600) ?(mid_capacity = 600) ?(coarse_capacity = 600)
    ?(clock_ns = Rebal_harness.Timer.now_ns) ?sink ?(meta = []) ~source () =
  if raw_capacity < 2 || mid_capacity < 2 || coarse_capacity < 2 then
    invalid_arg "Tsdb.create: capacities must be >= 2";
  (match sink with
  | Some s -> Journal.write_header s ~journal:"rebal-telemetry" meta
  | None -> ());
  {
    source;
    clock_ns;
    raw_cap = raw_capacity;
    mid_cap = mid_capacity;
    coarse_cap = coarse_capacity;
    sink;
    table = Hashtbl.create 64;
    order = [];
    samples_taken = 0;
    last_sample_ns = 0;
    lock = Mutex.create ();
  }

let find_series t name labels =
  Hashtbl.find_opt t.table (name, List.sort_uniq compare labels)

let get_series t name labels =
  let key = (name, List.sort_uniq compare labels) in
  match Hashtbl.find_opt t.table key with
  | Some s -> s
  | None ->
    let s =
      {
        s_name = name;
        s_labels = snd key;
        raw = Ring.create t.raw_cap zero_point;
        mid = Ring.create t.mid_cap zero_point;
        coarse = Ring.create t.coarse_cap zero_point;
        acc_mid = zero_point;
        acc_coarse = zero_point;
        coarse_pending = 0;
      }
    in
    Hashtbl.add t.table key s;
    t.order <- s :: t.order;
    s

let selector_string name labels = name ^ Expo.label_set labels

(* One scalar reading per metric: counters and gauges directly,
   histograms as the Prometheus-shaped cumulative bucket / sum / count
   series (cumulative buckets make quantile-over-window a subtraction). *)
let scalar_readings metrics =
  let out = ref [] in
  let push name labels v = out := (name, labels, v) :: !out in
  List.iter
    (fun (m : Metrics.metric) ->
      match m.kind with
      | Metrics.Counter c -> push m.name m.labels (float_of_int (Metrics.Counter.value c))
      | Metrics.Gauge g -> push m.name m.labels (Metrics.Gauge.value g)
      | Metrics.Histogram h ->
        let cum = ref 0 in
        List.iter
          (fun (upper, count) ->
            cum := !cum + count;
            push (m.name ^ "_bucket")
              (m.labels @ [ ("le", Expo.fmt_le upper) ])
              (float_of_int !cum))
          (Metrics.Histogram.buckets h);
        push (m.name ^ "_sum") m.labels (Metrics.Histogram.sum h);
        push (m.name ^ "_count") m.labels (float_of_int (Metrics.Histogram.observations h)))
    metrics;
  List.rev !out

let sample t =
  let metrics = t.source () in
  let now = Int64.to_int (t.clock_ns ()) in
  let readings = scalar_readings metrics in
  locked t (fun () ->
      List.iter
        (fun (name, labels, v) ->
          let s = get_series t name labels in
          series_push s { at_ns = now; last = v; min = v; max = v; sum = v; samples = 1 })
        readings;
      t.samples_taken <- t.samples_taken + 1;
      t.last_sample_ns <- now);
  match t.sink with
  | None -> ()
  | Some sink ->
    let pairs =
      List.map
        (fun (name, labels, v) ->
          (* A gauge fed from a division can legitimately read nan/inf;
             the journal rejects non-finite floats, so record "no
             meaningful value" rather than kill the sampler. *)
          ( selector_string name labels,
            if Float.is_finite v then Journal.Float v else Journal.Null ))
        readings
    in
    Journal.emit sink ~kind:"sample"
      [ ("at_ns", Journal.Int now); ("metrics", Journal.Obj pairs) ]

let samples_taken t = locked t (fun () -> t.samples_taken)
let last_sample_ns t = locked t (fun () -> t.last_sample_ns)

let series_list t =
  locked t (fun () -> List.rev_map (fun s -> (s.s_name, s.s_labels)) t.order)

let window_ns_of_s window_s =
  if Float.is_nan window_s || window_s < 0. then invalid_arg "Tsdb: negative window";
  if window_s > 4.0e9 then max_int else int_of_float (window_s *. 1e9)

(* Window end anchors at the newest tick so queries are deterministic
   under an injected clock and between-tick queries are stable. *)
let points_locked t name labels ~window_s =
  match find_series t name labels with
  | None -> []
  | Some s ->
    if Ring.length s.raw = 0 then []
    else
      let end_ns = t.last_sample_ns in
      let w = window_ns_of_s window_s in
      let start_ns = if w >= end_ns then 0 else end_ns - w in
      series_window_points s ~start_ns

let points t ?(labels = []) ~window_s name =
  locked t (fun () -> points_locked t name labels ~window_s)

let stats_of_points = function
  | [] -> None
  | first :: _ as pts ->
    let last = List.nth pts (List.length pts - 1) in
    let mn = List.fold_left (fun a p -> Float.min a p.min) infinity pts in
    let mx = List.fold_left (fun a p -> Float.max a p.max) neg_infinity pts in
    let sum = List.fold_left (fun a p -> a +. p.sum) 0. pts in
    let n = List.fold_left (fun a p -> a + p.samples) 0 pts in
    let span_s = float_of_int (last.at_ns - first.at_ns) /. 1e9 in
    let delta = last.last -. first.last in
    Some
      {
        s_points = List.length pts;
        s_first_ns = first.at_ns;
        s_last_ns = last.at_ns;
        s_first = first.last;
        s_last = last.last;
        s_min = mn;
        s_max = mx;
        s_avg = (if n = 0 then 0. else sum /. float_of_int n);
        s_delta = delta;
        s_rate = (if span_s > 0. then delta /. span_s else 0.);
      }

let window t ?(labels = []) ~window_s name =
  locked t (fun () -> stats_of_points (points_locked t name labels ~window_s))

let le_value s = if s = "+Inf" then infinity else float_of_string s

let quantile t ?(labels = []) ~q ~window_s name =
  if Float.is_nan q || q < 0. || q > 1. then invalid_arg "Tsdb.quantile: q outside [0, 1]";
  let base_labels = List.sort_uniq compare labels in
  locked t (fun () ->
      (* Every bucket series of this histogram: same name ^ "_bucket",
         labels = base labels plus an "le". *)
      let buckets =
        List.filter_map
          (fun s ->
            if s.s_name <> name ^ "_bucket" then None
            else
              match List.assoc_opt "le" s.s_labels with
              | None -> None
              | Some le ->
                let rest = List.filter (fun (k, _) -> k <> "le") s.s_labels in
                if rest <> base_labels then None
                else
                  (match le_value le with
                  | upper -> Some (upper, s)
                  | exception _ -> None))
          t.order
      in
      let buckets = List.sort (fun (a, _) (b, _) -> compare a b) buckets in
      if buckets = [] then None
      else
        let deltas =
          List.map
            (fun (upper, s) ->
              let d =
                match
                  stats_of_points (points_locked t s.s_name s.s_labels ~window_s)
                with
                | Some st -> st.s_delta
                | None -> 0.
              in
              (upper, Float.max 0. d))
            buckets
        in
        (* Cumulative bucket counts: the +Inf delta is the window total. *)
        let total = match List.rev deltas with (_, d) :: _ -> d | [] -> 0. in
        if total <= 0. then None
        else
          let threshold = q *. total in
          let rec walk = function
            | [] -> None
            | (upper, d) :: rest -> if d >= threshold then Some upper else walk rest
          in
          walk deltas)

(* ------------------------------------------------------------------ *)
(* Selectors, durations, query functions.                              *)

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
         || c = '_' || c = ':')
       s

let parse_selector s =
  let s = String.trim s in
  match String.index_opt s '{' with
  | None ->
    if valid_name s then Ok (s, [])
    else Error (Printf.sprintf "invalid series name %S" s)
  | Some lb ->
    let name = String.sub s 0 lb in
    if not (valid_name name) then Error (Printf.sprintf "invalid series name %S" name)
    else if s.[String.length s - 1] <> '}' then Error "selector: missing '}'"
    else
      let body = String.sub s (lb + 1) (String.length s - lb - 2) in
      match Expo.parse_labels body with
      | Error e -> Error ("selector: " ^ e)
      | Ok labels -> (
        match List.find_opt (fun (k, _) -> not (valid_name k)) labels with
        | Some (k, _) -> Error (Printf.sprintf "invalid label name %S" k)
        | None -> Ok (name, List.sort_uniq compare labels))

let parse_duration s =
  let s = String.trim s in
  let num part =
    match float_of_string_opt part with
    | Some v when Float.is_finite v && v >= 0. -> Ok v
    | _ -> Error (Printf.sprintf "invalid duration %S" s)
  in
  let n = String.length s in
  let with_suffix len scale = Result.map (fun v -> v *. scale) (num (String.sub s 0 (n - len))) in
  if n = 0 then Error "empty duration"
  else if n > 2 && String.sub s (n - 2) 2 = "ms" then with_suffix 2 0.001
  else
    match s.[n - 1] with
    | 's' -> with_suffix 1 1.
    | 'm' -> with_suffix 1 60.
    | 'h' -> with_suffix 1 3600.
    | _ -> num s

let duration_string v =
  if Float.rem v 3600. = 0. && v >= 3600. then Printf.sprintf "%gh" (v /. 3600.)
  else if Float.rem v 60. = 0. && v >= 60. then Printf.sprintf "%gm" (v /. 60.)
  else if v < 1. && v > 0. then Printf.sprintf "%gms" (v *. 1000.)
  else Printf.sprintf "%gs" v

type func = Value | Rate | Delta | Avg | Min | Max | Quantile of float

let func_of_string s =
  match String.lowercase_ascii s with
  | "value" -> Ok Value
  | "rate" -> Ok Rate
  | "delta" -> Ok Delta
  | "avg" -> Ok Avg
  | "min" -> Ok Min
  | "max" -> Ok Max
  | f when String.length f > 1 && f.[0] = 'p' -> (
    match float_of_string_opt (String.sub f 1 (String.length f - 1)) with
    | Some pct when pct > 0. && pct < 100. -> Ok (Quantile (pct /. 100.))
    | _ -> Error (Printf.sprintf "invalid percentile %S" s))
  | _ -> Error (Printf.sprintf "unknown function %S (value|rate|delta|avg|min|max|pNN)" s)

let func_name = function
  | Value -> "value"
  | Rate -> "rate"
  | Delta -> "delta"
  | Avg -> "avg"
  | Min -> "min"
  | Max -> "max"
  | Quantile q -> Printf.sprintf "p%g" (q *. 100.)

let eval t func ?(labels = []) ~window_s name =
  match func with
  | Quantile q -> quantile t ~labels ~q ~window_s name
  | Value -> (
    match window t ~labels ~window_s:0. name with
    | Some st -> Some st.s_last
    | None -> None)
  | _ -> (
    match window t ~labels ~window_s name with
    | None -> None
    | Some st -> (
      match func with
      | Rate -> Some st.s_rate
      | Delta -> Some st.s_delta
      | Avg -> Some st.s_avg
      | Min -> Some st.s_min
      | Max -> Some st.s_max
      | Value | Quantile _ -> assert false))

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let fmt_f v = Printf.sprintf "%.9g" v

let render_lines t ~selector ~window_s =
  match parse_selector selector with
  | Error e -> Error e
  | Ok (name, labels) ->
    let pts = points t ~labels ~window_s name in
    let summary =
      match stats_of_points pts with
      | None ->
        Printf.sprintf "SERIES %s window=%s points=0"
          (selector_string name labels) (duration_string window_s)
      | Some st ->
        Printf.sprintf
          "SERIES %s window=%s points=%d first=%s last=%s min=%s max=%s avg=%s \
           delta=%s rate=%s"
          (selector_string name labels) (duration_string window_s) st.s_points
          (fmt_f st.s_first) (fmt_f st.s_last) (fmt_f st.s_min) (fmt_f st.s_max)
          (fmt_f st.s_avg) (fmt_f st.s_delta) (fmt_f st.s_rate)
    in
    Ok
      (summary
      :: List.map
           (fun p ->
             Printf.sprintf "POINT at_ns=%d last=%s min=%s max=%s avg=%s samples=%d"
               p.at_ns (fmt_f p.last) (fmt_f p.min) (fmt_f p.max)
               (fmt_f (if p.samples = 0 then 0. else p.sum /. float_of_int p.samples))
               p.samples)
           pts)

let render_json t ~selector ~window_s =
  match parse_selector selector with
  | Error e -> Error e
  | Ok (name, labels) ->
    let pts = points t ~labels ~window_s name in
    let open Journal in
    let point_json p =
      Obj
        [
          ("at_ns", Int p.at_ns);
          ("last", Float p.last);
          ("min", Float p.min);
          ("max", Float p.max);
          ("sum", Float p.sum);
          ("samples", Int p.samples);
        ]
    in
    let stats_json =
      match stats_of_points pts with
      | None -> []
      | Some st ->
        [
          ("first", Float st.s_first);
          ("last", Float st.s_last);
          ("min", Float st.s_min);
          ("max", Float st.s_max);
          ("avg", Float st.s_avg);
          ("delta", Float st.s_delta);
          ("rate", Float st.s_rate);
        ]
    in
    Ok
      (render_json
         (Obj
            ([
               ("series", Str (selector_string name labels));
               ("window_s", Float window_s);
               ("points", List (List.map point_json pts));
             ]
            @ stats_json)))
