(* The rule engine. Parsing is token-based (whitespace-split), the
   expression atom [func(selector[window])] contains no spaces so it is
   one token; evaluation delegates every windowed read to Tsdb. *)

type state = Inactive | Pending | Firing | Resolved

let state_name = function
  | Inactive -> "inactive"
  | Pending -> "pending"
  | Firing -> "firing"
  | Resolved -> "resolved"

let all_states = [ Inactive; Pending; Firing; Resolved ]

type cmp = Gt | Ge | Lt | Le

let cmp_name = function Gt -> ">" | Ge -> ">=" | Lt -> "<" | Le -> "<="

let cmp_of_string = function
  | ">" -> Ok Gt
  | ">=" -> Ok Ge
  | "<" -> Ok Lt
  | "<=" -> Ok Le
  | s -> Error (Printf.sprintf "unknown comparator %S (>|>=|<|<=)" s)

let cmp_apply c v bound =
  match c with Gt -> v > bound | Ge -> v >= bound | Lt -> v < bound | Le -> v <= bound

type condition =
  | Threshold of {
      func : Tsdb.func;
      series : string;
      labels : Metrics.labels;
      window_s : float;
      cmp : cmp;
      bound : float;
    }
  | Burnrate of {
      bad : string * Metrics.labels;
      total : string * Metrics.labels;
      budget : float;
      factor : float;
      short_s : float;
      long_s : float;
    }

type rule = {
  rule_name : string;
  condition : condition;
  for_s : float;
  suspect : int option;
}

let expr_string = function
  | Threshold { func; series; labels; window_s; cmp; bound } ->
    let sel = Tsdb.selector_string series labels in
    let windowed =
      match func with
      | Tsdb.Value -> sel
      | _ -> Printf.sprintf "%s[%s]" sel (Tsdb.duration_string window_s)
    in
    Printf.sprintf "%s(%s) %s %g" (Tsdb.func_name func) windowed (cmp_name cmp) bound
  | Burnrate { bad = bn, bl; total = tn, tl; budget; factor; short_s; long_s } ->
    Printf.sprintf "burnrate(%s/%s) > %g*%g over %s,%s"
      (Tsdb.selector_string bn bl) (Tsdb.selector_string tn tl) factor budget
      (Tsdb.duration_string short_s) (Tsdb.duration_string long_s)

(* [func(selector[window])] — split on the outer parens, then the
   optional trailing [window] bracket. *)
let parse_expr token =
  let ( let* ) = Result.bind in
  match String.index_opt token '(' with
  | None -> Error (Printf.sprintf "expected func(series[window]), got %S" token)
  | Some lp ->
    if token.[String.length token - 1] <> ')' then
      Error (Printf.sprintf "expression %S: missing ')'" token)
    else
      let* func = Tsdb.func_of_string (String.sub token 0 lp) in
      let inner = String.sub token (lp + 1) (String.length token - lp - 2) in
      let* sel, window_s =
        if String.length inner > 0 && inner.[String.length inner - 1] = ']' then
          match String.rindex_opt inner '[' with
          | None -> Error (Printf.sprintf "expression %S: ']' without '['" token)
          | Some lb ->
            let* w =
              Tsdb.parse_duration
                (String.sub inner (lb + 1) (String.length inner - lb - 2))
            in
            Ok (String.sub inner 0 lb, w)
        else Ok (inner, 0.)
      in
      let* series, labels = Tsdb.parse_selector sel in
      (match func with
      | Tsdb.Value -> Ok (func, series, labels, window_s)
      | _ when window_s <= 0. ->
        Error
          (Printf.sprintf "%s needs a window, e.g. %s(%s[30s])"
             (Tsdb.func_name func) (Tsdb.func_name func) sel)
      | _ -> Ok (func, series, labels, window_s))

let parse_suspect = function
  | [] -> Ok None
  | [ "suspect"; shard ] -> (
    match int_of_string_opt shard with
    | Some i when i >= 0 -> Ok (Some i)
    | _ -> Error (Printf.sprintf "invalid suspect shard %S" shard))
  | rest -> Error (Printf.sprintf "trailing garbage: %s" (String.concat " " rest))

let parse_threshold name tokens =
  let ( let* ) = Result.bind in
  match tokens with
  | expr :: op :: bound :: "for" :: dur :: rest ->
    let* func, series, labels, window_s = parse_expr expr in
    let* cmp = cmp_of_string op in
    let* bound =
      match float_of_string_opt bound with
      | Some v when Float.is_finite v -> Ok v
      | _ -> Error (Printf.sprintf "invalid threshold %S" bound)
    in
    let* for_s = Tsdb.parse_duration dur in
    let* suspect = parse_suspect rest in
    Ok
      {
        rule_name = name;
        condition = Threshold { func; series; labels; window_s; cmp; bound };
        for_s;
        suspect;
      }
  | _ ->
    Error "threshold rule: expected <expr> <op> <value> for <dur> [suspect <shard>]"

let parse_burnrate name tokens =
  let ( let* ) = Result.bind in
  let kv = Hashtbl.create 8 in
  let* () =
    List.fold_left
      (fun acc tok ->
        let* () = acc in
        match String.index_opt tok '=' with
        | Some eq when eq > 0 ->
          let k = String.sub tok 0 eq in
          let v = String.sub tok (eq + 1) (String.length tok - eq - 1) in
          if Hashtbl.mem kv k then Error (Printf.sprintf "duplicate %s=" k)
          else (Hashtbl.add kv k v; Ok ())
        | _ -> Error (Printf.sprintf "expected key=value, got %S" tok))
      (Ok ()) tokens
  in
  let get k = Hashtbl.find_opt kv k in
  let require k =
    match get k with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "burnrate rule: missing %s=" k)
  in
  let known = [ "bad"; "total"; "budget"; "factor"; "short"; "long"; "for"; "suspect" ] in
  let* () =
    Hashtbl.fold
      (fun k _ acc ->
        let* () = acc in
        if List.mem k known then Ok ()
        else Error (Printf.sprintf "burnrate rule: unknown key %s=" k))
      kv (Ok ())
  in
  let* bad = Result.bind (require "bad") Tsdb.parse_selector in
  let* total = Result.bind (require "total") Tsdb.parse_selector in
  let pos_float k =
    let* v = require k in
    match float_of_string_opt v with
    | Some f when Float.is_finite f && f > 0. -> Ok f
    | _ -> Error (Printf.sprintf "invalid %s=%s" k v)
  in
  let* budget = pos_float "budget" in
  let* factor = pos_float "factor" in
  let* short_s = Result.bind (require "short") Tsdb.parse_duration in
  let* long_s = Result.bind (require "long") Tsdb.parse_duration in
  let* () =
    if short_s <= 0. || long_s < short_s then
      Error "burnrate rule: need 0 < short <= long"
    else Ok ()
  in
  let* for_s =
    match get "for" with None -> Ok 0. | Some d -> Tsdb.parse_duration d
  in
  let* suspect =
    match get "suspect" with
    | None -> Ok None
    | Some s -> parse_suspect [ "suspect"; s ]
  in
  Ok
    {
      rule_name = name;
      condition = Burnrate { bad; total; budget; factor; short_s; long_s };
      for_s;
      suspect;
    }

let valid_rule_name s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
         || c = '_' || c = '-')
       s

let parse_rule line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match
    String.split_on_char ' ' (String.trim line)
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  with
  | [] -> Ok None
  | kind :: name :: rest when valid_rule_name name -> (
    match String.lowercase_ascii kind with
    | "alert" -> Result.map Option.some (parse_threshold name rest)
    | "burnrate" -> Result.map Option.some (parse_burnrate name rest)
    | k -> Error (Printf.sprintf "unknown rule kind %S (alert|burnrate)" k))
  | kind :: name :: _ when String.lowercase_ascii kind = "alert"
                           || String.lowercase_ascii kind = "burnrate" ->
    Error (Printf.sprintf "invalid rule name %S" name)
  | kind :: _ -> Error (Printf.sprintf "unknown rule kind %S (alert|burnrate)" kind)

let parse_rules text =
  let lines = String.split_on_char '\n' text in
  let rec go n acc seen = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_rule line with
      | Error e -> Error (Printf.sprintf "line %d: %s" n e)
      | Ok None -> go (n + 1) acc seen rest
      | Ok (Some r) ->
        if List.mem r.rule_name seen then
          Error (Printf.sprintf "line %d: duplicate rule name %S" n r.rule_name)
        else go (n + 1) (r :: acc) (r.rule_name :: seen) rest)
  in
  go 1 [] [] lines

let parse_rules_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match parse_rules text with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok rules -> Ok rules)

(* ------------------------------------------------------------------ *)
(* The state machine.                                                  *)

type transition = {
  t_rule : string;
  t_from : state;
  t_to : state;
  t_at_ns : int;
  t_value : float option;
  t_expr : string;
}

type rule_state = {
  rule : rule;
  mutable st : state;
  mutable pending_since_ns : int;
  mutable observed : float option;
  state_gauges : (state * Metrics.gauge) list;
  transition_counters : (state * Metrics.counter) list;
}

type t = {
  tsdb : Tsdb.t;
  states : rule_state list;
  log : transition Ring.t;
  sink : Journal.sink option;
  lock : Mutex.t;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?(transition_capacity = 256) ?registry ?sink ~rules tsdb =
  if transition_capacity < 1 then invalid_arg "Alerts.create: transition_capacity < 1";
  let registry =
    match registry with Some r -> r | None -> Metrics.Registry.current ()
  in
  let names = List.map (fun r -> r.rule_name) rules in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Alerts.create: duplicate rule names";
  let states =
    List.map
      (fun rule ->
        let state_gauges =
          List.map
            (fun s ->
              ( s,
                Metrics.gauge ~registry ~help:"Alert rule state (one-hot)"
                  ~labels:[ ("rule", rule.rule_name); ("state", state_name s) ]
                  "rebal_alert_state" ))
            all_states
        in
        let transition_counters =
          List.map
            (fun s ->
              ( s,
                Metrics.counter ~registry ~help:"Alert state transitions"
                  ~labels:[ ("rule", rule.rule_name); ("to", state_name s) ]
                  "rebal_alert_transitions_total" ))
            all_states
        in
        List.iter
          (fun (s, g) -> Metrics.Gauge.set g (if s = Inactive then 1. else 0.))
          state_gauges;
        {
          rule;
          st = Inactive;
          pending_since_ns = 0;
          observed = None;
          state_gauges;
          transition_counters;
        })
      rules
  in
  {
    tsdb;
    states;
    log =
      Ring.create transition_capacity
        { t_rule = ""; t_from = Inactive; t_to = Inactive; t_at_ns = 0; t_value = None; t_expr = "" };
    sink;
    lock = Mutex.create ();
  }

let rules t = List.map (fun rs -> rs.rule) t.states

let observe tsdb = function
  | Threshold { func; series; labels; window_s; _ } ->
    Tsdb.eval tsdb func ~labels ~window_s series
  | Burnrate { bad = bn, bl; total = tn, tl; short_s; _ } ->
    (* Observed value = the short-window bad fraction. *)
    let ratio w =
      match
        ( Tsdb.eval tsdb Tsdb.Rate ~labels:bl ~window_s:w bn,
          Tsdb.eval tsdb Tsdb.Rate ~labels:tl ~window_s:w tn )
      with
      | Some b, Some tot when tot > 0. -> Some (b /. tot)
      | _ -> None
    in
    ratio short_s

let holds tsdb cond value =
  match (cond, value) with
  | _, None -> false
  | Threshold { cmp; bound; _ }, Some v -> cmp_apply cmp v bound
  | Burnrate { bad = bn, bl; total = tn, tl; budget; factor; long_s; _ }, Some short ->
    let target = factor *. budget in
    short > target
    &&
    (match
       ( Tsdb.eval tsdb Tsdb.Rate ~labels:bl ~window_s:long_s bn,
         Tsdb.eval tsdb Tsdb.Rate ~labels:tl ~window_s:long_s tn )
     with
    | Some b, Some tot when tot > 0. -> b /. tot > target
    | _ -> false)

let record t rs ~from_ ~to_ ~now ~value =
  let tr =
    {
      t_rule = rs.rule.rule_name;
      t_from = from_;
      t_to = to_;
      t_at_ns = now;
      t_value = value;
      t_expr = expr_string rs.rule.condition;
    }
  in
  Ring.push t.log tr;
  List.iter
    (fun (s, g) -> Metrics.Gauge.set g (if s = to_ then 1. else 0.))
    rs.state_gauges;
  Metrics.Counter.inc (List.assoc to_ rs.transition_counters);
  (match t.sink with
  | None -> ()
  | Some sink ->
    Journal.emit sink ~kind:"alert"
      [
        ("rule", Journal.Str rs.rule.rule_name);
        ("from", Journal.Str (state_name from_));
        ("to", Journal.Str (state_name to_));
        ("at_ns", Journal.Int now);
        ( "value",
          match value with
          | Some v when Float.is_finite v -> Journal.Float v
          | _ -> Journal.Null );
        ("expr", Journal.Str tr.t_expr);
      ]);
  tr

let eval t =
  locked t (fun () ->
      let now = Tsdb.last_sample_ns t.tsdb in
      List.filter_map
        (fun rs ->
          let value = observe t.tsdb rs.rule.condition in
          rs.observed <- value;
          let active = holds t.tsdb rs.rule.condition value in
          let for_ns = int_of_float (rs.rule.for_s *. 1e9) in
          let goto to_ =
            let from_ = rs.st in
            rs.st <- to_;
            Some (record t rs ~from_ ~to_ ~now ~value)
          in
          match (rs.st, active) with
          | (Inactive | Resolved), true ->
            if for_ns <= 0 then goto Firing
            else begin
              rs.pending_since_ns <- now;
              goto Pending
            end
          | Pending, true ->
            if now - rs.pending_since_ns >= for_ns then goto Firing else None
          | Firing, true -> None
          | Pending, false -> goto Inactive
          | Firing, false -> goto Resolved
          | (Inactive | Resolved), false -> None)
        t.states)

let find t name = List.find_opt (fun rs -> rs.rule.rule_name = name) t.states
let state t name = locked t (fun () -> Option.map (fun rs -> rs.st) (find t name))

let last_value t name =
  locked t (fun () -> Option.bind (find t name) (fun rs -> rs.observed))

let firing t =
  locked t (fun () ->
      List.filter_map
        (fun rs -> if rs.st = Firing then Some (rs.rule, rs.observed) else None)
        t.states)

let transitions t = locked t (fun () -> Ring.to_list t.log)

let fmt_value = function None -> "na" | Some v -> Printf.sprintf "%.9g" v

let status_lines t =
  locked t (fun () ->
      let count st = List.length (List.filter (fun rs -> rs.st = st) t.states) in
      let summary =
        Printf.sprintf
          "ALERTS rules=%d firing=%d pending=%d resolved=%d inactive=%d \
           transitions=%d"
          (List.length t.states) (count Firing) (count Pending) (count Resolved)
          (count Inactive) (Ring.pushed t.log)
      in
      let rule_lines =
        List.map
          (fun rs ->
            Printf.sprintf "ALERT %s state=%s value=%s for=%s%s expr=\"%s\""
              rs.rule.rule_name (state_name rs.st) (fmt_value rs.observed)
              (Tsdb.duration_string rs.rule.for_s)
              (match rs.rule.suspect with
              | None -> ""
              | Some i -> Printf.sprintf " suspect=%d" i)
              (expr_string rs.rule.condition))
          t.states
      in
      let trans_lines =
        List.map
          (fun tr ->
            Printf.sprintf "TRANS %s %s->%s at_ns=%d value=%s" tr.t_rule
              (state_name tr.t_from) (state_name tr.t_to) tr.t_at_ns (fmt_value tr.t_value))
          (Ring.to_list t.log)
      in
      (summary :: rule_lines) @ trans_lines)
