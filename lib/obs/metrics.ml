type labels = (string * string) list

type counter = { mutable count : int }
type gauge = { mutable value : float }

type histogram = {
  upper : float array;
  bucket_counts : int array; (* length = Array.length upper + 1; last is +Inf *)
  mutable sum : float;
  mutable observations : int;
}

type kind =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type metric = {
  name : string;
  labels : labels;
  help : string;
  kind : kind;
}

type registry = {
  tbl : (string * labels, metric) Hashtbl.t;
  mutable rev_order : (string * labels) list;
  mutable collectors : (unit -> unit) list;
  (* Guards the registry *structure* (table, order, collectors) against
     concurrent registration from several domains. Handle mutation is
     deliberately not behind it — see the .mli concurrency contract. *)
  lock : Mutex.t;
}

(* Canonical label order makes (name, labels) a stable identity
   regardless of the order the instrumentation site wrote them in. *)
let canonical labels = List.sort_uniq compare labels

let validate_name name =
  if String.length name = 0 then invalid_arg "Metrics: empty metric name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name))
    name;
  match name.[0] with
  | '0' .. '9' -> invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name)
  | _ -> ()

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

module Registry = struct
  type t = registry

  let create () =
    { tbl = Hashtbl.create 32; rev_order = []; collectors = []; lock = Mutex.create () }

  let default = create ()

  (* The current registry is a per-domain notion: [with_registry] on one
     domain must not redirect another domain's instrumentation (the
     cluster runtime scopes each shard worker to its own registry this
     way). Fresh domains start on the shared [default]. *)
  let current_key = Domain.DLS.new_key (fun () -> default)
  let current () = Domain.DLS.get current_key

  let with_registry r f =
    let saved = Domain.DLS.get current_key in
    Domain.DLS.set current_key r;
    Fun.protect ~finally:(fun () -> Domain.DLS.set current_key saved) f

  let register_collector r f = locked r.lock (fun () -> r.collectors <- f :: r.collectors)

  let clear r =
    locked r.lock (fun () ->
        Hashtbl.reset r.tbl;
        r.rev_order <- [];
        r.collectors <- [])

  let metrics r =
    (* Collectors run outside the lock: they re-enter the registry
       through [counter]/[gauge] handles, and the lock is not reentrant. *)
    let collectors = locked r.lock (fun () -> List.rev r.collectors) in
    List.iter (fun f -> f ()) collectors;
    locked r.lock (fun () -> List.rev_map (Hashtbl.find r.tbl) r.rev_order)
end

let pick_registry = function
  | Some r -> r
  | None -> Registry.current ()

let intern reg ~name ~labels ~help make =
  validate_name name;
  let labels = canonical labels in
  let key = (name, labels) in
  locked reg.lock (fun () ->
      match Hashtbl.find_opt reg.tbl key with
      | Some m -> m
      | None ->
        let m = { name; labels; help; kind = make () } in
        Hashtbl.replace reg.tbl key m;
        reg.rev_order <- key :: reg.rev_order;
        m)

let kind_mismatch what name =
  invalid_arg (Printf.sprintf "Metrics.%s: %s already registered with another type" what name)

let counter ?registry ?(help = "") ?(labels = []) name =
  let m =
    intern (pick_registry registry) ~name ~labels ~help (fun () -> Counter { count = 0 })
  in
  match m.kind with Counter c -> c | _ -> kind_mismatch "counter" name

let gauge ?registry ?(help = "") ?(labels = []) name =
  let m =
    intern (pick_registry registry) ~name ~labels ~help (fun () -> Gauge { value = 0.0 })
  in
  match m.kind with Gauge g -> g | _ -> kind_mismatch "gauge" name

(* Latency buckets in seconds: 1 µs .. 1 s, roughly 1-2.5-5 per decade. *)
let default_buckets =
  [|
    1e-6; 2.5e-6; 5e-6; 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3;
    1e-2; 2.5e-2; 5e-2; 0.1; 0.25; 0.5; 1.0;
  |]

let check_buckets upper =
  if Array.length upper = 0 then invalid_arg "Metrics.histogram: no buckets";
  Array.iteri
    (fun i u ->
      if not (Float.is_finite u) then invalid_arg "Metrics.histogram: non-finite bucket";
      if i > 0 && upper.(i - 1) >= u then
        invalid_arg "Metrics.histogram: buckets must be strictly increasing")
    upper

let histogram ?registry ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
  let m =
    intern (pick_registry registry) ~name ~labels ~help (fun () ->
        check_buckets buckets;
        let upper = Array.copy buckets in
        Histogram
          {
            upper;
            bucket_counts = Array.make (Array.length upper + 1) 0;
            sum = 0.0;
            observations = 0;
          })
  in
  match m.kind with Histogram h -> h | _ -> kind_mismatch "histogram" name

module Counter = struct
  type t = counter

  let inc c = c.count <- c.count + 1

  let add c n =
    if n < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    c.count <- c.count + n

  let set c n = c.count <- n
  let value c = c.count
end

module Gauge = struct
  type t = gauge

  let set g v = g.value <- v
  let add g v = g.value <- g.value +. v
  let value g = g.value
end

module Histogram = struct
  type t = histogram

  let observe h x =
    let n = Array.length h.upper in
    let i = ref 0 in
    while !i < n && x > h.upper.(!i) do
      incr i
    done;
    h.bucket_counts.(!i) <- h.bucket_counts.(!i) + 1;
    h.sum <- h.sum +. x;
    h.observations <- h.observations + 1

  let observe_ns h ns = observe h (Int64.to_float ns *. 1e-9)

  let observations h = h.observations
  let sum h = h.sum

  (* Per-bucket (non-cumulative) counts paired with their upper bounds;
     the final pair carries [infinity]. *)
  let buckets h =
    Array.to_list
      (Array.mapi
         (fun i c ->
           ((if i < Array.length h.upper then h.upper.(i) else infinity), c))
         h.bucket_counts)
end

let register_build_info ?registry ?(clock = Unix.gettimeofday) ~version () =
  let registry = match registry with Some r -> r | None -> Registry.current () in
  let info =
    gauge ~registry ~help:"Build metadata (value is always 1)"
      ~labels:[ ("ocaml", Sys.ocaml_version); ("version", version) ]
      "rebal_build_info"
  in
  Gauge.set info 1.;
  let uptime = gauge ~registry ~help:"Seconds since process start" "rebal_uptime_seconds" in
  let started = clock () in
  Registry.register_collector registry (fun () ->
      Gauge.set uptime (clock () -. started))

let merge ~into src =
  (* Snapshot the source's structure under its own lock, then intern into
     the destination (each intern takes the destination lock); the value
     reads themselves rely on the single-writer confinement contract. *)
  let ordered = locked src.lock (fun () -> List.rev_map (Hashtbl.find src.tbl) src.rev_order) in
  List.iter
    (fun m ->
      match m.kind with
      | Counter c ->
        let dst = counter ~registry:into ~help:m.help ~labels:m.labels m.name in
        dst.count <- dst.count + c.count
      | Gauge g ->
        let dst = gauge ~registry:into ~help:m.help ~labels:m.labels m.name in
        dst.value <- g.value
      | Histogram h ->
        let dst =
          histogram ~registry:into ~help:m.help ~labels:m.labels ~buckets:h.upper m.name
        in
        if dst.upper <> h.upper then
          invalid_arg
            (Printf.sprintf "Metrics.merge: histogram %s has mismatched buckets" m.name);
        Array.iteri
          (fun i c -> dst.bucket_counts.(i) <- dst.bucket_counts.(i) + c)
          h.bucket_counts;
        dst.sum <- dst.sum +. h.sum;
        dst.observations <- dst.observations + h.observations)
    ordered
