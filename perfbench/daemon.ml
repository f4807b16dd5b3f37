(* Driving a real [rebalance serve] process: spawn it on pipes, stream
   pregenerated chunks at it, classify and time its replies, scrape its
   HTTP metrics, read its peak RSS, and reap it. *)

let now_ns () = Int64.to_int (Rebal_harness.Timer.now_ns ())
let since_s t0 = float_of_int (now_ns () - t0) /. 1e9

type proc = {
  pid : int;
  to_daemon : Unix.file_descr;
  from_daemon : Unix.file_descr;
  spawned : int;  (** [now_ns] just before the spawn *)
}

(* Every daemon spawned and not yet reaped, so a run that fails midway
   can still stop them all ({!kill_all}). *)
let live = ref []

(* CPU placement, when run.py has confined this process to one CPU of
   several: [cpus] lists them all and [client_cpu] is ours. *)
let cpus : int list ref = ref []
let client_cpu = ref (-1)

(* Where a daemon runs. [Beside]: on every CPU but the client's (all of
   them if there is no other), so the client never takes the daemon's
   CPU. [Anywhere]: every CPU, for untimed helpers. *)
type placement = Beside | Anywhere

let daemon_cpus = function
  | Anywhere -> !cpus
  | Beside -> ( match List.filter (( <> ) !client_cpu) !cpus with [] -> !cpus | others -> others)

let command ?(placement = Beside) exe args =
  match !cpus with
  | [] -> (exe, exe :: args)
  | _ ->
    let list = String.concat "," (List.map string_of_int (daemon_cpus placement)) in
    ("taskset", "taskset" :: "-c" :: list :: exe :: args)

let spawn ?placement ~exe ~log args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let spawned = now_ns () in
  let prog, argv = command ?placement exe args in
  let pid = Unix.create_process prog (Array.of_list argv) in_r out_w err in
  List.iter Unix.close [ in_r; out_w; err ];
  live := pid :: !live;
  { pid; to_daemon = in_w; from_daemon = out_r; spawned }

let rec wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 128 + abs s
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid

(* Confine every thread of this process to [allowed], when placing at
   all; domains spawned later inherit their spawner's mask. *)
let confine_self allowed =
  if !cpus <> [] then begin
    let list = String.concat "," (List.map string_of_int allowed) in
    let argv = [| "taskset"; "-a"; "-p"; "-c"; list; string_of_int (Unix.getpid ()) |] in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    let pid = Unix.create_process "taskset" argv Unix.stdin null null in
    Unix.close null;
    if wait_exit pid <> 0 then failwith ("taskset could not confine this process to CPUs " ^ list)
  end

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let rss_peak_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    let l = input_line ic in
    match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
    | Some kb -> float_of_int kb /. 1024.0
    | None -> find ()
  in
  find ()

(* CPU seconds, user plus system over all its threads, that a live
   process has used: fields 14 and 15 of /proc/<pid>/stat, in USER_HZ
   ticks (100 per second on Linux). *)
let cpu_s pid =
  let line = In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  (* The command name, field 2, may hold spaces: count from its ')'. *)
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  match String.split_on_char ' ' rest with
  | _state :: _ppid :: _pgrp :: _session :: _tty :: _tpgid :: _flags :: _minflt :: _cminflt :: _majflt
    :: _cmajflt :: utime :: stime :: _ ->
    float_of_int (int_of_string utime + int_of_string stime) /. 100.0
  | _ -> failwith ("unexpected /proc stat line: " ^ line)

(* ----- reading replies ----- *)

let read_line = Rebal_net.Lineio.read_line

(* What a reply line means to the client. [Mutation] and [Repair] end
   the reply of an ADD/REMOVE/RESIZE or REBALANCE; [Rider] lines (MOVE,
   REBALANCED auto) belong to the reply they follow. *)
type reply = Mutation | Repair | Error_reply | Stats | Rider | Other

let classify line =
  let has p = String.starts_with ~prefix:p line in
  if has "PLACED " || has "REMOVED " || has "RESIZED " then Mutation
  else if has "MOVE " || has "REBALANCED auto" then Rider
  else if has "REBALANCED " then Repair
  else if has "ERR" then Error_reply
  else if has "STATS " then Stats
  else Other

(* ----- STATS lines ----- *)

let stats_field line key =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key ->
        Some (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' line)

let stats_int line key =
  match Option.bind (stats_field line key) int_of_string_opt with
  | Some v -> v
  | None -> failwith (Printf.sprintf "STATS reply lacks %s: %s" key line)

(* Intra-shard repair moves plus cross-shard transfers. *)
let stats_moved line =
  stats_int line "moved" + Option.value (Option.bind (stats_field line "inter_moves") int_of_string_opt) ~default:0

(* ----- pipelined sessions ----- *)

type tally = {
  mutable lines : int;  (** stream lines whose reply ended *)
  mutable mutations : int;  (** ADD/REMOVE/RESIZE acknowledged without ERR *)
  mutable errors : int;
  mutable error_lines : string list;  (** the first few ERR replies, for the report *)
  mutable last_ack : int;  (** [now_ns] of the last stream-line reply *)
  samples : Series.t;  (** (reply time, send-to-reply latency), ns *)
}

let tally () =
  { lines = 0; mutations = 0; errors = 0; error_lines = []; last_ack = 0; samples = Series.create () }

(* Book one finished reply at [now]. *)
let answered t ~now =
  t.lines <- t.lines + 1;
  t.last_ack <- now

(* Account one reply line; [true] when it ended a stream line's reply. *)
let account t line =
  match classify line with
  | Mutation ->
    t.mutations <- t.mutations + 1;
    true
  | Repair -> true
  | Error_reply ->
    t.errors <- t.errors + 1;
    if List.length t.error_lines < 5 then t.error_lines <- line :: t.error_lines;
    true
  | Rider -> false
  | Stats | Other -> failwith ("unexpected reply: " ^ line)

type piped = {
  tally : tally;
  sent : int;  (** stream lines written before the window closed *)
  first_send : int;  (** [now_ns] of the first write *)
  stats : string;  (** the STATS reply that closes the session segment *)
}

(* Stream [chunks] down [out] from a writer thread while this thread
   reads the replies, keeping at most [window] lines outstanding; stop
   writing at [deadline] (absolute [now_ns]) if one is given. The
   segment ends with a STATS line, whose reply marks the end. Every
   [sample_every]-th line's send-to-reply time is kept. *)
let pipeline ?deadline ?(window = 4096) ?(sample_every = 1) ~out s (stream : Gen.stream) =
  let t = tally () in
  let m = Mutex.create () and moved = Condition.create () in
  let nchunks = Array.length stream.chunks in
  let send_ns = Array.make (max 1 nchunks) 0 in
  let sent = ref 0 in
  let first_send = now_ns () in
  let writer () =
    let rec go c =
      let open_ = match deadline with None -> true | Some d -> now_ns () < d in
      if c < nchunks && open_ then begin
        Mutex.lock m;
        while !sent - t.lines > window - Gen.chunk_lines do
          Condition.wait moved m
        done;
        Mutex.unlock m;
        let chunk = stream.chunks.(c) in
        send_ns.(c) <- now_ns ();
        Rebal_net.Lineio.write_string out chunk;
        Mutex.lock m;
        sent := !sent + min Gen.chunk_lines (stream.lines - (c * Gen.chunk_lines));
        Mutex.unlock m;
        go (c + 1)
      end
    in
    go 0;
    Rebal_net.Lineio.write_string out "STATS\n"
  in
  let th = Thread.create writer () in
  let rec read () =
    match read_line s with
    | None -> failwith "daemon closed its output mid-session"
    | Some line ->
      if classify line = Stats then line
      else begin
        if account t line then begin
          let i = t.lines in
          let now = now_ns () in
          if i mod sample_every = 0 then Series.add t.samples now (now - send_ns.(i / Gen.chunk_lines));
          (* Wake the writer once per buffer drained, not per line. *)
          Mutex.lock m;
          answered t ~now;
          if not (Rebal_net.Lineio.has_line s) then Condition.signal moved;
          Mutex.unlock m
        end;
        read ()
      end
  in
  let stats = read () in
  Thread.join th;
  { tally = t; sent = !sent; first_send; stats }

let drain s = try while read_line s <> None do () done with Unix.Unix_error _ -> ()

let reap p =
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ p.to_daemon; p.from_daemon ];
  let code = wait_exit p.pid in
  live := List.filter (( <> ) p.pid) !live;
  code

(* Send SHUTDOWN down [out], drain [s] to EOF and reap: the daemon's
   exit code. *)
let shutdown ~out s p =
  (try Rebal_net.Lineio.write_string out "SHUTDOWN\n" with Unix.Unix_error _ -> ());
  drain s;
  reap p

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait_exit pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let expect_ready s =
  match read_line s with
  | Some l when String.length l >= 5 && String.sub l 0 5 = "READY" -> l
  | Some l -> failwith ("expected READY banner, got: " ^ l)
  | None -> failwith "daemon exited before READY"

(* ----- TCP ----- *)

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Rebal_net.Lineio.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

(* The port a [--tcp 0] daemon printed on its stdout. *)
let listening_port s =
  match read_line s with
  | Some l -> (
    match String.rindex_opt l ':' with
    | Some i -> (
      match Scanf.sscanf_opt (String.sub l (i + 1) (String.length l - i - 1)) "%d" Fun.id with
      | Some p -> p
      | None -> failwith ("no port in: " ^ l))
    | None -> failwith ("no port in: " ^ l))
  | None -> failwith "daemon exited before listening"

(* One request, one reply: write [line], read until its reply ends,
   and book its send-to-end time. *)
let round_trip t fd s line =
  let t0 = now_ns () in
  Rebal_net.Lineio.write_string fd line;
  let rec read () =
    match read_line s with
    | None -> failwith "daemon closed the connection mid-request"
    | Some line -> if account t line then () else read ()
  in
  read ();
  let now = now_ns () in
  answered t ~now;
  Series.add t.samples now (now - t0)

(* GET /metrics over the protocol port, parsed. *)
let scrape port =
  let fd = connect port in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Rebal_net.Lineio.write_string fd "GET /metrics HTTP/1.0\r\n\r\n";
  let b = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec slurp () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      slurp ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> slurp ()
  in
  slurp ();
  let text = Buffer.contents b in
  let body =
    let rec find i =
      if i + 4 > String.length text then failwith "metrics scrape: no HTTP body"
      else if String.sub text i 4 = "\r\n\r\n" then String.sub text (i + 4) (String.length text - i - 4)
      else find (i + 1)
    in
    find 0
  in
  match Rebal_obs.Expo.parse body with Ok samples -> samples | Error e -> failwith ("metrics scrape: " ^ e)
