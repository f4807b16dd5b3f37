(** Deterministic re-execution of engine flight-recorder journals.

    {!run} replays a parsed ["rebal-engine"] journal against a fresh
    [Manual]-trigger engine: every recorded [add] / [remove] / [resize]
    is re-applied and its recorded placement and makespan verified;
    every recorded [rebalance] — including the automatic ones a live
    trigger fired — is re-applied as an explicit repair with the
    recorded budget and its recorded makespan and move count verified;
    recorded [trigger] events are informational (replay never consults a
    wall clock, which is what makes [Every_seconds] sessions
    replayable); recorded [check] events re-run [check_consistency] and
    compare verdicts. A recorded [snapshot] event at sequence 0 (a
    compacted journal) replaces genesis — replay resumes from its state
    instead of re-executing history; a mid-journal snapshot is verified
    structurally against the replayed state. A divergence is an [Error]
    naming the journal line, in the [Rebal_core.Io] style. After the
    last event the replay runs a full-budget [Engine.check_consistency],
    so a clean [run] certifies that the journal reconstructs a state
    whose makespan, loads and placement are bit-identical to what the
    recorder saw. Finally the trigger config recorded in the header is
    re-armed on the replayed engine, so a journal recorded under
    [--auto-*] does not silently come back as [Manual].

    Replay re-executes through {!Engine.replay_apply} and
    {!Engine.replay_rebalance}, and the final check's probe observes
    nothing either: a replay reads no clock and records nothing into the
    engine's op-latency and moves-per-rebalance histograms, which count
    served work only. Its [consistency_checks] still count.

    One step function applies each event, read by the journal's one
    frame reader, whether it comes from a parsed event list ({!resume},
    each event encoded into a frame) or straight off a journal file as
    it is read ({!resume_file}, which builds no list).

    The [explain_*] functions are the other consumer: they render
    decision provenance straight from the parsed journal, no engine
    needed. *)

module Journal = Rebal_obs.Journal

type outcome = {
  header : Journal.header;
  m : int;
  events : int;  (** journal events applied (triggers and snapshots included) *)
  final_jobs : int;
  final_makespan : int;
  rebalances : int;  (** repair passes re-executed *)
  moves : int;  (** relocations across all re-executed repairs *)
  checks : int;  (** recorded [check] events re-verified *)
  snapshots : int;  (** [snapshot] events seen (resume point included) *)
  resumed : bool;  (** true when the journal opened with a snapshot *)
  trigger : Engine.trigger;  (** the re-armed recorded trigger config *)
  consistency_ok : bool;  (** the final full-budget [check_consistency] *)
}

val run : Journal.header * Journal.event list -> (outcome, string) result
(** Replay an already-parsed journal. [Error] on a wrong producer tag or
    version, malformed fields, or any divergence from the recording —
    all ["line %d: ..."]. *)

val resume :
  Journal.header * Journal.event list -> (Engine.t * outcome, string) result
(** Like {!run}, but also hands back the replayed engine — verified,
    trigger re-armed, journal-detached — ready to be put back into
    service. The list is read through {!Journal.fold_parsed}: errors
    name each event's own [line], and sequence numbers must run from 0
    without a gap. *)

val resume_appending :
  ?format:Journal.format ->
  write:(string -> unit) ->
  Journal.header * Journal.event list ->
  (Engine.t * outcome, string) result
(** {!resume}, then attach a sink that appends to the same journal:
    [write] receives the rendered bytes, numbering continues after the
    last replayed event and no second header is written. [format]
    (default [Jsonl]) must be the journal's own — see
    {!Journal.sniff_file}. The restart path of a readmitted shard. *)

val resume_file :
  ?append:(string -> unit) -> string -> (Engine.t * outcome, string) result
(** {!resume} streamed from the journal file at [path]: each event is
    checked and applied as it is read ({!Journal.fold_file}), with no
    event list built — the same checks, from genesis, as {!resume} on
    [Journal.load_file path]. With [append], a sink then appends to the
    journal in its own on-disk format, as {!resume_appending} does.
    Errors are those of [load_file] then {!resume}, except that the
    first bad line wins: a divergence before a corrupt tail is the one
    reported. [serve --journal] restarts through this. *)

val same_state : Engine.t -> Engine.t -> bool
(** Both engines hold the same jobs with the same sizes on the same
    processors (hence the same makespan). The replay-equals-live check:
    a journal that resumes to an engine [same_state] as the live one
    recorded everything. *)

val compact :
  Journal.header * Journal.event list ->
  ((Journal.header * Journal.event list) * int * int, string) result
(** Compact a journal: drop every event before the latest recorded
    [snapshot] (sequence numbers renumbered from 0), or — when none was
    recorded — replay the whole journal (verifying it) and emit a single
    snapshot of the final state. Returns the compacted journal (the
    same header, then the kept events) plus the number of events
    dropped and kept; {!Journal.write_file} puts it on disk in either
    format. *)

val run_file : string -> (outcome, string) result
(** {!resume_file}'s outcome: what [rebalance replay] prints. *)

val summary : outcome -> string
(** One human-readable paragraph for the CLI. *)

(** {2 Decision provenance views} *)

val explain_summary : Journal.header * Journal.event list -> string
(** The whole journal as a table: one row per event with its makespan
    trail. *)

val explain_job : Journal.header * Journal.event list -> id:string -> (string, string) result
(** Life of one job: its add/remove/resize events and every rebalance
    move that relocated it, with source/destination loads.
    [Error] if the id never appears. *)

val explain_rebalance :
  Journal.header * Journal.event list -> seq:int -> (string, string) result
(** One rebalance decision in full: which trigger fired, imbalance at
    decision time, budget spent, and the per-move provenance table.
    [Error] if [seq] is not a rebalance event. *)
