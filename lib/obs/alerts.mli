(** The declarative alerting engine over {!Tsdb}.

    Rules come from a plain-text file, one rule per line ([#] comments
    and blank lines ignored):

    {v
    alert <name> <func>(<selector>[<window>]) <op> <value> for <dur> [suspect <shard>]
    burnrate <name> bad=<selector> total=<selector> budget=<B> factor=<F>
             short=<dur> long=<dur> [for=<dur>] [suspect=<shard>]
    v}

    A {e threshold} rule applies a {!Tsdb.func} ([value], [rate],
    [delta], [avg], [min], [max], [p99], ...) to a series over a
    trailing window and compares it against a bound ([>], [>=], [<],
    [<=]); e.g.
    [alert deep_mailbox max(rebal_mailbox_depth{shard="0"}[30s]) > 48 for 10s].
    A {e burnrate} rule is the multi-window SLO form: with error budget
    [B] (allowed bad fraction) and burn factor [F], it holds when
    [rate(bad)/rate(total) > F*B] over {e both} the short and the long
    window — the fast window catches the spike, the slow window keeps
    one blip from paging.

    Each {!eval} tick runs every rule against the store and advances a
    [Pending -> Firing -> Resolved] state machine: a rule whose
    condition first holds becomes Pending (or fires immediately when
    [for] is 0), Firing once the condition has held continuously for
    the [for] duration, Resolved when a firing rule's condition clears,
    and Pending collapses back to Inactive if the condition clears
    early. Ticks are timestamped with {!Tsdb.last_sample_ns}, so the
    machine is deterministic under an injected clock.

    Every transition is recorded with provenance — rule, observed
    value, window expression, tick timestamp — in a bounded ring,
    exported as metrics ([rebal_alert_state{rule,state}] 0/1 gauges and
    [rebal_alert_transitions_total{rule,to}]) and, when a sink is
    attached, appended to the telemetry journal as ["alert"] events.

    The optional [suspect <shard>] annotation is the feedback loop into
    the serving stack: the daemon reports every tick a suspect-annotated
    rule spends Firing to the Supervisor as an external failure signal,
    so a sustained alert marks the shard Suspect and, if it persists,
    tips it Down through the ordinary failover machinery. *)

type state =
  | Inactive
  | Pending  (** condition holds, [for] duration not yet served *)
  | Firing
  | Resolved  (** was firing, condition has cleared *)

val state_name : state -> string

type cmp = Gt | Ge | Lt | Le

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
  suspect : int option;  (** shard to report against while firing *)
}

val parse_rule : string -> (rule option, string) result
(** One line; [Ok None] on blank/comment. *)

val parse_rules : string -> (rule list, string) result
(** A whole rules file. Errors are ["line %d: ..."]; duplicate rule
    names are rejected. *)

val parse_rules_file : string -> (rule list, string) result

type transition = {
  t_rule : string;
  t_from : state;
  t_to : state;
  t_at_ns : int;  (** the tick's {!Tsdb.last_sample_ns} *)
  t_value : float option;  (** observed value ([None]: no data) *)
  t_expr : string;
      (** canonical text of the rule's condition, e.g.
          ["rate(x{a="b"}[30s]) > 5"] — the transition's provenance *)
}

type t

val create :
  ?transition_capacity:int ->
  ?registry:Metrics.Registry.t ->
  ?sink:Journal.sink ->
  rules:rule list ->
  Tsdb.t ->
  t
(** [transition_capacity] (default 256) bounds the retained transition
    ring. State/transition metrics bind into [registry] (default: the
    registry current at creation). [sink] receives one ["alert"] event
    per transition — point it at the same telemetry sink as the store
    so post-mortems see samples and alerts on one timeline.
    @raise Invalid_argument on duplicate rule names. *)

val eval : t -> transition list
(** One tick: evaluate every rule, advance the state machines, record
    and return the transitions that happened (in rule order). *)

val rules : t -> rule list

val state : t -> string -> state option
(** Current state of a rule by name. *)

val last_value : t -> string -> float option
(** Last observed value of a rule's expression. *)

val firing : t -> (rule * float option) list
(** Rules currently Firing, with their last observed value — the
    daemon's per-tick supervisor feedback reads this. *)

val transitions : t -> transition list
(** Retained transitions, oldest first. *)

val status_lines : t -> string list
(** The [ALERTS] verb / [GET /alerts] body (no [# EOF] trailer): an
    [ALERTS ...] summary, one [ALERT <name> state=...] line per rule,
    one [TRANS ...] line per retained transition. *)
