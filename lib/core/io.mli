(** Plain-text instance and assignment serialization, used by the
    [rebalance] command-line tool.

    Instance format (lines; [#] starts a comment; blank lines ignored):
    {v
    processors <m>
    job <size> <cost> <initial-processor>   # one line per job, in id order
    v}

    Assignment format: one line of [n] whitespace-separated processor
    indices, job order. *)

val write_instance : out_channel -> Instance.t -> unit
val instance_to_string : Instance.t -> string

val read_instance : in_channel -> (Instance.t, string) result
(** Never raises on malformed input: empty files, non-integer tokens,
    non-positive sizes, negative costs, duplicate or missing
    [processors] lines and out-of-range initial processors all produce
    [Error "line N: ..."] naming the first offending line. *)

val instance_of_string : string -> (Instance.t, string) result

val write_assignment : out_channel -> Assignment.t -> unit
val assignment_to_string : Assignment.t -> string

val assignment_of_string : m:int -> string -> (Assignment.t, string) result
