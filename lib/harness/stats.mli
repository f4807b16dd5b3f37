(** Small numeric summaries used by the experiment tables. *)

val mean : float array -> float
val maximum : float array -> float
val minimum : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,1]; nearest-rank on a sorted copy.
    0 on an empty array. *)

val stddev : float array -> float

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

val summarize : float array -> summary
val ratio : int -> int -> float
(** [ratio a b = a /. b] as floats, 1.0 when [b = 0]. *)
