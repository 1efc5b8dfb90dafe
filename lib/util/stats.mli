(** Summary statistics over samples of simulated measurements. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val of_list : float list -> summary
(** Summary of a non-empty sample list. Raises [Invalid_argument] on []. *)

val of_array : float array -> summary

val percentile : float array -> float -> float
(** [percentile sorted p] with [p] in [\[0,1\]]; nearest-rank on a sorted
    array. Raises [Invalid_argument] on an empty array. *)

val mean : float list -> float
