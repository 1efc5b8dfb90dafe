(** Histogram-backed percentile estimation (HDR-histogram style): the
    program's one latency histogram.

    Power-of-two buckets are too coarse for tail latency: a p999 read
    off octave buckets can be off by 2x. This reporter subdivides
    every octave into [2^sub_bits] linear sub-buckets, bounding the
    relative quantisation error at [2^-sub_bits] (~3% at the default
    [sub_bits = 5]) while keeping memory constant (~2 KB) and
    [record] O(1) — the shape every production latency pipeline uses.

    Values below [2^sub_bits], and more generally any bucket of width
    1, are recorded {e exactly}. Percentiles use the nearest-rank
    definition and report the bucket's upper bound (clamped to the
    observed maximum), so estimates never understate the tail. *)

type t

val create : ?sub_bits:int -> unit -> t
(** [sub_bits] in [0..16], default 5. *)

val sub_bits : t -> int

val max_relative_error : t -> float
(** [2^-sub_bits]: an estimate [e] for a true value [v] satisfies
    [v <= e <= v * (1 + max_relative_error)] (before clamping). *)

val record : t -> int -> unit
(** Record one value (negative values clamp to 0). O(1). *)

val count : t -> int
val total : t -> int
(** Sum of recorded values (exact, not bucketised). *)

val min_value : t -> int
val max_value : t -> int
(** Exact observed extremes; 0 when empty. *)

val mean : t -> float
(** Exact mean ([total / count]); 0 when empty. *)

val percentile : t -> float -> int
(** [percentile t q] for [q] in [0..1]: the upper bound of the bucket
    holding the nearest-rank [ceil (q * count)]-th smallest value,
    clamped to [max_value t]. [percentile t 1.0 = max_value t]; 0 when
    empty. O(buckets). *)

val merge_into : dst:t -> t -> unit
(** Add [t]'s observations into [dst]. Raises [Invalid_argument] if
    the two differ in [sub_bits]. *)

val bucket_bounds : t -> int -> int * int
(** [(lower, upper)] of the bucket a value falls into (the quantisation
    a [record] of that value suffers). Exposed for the property
    tests. *)
