(** Net backends for the verified explorer.

    A backend decides how long a DMA transfer of [n] bytes stays in
    flight. [Null] is the paper's Table-1 methodology (no data moved,
    zero duration — every status load sees a completed transfer).
    [Linked] models a real interconnect from {!Link} (§5's ATM-155/622,
    Gigabit and HIC links): a transfer of [n] bytes occupies the wire
    for [Link.wire_time_ps] — latency plus serialisation — and status
    loads taken before that deadline see the bytes still remaining.

    {2 Tick quantisation}

    [Linked] durations are rounded {e up} to a whole number of
    [tick_ps] ticks. This is what keeps exhaustive exploration over
    time finite and well-merged: durations (and hence every in-flight
    deadline the state encoding folds in) are drawn from the small set
    [{k * tick_ps}] instead of the raw picosecond range, so schedule
    prefixes that start the same transfers reach states that agree on
    their deadlines far more often. Quantisation is applied to the
    {e duration} a transfer is born with — never to the encoded
    remaining time, which must stay exact for dedup to be sound (two
    states whose remaining times merely fall in the same bucket can
    diverge observably one tick later). Ceiling rounding guarantees a
    nonzero transfer never quantises to zero ticks, i.e. a timed
    backend never silently degenerates into [Null]. *)

type t =
  | Null  (** zero-duration transfers (the default, golden-stable) *)
  | Linked of { link : Link.t; tick_ps : Uldma_util.Units.ps }

val default_tick_ps : Uldma_util.Units.ps
(** 1 us — coarse enough to merge aggressively, fine enough that the
    ATM-155 wire time of a 256-byte scenario transfer (~23 us) spans
    many scheduling legs. *)

val null : t

val linked : ?tick_ps:Uldma_util.Units.ps -> Link.t -> t
(** [tick_ps] defaults to {!default_tick_ps}; must be positive. *)

val duration_ps : t -> int -> Uldma_util.Units.ps
(** Wire time for [n] bytes: 0 for [Null], the link's
    [wire_time_ps] ceiling-quantised to the tick for [Linked]. *)

val quantise : tick_ps:Uldma_util.Units.ps -> Uldma_util.Units.ps -> Uldma_util.Units.ps
(** Ceiling-round a duration to a whole number of ticks ([0] stays
    [0]; anything positive rounds to at least one tick). Exposed for
    the property tests. *)

val tick_ps : t -> Uldma_util.Units.ps
(** The backend's tick; 0 for [Null]. *)

val link : t -> Link.t option
val name : t -> string

val cache_key : t -> string
(** Canonical identity for persistent-cache keying ("null",
    "ATM 155Mbps@1000000ps", ...): two backends with equal keys produce
    equal schedule trees, and the tick is part of the key. *)

val of_string : ?tick_ps:Uldma_util.Units.ps -> string -> (t, string) result
(** Parse a CLI spelling ([null], [atm155], [atm622], [gigabit],
    [hic]); [tick_ps] applies to the linked backends. Unknown names and
    non-positive ticks come back as [Error] with the valid spellings
    listed — never as an exception. *)

val pp : Format.formatter -> t -> unit
