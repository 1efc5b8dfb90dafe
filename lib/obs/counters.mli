(** Named monotonic counters and simulated-time histograms.

    A registry is a flat namespace of ["layer.name"] keys. Counters are
    plain monotonic ints ({!incr}/{!add}); histograms record value
    distributions (e.g. initiation latency in ps, retry counts) in
    power-of-two buckets so that storage is O(log max) regardless of
    sample count.

    [Kernel.counter_snapshot] builds one of these from a kernel's live
    state, giving every layer's accounting a uniform surface without
    changing the O(1) per-event counters the explorer relies on. *)

type t

val create : unit -> t

val incr : t -> string -> unit
val add : t -> string -> int -> unit

val value : t -> string -> int
(** Current value of a counter; 0 if never touched. *)

val observe : t -> string -> int -> unit
(** Record one sample into the named histogram. Negative samples clamp
    to 0. *)

type hist

val histogram : t -> string -> hist
(** The named histogram, created empty if absent. A hot loop looks it
    up once and {!record}s into it, skipping [observe]'s per-sample
    name lookup. *)

val record : hist -> int -> unit
(** [record (histogram t name) v] is [observe t name v]. *)

type summary = { count : int; sum : int; min : int; max : int; mean : float }

val summarize : t -> string -> summary option
(** Summary of a histogram; [None] if it has no samples. *)

val buckets : t -> string -> (int * int) list
(** Histogram buckets as [(upper_bound, count)] pairs for non-empty
    power-of-two buckets, ascending. *)

val counter_names : t -> string list
(** Sorted. *)

val merge_into : dst:t -> t -> unit
(** Add every counter and histogram of the source into [dst]. *)

val rows : t -> (string * string) list
(** Rendered [(name, value)] pairs: counters first, then histogram
    summaries, both sorted by name. *)

val to_table : ?title:string -> t -> Uldma_util.Tbl.t
