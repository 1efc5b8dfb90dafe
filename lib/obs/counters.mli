(** Named monotonic counters.

    A registry is a flat namespace of ["layer.name"] keys holding plain
    monotonic ints ({!incr}/{!add}). Latency distributions live in
    {!Percentile}.

    [Kernel.counter_snapshot] builds one of these from a kernel's live
    state, giving every layer's accounting a uniform surface without
    changing the O(1) per-event counters the explorer relies on. *)

type t

val create : unit -> t

val incr : t -> string -> unit
val add : t -> string -> int -> unit

val value : t -> string -> int
(** Current value of a counter; 0 if never touched. *)

val counter_names : t -> string list
(** Sorted. *)

val merge_into : dst:t -> t -> unit
(** Add every counter of the source into [dst]. *)

val rows : t -> (string * string) list
(** Rendered [(name, value)] pairs, sorted by name. *)
