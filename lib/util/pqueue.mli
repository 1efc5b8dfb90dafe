(** Deterministic min-heaps keyed by [int] priorities, for
    discrete-event simulation.

    {!Int} is the core: a flat heap of [(key, seq, value)] integer
    triples stored inline in one [int array], so pushing and popping
    allocate nothing and a sift touches contiguous memory. The caller
    supplies [seq], which breaks ties between equal keys; a simulation
    that draws [seq] from one counter at the moment it schedules an
    event pops equal-time events in scheduling order, whatever the
    heap's internal layout.

    The polymorphic ['a t] wraps {!Int} for arbitrary payloads: values
    sit in a slot table and only their slot numbers move through the
    heap, and [seq] is an internal insertion counter, so elements with
    equal keys come back in insertion order. *)

module Int : sig
  type t

  val create : unit -> t

  val push : t -> key:int -> seq:int -> int -> unit
  (** O(log n), no allocation once the heap has grown to its peak
      size. Entries pop in ascending [(key, seq)] order. *)

  val min_key : t -> int
  (** Key of the minimum entry. Raises [Invalid_argument] when empty;
      so do {!min_value}, {!remove_min} and {!replace_min}. *)

  val min_value : t -> int

  val remove_min : t -> unit
  (** Drop the minimum entry. O(log n). *)

  val replace_min : t -> key:int -> seq:int -> int -> unit
  (** [remove_min] then [push] in one sift: the usual way to advance
      an event source whose next event is already known. *)

  val length : t -> int
  val is_empty : t -> bool
end

type 'a t

val create : unit -> 'a t

val push : 'a t -> key:int -> 'a -> unit
(** O(log n). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum-key element (FIFO among equal keys);
    [None] when empty. O(log n). *)

val peek_key : 'a t -> int option

val length : 'a t -> int
val is_empty : 'a t -> bool
