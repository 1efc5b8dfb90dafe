(** The CPU register file. Register 31 is hardwired to zero, as on the
    Alpha. *)

type t

val zero_reg : int

val create : ?slot_base:int -> unit -> t
(** All registers zero. Register [r] enters the digest at slot
    [slot_base + r] ([slot_base] defaults to 0), so files created with
    distinct bases can share one digest sum. *)

val copy : t -> t

val get : t -> Isa.reg -> int
val set : t -> Isa.reg -> int -> unit
(** Writes to register 31 are discarded. *)

val to_list : t -> int list

val slot_base : t -> int

val iter_terms : (int -> int -> unit) -> t -> unit
(** [iter_terms f t] calls [f (slot_base t + r) v] for every register
    [r] and its value [v]: the file's own keyed words. The owner
    enumerates its auxiliary values after them. *)

val replace_aux : t -> int -> int -> int -> unit
(** [replace_aux t k old v]: the owner's auxiliary value [k]
    ([0 <= k < 32]), which shares the file's digest at slot
    [slot_base + 32 + k], changes from [old] to [v]. The owner keeps
    the values; the file keeps only their terms. *)

val digest : t -> int * int
(** The file's additive digest: {!iter_terms}'s terms and the
    auxiliary values', kept current by [set] and [replace_aux] in
    O(1). An all-zero file digests to [(0, 0)]. *)

val add_digest : t -> int array -> unit
(** [add_digest t acc] adds {!digest}'s two lanes into [acc.(0)] and
    [acc.(1)] without allocating. *)

val pp : Format.formatter -> t -> unit
