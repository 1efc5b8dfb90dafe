(** The CPU register file. Register 31 is hardwired to zero, as on the
    Alpha. *)

type t

val zero_reg : int

val create : unit -> t
val copy : t -> t

val get : t -> Isa.reg -> int
val set : t -> Isa.reg -> int -> unit
(** Writes to register 31 are discarded. *)

val to_list : t -> int list

val digest : t -> int * int
(** The file's additive digest: the lane sums of
    {!Uldma_util.Fp128.int_term_a}/[_b] over the registers (slot =
    register number), kept current by [set] in O(1). An all-zero file
    digests to [(0, 0)]. *)

val encode : Uldma_util.Enc.t -> t -> unit
(** Feed the registers to an encoder: every register value, in order,
    into [Buf]; the two digest lanes into [Fp]. *)

val pp : Format.formatter -> t -> unit
