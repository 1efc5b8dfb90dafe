(** Atomic operations offered by the network interface (§3.5):
    "Such atomic operations include atomic_add, fetch_and_store,
    compare_and_swap, etc."

    An operation is encoded into store values as
    [operand << 4 | opcode]; compare-and-swap needs two data arguments
    and therefore two stores (expected, then new value). *)

type t =
  | Add of int (** fetch-and-add; returns the old value *)
  | Fetch_store of int (** swap in the operand; returns the old value *)
  | Cas of { expected : int; new_value : int } (** returns the old value *)

type pending =
  | P_none
  | P_cas_expected of int (** first half of a CAS received *)
  | P_ready of t

val opcode_add : int
val opcode_fetch_store : int
val opcode_cas_expected : int
val opcode_cas_new : int

val encode : opcode:int -> operand:int -> int
val encode_add : int -> int
val encode_fetch_store : int -> int
val encode_cas_expected : int -> int
val encode_cas_new : int -> int

val accumulate : pending -> int -> pending
(** Feed one encoded store value into the pending state. An invalid
    opcode or an out-of-order CAS half resets to [P_none]. *)

val execute : t -> read:(int -> int) -> write:(int -> int -> unit) -> target:int -> int
(** Perform the operation on memory; returns the old value. *)

val pending_word : pending -> int -> int
(** [pending_word p w], [w] in 0..2: the pending state as three digest
    values (constructor, first operand, CAS new value). [P_none] is
    (0, 0, 0) and the map is injective, so a register holding a pending
    atomic digests over three slots like three ints. *)

val pp : Format.formatter -> t -> unit
