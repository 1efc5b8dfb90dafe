(** The repeated-passing-of-arguments recogniser (§3.3).

    The engine watches the *global* stream of shadow accesses (it has
    no register contexts in this mode — that is the method's selling
    point) and fires a DMA only when it sees a complete well-formed
    sequence:

    - [Three] (Dubnicki's original): LOAD s, STORE d, LOAD s — with
      accesses 1 and 3 to the same address. Vulnerable (Fig. 5).
    - [Four]: STORE d, LOAD s, STORE d, LOAD s — 1,3 equal and 2,4
      equal. Vulnerable (Fig. 6).
    - [Five] (the paper's method, Fig. 7): STORE d, LOAD s, STORE d,
      LOAD s, LOAD d — 1,3,5 equal and 2,4 equal. "If it sees anything
      out of this order, the DMA engine resets itself."

    Both stores carry the transfer size and must agree.

    On a mismatch the engine resets and then considers the offending
    access as a potential first element of a fresh sequence (this is
    exactly what makes the Fig. 5 attack on [Three] work, so it must be
    modelled faithfully). *)

type variant = Three | Four | Five

type fire = { src : int; dst : int; size : int }

type reply =
  | Accepted (** consistent continuation, sequence not yet complete *)
  | Fired of fire (** this access completed a valid sequence *)
  | Rejected (** inconsistent: the engine reset itself *)

type t

val create : dg:int array -> variant -> t
(** A matcher whose terms ({!iter_terms}) are summed in [dg], the
    machine's digest cell; [create] adds the variant's term. *)

val copy : t -> dg:int array -> t
(** A copy whose terms live in [dg], which must already hold them (the
    copy of the machine's cell). *)

val variant : t -> variant

val sequence_length : variant -> int

val feed : t -> Uldma_bus.Txn.op -> paddr:int -> value:int -> reply

val reset : t -> unit

val position : t -> int
(** How many accesses of the current candidate sequence have been
    accepted (0 = idle). *)

val iter_terms : (int -> int -> unit) -> t -> unit
(** The matcher's keyed words as (slot, word) terms: variant, position
    and bound dest, src and size at slots 0..4 of slot domain 4, each
    as value xor its reset value (the variant's reset value is [Five],
    the matcher of every non-[Rep_args] engine), so a fresh [Five]
    matcher has no nonzero word. Two matchers with equal words behave
    identically on every future access stream. Every write moves its
    term in the machine's cell. *)
