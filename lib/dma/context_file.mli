(** The engine's register contexts (§3.1).

    "The DMA engine is equipped with several (say 4 to 8) register
    contexts. Each context has a source register, a destination
    register, and a size register. [...] Distinct contexts are mapped
    into distinct memory pages so that each process gets access rights
    for only a single context."

    A context accumulates the physical-address arguments delivered by
    key-carrying stores (key-based method) or by extended shadow
    accesses; the engine fires when the set is complete. Keys and
    owners are written by the kernel only. *)

type slot = Dest | Src

type context = private {
  index : int;
  mutable key : int;
  mutable owner_pid : int option; (** oracle metadata, engine-invisible *)
  mutable dest : int option;
  mutable src : int option;
  mutable size : int option;
  mutable next_slot : slot;
  mutable status : int;
  mutable last_transfer : Transfer.t option;
  mutable atomic_target : int option;
  mutable atomic_pending : Atomic_op.pending;
  mutable mailbox : int option;
      (** local physical word for remote-atomic replies (kernel-set) *)
  dg : int array;  (** the machine's digest cell *)
}
(** Fields are read directly but written only through the setters
    below ([private]), which keep their terms in the digest cell
    current. *)

type t

val create : n:int -> dg:int array -> t
(** [n] contexts; 1 <= n <= [Uldma_mem.Layout.max_contexts]. Their
    digest terms live in [dg], the machine's digest cell; fresh
    contexts add nothing to it. *)

val copy : t -> dg:int array -> t
(** Copies the registers; the copy's terms live in [dg], which must
    already hold them (the copy of the machine's cell). *)

val length : t -> int
val get : t -> int -> context
(** Raises [Invalid_argument] out of range. *)

val mem : t -> int -> bool
(** [mem t i]: [i] names one of the contexts. *)

val set_key : t -> context:int -> key:int -> unit
val set_owner : t -> context:int -> pid:int option -> unit

(** {1 Register writes}

    Every write goes through one of these; each moves the written
    field's term in the digest cell. *)

val set_dest : context -> int option -> unit
val set_src : context -> int option -> unit
val set_size : context -> int option -> unit
val set_status : context -> int -> unit
val set_last_transfer : context -> Transfer.t option -> unit
val set_atomic_target : context -> int option -> unit
val set_atomic_pending : context -> Atomic_op.pending -> unit
val set_mailbox : context -> int option -> unit

val push_address : context -> int -> unit
(** Deposit a physical-address argument into the next slot
    (dest first, then src, then wrapping back to dest). *)

val args_ready : context -> (int * int * int) option
(** [(src, dest, size)] when all three arguments are present. *)

val clear_args : context -> unit
(** Reset the argument slots (after a fire or a rejection), keeping
    key, owner and status. *)

val reset : context -> unit
(** Full reset including status and pending atomics (context switch of
    ownership). *)

(** {1 Keyed words} *)

val iter_terms : (int -> int -> unit) -> t -> unit
(** The file's keyed words as (slot, word) terms: field [f] of context
    [i] at slot [16 i + f] of slot domain 3 ([index] picks the slots),
    each as its value xor its reset value, so a fresh file has no
    nonzero word. The fields are key, owner, dest, src, size, next
    slot, status, atomic target, mailbox, the pending atomic (three
    words) and whether [last_transfer] is set (a transfer was started
    through the context since its last reset; which one, and what is
    left of it, the engine keys). The setters keep the machine's cell
    holding these terms' sum. *)
