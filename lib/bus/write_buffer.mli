(** The CPU's write buffer.

    Footnote 6 and the Table 1 methodology both warn that "some
    hardware devices (e.g. write buffers) may attempt to collapse
    successive read/write operations to the same address", which is why
    the repeated-passing-of-arguments method must issue memory
    barriers. This module models both behaviours:

    - [Ordered]: the bus preserves program order and never collapses —
      stores reach the device immediately. Memory barriers are cheap
      no-ops. This is the default for latency measurements.
    - [Bypass]: stores are buffered; loads *bypass* buffered stores
      (reaching the device first), optionally get *forwarded* data from
      a buffered store to the same address (so the device never sees
      the load), and consecutive stores to the same address optionally
      *collapse*. Only [MB] (or a full buffer) drains it. This is the
      hazardous real-machine behaviour the ablation benchmark and the
      write-buffer tests exercise. *)

type mode = Ordered | Bypass of { forward : bool; collapse : bool }

type event = Collapsed of { paddr : int } | Drained of { count : int }
(** Observable hazards: a store collapsed into an already-buffered one
    (the device will never see the first value), or a barrier/overflow
    drained [count] buffered stores. *)

type t = private {
  mode : mode;
  capacity : int;
  mutable queue : (int * int) list;  (** {!pending}'s entries *)
  mutable observer : (event -> unit) option;
  dg : int array;
}
(** Read-only outside: the state key tests [queue] without a call. *)

val create : ?capacity:int -> dg:int array -> mode -> t
(** [capacity] (default 4) bounds the [Bypass] queue; an overflowing
    store drains the oldest entry first. The sum of the queue's terms
    ({!iter_terms}) is kept in [dg], the machine's digest cell; the
    empty queue adds nothing. *)

val copy : t -> dg:int array -> t
(** Copies share the queue contents but drop the observer; the owner of
    the copy installs its own. The copy's terms live in [dg], which
    must already hold them (the copy of the machine's cell). *)

val set_observer : t -> (event -> unit) -> unit
(** Install the single observer called on collapse and drain events
    (the machine uses it to feed the structured trace). *)

val mode : t -> mode
val pending : t -> (int * int) list
(** Buffered (paddr, value) pairs, oldest first. *)

val iter_terms : (int -> int -> unit) -> t -> unit
(** The queue's keyed words as (slot, word) terms in slot domain 6
    ({!Uldma_util.Fp128.iter_seq}): its length, and each entry's paddr
    and value by position, oldest first. Every change of the queue
    moves their sum in the cell. *)

val store : t -> emit:('m -> paddr:int -> value:int -> unit) -> 'm -> paddr:int -> value:int -> unit
(** Process a store: in [Ordered] mode it is emitted at once; in
    [Bypass] mode it is buffered (collapsing if configured), draining
    the oldest entry through [emit] on overflow. [emit] is called with
    the given machine ['m], so a caller passes one static function
    instead of building a closure per store. *)

val load : t -> paddr:int -> [ `Forwarded of int | `To_bus ]
(** Process a load: [`Forwarded v] if a buffered store to the same
    address satisfies it (the device never sees the load); [`To_bus]
    otherwise — note the load then *overtakes* any buffered stores. *)

val barrier : t -> emit:('m -> paddr:int -> value:int -> unit) -> 'm -> unit
(** [MB]: drain everything, oldest first. *)

val flush : t -> emit:('m -> paddr:int -> value:int -> unit) -> 'm -> unit
(** Same as [barrier]; used by the machine at traps and halts. *)
