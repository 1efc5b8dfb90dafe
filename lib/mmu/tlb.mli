(** A direct-mapped TLB.

    Functionally it is a transparent cache over the page table; it
    exists so that (a) translation costs can distinguish hits from
    misses, and (b) context switches have a realistic TLB-flush effect,
    both of which feed the timing model's account of why kernel-level
    DMA initiation is expensive. *)

type t

type stats = { hits : int; misses : int }

val create : ?slots:int -> unit -> t
(** [slots] defaults to 64 and must be a power of two. *)

val copy : t -> t
(** An independent TLB. O(1): the filled slots are a persistent map,
    which both instances share and neither ever writes in place. *)

val lookup : t -> vpage:int -> Pte.t option
(** Probe without filling. *)

val fill : t -> vpage:int -> Pte.t -> unit

val hit : t -> vpage:int -> Pte.t
(** Probe, counting a hit; raises [Not_found] (counting nothing) when
    the entry is not cached. Allocates nothing. *)

val refill : t -> Page_table.t -> vpage:int -> Pte.t
(** Count a miss, walk the page table and fill; raises [Not_found] if
    the page table has no entry either. *)

val translate : t -> Page_table.t -> vpage:int -> (Pte.t * [ `Hit | `Miss ]) option
(** [hit], falling back to [refill]; [None] if the page table has no
    entry either. *)

val invalidate : t -> vpage:int -> unit
(** Remove one entry if present (used when the OS revokes a mapping). *)

val flush : t -> unit
(** Drop everything (context switch). Allocates nothing: the slot map
    becomes the empty map. *)

val stats : t -> stats
