(** The IOMMU's I/O TLB: a bounded set-associative translation cache
    consulted by the DMA engine when it accepts *virtual* addresses.

    A miss is serviced by a hardware walk of the bound process page
    table (charged on the machine timing model by the caller) and fills
    the missing entry, evicting the set's round-robin victim. The OS
    flushes the cache on context switch and invalidates single pages on
    unmap — the untagged-IOTLB discipline.

    Both slot contents and the per-set victim cursors are observable
    state (they decide future hit/miss behaviour and thus charged walk
    time), so {!encode} streams both; equal encodings evolve
    identically under identical future request streams. *)

type t

type stats = { hits : int; misses : int }

val create : ?sets:int -> ?ways:int -> unit -> t
(** [sets] defaults to 16 (must be a power of two), [ways] to 4. *)

val copy : t -> t
(** An independent IOTLB that shares its slots, victim cursors and
    digest lanes with [t] until either side first writes them. O(1):
    both instances are flagged shared, and the writer copies all
    three. *)

val lookup : t -> vpage:int -> Pte.t option
(** Probe without filling or touching statistics. *)

val fill : t -> vpage:int -> Pte.t -> unit
(** Install a translation, evicting the set's round-robin victim (an
    existing entry for the same page is refilled in place). *)

val translate :
  t -> Page_table.t -> vpage:int -> [ `Hit of Pte.t | `Miss of Pte.t | `Fault ]
(** Look up [vpage]; on miss, walk [table] and fill. [`Fault] means the
    walk found no mapping (nothing is cached). Updates statistics. *)

val invalidate : t -> vpage:int -> unit
(** Drop any entry for [vpage] (unmap shootdown). *)

val flush : t -> unit
(** Drop everything and reset the victim cursors (context switch).
    Allocates nothing: an empty cache is left as is, and a non-empty
    one points at empty tables shared by every copy of it. *)

val entries : t -> (int * Pte.t) list
(** Live (vpage, pte) pairs in slot order, for tests. *)

val stats : t -> stats

val digest : t -> int * int
(** Additive digest ({!Uldma_util.Fp128.int_term_a}/[_b]) of slots +
    victim cursors, kept current by [fill], [invalidate] and [flush].
    The empty cache digests to [(0, 0)]. *)

val encode : Uldma_util.Enc.t -> t -> unit
(** Canonical encoding of slots + victim cursors (statistics excluded)
    into [Buf]; the two {!digest} lanes into [Fp]. *)
