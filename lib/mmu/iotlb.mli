(** The IOMMU's I/O TLB: a bounded set-associative translation cache
    consulted by the DMA engine when it accepts *virtual* addresses.

    A miss is serviced by a hardware walk of the bound process page
    table (charged on the machine timing model by the caller) and fills
    the missing entry, evicting the set's round-robin victim. The OS
    flushes the cache on context switch and invalidates single pages on
    unmap — the untagged-IOTLB discipline.

    Both slot contents and the per-set victim cursors are observable
    state (they decide future hit/miss behaviour and thus charged walk
    time), so {!iter_terms} keys both; caches with equal keyed words
    evolve identically under identical future request streams. *)

type t

type stats = { hits : int; misses : int }

val create : ?sets:int -> ?ways:int -> dg:int array -> unit -> t
(** [sets] defaults to 16 (must be a power of two), [ways] to 4. The
    sum of the cache's terms ({!iter_terms}) is kept in [dg], the
    machine's digest cell; the empty cache adds nothing. *)

val copy : t -> dg:int array -> t
(** An independent IOTLB that shares its slots and victim cursors with
    [t] until either side first writes them. O(1): both instances are
    flagged shared, and the writer copies the tables. The copy's terms
    live in [dg], which must already hold them (the copy of the
    machine's cell). *)

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
    O(1) and allocates nothing: an empty cache is left as is, and a
    non-empty one points at empty tables shared by every copy of it,
    after retiring from the digest cell the running sum of its terms
    that its tables carry. *)

val entries : t -> (int * Pte.t) list
(** Live (vpage, pte) pairs in slot order, for tests. *)

val stats : t -> stats

val iter_terms : (int -> int -> unit) -> t -> unit
(** The cache's keyed words as (slot, word) terms in slot domain 5:
    slot [k]'s vpage, frame and permission bits (with a valid bit) at
    [3k .. 3k + 2], set [s]'s victim cursor at [3 * sets * ways + s].
    Statistics are not keyed. [fill], [invalidate] and [flush] keep
    the cell holding these terms' sum. *)
