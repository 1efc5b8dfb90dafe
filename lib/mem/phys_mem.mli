(** Byte-addressable physical RAM with sub-page copy-on-write.

    The DMA engine's transfer executor and the CPU's cacheable accesses
    both resolve here. MMIO and shadow addresses never reach this
    module: the bus routes them to the engine first.

    Each page is a record holding a directory of 512-byte chunks, the
    page's content digest, an owner stamp and a bitmask of the chunks
    private to that owner. {!copy} shares every page record between
    parent and child and gives both fresh stamps. The first write into
    a page an instance does not own copies the page's chunk directory,
    and the first write into a chunk it does not own copies that chunk.
    A fork thus pays for the chunks it writes, not for whole pages, and
    every copy is small enough for the minor heap. *)

type t

exception Fault of int
(** Raised with the offending physical address on an out-of-range or
    misaligned access. *)

val create : size:int -> t
(** Zero-initialised RAM of [size] bytes; [size] must be page-aligned
    and at most [Layout.max_ram_size]. *)

val size : t -> int

val copy : t -> t
(** Copy-on-write snapshot, for interleaving-explorer forks. It
    re-stamps the parent, then copies only the page-pointer array: at
    most one word per page frame plus 16, no byte of RAM. Afterwards
    neither side owns any page, so the first write on either side
    copies the page's chunk directory and then the written chunk.
    Semantically equivalent to a deep copy. *)

val owned_pages : t -> int
(** Introspection for tests: how many page records bear this
    instance's stamp, i.e. are private to it and writable in place
    (their chunks may still be shared). A fresh or just-snapshotted
    RAM owns none. *)

val page_digest : t -> int -> int * int
(** [page_digest t i] is page [i]'s additive content digest: the two
    lane sums of {!Uldma_util.Fp128.word_term_a}/[_b] over its 8-byte
    words (slot = word index), equal to
    [Uldma_util.Fp128.block_digest] of its bytes. Every write path
    keeps it current in O(bytes written), so reading it is O(1). It
    lives in the page record, so it is shared and copied with the page.
    A never-written or whole-page zero-filled page digests to
    [(0, 0)]. *)

val encode_page : Buffer.t -> t -> int -> unit
(** Append page [i]'s exact 8 KB of raw bytes (the paranoid encoding). *)

(** {1 The diverged-page sum}

    The state key covers RAM relative to a baseline: the pages that are
    touched and whose record is not the baseline's record
    ({!iter_diverged}). An instance keyed to a baseline keeps, per lane,
    the sum of {!Uldma_util.Fp128.page_term_a}/[_b] of
    [(i, page_digest t i)] over those pages, so reading it is O(1): the
    sum moves when a page first diverges, on every write into a
    diverged page and when [fill] re-shares the zero page. The term of
    a page that diverged to all zeros is nonzero, so the sum partitions
    states exactly as a walk over the diverged pages does. *)

val add_diverged : t -> baseline:t -> int array -> unit
(** [add_diverged t ~baseline acc] adds the two lanes of the sum
    relative to [baseline] into [acc.(0)] and [acc.(1)]. When [t] is
    not keyed to [baseline] it is keyed first: the sum is set from
    scratch, O(touched pages), and {!copy} inherits the baseline and
    the sum; from then on the read is O(1) and allocates nothing. A
    baseline that replaces a page record after that (an explorer's
    baseline is never written) unkeys every instance keyed to it, and
    the next call sets the sum again. Raises [Invalid_argument] on a
    size mismatch or when [baseline] is [t]. *)

val scratch_diverged : t -> baseline:t option -> int * int
(** The sum recomputed from the page digests, O(touched): relative to
    [Some b], or over every touched page with [None]. A keyed instance's
    lanes must always equal [scratch_diverged] relative to its baseline. *)

val touched_count : t -> int
(** Number of pages ever written since [create] (inherited across
    [copy]). A fresh RAM has touched none. *)

val iter_touched : t -> (int -> unit) -> unit
(** [iter_touched t f] applies [f index] to every page that was ever
    written since [create], in increasing index order. Pages outside
    the touched set still alias the canonical zero page, so state
    hashing over the touched set alone covers all content that can
    differ between two forks of a common root — O(dirtied) work, not
    O(RAM). Callers read a page through {!page_digest} or
    {!encode_page}. *)

val iter_diverged : t -> baseline:t -> (int -> unit) -> unit
(** Like [iter_touched], but restricted to touched pages whose page
    record is no longer physically shared with [baseline] (a common
    ancestor under [copy] that has not been written since, e.g. the
    explorer's root snapshot). A page diverges as a whole on its first
    write, whichever chunk is written. Physical sharing implies equal
    content, so skipping shared pages is exact; a page rewritten to
    byte-identical content is still reported — harmless for state
    dedup (a missed merge, never a false one). Raises
    [Invalid_argument] on a size mismatch. *)

val load_word : t -> int -> int
(** 8-byte aligned load. The top byte is truncated into OCaml's 63-bit
    [int]; all simulated programs use values that fit. *)

val store_word : t -> int -> int -> unit

val load_byte : t -> int -> int
val store_byte : t -> int -> int -> unit

val blit : t -> src:int -> dst:int -> len:int -> unit
(** The DMA copy primitive. Handles overlapping ranges correctly. *)

val fill : t -> addr:int -> len:int -> byte:int -> unit

val checksum : t -> addr:int -> len:int -> int
(** Order-sensitive checksum of a byte range, used by tests to compare
    regions cheaply. *)

val equal_range : t -> t -> addr:int -> len:int -> bool
