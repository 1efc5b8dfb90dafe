(** Byte-addressable physical RAM.

    The DMA engine's transfer executor and the CPU's cacheable accesses
    both resolve here. MMIO and shadow addresses never reach this
    module: the bus routes them to the engine first. *)

type t

exception Fault of int
(** Raised with the offending physical address on an out-of-range or
    misaligned access. *)

val create : size:int -> t
(** Zero-initialised RAM of [size] bytes; [size] must be page-aligned
    and at most [Layout.max_ram_size]. *)

val size : t -> int

val copy : t -> t
(** Copy-on-write snapshot, for interleaving-explorer forks: O(#pages)
    pointer sharing, with a private page copy faulted in on first write
    to either side. Semantically equivalent to a deep copy. *)

val page_count : t -> int
(** Number of page frames backing this RAM. *)

val owned_pages : t -> int
(** Introspection for tests: how many pages this instance holds a
    private (unshared, writable-in-place) copy of. A fresh or
    just-snapshotted RAM owns none. *)

val page_digest : t -> int -> int * int
(** [page_digest t i] is page [i]'s additive content digest: the two
    lane sums of {!Uldma_util.Fp128.word_term_a}/[_b] over its 8-byte
    words (slot = word index), equal to
    [Uldma_util.Fp128.block_digest] of its bytes. Every write path
    keeps it current in O(bytes written), so reading it is O(1); it
    travels with the page under [copy]. A never-written or whole-page
    zero-filled page digests to [(0, 0)]. *)

val encode_page : Uldma_util.Enc.t -> t -> int -> unit
(** Feed page [i] to an encoder: its raw bytes into [Buf], its two
    digest lanes into [Fp]. Equal bytes give equal digests, so both
    modes observe the same page partition. *)

val touched_count : t -> int
(** Number of pages ever written since [create] (inherited across
    [copy]). A fresh RAM has touched none. *)

val iter_touched : t -> (int -> Bytes.t -> unit) -> unit
(** [iter_touched t f] applies [f index page] to every page that was
    ever written since [create], in increasing index order. Pages
    outside the touched set still alias the canonical zero page, so
    state hashing over the touched set alone covers all content that
    can differ between two forks of a common root — O(dirtied) work,
    not O(RAM). [f] must not mutate the page. *)

val iter_diverged : t -> baseline:t -> (int -> Bytes.t -> unit) -> unit
(** Like [iter_touched], but restricted to touched pages whose backing
    buffer is no longer physically shared with [baseline] (a common
    ancestor under [copy] that has not been written since, e.g. the
    explorer's root snapshot). Physical sharing implies equal content,
    so skipping shared pages is exact; a page rewritten to
    byte-identical content in a private buffer is still reported —
    harmless for state dedup (a missed merge, never a false one).
    Raises [Invalid_argument] on a size mismatch. *)

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
