(** Streaming two-lane 126-bit fingerprint.

    Allocation-free on the hot path: both lanes are native 63-bit ints
    mixed word-at-a-time.  Used by [Kernel.fingerprint] to hash what a
    key streams without materialising it.
    Also home of the additive digest primitive ({!word_term_a} and
    friends) that mutable components maintain on every write. *)

type t

val create : unit -> t
val reset : t -> unit

val add_int : t -> int -> unit
(** Feed one integer word. *)

val start : t -> int -> int -> int -> unit
(** [start t a b c] is [reset t] followed by [add_int t] of [a], [b]
    and [c], in one call. *)

val add_tag : t -> char -> unit
(** Feed a section-tag character, domain-separated from [add_int] values
    (the sign bit is set), so a tag can never alias a small value. *)

val add_string : t -> string -> unit
(** Feed a variable-length string, length-prefixed for injectivity. *)

val add_bytes : t -> bytes -> unit
(** Feed a variable-length byte run, length-prefixed for injectivity. *)

val fed : t -> int
(** Bytes accounted so far (ints count as 8, tags as 1, strings as
    8 + length).  Used for [bytes_hashed] statistics. *)

val lanes : t -> int * int
(** Finalised (avalanched) lane values.  Does not mutate [t]; more input
    may be fed afterwards. *)

val lane : t -> int -> int
(** [lane t 0] and [lane t 1]: the components of {!lanes}, read without
    allocating. *)

val key : t -> string
(** 16-byte packed key of the finalised lanes — suitable as a compact
    hashtable key. *)

val pack : int -> int -> string
(** [pack a b] is the 16-byte key of finalised lanes [a] and [b]:
    [key t = pack a b] where [(a, b) = lanes t]. *)

(** {1 Additive digests}

    Write-maintained digests of slot arrays (Zobrist / AdHash style).
    A component's digest is, per lane, the sum mod 2{^63} of one term
    per slot; a write subtracts the old value's term and adds the new
    value's term. Terms are fully mixed nonlinear functions of
    (slot, value), and a zero value's term is 0 in both lanes, so an
    all-zero component digests to [(0, 0)]. The two lanes use
    independent mixers. A digest feeds a fingerprint stream as two
    {!add_int}s. *)

val word_term_a : int -> int -> int -> int
(** [word_term_a slot lo hi] is lane a's term of the value whose low 32
    bits are [lo] (in [\[0, 2{^32})]) and whose remaining bits are [hi],
    at [slot] (in [\[0, 2{^30})]); 0 when [lo = 0] and [hi = 0]. A 64-bit
    memory word is fed as its two unsigned 32-bit halves, so no bit is
    dropped. *)

val word_term_b : int -> int -> int -> int
(** Lane b's term, as {!word_term_a}. *)

val domain : int -> int
(** [domain d] ([1 <= d <= 63]) is the first slot of component domain
    [d]; a component keeps its own slots below [2{^24}] and adds
    [domain d] to each, so the digests of components in different
    domains add up to one digest of their union. The machine's domains:
    1 process register files (and their auxiliary values), 2 the DMA
    engine's own registers and started transfers, 3 its register
    contexts, 4 its sequence matcher, 5 its IOTLB, 6 the write buffer,
    7 the console, 8 the free DMA-context list, and the engine's
    tables: 9 its capabilities, 10 its mapped-out map, 11 its outbound
    queue. *)

val int_term_a : int -> int -> int
(** [int_term_a slot v] is lane a's term of the native int [v] at
    [slot]: [word_term_a slot (v land 0xffff_ffff) (v asr 32)]. *)

val int_term_b : int -> int -> int

val opt_value : int option -> int
(** The digest value of an optional register whose reset value is
    [None]: 0 for [None], [v lxor min_int] for [Some v]. The map is
    injective and only [None] maps to 0, so a register at reset
    contributes no term. *)

val sum_terms : ((int -> int -> unit) -> 'a -> unit) -> 'a -> int * int
(** [sum_terms iter x] is the additive digest of the (slot, word) terms
    that [iter] enumerates over [x]: the lane sums of {!int_term_a} and
    {!int_term_b}. A keyed component's [iter_terms] is the one
    definition of its keyed words; the digest its writes maintain must
    always equal this sum, and {!Enc.terms} streams the same terms as
    the paranoid key. *)

val iter_seq : int -> (int -> int -> unit) -> int list -> unit
(** [iter_seq base f l] enumerates the sequence [l] as terms: its
    length at slot [base] and its k-th element at slot [base + 1 + k].
    The length fixes which elements exist, so a zero element is not
    lost. *)

(** Upkeep. A digest lives in two adjacent cells [d.(i)] (lane a) and
    [d.(i + 1)] (lane b) of an int array; each call updates both. A
    machine keeps one such cell, from creation on: the DMA engine (with
    its register contexts, matcher and IOTLB), the write buffer, the
    console and the free-context list all add their terms to it
    directly. Each process's register file and each RAM page keep lanes
    of their own, which the key folds in. *)

val replace_int : int array -> int -> int -> int -> int -> unit
(** [replace_int d i slot old v]: [slot]'s native-int value changes
    from [old] to [v]. *)

val replace_seq : int array -> int -> int -> int list -> int list -> unit
(** [replace_seq d i base old l]: the sequence at [base] ({!iter_seq})
    changes from [old] to [l]. Both are re-summed, so this suits a
    short list or a rare write. *)

val extend_seq : int array -> int -> int -> int -> int list -> unit
(** [extend_seq d i base n l]: the sequence at [base], of length [n],
    gains the elements [l] at its end, in O(length of [l]) whatever
    [n]. *)

val sum_words :
  int array -> int -> int -> bytes -> base:int -> first:int -> last:int -> unit
(** [sum_words d i sign b ~base ~first ~last] adds [sign] (1 or -1)
    times the word terms of the 8-byte words [first .. last] of [b],
    word [w] at slot [base + w]. A block stored as several buffers
    passes each buffer's first slot as [base]. Bracket a write to those
    words with [-1] before and [1] after to keep the block's digest
    current. *)

val page_term_a : int -> int -> int -> int
(** [page_term_a i a b] is lane a's term of page [i] whose content
    digest is [(a, b)] in a sum over a set of pages (the RAM pages that
    diverged from a baseline). Nonzero for every all-zero page, so a
    page that diverged to zeros never sums like a page that did not
    diverge. *)

val page_term_b : int -> int -> int -> int
(** Lane b's term, as {!page_term_a}. *)

val block_digest : bytes -> int * int
(** The additive digest of a byte block recomputed from scratch: the
    lane sums of [word_term] over its 8-byte words, slot = word index.
    This is what a write-maintained page digest must always equal. *)
