(** Streaming two-lane 126-bit fingerprint.

    Allocation-free on the hot path: both lanes are native 63-bit ints
    mixed word-at-a-time.  Used by [Kernel.state_key] to fingerprint
    canonical state walks without materialising the encoding string.
    Also home of the additive digest primitive ({!word_term_a} and
    friends) that mutable components maintain on every write. *)

type t

val create : unit -> t
val reset : t -> unit

val add_int : t -> int -> unit
(** Feed one integer word. *)

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

val key : t -> string
(** 16-byte packed key of the finalised lanes — suitable as a compact
    hashtable key. *)

val key_of_lanes : int -> int -> string
(** Pack two already-finalised lanes into a 16-byte key. *)

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

val int_term_a : int -> int -> int
(** [int_term_a slot v] is lane a's term of the native int [v] at
    [slot]: [word_term_a slot (v land 0xffff_ffff) (v asr 32)]. *)

val int_term_b : int -> int -> int

(** Upkeep. A digest lives in two adjacent cells [d.(i)] (lane a) and
    [d.(i + 1)] (lane b) of an int array; each call updates both. *)

val replace_int : int array -> int -> int -> int -> int -> unit
(** [replace_int d i slot old v]: [slot]'s native-int value changes
    from [old] to [v]. *)

val sum_words : int array -> int -> int -> bytes -> first:int -> last:int -> unit
(** [sum_words d i sign b ~first ~last] adds [sign] (1 or -1) times the
    word terms of the 8-byte words [first .. last] of [b] (slot = word
    index). Bracket a write to those words with [-1] before and [1]
    after to keep the digest of [b] current. *)

val block_digest : bytes -> int * int
(** The additive digest of a byte block recomputed from scratch: the
    lane sums of [word_term] over its 8-byte words, slot = word index.
    This is what a write-maintained page digest must always equal. *)
