(** The sink of a state key's streamed part: the fingerprint's
    {!Fp128} stream or the paranoid key's text buffer.

    A key's live part (what depends on the clock) is written once,
    over this sink, and so holds the same content in both keys. In
    [Buf], ints are decimal with a trailing [','], tags are verbatim
    and strings are length-prefixed, so the text is injective. *)

type t = Fp of Fp128.t | Buf of Buffer.t

val int : t -> int -> unit
val tag : t -> char -> unit

val string : t -> string -> unit
(** Length-prefixed in both sinks ({!Fp128.add_string}). *)

val terms : t -> ((int -> int -> unit) -> 'a -> unit) -> 'a -> unit
(** [terms s iter x] writes, as two ints, every (slot, word) term that
    [iter] enumerates over [x] whose word is not 0: the paranoid form
    of the additive digest {!Fp128.sum_terms} takes of the same terms.
    Each slot's word is an injective function of what it holds, and a
    zero word has no term, so equal streams mean equal digested state
    exactly. *)
