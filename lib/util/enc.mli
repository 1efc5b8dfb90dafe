(** Text sink of the canonical state walk: the paranoid encoding.

    Ints are decimal with a trailing [','], tags and raw bytes are
    verbatim. Encoders (kernel, DMA engine, matchers) append to one
    buffer; the result is the paranoid memo key, under which key
    equality is exactly encoding equality. The fingerprint key does not
    walk this encoding: it reads write-maintained digests. *)

type t = Buffer.t

val int : t -> int -> unit
val char : t -> char -> unit
val string : t -> string -> unit
val bytes : t -> bytes -> unit
