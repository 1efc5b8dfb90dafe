(** Shadow-address algebra (paper §2.3 and §3.2).

    A shadow physical address is an alias of a real physical address:
    an access to it is routed to the DMA engine, which interprets the
    embedded physical address as an *argument* instead of performing
    the access. The OS builds user-space mappings whose PTEs point at
    shadow frames; the TLB therefore performs the virtual-to-physical
    translation (and the protection check) for free.

    Plain shadow addresses (SHRIMP/FLASH-style, §2.3):
      [shadow(p) = p | 1 << 40]

    Extended shadow addresses (§3.2) additionally carry the register
    context id of the owning process in dedicated bits:
      [shadow_ctx(c, p) = p | c << 34 | 1 << 40]

    A second tag bit (41) marks the *atomic-operation* shadow window
    used for user-level atomic operations (§3.5): an access there
    passes its physical address to the engine's atomic unit instead of
    its DMA argument registers. *)

type decoded = { context : int; paddr : int; atomic : bool }

val max_context : int
(** Largest encodable context id, [2^context_field_width - 1]. *)

val encode : int -> int
(** [encode paddr] is the plain shadow alias (context field = 0).
    Raises [Invalid_argument] if [paddr] does not fit below the context
    field or is itself a shadow address. *)

val encode_ctx : context:int -> int -> int
(** Extended shadow alias carrying [context]. *)

val encode_atomic : context:int -> int -> int
(** Alias in the atomic-operation shadow window (§3.5). *)

val decode : int -> decoded option
(** [decode a] strips the shadow tag, returning the embedded context id
    and real physical address; [None] if [a] is not a shadow address. *)

val decode_exn : int -> decoded

(** {2 Field access without decoding}

    The fields of {!decode}'s record, read straight off a shadow
    address; they allocate nothing. *)

val context_of : int -> int
val strip : int -> int
(** The embedded real physical address. *)

val is_atomic : int -> bool

val is_shadow : int -> bool

val shadow_frame_of_frame : context:int -> int -> int
(** Same encoding, applied to page-frame numbers: the frame the OS puts
    in a shadow PTE so that translation of a shadow virtual address
    yields [encode_ctx ~context (frame * page_size + offset)]. *)
