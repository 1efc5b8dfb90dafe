(** The machine's physical address map.

    Three regions share the physical address space:

    - RAM at [\[0, ram_size)];
    - the DMA engine's memory-mapped register window (register contexts,
      one page each, plus a kernel-only control page), at [mmio_base];
    - the shadow window: any physical address with [shadow_bit] set is a
      shadow alias. The engine strips the tag bits with [Shadow]
      (in the mmu library) to recover the real physical address.

    Word size is 8 bytes (64-bit machine, as the paper assumes for its
    "close to 60 bits available for the key" argument); pages are 8 KiB,
    as on the DEC Alpha the paper's prototype used. *)

val word_size : int
val page_size : int
val page_shift : int

val page_of : int -> int
(** Page number containing a (virtual or physical) address. *)

val page_base : int -> int
(** First address of the page containing the given address. *)

val page_offset : int -> int

val is_page_aligned : int -> bool
val is_word_aligned : int -> bool

val mmio_base : int
(** Base of the DMA engine register window (page-aligned, above RAM). *)

val mmio_limit : int

val max_contexts : int
(** Hardware ceiling on register contexts ("say 4 to 8" in the paper). *)

val kernel_control_page : int
(** Physical base of the kernel-only engine control page. *)

val context_page : int -> int
(** [context_page i] is the physical base of register context [i]'s
    page. Raises [Invalid_argument] outside [\[0, max_contexts)]. *)

val context_of_mmio : int -> int option
(** Inverse of [context_page] for any address inside a context page. *)

val shadow_bit_index : int
(** Bit position that tags shadow physical addresses (bit 40). *)

val context_field_shift : int
(** Low bit of the context-id field inside an extended shadow address. *)

val context_field_width : int
(** Width in bits of the context-id field (paper: "1-2 bits"; we allow
    up to 2). *)

val max_ram_size : int
(** RAM must fit below the context field: [2^context_field_shift]. *)

val remote_base : int
(** Base of the remote-memory window (Telegraphos-style NOW shared
    memory): physical address [remote_base + a] names physical address
    [a] on the peer node. Stores and DMA destinations there become
    network packets; the window sits below the shadow tag so remote
    addresses can themselves be shadow-aliased. *)

val remote_limit : int
val in_remote : int -> bool
val remote_offset : int -> int
(** The peer-node physical address named by a remote-window address. *)

val in_mmio : int -> bool
val is_shadow : int -> bool
val in_ram : ram_size:int -> int -> bool
