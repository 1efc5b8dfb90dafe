(** The engine's memory-mapped register layout.

    The *kernel control page* ([Uldma_mem.Layout.kernel_control_page])
    is never mapped into user address spaces; the kernel programs the
    engine through it exactly as Fig. 1 does (three stores + one load).
    Each *register context page* ([Layout.context_page i]) can be
    mapped into the one process the OS assigned context [i] to. *)

(** {1 Kernel control page offsets} *)

val k_source : int
val k_dest : int

val k_size : int
(** Storing the size starts the kernel-level DMA (Fig. 1). *)

val k_status : int

val k_current_pid : int
(** FLASH baseline: the modified kernel stores the running pid here on
    every context switch (§2.6). *)

val k_invalidate : int
(** SHRIMP baseline: the modified kernel stores here on every context
    switch to abort half-started user-level DMAs (§2.5). *)

val k_map_out_src : int
val k_map_out_dst : int
(** SHRIMP-1 mapped-out pages (§2.4): store the source page base, then
    the destination page base, to install one entry. *)

val k_atomic_target : int
val k_atomic_op : int
(** Kernel-level atomic operations (§3.5 baseline): store the physical
    target, store the encoded op, load to execute and read the result. *)

val k_cap_value : int
val k_cap_base : int
val k_cap_len : int

val k_cap_commit : int
(** CAPIO grant: stage value/base/len, then store the metadata word
    (context in bits 0-7, read right bit 8, write right bit 9, granting
    pid from bit 16) here to install the capability atomically. *)

val k_cap_revoke : int
(** Store a capability value to revoke it (the entry is retained and
    flagged, so later use is distinguishable from a forged value). *)

val k_iotlb_invalidate : int
(** IOMMU shootdown: store a virtual page number to invalidate its
    IOTLB entry, or -1 to flush the whole cache (context switch). *)

val k_key_base : int
(** [k_key_base + 8*i] holds register context [i]'s key (write-only,
    "in memory locations unreadable by user processes", §3.1). *)

val key_offset : context:int -> int

val key_word : key:int -> context:int -> int
(** The KEY#CONTEXT_ID data word a key-based store carries (§3.1,
    Fig. 3): [(key lsl 4) lor context], the key above four bits of
    context id. *)

val key_of_word : int -> int
val context_of_word : int -> int
(** The two fields of a KEY#CONTEXT_ID word, as the engine decodes
    them. *)

val k_mailbox_base : int
(** [k_mailbox_base + 8*i] holds register context [i]'s atomic reply
    mailbox: the *local physical* word where the old value of a remote
    atomic operation is delivered when the reply packet arrives. Only
    the kernel can write it (it is a translated physical address). *)

val mailbox_offset : context:int -> int

(** {1 Register context page offsets} *)

val c_size : int
(** "Any store operation to any register within a context is performed
    to the size register only" — any offset except [c_atomic]. Loads
    anywhere except [c_atomic] return the context status and, when all
    arguments are present, initiate the DMA. *)

val c_atomic : int
(** The atomic-operation argument/result register (§3.5 extension). *)

val c_arg_src : int
val c_arg_dst : int
(** Explicit argument registers, decoded only under the [Iommu] and
    [Capio] mechanisms (virtual source/destination addresses for the
    former, capability values for the latter). Under the paper's
    mechanisms stores at these offsets keep their historical
    store-goes-to-size semantics. *)
