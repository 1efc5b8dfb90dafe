(** Key-based user-level DMA (§3.1, Fig. 3) — one of the paper's two
    novel mechanisms.

    The OS gives the process a register context and a secret ~60-bit
    key; every address-passing store carries KEY#CONTEXT_ID as its
    data, so the engine can check the writer is entitled to that
    context without knowing who is running:

    {v
    STORE KEY#CONTEXT_ID TO shadow(vdestination)
    STORE KEY#CONTEXT_ID TO shadow(vsource)
    STORE size           TO REGISTER_CONTEXT
    LOAD  return_status  FROM REGISTER_CONTEXT
    v}

    Both addresses travel in store *address* wires (which is why a
    process needs r/w access to the source — §3.1 discusses this);
    interruption mid-sequence is harmless because each process has its
    own context. Four NI accesses; no kernel modification. *)

val mech : Mech.t

val emit_dma_with : key:int -> context_page_va:int -> Uldma_cpu.Asm.t -> unit
