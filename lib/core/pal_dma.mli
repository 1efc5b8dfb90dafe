(** The PAL-code approach (§2.7).

    The two-access SHRIMP-2 sequence, wrapped in an Alpha PAL call so
    it executes uninterruptibly — atomicity without kernel
    modification, but host-processor-specific ("we believe that systems
    equipped with the Alpha processor should use this method"; it was
    incorporated into the Telegraphos I network interface).

    Installation of the PAL function is a privileged, one-time
    operation; invoking it is not. *)

val pal_body : Uldma_cpu.Isa.instr array
(** The 4-instruction uninterruptible body. *)

val mech : Mech.t

val emit_dma : Uldma_cpu.Asm.t -> unit
(** A single [Call_pal] instruction. *)
