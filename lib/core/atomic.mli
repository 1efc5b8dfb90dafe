(** User-level atomic operations (§3.5).

    Network interfaces offering a NOW shared-memory abstraction
    (Telegraphos, Dolphin SCI) expose atomic_add / fetch_and_store /
    compare_and_swap on remote or local memory. Initiating them from
    the kernel "would result in significant overhead, since the
    operating system overhead would be much higher than the time it
    takes to do the atomic operation itself" — so the paper adapts its
    user-level DMA mechanisms to atomic operations, which are simpler:
    only one physical address is needed.

    Conventions: r1 = virtual target address; the operand(s) live in
    the registers given to the emitters; the result (the target's old
    value) is returned in r0 (-1 on failure, which is also a possible
    old value — callers that store -1 should use the kernel variant).

    Variants:
    - [Kernel_initiated]: syscall baseline.
    - [Ext_shadow_initiated]: 2 NI accesses through the atomic shadow
      window, protected by the context id in the physical address.
    - [Key_initiated]: 3-4 NI accesses; the target address is passed
      with a KEY#CONTEXT_ID store, opcode+operand through the process's
      register-context page.
    - [Pal_initiated]: 2 NI accesses through the engine's *shared*
      atomic slot, wrapped in a PAL call so the pair cannot be
      interleaved (the sec. 2.7 trick applied to sec. 3.5; Alpha
      only). *)

type variant = Kernel_initiated | Ext_shadow_initiated | Key_initiated | Pal_initiated

val variant_name : variant -> string

val engine_mechanism : variant -> Uldma_dma.Engine.mechanism option
(** Engine personality required ([None] = any). *)

type prepared = {
  emit_add : Uldma_cpu.Asm.t -> operand:Uldma_cpu.Isa.reg -> unit;
  emit_fetch_store : Uldma_cpu.Asm.t -> operand:Uldma_cpu.Isa.reg -> unit;
  emit_cas : Uldma_cpu.Asm.t -> expected:Uldma_cpu.Isa.reg -> desired:Uldma_cpu.Isa.reg -> unit;
  ni_accesses : int; (** per add/fetch_store initiation *)
}

val prepare :
  variant -> Uldma_os.Kernel.t -> Uldma_os.Process.t -> region:Mech.region -> prepared
(** Set up the mechanism for atomic targets inside [region] (maps the
    atomic shadow window, allocates a context/key, installs the PAL
    functions — as each variant needs). *)

