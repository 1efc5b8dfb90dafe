(** The instruction interpreter.

    [step] executes exactly one instruction of a context against a
    machine through its [host] — the machine-provided view of
    translation, memory and time — and reports what happened. The
    machine (the kernel) owns the loop, the scheduler, and trap
    handling; keeping the
    interpreter to single steps is what makes instruction-granularity
    preemption, scripted interleavings, and exhaustive schedule
    exploration possible. *)

type ctx = { regs : Regfile.t; mutable pc : int; mutable program : Isa.instr array }

val make_ctx : Isa.instr array -> ctx
val copy_ctx : ctx -> ctx

type outcome =
  | Continue
  | Halted (** [Halt] or fell off the end of the program *)
  | Syscall_trap (** [Syscall] executed; number/args are in the registers *)
  | Pal_trap of int (** [Call_pal n] executed *)
  | Fault of Uldma_mmu.Addr_space.fault

exception Access_fault of int
(** Raised by a host's [load] or [store] when the access faults,
    carrying the negative translation word
    ({!Uldma_mmu.Addr_space.translate_word}); {!step} turns it into
    [Fault] with the access's kind and virtual address. *)

type 'm host = {
  load : 'm -> int -> int;
      (** [load m vaddr]: the word at virtual address [vaddr] of the
          running process *)
  store : 'm -> int -> int -> unit; (** [store m vaddr value] *)
  barrier : 'm -> unit; (** [Mb]: charge the barrier and drain the write buffer *)
}
(** The machine's services, as functions of the machine ['m] that
    {!step} is given: a machine builds one host, statically, and no
    closure is built per instruction or per access.

    A data access is one host call. [load] and [store] take the virtual
    address; the machine translates it for the running process, charges
    a TLB miss when the translation missed, and then serves the access
    (cached RAM, the write buffer or an uncached bus crossing), charging
    its price. A fault charges nothing beyond the translation and
    raises {!Access_fault} before any memory is touched. An
    instruction's own price is not a host service: {!step} charges it. *)

val step : ctx -> Uldma_bus.Clock.t -> instr_ps:Uldma_util.Units.ps -> 'm host -> 'm -> outcome
(** Execute one instruction on the machine: advance the clock by the
    instruction price [instr_ps], then perform the instruction through
    the host. On [Fault] the pc is left at the faulting instruction.
    [Syscall_trap]/[Pal_trap] return with the pc already advanced past
    the trap instruction. Allocates nothing unless it faults. *)

val run_subprogram :
  Regfile.t ->
  Isa.instr array ->
  Uldma_bus.Clock.t ->
  instr_ps:Uldma_util.Units.ps ->
  'm host ->
  'm ->
  outcome
(** Execute a complete (trap-free) instruction sequence on the given
    registers with {!step}, without any possibility of preemption — the
    PAL-mode execution primitive. Returns [Halted] on normal completion,
    or the first [Fault]. Raises [Invalid_argument] if the body traps. *)

val pp_outcome : Format.formatter -> outcome -> unit
