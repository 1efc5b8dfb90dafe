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

type cost =
  | Instruction (** issuing any instruction *)
  | Tlb_miss (** a data access whose translation missed the TLB *)
  | Barrier (** [Mb], on top of its issue cost *)

type 'm host = {
  translate : 'm -> Uldma_mmu.Addr_space.access -> int -> int;
      (** a translation word ({!Uldma_mmu.Addr_space.translate_word}):
          negative on a fault *)
  load : 'm -> cacheable:bool -> int -> int; (** physical load (via write buffer + bus) *)
  store : 'm -> cacheable:bool -> int -> int -> unit;
  barrier : 'm -> unit; (** [Mb]: drain the write buffer *)
  charge : 'm -> cost -> unit; (** advance simulated time by the cost's price *)
}
(** The machine's services, as functions of the machine ['m] that
    {!step} is given: a machine builds one host, statically, and no
    closure is built per instruction or per access. *)

val step : ctx -> 'm host -> 'm -> outcome
(** Execute one instruction on the machine, charging its cost. On
    [Fault] the pc is left at the faulting instruction.
    [Syscall_trap]/[Pal_trap] return with the pc already advanced past
    the trap instruction. Allocates nothing unless it faults. *)

val run_subprogram : Regfile.t -> Isa.instr array -> 'm host -> 'm -> outcome
(** Execute a complete (trap-free) instruction sequence on the given
    registers without any possibility of preemption — the PAL-mode
    execution primitive. Returns [Halted] on normal completion, or the
    first [Fault]. Raises [Invalid_argument] if the body traps. *)

val pp_outcome : Format.formatter -> outcome -> unit
