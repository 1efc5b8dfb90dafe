(** User processes as the kernel sees them. *)

type exit_reason =
  | Normal
  | Killed_fault of Uldma_mmu.Addr_space.fault
  | Killed of string

type state =
  | Ready
  | Blocked_until of Uldma_util.Units.ps
      (** sleeping or awaiting a DMA completion; runnable again once the
          clock reaches the wake time *)
  | Exited of exit_reason

type text
(** The program's residual-text digests, built on first use and shared
    by copies (see {!encode_text}). *)

type t = {
  pid : int;
  name : string;
  ctx : Uldma_cpu.Cpu.ctx;
  mutable text : text; (** follows [ctx.program]; written only by {!set_program} *)
  addr_space : Uldma_mmu.Addr_space.t;
  superuser : bool;
  mutable state : state; (** written only by {!set_state} and {!kill} *)
  mutable dma_context : int option;
      (** register context the OS assigned; written only by {!set_dma} *)
  mutable dma_key : int option; (** key for the key-based mechanism; as [dma_context] *)
  mutable next_va : int; (** bump allocator for fresh virtual pages *)
  mutable instructions_retired : int;
  mutable syscalls : int;
  mutable cpu_time_ps : Uldma_util.Units.ps;
      (** simulated time attributed to this process (instruction issue,
          memory traffic, and trap handling on its behalf) *)
}

val make : pid:int -> name:string -> program:Uldma_cpu.Isa.instr array -> superuser:bool -> t
(** A ready process whose register file digests at slots from
    [pid * 64] (see {!digest}). *)

val copy : t -> t

val set_program : t -> Uldma_cpu.Isa.instr array -> unit
(** Replace the program and reset the pc — used because mechanism setup
    (context allocation, shadow mappings) must happen before the stub
    code embedding its results can be generated. *)

val encode_text : Uldma_util.Enc.t -> t -> unit
(** Feed the process's residual program text: for a straight-line
    program (no [Beq], [Bne], [Blt] or [Jmp]) the instructions from pc,
    for any other program all of them (the pc is in the state key
    already). [Buf] mode streams the instructions themselves, [Fp] mode
    their 126-bit digest as two ints. *)

val is_runnable : t -> bool

val state_code : state -> int
(** 0 ready, 1 blocked, 2 exited: the state as the state encoding
    names it. *)

val set_state : t -> state -> unit
val set_dma : t -> context:int option -> key:int option -> unit

val kill : t -> exit_reason -> unit
(** [set_state] to [Exited]. *)

(** {1 The process's digest}

    A process's register file digest ({!Uldma_cpu.Regfile.digest})
    covers its registers at slots [pid * 64 + r] and, at
    [pid * 64 + 32 + k], its state code, DMA context and DMA key
    ({!Uldma_util.Fp128.opt_value}), kept current by the setters above.
    Slots are salted by pid, so the lane sums over all of a kernel's
    processes digest its whole process table. *)

val digest : t -> int * int

val scratch_digest : t -> int * int
(** {!digest} recomputed from the fields: the reference it must always
    equal. *)

val pp_state : Format.formatter -> state -> unit
val pp : Format.formatter -> t -> unit
