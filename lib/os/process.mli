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
  mutable f_pos : int;
  mutable f_pc : int;
  mutable f_access : int;
  mutable f_text : int;
      (** what {!digest} holds for the pc and the access count (packed,
          or -1 and the two values) and for the residual text (the
          index it starts at, or -1 when no text is keyed); written
          only by {!fold_key} and {!set_program} *)
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
(** Append the process's residual program text: for a straight-line
    program (no [Beq], [Bne], [Blt] or [Jmp]) the instructions from pc,
    for any other program all of them (the pc is in the state key
    already). The fingerprint key folds the same text's 126-bit digest
    instead (see {!fold_key}). *)

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
    covers its registers at slots [pid * 64 + r] of slot domain 1 and,
    at [pid * 64 + 32 + k], nine auxiliary values: its state code,
    DMA context and DMA key ({!Uldma_util.Fp128.opt_value}), kept
    current by the setters above, then its pc and uncached-access count
    (packed into one value while both fit 31 bits, as two values of
    their own otherwise), whether its residual text is keyed, and that
    text's two digest lanes, which {!fold_key} brings up to date. Slots are salted
    by pid, so the lane sums over all of a kernel's processes digest
    its whole process table. *)

val digest : t -> int * int

val fold_key : t -> access:int -> text:bool -> int array -> unit
(** [fold_key t ~access ~text acc] folds the live pc, uncached-access
    count [access] and residual text into {!digest}, then adds the
    digest's lanes into [acc.(0)] and [acc.(1)]. Each value whose
    folded copy differs moves its term, so a call after which nothing
    changed costs compares only.
    With [text] the residual text's digest is keyed (lanes of the
    instruction suffix {!encode_text} appends), without it the text
    enters as zeros. The kernel calls this at key time, so the key is
    exact whatever changed the process since the last one. *)

val scratch_digest : t -> int * int
(** {!digest} recomputed from the fields and the folded copies: the
    reference it must always equal. *)

val scratch_key_digest : t -> access:int -> text:bool -> int * int
(** What {!digest} is after [fold_key t ~access ~text], computed from
    the fields without folding anything. *)

val pp_state : Format.formatter -> state -> unit
val pp : Format.formatter -> t -> unit
