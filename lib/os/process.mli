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
(** Write the process's residual program text, the paranoid key's form
    of it: for a straight-line program (no [Beq], [Bne], [Blt] or
    [Jmp]) the instructions from pc, for any other program all of them
    (the pc is keyed already). The fingerprint keys the same text's
    126-bit digest instead (see {!iter_terms}). *)

val is_runnable : t -> bool

val state_code : state -> int
(** 0 ready, 1 blocked, 2 exited: the state as the state encoding
    names it. *)

val set_state : t -> state -> unit
val set_dma : t -> context:int option -> key:int option -> unit

val kill : t -> exit_reason -> unit
(** [set_state] to [Exited]. *)

(** {1 The process's keyed words}

    A process's register file digest ({!Uldma_cpu.Regfile.digest})
    covers the terms {!iter_terms} enumerates. The setters above keep
    the state code, DMA context and key current; {!fold_key} brings the
    pc, access count and text up to date at key time. *)

val iter_terms : access:int -> text:bool -> (int -> int -> unit) -> t -> unit
(** [iter_terms ~access ~text f t] enumerates the process's keyed words
    as (slot, word) terms, slots salted by pid so a kernel's processes
    never share one: its registers at [pid * 64 + r] of slot domain 1,
    then at [pid * 64 + 32 + k] its state code, DMA context and DMA key
    ({!Uldma_util.Fp128.opt_value}), its pc and uncached-access count
    [access] (packed into one word while both fit 31 bits, as two words
    of their own otherwise), and, with [text], a keyed-text flag and the
    two digest lanes of the residual text {!encode_text} writes
    (zeros without it). *)

val digest : t -> int * int
(** The maintained digest: after [fold_key t ~access ~text], the sum of
    [iter_terms ~access ~text]'s terms
    ({!Uldma_util.Fp128.sum_terms}). *)

val fold_key : t -> access:int -> text:bool -> int array -> unit
(** [fold_key t ~access ~text acc] folds the live pc, uncached-access
    count [access] and residual text into {!digest}, then adds the
    digest's lanes into [acc.(0)] and [acc.(1)]. Each value whose
    folded copy differs moves its term, so a call after which nothing
    changed costs compares only. The kernel calls this at key time, so
    the key is exact whatever changed the process since the last
    one. *)

val pp_state : Format.formatter -> state -> unit
val pp : Format.formatter -> t -> unit
