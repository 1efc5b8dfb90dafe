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

type t = {
  pid : int;
  name : string;
  ctx : Uldma_cpu.Cpu.ctx;
  addr_space : Uldma_mmu.Addr_space.t;
  superuser : bool;
  mutable state : state;
  mutable dma_context : int option; (** register context the OS assigned *)
  mutable dma_key : int option; (** key for the key-based mechanism *)
  mutable next_va : int; (** bump allocator for fresh virtual pages *)
  mutable instructions_retired : int;
  mutable syscalls : int;
  mutable cpu_time_ps : Uldma_util.Units.ps;
      (** simulated time attributed to this process (instruction issue,
          memory traffic, and trap handling on its behalf) *)
}

val make : pid:int -> name:string -> program:Uldma_cpu.Isa.instr array -> superuser:bool -> t

val copy : t -> t

val set_program : t -> Uldma_cpu.Isa.instr array -> unit
(** Replace the program and reset the pc — used because mechanism setup
    (context allocation, shadow mappings) must happen before the stub
    code embedding its results can be generated. *)

val is_runnable : t -> bool
val kill : t -> exit_reason -> unit
val pp_state : Format.formatter -> state -> unit
val pp : Format.formatter -> t -> unit
