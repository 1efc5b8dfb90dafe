(** The simulated RISC instruction set.

    Deliberately Alpha-flavoured: load/store word architecture, a
    memory barrier ([Mb], the Alpha's [MB]), a [Syscall] trap and
    [Call_pal] for PALcode (paper §2.7). Branch targets are absolute
    instruction indices after assembly (the assembler resolves symbolic
    labels). All user-level DMA initiation sequences in the paper are
    expressible — and expressed — in this ISA. *)

type reg = int
(** Register number, 0..31. *)

val num_regs : int

type operand = Reg of reg | Imm of int

type instr =
  | Li of reg * int (** rd <- constant *)
  | Mov of reg * reg
  | Add of reg * reg * operand
  | Sub of reg * reg * operand
  | And_ of reg * reg * operand
  | Or_ of reg * reg * operand
  | Xor of reg * reg * operand
  | Shl of reg * reg * int
  | Shr of reg * reg * int
  | Load of reg * reg * int (** rd <- mem\[rbase + offset\] *)
  | Store of reg * int * reg (** mem\[rbase + offset\] <- rv *)
  | Mb (** memory barrier: drain the write buffer *)
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Blt of reg * reg * int (** signed < *)
  | Jmp of int
  | Syscall (** number in r0, args in r1..r5, result in r0 *)
  | Call_pal of int (** invoke installed PAL function *)
  | Nop
  | Halt

val show_instr : instr -> string

val pp_listing : Format.formatter -> instr array -> unit
(** Numbered program listing with branch targets resolved to line
    numbers — used by the CLI's [stub] command to print each
    mechanism's generated initiation sequence (the paper's figures). *)

val is_branch : instr -> bool

val validate : instr -> (unit, string) result
(** Check register numbers and branch-target sanity cannot be verified
    here (targets need the program length); registers are. *)
