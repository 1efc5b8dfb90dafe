open Uldma_mmu
open Uldma_cpu

type exit_reason = Normal | Killed_fault of Addr_space.fault | Killed of string

type state = Ready | Blocked_until of Uldma_util.Units.ps | Exited of exit_reason

type t = {
  pid : int;
  name : string;
  ctx : Cpu.ctx;
  addr_space : Addr_space.t;
  superuser : bool;
  mutable state : state;
  mutable dma_context : int option;
  mutable dma_key : int option;
  mutable next_va : int;
  mutable instructions_retired : int;
  mutable syscalls : int;
  mutable cpu_time_ps : Uldma_util.Units.ps;
}

(* first user virtual address handed out by [next_va] (64 KiB) *)
let initial_va = 0x10000

let make ~pid ~name ~program ~superuser =
  {
    pid;
    name;
    ctx = Cpu.make_ctx program;
    addr_space = Addr_space.create ();
    superuser;
    state = Ready;
    dma_context = None;
    dma_key = None;
    next_va = initial_va;
    instructions_retired = 0;
    syscalls = 0;
    cpu_time_ps = 0;
  }

let copy t =
  { t with ctx = Cpu.copy_ctx t.ctx; addr_space = Addr_space.copy t.addr_space }

let set_program t program =
  t.ctx.Cpu.program <- program;
  t.ctx.Cpu.pc <- 0

let is_runnable t = t.state = Ready

let kill t reason = t.state <- Exited reason

let pp_state ppf = function
  | Ready -> Format.pp_print_string ppf "ready"
  | Blocked_until at -> Format.fprintf ppf "blocked until %a" Uldma_util.Units.pp_time at
  | Exited Normal -> Format.pp_print_string ppf "exited"
  | Exited (Killed_fault f) -> Format.fprintf ppf "killed (%a)" Addr_space.pp_fault f
  | Exited (Killed msg) -> Format.fprintf ppf "killed (%s)" msg

let pp ppf t = Format.fprintf ppf "[%d:%s %a]" t.pid t.name pp_state t.state
