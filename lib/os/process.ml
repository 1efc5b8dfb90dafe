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

(* The process's digest slots: its registers from [pid * slots_per_pid],
   then its state code, DMA context and key as the register file's
   auxiliary values 0, 1 and 2. *)
let slots_per_pid = 64
let aux_state = 0
let aux_context = 1
let aux_key = 2

let state_code = function Ready -> 0 | Blocked_until _ -> 1 | Exited _ -> 2

let make ~pid ~name ~program ~superuser =
  {
    pid;
    name;
    ctx = { Cpu.regs = Regfile.create ~slot_base:(pid * slots_per_pid) (); pc = 0; program };
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

let is_runnable t = match t.state with Ready -> true | Blocked_until _ | Exited _ -> false

let set_state t s =
  Regfile.replace_aux t.ctx.Cpu.regs aux_state (state_code t.state) (state_code s);
  t.state <- s

let set_dma t ~context ~key =
  let regs = t.ctx.Cpu.regs and opt = Uldma_util.Fp128.opt_value in
  Regfile.replace_aux regs aux_context (opt t.dma_context) (opt context);
  Regfile.replace_aux regs aux_key (opt t.dma_key) (opt key);
  t.dma_context <- context;
  t.dma_key <- key

let kill t reason = set_state t (Exited reason)

let digest t = Regfile.digest t.ctx.Cpu.regs

let scratch_digest t =
  let module F = Uldma_util.Fp128 in
  let regs = t.ctx.Cpu.regs in
  let base = Regfile.slot_base regs in
  let a = ref 0 and b = ref 0 in
  let add slot v =
    a := !a + F.int_term_a slot v;
    b := !b + F.int_term_b slot v
  in
  List.iteri (fun r v -> add (base + r) v) (Regfile.to_list regs);
  let aux k v = add (base + Isa.num_regs + k) v in
  aux aux_state (state_code t.state);
  aux aux_context (F.opt_value t.dma_context);
  aux aux_key (F.opt_value t.dma_key);
  (!a, !b)

let pp_state ppf = function
  | Ready -> Format.pp_print_string ppf "ready"
  | Blocked_until at -> Format.fprintf ppf "blocked until %a" Uldma_util.Units.pp_time at
  | Exited Normal -> Format.pp_print_string ppf "exited"
  | Exited (Killed_fault f) -> Format.fprintf ppf "killed (%a)" Addr_space.pp_fault f
  | Exited (Killed msg) -> Format.fprintf ppf "killed (%s)" msg

let pp ppf t = Format.fprintf ppf "[%d:%s %a]" t.pid t.name pp_state t.state
