open Uldma_mmu
open Uldma_cpu

type exit_reason = Normal | Killed_fault of Addr_space.fault | Killed of string

type state = Ready | Blocked_until of Uldma_util.Units.ps | Exited of exit_reason

(* The program's residual text as the state key sees it. [digests]
   holds, at [2 pc] and [2 pc + 1], the lanes of the digest of
   instructions [pc..] (the empty suffix digests to (0, 0)), each
   chained from the next one's, so the whole table costs one pass. It
   is built on the first key and shared by copies. *)
type text = { branchy : bool; digests : int array Lazy.t }

type t = {
  pid : int;
  name : string;
  ctx : Cpu.ctx;
  mutable text : text;
  mutable f_pos : int;
  mutable f_pc : int;
  mutable f_access : int;
  mutable f_text : int;
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

(* The process's digest slots: its registers from [pid * slots_per_pid]
   in slot domain 1, then as the register file's auxiliary values its
   state code, DMA context and key (kept by the setters), and its pc,
   uncached-access count and residual text (folded at key time, see
   [fold_key]). The pc and the access count enter packed as one value
   while both fit 31 bits, so a leg moves one term for them; otherwise
   that value is -1 and they enter as two values of their own. The text
   enters as a flag (1 while keyed) and the two lanes of the digest of
   the instructions from its start index; [f_text] is that index, or -1
   while the text is not keyed. *)
let slots_per_pid = 64
let aux_state = 0
let aux_context = 1
let aux_key = 2
let aux_pos = 3
let aux_pc = 4
let aux_access = 5
let aux_text = 6
let aux_text_a = 7
let aux_text_b = 8

let pos ~pc ~access =
  if pc lor access >= 0 && pc < 1 lsl 31 && access < 1 lsl 31 then pc lor (access lsl 31) else -1

let state_code = function Ready -> 0 | Blocked_until _ -> 1 | Exited _ -> 2

let text_of program =
  let module F = Uldma_util.Fp128 in
  let digests =
    lazy
      (let n = Array.length program in
       let d = Array.make (2 * (n + 1)) 0 and fp = F.create () in
       for pc = n - 1 downto 0 do
         F.reset fp;
         let s = Isa.show_instr program.(pc) in
         F.add_int fp (String.length s);
         F.add_string fp s;
         F.add_int fp d.(2 * (pc + 1));
         F.add_int fp d.((2 * (pc + 1)) + 1);
         let a, b = F.lanes fp in
         d.(2 * pc) <- a;
         d.((2 * pc) + 1) <- b
       done;
       d)
  in
  { branchy = Array.exists Isa.is_branch program; digests }

let make ~pid ~name ~program ~superuser =
  {
    pid;
    name;
    ctx =
      {
        Cpu.regs = Regfile.create ~slot_base:(Uldma_util.Fp128.domain 1 + (pid * slots_per_pid)) ();
        pc = 0;
        program;
      };
    text = text_of program;
    f_pos = 0;
    f_pc = 0;
    f_access = 0;
    f_text = -1;
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

(* A straight-line program's future is its suffix from pc (a pc off the
   program halts, like the empty suffix); a branch can reach any
   instruction, so then the text is the whole program. *)
let text_from t =
  let pc = t.ctx.Cpu.pc and n = Array.length t.ctx.Cpu.program in
  if t.text.branchy then 0 else if pc < 0 || pc > n then n else pc

let encode_text enc t =
  let program = t.ctx.Cpu.program in
  let n = Array.length program in
  let from = text_from t in
  Uldma_util.Enc.int enc (n - from);
  for i = from to n - 1 do
    Uldma_util.Enc.string enc (Isa.show_instr program.(i))
  done

(* Auxiliary value [k] (the flag or a lane) of the text keyed from index
   [from], or of no text when [from] is -1. *)
let text_value t from k =
  if from < 0 then 0
  else if k = aux_text then 1
  else (Lazy.force t.text.digests).((2 * from) + k - aux_text_a)

let fold_text t from =
  if from <> t.f_text then begin
    for k = aux_text to aux_text_b do
      Regfile.replace_aux t.ctx.Cpu.regs k (text_value t t.f_text k) (text_value t from k)
    done;
    t.f_text <- from
  end

(* the folded text belongs to the old program's digests: retire it first *)
let set_program t program =
  fold_text t (-1);
  t.ctx.Cpu.program <- program;
  t.ctx.Cpu.pc <- 0;
  t.text <- text_of program

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

(* Fold [v], the live value of auxiliary value [k], whose folded copy is
   [old]; returns the new copy. *)
let[@inline] fold regs k old v =
  if v <> old then Regfile.replace_aux regs k old v;
  v

let fold_key t ~access ~text acc =
  let regs = t.ctx.Cpu.regs in
  let pc = t.ctx.Cpu.pc in
  let pos = pos ~pc ~access in
  t.f_pos <- fold regs aux_pos t.f_pos pos;
  t.f_pc <- fold regs aux_pc t.f_pc (if pos < 0 then pc else 0);
  t.f_access <- fold regs aux_access t.f_access (if pos < 0 then access else 0);
  fold_text t (if text then text_from t else -1);
  Regfile.add_digest regs acc

let iter_terms ~access ~text f t =
  let regs = t.ctx.Cpu.regs in
  let aux k v = f (Regfile.slot_base regs + Isa.num_regs + k) v in
  let pc = t.ctx.Cpu.pc in
  let pos = pos ~pc ~access and from = if text then text_from t else -1 in
  Regfile.iter_terms f regs;
  aux aux_state (state_code t.state);
  aux aux_context (Uldma_util.Fp128.opt_value t.dma_context);
  aux aux_key (Uldma_util.Fp128.opt_value t.dma_key);
  aux aux_pos pos;
  aux aux_pc (if pos < 0 then pc else 0);
  aux aux_access (if pos < 0 then access else 0);
  for k = aux_text to aux_text_b do
    aux k (text_value t from k)
  done

let pp_state ppf = function
  | Ready -> Format.pp_print_string ppf "ready"
  | Blocked_until at -> Format.fprintf ppf "blocked until %a" Uldma_util.Units.pp_time at
  | Exited Normal -> Format.pp_print_string ppf "exited"
  | Exited (Killed_fault f) -> Format.fprintf ppf "killed (%a)" Addr_space.pp_fault f
  | Exited (Killed msg) -> Format.fprintf ppf "killed (%s)" msg

let pp ppf t = Format.fprintf ppf "[%d:%s %a]" t.pid t.name pp_state t.state
