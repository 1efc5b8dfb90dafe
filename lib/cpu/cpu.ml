open Uldma_mmu

type ctx = { regs : Regfile.t; mutable pc : int; mutable program : Isa.instr array }

let make_ctx program = { regs = Regfile.create (); pc = 0; program }

let copy_ctx c = { regs = Regfile.copy c.regs; pc = c.pc; program = c.program }

type outcome = Continue | Halted | Syscall_trap | Pal_trap of int | Fault of Addr_space.fault

type cost = Instruction | Tlb_miss | Barrier

type 'm host = {
  translate : 'm -> Addr_space.access -> int -> int;
  load : 'm -> cacheable:bool -> int -> int;
  store : 'm -> cacheable:bool -> int -> int -> unit;
  barrier : 'm -> unit;
  charge : 'm -> cost -> unit;
}

let operand_value regs = function Isa.Reg r -> Regfile.get regs r | Isa.Imm v -> v

let[@inline] next ctx =
  ctx.pc <- ctx.pc + 1;
  Continue

(* The translation word of a data access, charging a TLB miss; a
   negative word is a fault. *)
let memory_access host m access vaddr =
  let w = host.translate m access vaddr in
  if w >= 0 && Addr_space.word_missed w then host.charge m Tlb_miss;
  w

let step ctx host m =
  if ctx.pc < 0 || ctx.pc >= Array.length ctx.program then Halted
  else begin
    let instr = ctx.program.(ctx.pc) in
    host.charge m Instruction;
    let regs = ctx.regs in
    match instr with
    | Isa.Li (rd, v) ->
      Regfile.set regs rd v;
      next ctx
    | Isa.Mov (rd, rs) ->
      Regfile.set regs rd (Regfile.get regs rs);
      next ctx
    | Isa.Add (rd, rs, op) ->
      Regfile.set regs rd (Regfile.get regs rs + operand_value regs op);
      next ctx
    | Isa.Sub (rd, rs, op) ->
      Regfile.set regs rd (Regfile.get regs rs - operand_value regs op);
      next ctx
    | Isa.And_ (rd, rs, op) ->
      Regfile.set regs rd (Regfile.get regs rs land operand_value regs op);
      next ctx
    | Isa.Or_ (rd, rs, op) ->
      Regfile.set regs rd (Regfile.get regs rs lor operand_value regs op);
      next ctx
    | Isa.Xor (rd, rs, op) ->
      Regfile.set regs rd (Regfile.get regs rs lxor operand_value regs op);
      next ctx
    | Isa.Shl (rd, rs, n) ->
      Regfile.set regs rd (Regfile.get regs rs lsl n);
      next ctx
    | Isa.Shr (rd, rs, n) ->
      Regfile.set regs rd (Regfile.get regs rs lsr n);
      next ctx
    | Isa.Load (rd, rb, off) ->
      let vaddr = Regfile.get regs rb + off in
      let w = memory_access host m Addr_space.Read vaddr in
      if w < 0 then Fault (Addr_space.word_fault w Addr_space.Read vaddr)
      else begin
        Regfile.set regs rd
          (host.load m ~cacheable:(Addr_space.word_cacheable w) (Addr_space.word_paddr w));
        next ctx
      end
    | Isa.Store (rb, off, rv) ->
      let vaddr = Regfile.get regs rb + off in
      let w = memory_access host m Addr_space.Write vaddr in
      if w < 0 then Fault (Addr_space.word_fault w Addr_space.Write vaddr)
      else begin
        host.store m ~cacheable:(Addr_space.word_cacheable w) (Addr_space.word_paddr w)
          (Regfile.get regs rv);
        next ctx
      end
    | Isa.Mb ->
      host.charge m Barrier;
      host.barrier m;
      next ctx
    | Isa.Beq (ra, rb, tgt) ->
      if Regfile.get regs ra = Regfile.get regs rb then ctx.pc <- tgt else ctx.pc <- ctx.pc + 1;
      Continue
    | Isa.Bne (ra, rb, tgt) ->
      if Regfile.get regs ra <> Regfile.get regs rb then ctx.pc <- tgt else ctx.pc <- ctx.pc + 1;
      Continue
    | Isa.Blt (ra, rb, tgt) ->
      if Regfile.get regs ra < Regfile.get regs rb then ctx.pc <- tgt else ctx.pc <- ctx.pc + 1;
      Continue
    | Isa.Jmp tgt ->
      ctx.pc <- tgt;
      Continue
    | Isa.Syscall ->
      ctx.pc <- ctx.pc + 1;
      Syscall_trap
    | Isa.Call_pal n ->
      ctx.pc <- ctx.pc + 1;
      Pal_trap n
    | Isa.Nop -> next ctx
    | Isa.Halt -> Halted
  end

let run_subprogram regs body host m =
  let ctx = { regs; pc = 0; program = body } in
  let rec loop () =
    match step ctx host m with
    | Continue -> loop ()
    | Halted -> Halted
    | Fault _ as f -> f
    | Syscall_trap | Pal_trap _ ->
      invalid_arg "Cpu.run_subprogram: trap inside an uninterruptible body"
  in
  loop ()

let pp_outcome ppf = function
  | Continue -> Format.pp_print_string ppf "continue"
  | Halted -> Format.pp_print_string ppf "halted"
  | Syscall_trap -> Format.pp_print_string ppf "syscall"
  | Pal_trap n -> Format.fprintf ppf "call_pal %d" n
  | Fault f -> Format.fprintf ppf "fault: %a" Addr_space.pp_fault f
