type reg = int [@@deriving show]

let num_regs = 32

type operand = Reg of reg | Imm of int [@@deriving show]

type instr =
  | Li of reg * int
  | Mov of reg * reg
  | Add of reg * reg * operand
  | Sub of reg * reg * operand
  | And_ of reg * reg * operand
  | Or_ of reg * reg * operand
  | Xor of reg * reg * operand
  | Shl of reg * reg * int
  | Shr of reg * reg * int
  | Load of reg * reg * int
  | Store of reg * int * reg
  | Mb
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Blt of reg * reg * int
  | Jmp of int
  | Syscall
  | Call_pal of int
  | Nop
  | Halt
[@@deriving show]

let is_branch = function
  | Beq _ | Bne _ | Blt _ | Jmp _ -> true
  | Li _ | Mov _ | Add _ | Sub _ | And_ _ | Or_ _ | Xor _ | Shl _ | Shr _ | Load _
  | Store _ | Mb | Syscall | Call_pal _ | Nop | Halt ->
    false

let reg_ok r = r >= 0 && r < num_regs

let operand_regs = function Reg r -> [ r ] | Imm _ -> []

let regs_of = function
  | Li (rd, _) -> [ rd ]
  | Mov (rd, rs) -> [ rd; rs ]
  | Add (rd, rs, op) | Sub (rd, rs, op) | And_ (rd, rs, op) | Or_ (rd, rs, op) | Xor (rd, rs, op)
    ->
    rd :: rs :: operand_regs op
  | Shl (rd, rs, _) | Shr (rd, rs, _) -> [ rd; rs ]
  | Load (rd, rb, _) -> [ rd; rb ]
  | Store (rb, _, rv) -> [ rb; rv ]
  | Beq (ra, rb, _) | Bne (ra, rb, _) | Blt (ra, rb, _) -> [ ra; rb ]
  | Mb | Jmp _ | Syscall | Call_pal _ | Nop | Halt -> []

let validate instr =
  let bad = List.filter (fun r -> not (reg_ok r)) (regs_of instr) in
  match bad with
  | [] -> Ok ()
  | r :: _ -> Error (Printf.sprintf "bad register r%d in %s" r (show_instr instr))

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "r%d" r
  | Imm v -> if v >= 4096 then Format.fprintf ppf "%#x" v else Format.fprintf ppf "%d" v

(* assembly-style rendering: [store [r20+0], r3], [beq r0, r24, 7] *)
let pp_asm ppf = function
  | Li (rd, v) ->
    if v >= 4096 || v <= -4096 then Format.fprintf ppf "li    r%d, %#x" rd v
    else Format.fprintf ppf "li    r%d, %d" rd v
  | Mov (rd, rs) -> Format.fprintf ppf "mov   r%d, r%d" rd rs
  | Add (rd, rs, op) -> Format.fprintf ppf "add   r%d, r%d, %a" rd rs pp_operand op
  | Sub (rd, rs, op) -> Format.fprintf ppf "sub   r%d, r%d, %a" rd rs pp_operand op
  | And_ (rd, rs, op) -> Format.fprintf ppf "and   r%d, r%d, %a" rd rs pp_operand op
  | Or_ (rd, rs, op) -> Format.fprintf ppf "or    r%d, r%d, %a" rd rs pp_operand op
  | Xor (rd, rs, op) -> Format.fprintf ppf "xor   r%d, r%d, %a" rd rs pp_operand op
  | Shl (rd, rs, n) -> Format.fprintf ppf "shl   r%d, r%d, %d" rd rs n
  | Shr (rd, rs, n) -> Format.fprintf ppf "shr   r%d, r%d, %d" rd rs n
  | Load (rd, rb, off) -> Format.fprintf ppf "load  r%d, [r%d+%d]" rd rb off
  | Store (rb, off, rv) -> Format.fprintf ppf "store [r%d+%d], r%d" rb off rv
  | Mb -> Format.pp_print_string ppf "mb"
  | Beq (ra, rb, tgt) -> Format.fprintf ppf "beq   r%d, r%d, %d" ra rb tgt
  | Bne (ra, rb, tgt) -> Format.fprintf ppf "bne   r%d, r%d, %d" ra rb tgt
  | Blt (ra, rb, tgt) -> Format.fprintf ppf "blt   r%d, r%d, %d" ra rb tgt
  | Jmp tgt -> Format.fprintf ppf "jmp   %d" tgt
  | Syscall -> Format.pp_print_string ppf "syscall"
  | Call_pal n -> Format.fprintf ppf "call_pal %d" n
  | Nop -> Format.pp_print_string ppf "nop"
  | Halt -> Format.pp_print_string ppf "halt"

let pp_listing ppf program =
  Array.iteri (fun i instr -> Format.fprintf ppf "%3d:  %a@." i pp_asm instr) program
