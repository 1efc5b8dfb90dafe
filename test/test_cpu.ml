(* Tests for the cpu library: ISA validation, register file, assembler,
   interpreter semantics, PAL registry. *)

open Uldma_mmu
open Uldma_cpu

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* A fake machine and its static host: identity translation over one
   rw page at va 0, with a hashtable as memory and a clock that every
   instruction advances by 10 ps and every barrier by 5 ps. *)
type fake = {
  memory : (int, int) Hashtbl.t;
  clock : Uldma_bus.Clock.t;
  mutable barriers : int;
  mutable read_only : bool;
}

let make_fake () =
  { memory = Hashtbl.create 16; clock = Uldma_bus.Clock.create (); barriers = 0; read_only = false }

let charged fake = Uldma_bus.Clock.now fake.clock

(* the fake's translation: raises the fault word like a machine's host *)
let fake_translate fake access vaddr =
  if vaddr < 0 || vaddr >= Uldma_mem.Layout.page_size then
    raise (Cpu.Access_fault (Addr_space.fault_word (Addr_space.No_mapping vaddr)))
  else if fake.read_only && access = Addr_space.Write then
    raise (Cpu.Access_fault (Addr_space.fault_word (Addr_space.Protection (vaddr, access))))
  else vaddr

let host : fake Cpu.host =
  {
    Cpu.load =
      (fun fake vaddr ->
        let paddr = fake_translate fake Addr_space.Read vaddr in
        try Hashtbl.find fake.memory paddr with Not_found -> 0);
    store =
      (fun fake vaddr value ->
        Hashtbl.replace fake.memory (fake_translate fake Addr_space.Write vaddr) value);
    barrier =
      (fun fake ->
        Uldma_bus.Clock.advance fake.clock 5;
        fake.barriers <- fake.barriers + 1);
  }

let step ctx fake = Cpu.step ctx fake.clock ~instr_ps:10 host fake

let run_subprogram regs body =
  let fake = make_fake () in
  Cpu.run_subprogram regs body fake.clock ~instr_ps:10 host fake

let run_program ?(fake = make_fake ()) instrs =
  let ctx = Cpu.make_ctx (Asm.assemble_list instrs) in
  let rec loop n =
    if n > 10_000 then Alcotest.fail "program did not halt";
    match step ctx fake with
    | Cpu.Continue -> loop (n + 1)
    | outcome -> outcome
  in
  let outcome = loop 0 in
  (outcome, ctx, fake)

let expect_halt instrs =
  let outcome, ctx, fake = run_program instrs in
  (match outcome with
  | Cpu.Halted -> ()
  | other -> Alcotest.failf "expected halt, got %a" Cpu.pp_outcome other);
  (ctx, fake)

(* ------------------------------------------------------------------ *)
(* ISA / Regfile *)

let test_isa_validate () =
  checkb "good" true (Isa.validate (Isa.Add (1, 2, Isa.Reg 3)) = Ok ());
  checkb "bad rd" true (Isa.validate (Isa.Li (32, 0)) <> Ok ());
  checkb "bad operand reg" true (Isa.validate (Isa.Add (0, 0, Isa.Reg 40)) <> Ok ());
  checkb "branch regs checked" true (Isa.validate (Isa.Beq (-1, 0, 0)) <> Ok ())

let test_isa_is_branch () =
  checkb "jmp" true (Isa.is_branch (Isa.Jmp 0));
  checkb "beq" true (Isa.is_branch (Isa.Beq (0, 0, 0)));
  checkb "add" false (Isa.is_branch (Isa.Add (0, 0, Isa.Imm 1)))

let test_regfile_zero_register () =
  let r = Regfile.create () in
  Regfile.set r 31 42;
  checki "r31 stays zero" 0 (Regfile.get r 31);
  Regfile.set r 5 9;
  checki "other regs work" 9 (Regfile.get r 5)

let test_regfile_bounds () =
  let r = Regfile.create () in
  Alcotest.check_raises "r32" (Invalid_argument "Regfile: r32") (fun () ->
      ignore (Regfile.get r 32 : int))

(* Digest upkeep against a from-scratch recomputation: random writes
   (r31 included, values across the whole int range) on a file and on
   a copy taken mid-script; each side's maintained digest must equal
   the lane sums of [Fp128.int_term] over its register values. *)
let regfile_digest_matches_recomputed =
  let module F = Uldma_util.Fp128 in
  let recomputed r =
    List.fold_left
      (fun (a, b) (i, v) -> (a + F.int_term_a i v, b + F.int_term_b i v))
      (0, 0)
      (List.mapi (fun i v -> (i, v)) (Regfile.to_list r))
  in
  let gen_write =
    QCheck2.Gen.(
      pair (int_range 0 31) (oneof [ int_range min_int max_int; int_range (-3) 3; pure 0 ]))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"regfile: maintained digest equals recomputed digest"
       QCheck2.Gen.(
         triple (list_size (int_range 0 40) gen_write) (list_size (int_range 0 40) gen_write)
           (list_size (int_range 0 40) gen_write))
       (fun (before, parent_after, child_after) ->
         let set r (i, v) = Regfile.set r i v in
         let r = Regfile.create () in
         List.iter (set r) before;
         let c = Regfile.copy r in
         List.iter (set c) child_after;
         List.iter (set r) parent_after;
         Regfile.digest r = recomputed r
         && Regfile.digest c = recomputed c
         && Regfile.get r 31 = 0))

(* ------------------------------------------------------------------ *)
(* Assembler *)

let test_asm_labels () =
  let asm = Asm.create () in
  Asm.li asm 1 0;
  let top = Asm.fresh_label asm "top" in
  Asm.label asm top;
  Asm.add asm 1 1 (Isa.Imm 1);
  Asm.li asm 2 5;
  Asm.blt asm 1 2 top;
  Asm.halt asm;
  let program = Asm.assemble asm in
  (match program.(3) with
  | Isa.Blt (1, 2, 1) -> ()
  | other -> Alcotest.failf "bad resolution: %s" (Isa.show_instr other));
  checki "length" 5 (Array.length program)

let test_asm_undefined_label () =
  let asm = Asm.create () in
  Asm.jmp asm "nowhere";
  checkb "undefined label" true
    (try
       ignore (Asm.assemble asm : Isa.instr array);
       false
     with Failure _ -> true)

let test_asm_duplicate_label () =
  let asm = Asm.create () in
  Asm.label asm "x";
  checkb "duplicate" true
    (try
       Asm.label asm "x";
       false
     with Invalid_argument _ -> true)

let test_asm_fresh_labels_unique () =
  let asm = Asm.create () in
  let a = Asm.fresh_label asm "l" and b = Asm.fresh_label asm "l" in
  checkb "unique" true (a <> b)

let test_asm_bad_register_rejected () =
  checkb "validation at assembly" true
    (try
       ignore (Asm.assemble_list [ Isa.Li (40, 0) ] : Isa.instr array);
       false
     with Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Interpreter semantics *)

let test_cpu_arithmetic () =
  let ctx, _ =
    expect_halt
      [
        Isa.Li (1, 10);
        Isa.Li (2, 3);
        Isa.Add (3, 1, Isa.Reg 2);
        Isa.Sub (4, 1, Isa.Imm 4);
        Isa.And_ (5, 1, Isa.Imm 6);
        Isa.Or_ (6, 1, Isa.Imm 5);
        Isa.Xor (7, 1, Isa.Reg 2);
        Isa.Shl (8, 2, 4);
        Isa.Shr (9, 1, 1);
        Isa.Mov (10, 3);
        Isa.Halt;
      ]
  in
  let r = ctx.Cpu.regs in
  checki "add" 13 (Regfile.get r 3);
  checki "sub" 6 (Regfile.get r 4);
  checki "and" 2 (Regfile.get r 5);
  checki "or" 15 (Regfile.get r 6);
  checki "xor" 9 (Regfile.get r 7);
  checki "shl" 48 (Regfile.get r 8);
  checki "shr" 5 (Regfile.get r 9);
  checki "mov" 13 (Regfile.get r 10)

let test_cpu_memory () =
  let ctx, fake =
    expect_halt
      [ Isa.Li (1, 64); Isa.Li (2, 123); Isa.Store (1, 8, 2); Isa.Load (3, 1, 8); Isa.Halt ]
  in
  checki "loaded back" 123 (Regfile.get ctx.Cpu.regs 3);
  checki "stored at 72" 123 (Hashtbl.find fake.memory 72)

let test_cpu_loop () =
  (* sum 1..10 via a branch loop *)
  let asm = Asm.create () in
  Asm.li asm 1 0 (* i *);
  Asm.li asm 2 0 (* sum *);
  Asm.li asm 3 10;
  let top = Asm.fresh_label asm "top" in
  Asm.label asm top;
  Asm.add asm 1 1 (Isa.Imm 1);
  Asm.add asm 2 2 (Isa.Reg 1);
  Asm.blt asm 1 3 top;
  Asm.halt asm;
  let ctx = Cpu.make_ctx (Asm.assemble asm) in
  let fake = make_fake () in
  let rec loop () = match step ctx fake with Cpu.Continue -> loop () | o -> o in
  (match loop () with Cpu.Halted -> () | _ -> Alcotest.fail "no halt");
  checki "sum" 55 (Regfile.get ctx.Cpu.regs 2)

let test_cpu_branches () =
  let ctx, _ =
    expect_halt
      [
        Isa.Li (1, 5);
        Isa.Li (2, 5);
        Isa.Beq (1, 2, 4) (* taken *);
        Isa.Li (10, 99) (* skipped *);
        Isa.Bne (1, 2, 6) (* not taken *);
        Isa.Li (11, 1);
        Isa.Jmp 7;
        Isa.Halt;
      ]
  in
  checki "beq skipped li" 0 (Regfile.get ctx.Cpu.regs 10);
  checki "bne fell through" 1 (Regfile.get ctx.Cpu.regs 11)

let test_cpu_fall_off_end_halts () =
  let outcome, _, _ = run_program [ Isa.Nop ] in
  checkb "halted" true (outcome = Cpu.Halted)

let test_cpu_mb_calls_barrier () =
  let _, fake = expect_halt [ Isa.Mb; Isa.Mb; Isa.Halt ] in
  checki "two barriers" 2 fake.barriers

let test_cpu_traps () =
  let outcome, ctx, _ = run_program [ Isa.Li (0, 7); Isa.Syscall; Isa.Halt ] in
  checkb "syscall trap" true (outcome = Cpu.Syscall_trap);
  checki "pc advanced past trap" 2 ctx.Cpu.pc;
  let outcome2, _, _ = run_program [ Isa.Call_pal 3 ] in
  checkb "pal trap" true (outcome2 = Cpu.Pal_trap 3)

let test_cpu_fault_no_mapping () =
  let outcome, ctx, _ = run_program [ Isa.Li (1, 1 lsl 20); Isa.Load (2, 1, 0); Isa.Halt ] in
  (match outcome with
  | Cpu.Fault (Addr_space.No_mapping _) -> ()
  | other -> Alcotest.failf "expected fault, got %a" Cpu.pp_outcome other);
  checki "pc at faulting instruction" 1 ctx.Cpu.pc

let test_cpu_fault_protection () =
  let fake = make_fake () in
  fake.read_only <- true;
  let outcome, _, _ = run_program ~fake [ Isa.Li (1, 8); Isa.Store (1, 0, 1); Isa.Halt ] in
  match outcome with
  | Cpu.Fault (Addr_space.Protection (8, Addr_space.Write)) -> ()
  | other -> Alcotest.failf "expected protection fault, got %a" Cpu.pp_outcome other

let test_cpu_charges () =
  let _, fake = expect_halt [ Isa.Nop; Isa.Nop; Isa.Halt ] in
  (* 3 instructions x 10 ps *)
  checki "instruction charges" 30 (charged fake)

let test_cpu_mb_extra_charge () =
  let _, fake = expect_halt [ Isa.Mb; Isa.Halt ] in
  checki "mb = instruction + barrier cost" 25 (charged fake)

let test_cpu_run_subprogram () =
  let regs = Regfile.create () in
  Regfile.set regs 1 4;
  let body = Asm.assemble_list [ Isa.Add (1, 1, Isa.Imm 1); Isa.Add (1, 1, Isa.Imm 1) ] in
  let outcome = run_subprogram regs body in
  checkb "completes" true (outcome = Cpu.Halted);
  checki "effect" 6 (Regfile.get regs 1)

let test_cpu_run_subprogram_rejects_traps () =
  let regs = Regfile.create () in
  let body = Asm.assemble_list [ Isa.Syscall ] in
  checkb "trap rejected" true
    (try
       ignore (run_subprogram regs body : Cpu.outcome);
       false
     with Invalid_argument _ -> true)

let test_cpu_copy_ctx () =
  let ctx = Cpu.make_ctx (Asm.assemble_list [ Isa.Li (1, 5); Isa.Halt ]) in
  let fake = make_fake () in
  ignore (step ctx fake : Cpu.outcome);
  let snap = Cpu.copy_ctx ctx in
  ignore (step ctx fake : Cpu.outcome);
  checki "snapshot pc frozen" 1 snap.Cpu.pc;
  Regfile.set ctx.Cpu.regs 1 0;
  checki "snapshot regs frozen" 5 (Regfile.get snap.Cpu.regs 1)

let test_isa_listing () =
  let program =
    Asm.assemble_list
      [ Isa.Li (1, 0x10000); Isa.Store (20, 0, 3); Isa.Load (0, 21, 8); Isa.Mb; Isa.Halt ]
  in
  let rendered = Format.asprintf "%a" Isa.pp_listing program in
  List.iter
    (fun needle ->
      let nl = String.length needle and sl = String.length rendered in
      let rec scan i = i + nl <= sl && (String.sub rendered i nl = needle || scan (i + 1)) in
      checkb (Printf.sprintf "listing contains %S" needle) true (scan 0))
    [ "0:  li    r1, 0x10000"; "store [r20+0], r3"; "load  r0, [r21+8]"; "mb"; "halt" ]

(* ------------------------------------------------------------------ *)
(* Differential fuzzing: random straight-line programs vs an OCaml
   reference evaluation of the same operation list *)

type alu_op = O_li | O_add | O_addi | O_sub | O_and | O_or | O_xor | O_shl | O_shr | O_mov

let op_of_int = function
  | 0 -> O_li
  | 1 -> O_add
  | 2 -> O_addi
  | 3 -> O_sub
  | 4 -> O_and
  | 5 -> O_or
  | 6 -> O_xor
  | 7 -> O_shl
  | 8 -> O_shr
  | _ -> O_mov

let instr_of (opn, rd, rs, rt, imm) =
  let rd = 1 + (rd mod 8) and rs = 1 + (rs mod 8) and rt = 1 + (rt mod 8) in
  match op_of_int opn with
  | O_li -> Isa.Li (rd, imm)
  | O_add -> Isa.Add (rd, rs, Isa.Reg rt)
  | O_addi -> Isa.Add (rd, rs, Isa.Imm imm)
  | O_sub -> Isa.Sub (rd, rs, Isa.Reg rt)
  | O_and -> Isa.And_ (rd, rs, Isa.Reg rt)
  | O_or -> Isa.Or_ (rd, rs, Isa.Imm imm)
  | O_xor -> Isa.Xor (rd, rs, Isa.Reg rt)
  | O_shl -> Isa.Shl (rd, rs, imm land 7)
  | O_shr -> Isa.Shr (rd, rs, imm land 7)
  | O_mov -> Isa.Mov (rd, rs)

let reference_eval ops =
  let regs = Array.make 9 0 in
  List.iter
    (fun (opn, rd, rs, rt, imm) ->
      let rd = 1 + (rd mod 8) and rs = 1 + (rs mod 8) and rt = 1 + (rt mod 8) in
      regs.(rd) <-
        (match op_of_int opn with
        | O_li -> imm
        | O_add -> regs.(rs) + regs.(rt)
        | O_addi -> regs.(rs) + imm
        | O_sub -> regs.(rs) - regs.(rt)
        | O_and -> regs.(rs) land regs.(rt)
        | O_or -> regs.(rs) lor imm
        | O_xor -> regs.(rs) lxor regs.(rt)
        | O_shl -> regs.(rs) lsl (imm land 7)
        | O_shr -> regs.(rs) lsr (imm land 7)
        | O_mov -> regs.(rs)))
    ops;
  regs

let op_gen =
  QCheck2.Gen.(
    tup5 (int_range 0 9) (int_range 0 7) (int_range 0 7) (int_range 0 7)
      (int_range (-1000) 1000))

let cpu_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"interpreter agrees with reference evaluation" ~count:500
       QCheck2.Gen.(list_size (int_range 1 40) op_gen)
       (fun ops ->
         let program = Asm.assemble_list (List.map instr_of ops @ [ Isa.Halt ]) in
         let ctx = Cpu.make_ctx program in
         let fake = make_fake () in
         let rec loop () =
           match step ctx fake with Cpu.Continue -> loop () | o -> o
         in
         (match loop () with Cpu.Halted -> () | _ -> failwith "no halt");
         let expected = reference_eval ops in
         let ok = ref true in
         for r = 1 to 8 do
           if Regfile.get ctx.Cpu.regs r <> expected.(r) then ok := false
         done;
         !ok))

let cpu_instruction_count_charged =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"every instruction charges its issue cost" ~count:200
       QCheck2.Gen.(list_size (int_range 1 30) op_gen)
       (fun ops ->
         let program = Asm.assemble_list (List.map instr_of ops @ [ Isa.Halt ]) in
         let ctx = Cpu.make_ctx program in
         let fake = make_fake () in
         let rec loop () =
           match step ctx fake with Cpu.Continue -> loop () | o -> o
         in
         ignore (loop () : Cpu.outcome);
         (* ops + Halt, 10 ps each, no memory traffic *)
         charged fake = 10 * (List.length ops + 1)))

(* ------------------------------------------------------------------ *)
(* PAL *)

let test_pal_install_get () =
  let pal = Pal.create () in
  let body = Asm.assemble_list [ Isa.Add (1, 1, Isa.Imm 1) ] in
  checkb "install" true (Pal.install pal ~index:2 body = Ok ());
  checkb "get" true (Pal.get pal 2 <> None);
  checkb "absent" true (Pal.get pal 3 = None);
  Alcotest.(check (list int)) "installed" [ 2 ] (Pal.installed pal)

let test_pal_length_limit () =
  let pal = Pal.create () in
  let body = Array.make 17 Isa.Nop in
  checkb "17 instructions rejected" true (Pal.install pal ~index:0 body <> Ok ());
  checkb "16 accepted" true (Pal.install pal ~index:0 (Array.make 16 Isa.Nop) = Ok ())

let test_pal_no_traps_inside () =
  let pal = Pal.create () in
  checkb "syscall rejected" true (Pal.install pal ~index:0 [| Isa.Syscall |] <> Ok ());
  checkb "call_pal rejected" true (Pal.install pal ~index:0 [| Isa.Call_pal 1 |] <> Ok ());
  checkb "halt rejected" true (Pal.install pal ~index:0 [| Isa.Halt |] <> Ok ())

let test_pal_branch_bounds () =
  let pal = Pal.create () in
  checkb "branch outside body" true (Pal.install pal ~index:0 [| Isa.Jmp 5 |] <> Ok ());
  checkb "branch to end = return" true (Pal.install pal ~index:0 [| Isa.Jmp 1 |] = Ok ())

let test_pal_index_bounds () =
  let pal = Pal.create () in
  checkb "negative" true (Pal.install pal ~index:(-1) [||] <> Ok ());
  checkb "too large" true (Pal.install pal ~index:Pal.num_slots [||] <> Ok ());
  checkb "get out of range" true (Pal.get pal (-1) = None)

let test_pal_copy_independent () =
  let pal = Pal.create () in
  ignore (Pal.install pal ~index:1 [| Isa.Nop |] : (unit, string) result);
  let pal2 = Pal.copy pal in
  ignore (Pal.install pal2 ~index:2 [| Isa.Nop |] : (unit, string) result);
  checkb "original lacks slot 2" true (Pal.get pal 2 = None)

let () =
  Alcotest.run "cpu"
    [
      ( "isa",
        [
          Alcotest.test_case "validate" `Quick test_isa_validate;
          Alcotest.test_case "is_branch" `Quick test_isa_is_branch;
          Alcotest.test_case "listing renderer" `Quick test_isa_listing;
        ] );
      ( "regfile",
        [
          Alcotest.test_case "zero register" `Quick test_regfile_zero_register;
          Alcotest.test_case "bounds" `Quick test_regfile_bounds;
          regfile_digest_matches_recomputed;
        ] );
      ( "asm",
        [
          Alcotest.test_case "labels resolve" `Quick test_asm_labels;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "fresh labels unique" `Quick test_asm_fresh_labels_unique;
          Alcotest.test_case "bad register rejected" `Quick test_asm_bad_register_rejected;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "arithmetic" `Quick test_cpu_arithmetic;
          Alcotest.test_case "memory" `Quick test_cpu_memory;
          Alcotest.test_case "loop" `Quick test_cpu_loop;
          Alcotest.test_case "branches" `Quick test_cpu_branches;
          Alcotest.test_case "fall off end" `Quick test_cpu_fall_off_end_halts;
          Alcotest.test_case "mb calls barrier" `Quick test_cpu_mb_calls_barrier;
          Alcotest.test_case "traps" `Quick test_cpu_traps;
          Alcotest.test_case "no-mapping fault" `Quick test_cpu_fault_no_mapping;
          Alcotest.test_case "protection fault" `Quick test_cpu_fault_protection;
          Alcotest.test_case "charges time" `Quick test_cpu_charges;
          Alcotest.test_case "mb extra charge" `Quick test_cpu_mb_extra_charge;
          Alcotest.test_case "run_subprogram" `Quick test_cpu_run_subprogram;
          Alcotest.test_case "run_subprogram rejects traps" `Quick
            test_cpu_run_subprogram_rejects_traps;
          Alcotest.test_case "copy_ctx" `Quick test_cpu_copy_ctx;
          cpu_matches_reference;
          cpu_instruction_count_charged;
        ] );
      ( "pal",
        [
          Alcotest.test_case "install/get" `Quick test_pal_install_get;
          Alcotest.test_case "16-instruction limit" `Quick test_pal_length_limit;
          Alcotest.test_case "no traps inside" `Quick test_pal_no_traps_inside;
          Alcotest.test_case "branch bounds" `Quick test_pal_branch_bounds;
          Alcotest.test_case "index bounds" `Quick test_pal_index_bounds;
          Alcotest.test_case "copy independent" `Quick test_pal_copy_independent;
        ] );
    ]
