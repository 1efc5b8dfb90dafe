open Uldma_cpu
open Uldma_os
open Uldma_dma

type variant = Kernel_initiated | Ext_shadow_initiated | Key_initiated | Pal_initiated

let variant_name = function
  | Kernel_initiated -> "atomic/kernel"
  | Ext_shadow_initiated -> "atomic/ext-shadow"
  | Key_initiated -> "atomic/key-based"
  | Pal_initiated -> "atomic/pal"

let engine_mechanism = function
  | Kernel_initiated -> None
  | Ext_shadow_initiated -> Some Engine.Ext_shadow
  | Key_initiated -> Some Engine.Key_based
  | Pal_initiated -> Some Engine.Shrimp_two_step

type prepared = {
  emit_add : Asm.t -> operand:Isa.reg -> unit;
  emit_fetch_store : Asm.t -> operand:Isa.reg -> unit;
  emit_cas : Asm.t -> expected:Isa.reg -> desired:Isa.reg -> unit;
  ni_accesses : int;
}

let reg_target = Mech.reg_vsrc (* r1: virtual target address *)

(* ---------------- kernel baseline ---------------- *)

let kernel_syscall asm ~op ~arg1 ~arg2 =
  Asm.li asm 2 op;
  Asm.mov asm 3 arg1;
  (match arg2 with Some r -> Asm.mov asm 4 r | None -> ());
  Asm.li asm 0 Sysno.sys_atomic;
  Asm.syscall asm

let kernel_prepared =
  {
    emit_add = (fun asm ~operand -> kernel_syscall asm ~op:Sysno.atomic_add ~arg1:operand ~arg2:None);
    emit_fetch_store =
      (fun asm ~operand -> kernel_syscall asm ~op:Sysno.atomic_fetch_store ~arg1:operand ~arg2:None);
    emit_cas =
      (fun asm ~expected ~desired ->
        kernel_syscall asm ~op:Sysno.atomic_cas ~arg1:expected ~arg2:(Some desired));
    ni_accesses = 3;
  }

(* ---------------- shared encoding helper ---------------- *)

(* scratch <- (operand << 4) | opcode *)
let emit_encode asm ~scratch ~operand ~opcode =
  Asm.shl asm scratch operand 4;
  Asm.or_ asm scratch scratch (Isa.Imm opcode)

(* ---------------- extended shadow addressing ---------------- *)

let emit_atomic_shadow_addr asm =
  Asm.add asm Mech.reg_shadow_dst reg_target (Isa.Imm Vm.atomic_va_offset)

let ext_one_op opcode asm ~operand =
  emit_atomic_shadow_addr asm;
  emit_encode asm ~scratch:Mech.reg_scratch0 ~operand ~opcode;
  Asm.store asm ~base:Mech.reg_shadow_dst ~off:0 Mech.reg_scratch0;
  Asm.load asm Mech.reg_status ~base:Mech.reg_shadow_dst ~off:0

let ext_prepared =
  {
    emit_add = ext_one_op Atomic_op.opcode_add;
    emit_fetch_store = ext_one_op Atomic_op.opcode_fetch_store;
    emit_cas =
      (fun asm ~expected ~desired ->
        emit_atomic_shadow_addr asm;
        emit_encode asm ~scratch:Mech.reg_scratch0 ~operand:expected
          ~opcode:Atomic_op.opcode_cas_expected;
        Asm.store asm ~base:Mech.reg_shadow_dst ~off:0 Mech.reg_scratch0;
        emit_encode asm ~scratch:Mech.reg_scratch0 ~operand:desired ~opcode:Atomic_op.opcode_cas_new;
        Asm.store asm ~base:Mech.reg_shadow_dst ~off:0 Mech.reg_scratch0;
        Asm.load asm Mech.reg_status ~base:Mech.reg_shadow_dst ~off:0);
    ni_accesses = 2;
  }

(* ---------------- key-based ---------------- *)

let key_one_op ~keyword ~context_page_va opcode asm ~operand =
  emit_atomic_shadow_addr asm;
  Asm.li asm Mech.reg_scratch1 keyword;
  (* pass the physical target, authenticated by the key *)
  Asm.store asm ~base:Mech.reg_shadow_dst ~off:0 Mech.reg_scratch1;
  emit_encode asm ~scratch:Mech.reg_scratch0 ~operand ~opcode;
  Asm.li asm Mech.reg_scratch2 context_page_va;
  Asm.store asm ~base:Mech.reg_scratch2 ~off:Regmap.c_atomic Mech.reg_scratch0;
  Asm.mb asm;
  Asm.load asm Mech.reg_status ~base:Mech.reg_scratch2 ~off:Regmap.c_atomic

let key_prepared ~keyword ~context_page_va =
  {
    emit_add = key_one_op ~keyword ~context_page_va Atomic_op.opcode_add;
    emit_fetch_store = key_one_op ~keyword ~context_page_va Atomic_op.opcode_fetch_store;
    emit_cas =
      (fun asm ~expected ~desired ->
        emit_atomic_shadow_addr asm;
        Asm.li asm Mech.reg_scratch1 keyword;
        Asm.store asm ~base:Mech.reg_shadow_dst ~off:0 Mech.reg_scratch1;
        Asm.li asm Mech.reg_scratch2 context_page_va;
        emit_encode asm ~scratch:Mech.reg_scratch0 ~operand:expected
          ~opcode:Atomic_op.opcode_cas_expected;
        Asm.store asm ~base:Mech.reg_scratch2 ~off:Regmap.c_atomic Mech.reg_scratch0;
        emit_encode asm ~scratch:Mech.reg_scratch0 ~operand:desired ~opcode:Atomic_op.opcode_cas_new;
        Asm.store asm ~base:Mech.reg_scratch2 ~off:Regmap.c_atomic Mech.reg_scratch0;
        Asm.mb asm;
        Asm.load asm Mech.reg_status ~base:Mech.reg_scratch2 ~off:Regmap.c_atomic);
    ni_accesses = 3;
  }

(* ---------------- PAL-wrapped shared slot ---------------- *)

(* PAL slots used by [Pal_initiated]: add/fetch_store and
   compare-and-swap *)
let pal_op_index = 3
let pal_cas_index = 4

(* Entry conditions for both bodies: r20 = atomic shadow alias of the
   target; r22 (and r23 for CAS) = encoded operation words. *)
let pal_op_body =
  [| Isa.Store (Mech.reg_shadow_dst, 0, Mech.reg_scratch0); Isa.Load (Mech.reg_status, Mech.reg_shadow_dst, 0) |]

let pal_cas_body =
  [|
    Isa.Store (Mech.reg_shadow_dst, 0, Mech.reg_scratch0);
    Isa.Store (Mech.reg_shadow_dst, 0, Mech.reg_scratch1);
    Isa.Load (Mech.reg_status, Mech.reg_shadow_dst, 0);
  |]

let pal_one_op opcode asm ~operand =
  emit_atomic_shadow_addr asm;
  emit_encode asm ~scratch:Mech.reg_scratch0 ~operand ~opcode;
  Asm.call_pal asm pal_op_index

let pal_prepared =
  {
    emit_add = pal_one_op Atomic_op.opcode_add;
    emit_fetch_store = pal_one_op Atomic_op.opcode_fetch_store;
    emit_cas =
      (fun asm ~expected ~desired ->
        emit_atomic_shadow_addr asm;
        emit_encode asm ~scratch:Mech.reg_scratch0 ~operand:expected
          ~opcode:Atomic_op.opcode_cas_expected;
        emit_encode asm ~scratch:Mech.reg_scratch1 ~operand:desired
          ~opcode:Atomic_op.opcode_cas_new;
        Asm.call_pal asm pal_cas_index);
    ni_accesses = 2;
  }

(* ---------------- setup ---------------- *)

let ensure_context kernel process =
  match (process.Process.dma_context, process.Process.dma_key) with
  | Some context, Some key -> (context, key)
  | _, _ -> (
    match Kernel.alloc_dma_context kernel process with
    | Some (context, key, _) -> (context, key)
    | None -> failwith "Atomic.prepare: no free register context")

let prepare variant kernel process ~region =
  match variant with
  | Kernel_initiated -> kernel_prepared
  | Ext_shadow_initiated ->
    let _ = ensure_context kernel process in
    ignore
      (Kernel.map_shadow_alias kernel process ~vaddr:region.Mech.vaddr ~n:region.Mech.pages
         ~window:`Atomic
        : int);
    ext_prepared
  | Key_initiated ->
    let context, key = ensure_context kernel process in
    ignore
      (Kernel.map_shadow_alias kernel process ~vaddr:region.Mech.vaddr ~n:region.Mech.pages
         ~window:`Atomic
        : int);
    key_prepared
      ~keyword:(Regmap.key_word ~key ~context)
      ~context_page_va:Vm.context_page_va
  | Pal_initiated ->
    (match Kernel.install_pal kernel ~index:pal_op_index pal_op_body with
    | Ok () -> ()
    | Error msg -> failwith ("Atomic.prepare: " ^ msg));
    (match Kernel.install_pal kernel ~index:pal_cas_index pal_cas_body with
    | Ok () -> ()
    | Error msg -> failwith ("Atomic.prepare: " ^ msg));
    ignore
      (Kernel.map_shadow_alias kernel process ~vaddr:region.Mech.vaddr ~n:region.Mech.pages
         ~window:`Atomic
        : int);
    pal_prepared
