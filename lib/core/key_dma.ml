open Uldma_cpu
open Uldma_os

let emit_dma_with ~key ~context_page_va asm =
  let keyword = Mech.reg_scratch0 and ctx_page = Mech.reg_scratch1 in
  Asm.li asm keyword key;
  Asm.li asm ctx_page context_page_va;
  Mech.emit_shadow_addresses asm;
  (* STORE KEY#CONTEXT_ID TO shadow(vdestination) — pass destination *)
  Asm.store asm ~base:Mech.reg_shadow_dst ~off:0 keyword;
  (* STORE KEY#CONTEXT_ID TO shadow(vsource) — pass source *)
  Asm.store asm ~base:Mech.reg_shadow_src ~off:0 keyword;
  (* STORE size TO REGISTER_CONTEXT *)
  Asm.store asm ~base:ctx_page ~off:Uldma_dma.Regmap.c_size Mech.reg_size;
  (* drain the write buffer so the status load cannot be forwarded *)
  Asm.mb asm;
  (* LOAD return_status FROM REGISTER_CONTEXT — initiates *)
  Asm.load asm Mech.reg_status ~base:ctx_page ~off:Uldma_dma.Regmap.c_size

let prepare kernel process ~src ~dst =
  Mech.check_prepared src dst;
  let context, key, context_page_va =
    match (process.Process.dma_context, process.Process.dma_key) with
    | Some context, Some key -> (context, key, Vm.context_page_va)
    | _, _ -> (
      match Kernel.alloc_dma_context kernel process with
      | Some assignment -> assignment
      | None -> failwith "Key_dma.prepare: no free register context")
  in
  Mech.map_dma_aliases kernel process ~src ~dst;
  let key = Uldma_dma.Regmap.key_word ~key ~context in
  { Mech.emit_dma = emit_dma_with ~key ~context_page_va }

let mech =
  {
    Mech.name = "key-based";
    engine_mechanism = Some Uldma_dma.Engine.Key_based;
    requires_kernel_modification = false;
    ni_accesses = 4;
    prepare;
  }
