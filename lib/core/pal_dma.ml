open Uldma_cpu
open Uldma_os

(* the PAL slot the user-level-DMA function is installed in *)
let pal_index = 1

(* DMA(vsource, vdestination, size):
     STORE size TO shadow(vdestination)
     LOAD return_status FROM shadow(vsource)
   executed in PAL mode, i.e. uninterrupted. *)
let pal_body =
  [|
    Isa.Add (Mech.reg_shadow_dst, Mech.reg_vdst, Isa.Imm Vm.shadow_va_offset);
    Isa.Add (Mech.reg_shadow_src, Mech.reg_vsrc, Isa.Imm Vm.shadow_va_offset);
    Isa.Store (Mech.reg_shadow_dst, 0, Mech.reg_size);
    Isa.Load (Mech.reg_status, Mech.reg_shadow_src, 0);
  |]

let emit_dma asm = Asm.call_pal asm pal_index

let prepare kernel process ~src ~dst =
  Mech.check_prepared src dst;
  (match Kernel.install_pal kernel ~index:pal_index pal_body with
  | Ok () -> ()
  | Error msg -> failwith ("Pal_dma.prepare: " ^ msg));
  Mech.map_dma_aliases kernel process ~src ~dst;
  { Mech.emit_dma }

let mech =
  {
    Mech.name = "pal";
    engine_mechanism = Some Uldma_dma.Engine.Shrimp_two_step;
    requires_kernel_modification = false;
    ni_accesses = 2;
    prepare;
  }
