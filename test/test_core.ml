(* End-to-end tests for the core library: every initiation mechanism
   moves real bytes through a real machine, protection is enforced by
   the MMU on the shadow aliases, atomics work through all variants,
   and the Api catalog is consistent. *)

open Uldma_mem
open Uldma_cpu
open Uldma_os
open Uldma_dma
module Mech = Uldma.Mech
module Api = Uldma.Api
module Stub = Uldma.Session.Stub

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let config ?(mechanism = Engine.Ext_shadow) () =
  {
    Kernel.default_config with
    Kernel.ram_size = 64 * Layout.page_size;
    mechanism;
    backend = Kernel.Local { bytes_per_s = 1e9 };
  }

type rig = {
  kernel : Kernel.t;
  process : Process.t;
  src : int;
  dst : int;
  result_va : int;
}

let make_rig (mech : Mech.t) =
  let kernel =
    Kernel.create
      (match mech.Mech.engine_mechanism with
      | Some mechanism -> config ~mechanism ()
      | None -> config ())
  in
  let process = Kernel.spawn kernel ~name:mech.Mech.name ~program:[||] () in
  let src = Kernel.alloc_pages kernel process ~n:2 ~perms:Perms.read_write in
  let dst = Kernel.alloc_pages kernel process ~n:2 ~perms:Perms.read_write in
  let result_va = Kernel.alloc_pages kernel process ~n:1 ~perms:Perms.read_write in
  let prepared =
    mech.Mech.prepare kernel process ~src:{ Mech.vaddr = src; pages = 2 }
      ~dst:{ Mech.vaddr = dst; pages = 2 }
  in
  ({ kernel; process; src; dst; result_va }, prepared)

let fill_pattern rig =
  for i = 0 to 63 do
    Kernel.write_user rig.kernel rig.process (rig.src + (8 * i)) (i * 3)
  done

let pattern_arrived rig =
  let ok = ref true in
  for i = 0 to 63 do
    if Kernel.read_user rig.kernel rig.process (rig.dst + (8 * i)) <> i * 3 then ok := false
  done;
  !ok

let run_one_dma (mech : Mech.t) =
  let rig, prepared = make_rig mech in
  fill_pattern rig;
  Process.set_program rig.process
    (Stub.build_single ~vsrc:rig.src ~vdst:rig.dst ~size:512 ~result_va:rig.result_va
       ~emit_dma:prepared.Mech.emit_dma);
  (match Kernel.run rig.kernel ~max_steps:100_000 () with
  | Kernel.All_exited -> ()
  | Kernel.Max_steps | Kernel.Predicate -> Alcotest.fail "did not finish");
  rig

(* each mechanism, end to end: data moves, the stub sees success *)
let test_mechanism_moves_data (mech : Mech.t) () =
  let rig = run_one_dma mech in
  checki "stub saw success" 1 (Stub.read_successes rig.kernel rig.process ~result_va:rig.result_va);
  checkb "bytes arrived" true (pattern_arrived rig);
  checki "exactly one transfer" 1 (List.length (Engine.transfers (Kernel.engine rig.kernel)));
  checkb "process exited cleanly" true (rig.process.Process.state = Process.Exited Process.Normal)

let test_kernel_modification_flags () =
  let flagged =
    List.filter (fun m -> m.Mech.requires_kernel_modification) Api.all |> List.map (fun m -> m.Mech.name)
  in
  Alcotest.(check (list string))
    "prior-art baselines plus the related-work mechanisms"
    [ "shrimp-2"; "flash"; "iommu"; "capio" ]
    flagged

let test_paper_mechanisms_unmodified_kernel () =
  (* the paper's pitch: its mechanisms run on an unmodified kernel *)
  List.iter
    (fun (mech : Mech.t) ->
      let rig = run_one_dma mech in
      checkb (mech.Mech.name ^ " leaves the kernel unmodified") false
        (Kernel.kernel_modified rig.kernel))
    Api.no_kernel_modification

let test_baselines_install_hooks () =
  List.iter
    (fun name ->
      let rig = run_one_dma (Api.find_exn name) in
      checkb (name ^ " required a kernel modification") true (Kernel.kernel_modified rig.kernel))
    [ "shrimp-2"; "flash" ]

(* protection: the shadow alias of a read-only destination page is
   read-only, so passing it as a DMA destination faults in the MMU
   before anything reaches the engine *)
let test_ext_shadow_readonly_dst_faults () =
  let kernel = Kernel.create (config ()) in
  let p = Kernel.spawn kernel ~name:"evil" ~program:[||] () in
  let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let dst = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_only in
  (match Kernel.alloc_dma_context kernel p with Some _ -> () | None -> Alcotest.fail "ctx");
  ignore (Kernel.map_shadow_alias kernel p ~vaddr:src ~n:1 ~window:`Dma : int);
  ignore (Kernel.map_shadow_alias kernel p ~vaddr:dst ~n:1 ~window:`Dma : int);
  let result_va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  Process.set_program p
    (Stub.build_single ~vsrc:src ~vdst:dst ~size:64 ~result_va
       ~emit_dma:Uldma.Ext_shadow.emit_dma);
  ignore (Kernel.run kernel ~max_steps:10_000 () : Kernel.run_result);
  (match p.Process.state with
  | Process.Exited (Process.Killed_fault _) -> ()
  | s -> Alcotest.failf "expected fault kill, got %a" Process.pp_state s);
  checki "no transfer" 0 (List.length (Engine.transfers (Kernel.engine kernel)))

(* a process with no shadow mapping at all cannot reach the engine *)
let test_no_alias_no_access () =
  let kernel = Kernel.create (config ()) in
  let p = Kernel.spawn kernel ~name:"blind" ~program:[||] () in
  let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  Process.set_program p
    (Asm.assemble_list
       [
         Isa.Li (1, src + Vm.shadow_va_offset);
         Isa.Store (1, 0, 2) (* unmapped shadow page *);
         Isa.Halt;
       ]);
  ignore (Kernel.run kernel ~max_steps:10_000 () : Kernel.run_result);
  match p.Process.state with
  | Process.Exited (Process.Killed_fault _) -> ()
  | s -> Alcotest.failf "expected fault kill, got %a" Process.pp_state s

(* key-based: a stub armed with the wrong key is rejected *)
let test_key_dma_wrong_key_rejected () =
  let kernel = Kernel.create (config ~mechanism:Engine.Key_based ()) in
  let p = Kernel.spawn kernel ~name:"guesser" ~program:[||] () in
  let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let dst = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let result_va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let context, key, context_page_va =
    match Kernel.alloc_dma_context kernel p with Some x -> x | None -> Alcotest.fail "ctx"
  in
  ignore (Kernel.map_shadow_alias kernel p ~vaddr:src ~n:1 ~window:`Dma : int);
  ignore (Kernel.map_shadow_alias kernel p ~vaddr:dst ~n:1 ~window:`Dma : int);
  let wrong = Uldma_dma.Regmap.key_word ~key:(key lxor 1) ~context in
  Process.set_program p
    (Stub.build_single ~vsrc:src ~vdst:dst ~size:64 ~result_va
       ~emit_dma:(Uldma.Key_dma.emit_dma_with ~key:wrong ~context_page_va));
  ignore (Kernel.run kernel ~max_steps:10_000 () : Kernel.run_result);
  checki "stub saw failure" 0 (Stub.read_successes kernel p ~result_va);
  checki "nothing started" 0 (List.length (Engine.transfers (Kernel.engine kernel)));
  checkb "key rejections counted" true
    ((Engine.counters (Kernel.engine kernel)).Engine.key_rejected >= 2)

(* shrimp-1 ignores the destination argument: data lands on the twin *)
let test_shrimp1_fixed_destination () =
  let mech = Api.find_exn "shrimp-1" in
  let rig, prepared = make_rig mech in
  fill_pattern rig;
  let elsewhere = Kernel.alloc_pages rig.kernel rig.process ~n:1 ~perms:Perms.read_write in
  Process.set_program rig.process
    (Stub.build_single ~vsrc:rig.src ~vdst:elsewhere ~size:512 ~result_va:rig.result_va
       ~emit_dma:prepared.Mech.emit_dma);
  ignore (Kernel.run rig.kernel ~max_steps:100_000 () : Kernel.run_result);
  checkb "data on the mapped-out twin, not vdst" true (pattern_arrived rig);
  checki "elsewhere untouched" 0 (Kernel.read_user rig.kernel rig.process elsewhere)

(* pal: the PAL function is installed once and is 4 instructions *)
let test_pal_body_fits () =
  checkb "within the 16-instruction limit" true
    (Array.length Uldma.Pal_dma.pal_body <= Pal.max_instructions)

let test_mech_regions_validated () =
  let kernel = Kernel.create (config ()) in
  let p = Kernel.spawn kernel ~name:"x" ~program:[||] () in
  checkb "unaligned region rejected" true
    (try
       ignore
         (Uldma.Kernel_dma.mech.Mech.prepare kernel p ~src:{ Mech.vaddr = 17; pages = 1 }
            ~dst:{ Mech.vaddr = 0; pages = 1 }
          : Mech.prepared);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Atomics *)

let atomic_rig variant =
  let mechanism =
    match Uldma.Atomic.engine_mechanism variant with
    | Some m -> m
    | None -> Engine.Ext_shadow
  in
  let kernel = Kernel.create (config ~mechanism ()) in
  let p = Kernel.spawn kernel ~name:"atomic" ~program:[||] () in
  let counter = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let prepared = Uldma.Atomic.prepare variant kernel p ~region:{ Mech.vaddr = counter; pages = 1 } in
  (kernel, p, counter, prepared)

let test_atomic_add variant () =
  let kernel, p, counter, prepared = atomic_rig variant in
  Kernel.write_user kernel p counter 100;
  let asm = Asm.create () in
  Asm.li asm 1 counter;
  Asm.li asm 5 7;
  prepared.Uldma.Atomic.emit_add asm ~operand:5;
  Asm.halt asm;
  Process.set_program p (Asm.assemble asm);
  ignore (Kernel.run kernel ~max_steps:10_000 () : Kernel.run_result);
  checki "old value returned" 100 (Regfile.get p.Process.ctx.Cpu.regs 0);
  checki "incremented" 107 (Kernel.read_user kernel p counter)

let test_atomic_fetch_store variant () =
  let kernel, p, counter, prepared = atomic_rig variant in
  Kernel.write_user kernel p counter 4;
  let asm = Asm.create () in
  Asm.li asm 1 counter;
  Asm.li asm 5 9;
  prepared.Uldma.Atomic.emit_fetch_store asm ~operand:5;
  Asm.halt asm;
  Process.set_program p (Asm.assemble asm);
  ignore (Kernel.run kernel ~max_steps:10_000 () : Kernel.run_result);
  checki "old value" 4 (Regfile.get p.Process.ctx.Cpu.regs 0);
  checki "swapped" 9 (Kernel.read_user kernel p counter)

let test_atomic_cas variant () =
  let kernel, p, counter, prepared = atomic_rig variant in
  Kernel.write_user kernel p counter 5;
  let asm = Asm.create () in
  (* successful CAS 5 -> 6 *)
  Asm.li asm 1 counter;
  Asm.li asm 5 5;
  Asm.li asm 6 6;
  prepared.Uldma.Atomic.emit_cas asm ~expected:5 ~desired:6;
  Asm.mov asm 10 0;
  (* failing CAS: expects 5 but the cell now holds 6 *)
  Asm.li asm 1 counter;
  Asm.li asm 5 5;
  Asm.li asm 6 77;
  prepared.Uldma.Atomic.emit_cas asm ~expected:5 ~desired:6;
  Asm.halt asm;
  Process.set_program p (Asm.assemble asm);
  ignore (Kernel.run kernel ~max_steps:10_000 () : Kernel.run_result);
  checki "first cas returned old" 5 (Regfile.get p.Process.ctx.Cpu.regs 10);
  checki "second cas returned current" 6 (Regfile.get p.Process.ctx.Cpu.regs 0);
  checki "cell is 6 (second cas failed)" 6 (Kernel.read_user kernel p counter)

(* ------------------------------------------------------------------ *)
(* Api *)

let test_api_catalog () =
  checki "thirteen mechanisms" 13 (List.length Api.all);
  checki "matrix6 rows" 6 (List.length Api.matrix6);
  checki "table1 rows" 4 (List.length Api.table1);
  checkb "names unique" true
    (List.length (List.sort_uniq compare Api.names) = List.length Api.names);
  checkb "find" true (Api.find "ext-shadow" <> None);
  checkb "find missing" true (Api.find "nonsense" = None);
  checkb "find_exn raises" true
    (try
       ignore (Api.find_exn "nonsense" : Mech.t);
       false
     with Invalid_argument _ -> true)

let test_api_kernel_config () =
  let c = Api.kernel_config (Api.find_exn "key-based") in
  checkb "mechanism set" true (c.Kernel.mechanism = Engine.Key_based);
  let c2 = Api.kernel_config (Api.find_exn "kernel") in
  checkb "kernel path keeps base" true (c2.Kernel.mechanism = Kernel.default_config.Kernel.mechanism)

let test_api_access_counts () =
  (* the paper's headline: 2 to 5 accesses, all issued from user level *)
  List.iter
    (fun (name, expected) -> checki name expected (Api.find_exn name).Mech.ni_accesses)
    [ ("ext-shadow", 2); ("rep-args", 5); ("key-based", 4); ("rep-args-3", 3); ("rep-args-4", 4) ]

let mechanism_cases =
  List.map
    (fun (mech : Mech.t) ->
      Alcotest.test_case (mech.Mech.name ^ " moves data") `Quick (test_mechanism_moves_data mech))
    (List.filter (fun m -> m.Mech.name <> "rep-args-3" && m.Mech.name <> "rep-args-4") Api.all)
(* the deliberately vulnerable variants are exercised in the attack and
   verification suites; they also move data, but are not part of the
   supported API surface *)

let atomic_cases =
  List.concat_map
    (fun variant ->
      let name = Uldma.Atomic.variant_name variant in
      [
        Alcotest.test_case (name ^ " add") `Quick (test_atomic_add variant);
        Alcotest.test_case (name ^ " fetch_store") `Quick (test_atomic_fetch_store variant);
        Alcotest.test_case (name ^ " cas") `Quick (test_atomic_cas variant);
      ])
    [
      Uldma.Atomic.Kernel_initiated;
      Uldma.Atomic.Ext_shadow_initiated;
      Uldma.Atomic.Key_initiated;
      Uldma.Atomic.Pal_initiated;
    ]

let () =
  Alcotest.run "core"
    [
      ("mechanisms", mechanism_cases);
      ( "protection",
        [
          Alcotest.test_case "kernel modification flags" `Quick test_kernel_modification_flags;
          Alcotest.test_case "paper mechanisms: unmodified kernel" `Quick
            test_paper_mechanisms_unmodified_kernel;
          Alcotest.test_case "baselines install hooks" `Quick test_baselines_install_hooks;
          Alcotest.test_case "read-only destination faults" `Quick
            test_ext_shadow_readonly_dst_faults;
          Alcotest.test_case "no alias, no access" `Quick test_no_alias_no_access;
          Alcotest.test_case "wrong key rejected" `Quick test_key_dma_wrong_key_rejected;
          Alcotest.test_case "shrimp-1 fixed destination" `Quick test_shrimp1_fixed_destination;
          Alcotest.test_case "pal body fits" `Quick test_pal_body_fits;
          Alcotest.test_case "regions validated" `Quick test_mech_regions_validated;
        ] );
      ("atomics", atomic_cases);
      ( "api",
        [
          Alcotest.test_case "catalog" `Quick test_api_catalog;
          Alcotest.test_case "kernel_config" `Quick test_api_kernel_config;
          Alcotest.test_case "access counts" `Quick test_api_access_counts;
        ] );
    ]
