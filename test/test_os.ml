(* Tests for the os library: scheduler, frame allocator, processes,
   and the kernel (execution loop, syscalls, setup services, hooks). *)

open Uldma_mem
open Uldma_mmu
open Uldma_cpu
open Uldma_os
open Uldma_dma

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sched *)

let pick t ~current ~runnable = Sched.pick t ~current ~runnable

let test_sched_empty () =
  let s = Sched.create Sched.Run_to_completion in
  checkb "no runnable" true (pick s ~current:None ~runnable:[] = None)

let test_sched_run_to_completion () =
  let s = Sched.create Sched.Run_to_completion in
  Alcotest.(check (option int)) "picks first" (Some 1) (pick s ~current:None ~runnable:[ 1; 2 ]);
  Alcotest.(check (option int)) "stays" (Some 1) (pick s ~current:(Some 1) ~runnable:[ 1; 2 ]);
  Alcotest.(check (option int))
    "moves when current exits" (Some 2)
    (pick s ~current:(Some 1) ~runnable:[ 2 ])

let test_sched_round_robin () =
  let s = Sched.create (Sched.Round_robin { quantum = 2 }) in
  let take current runnable =
    match pick s ~current ~runnable with Some p -> p | None -> Alcotest.fail "no pick"
  in
  let p1 = take None [ 1; 2 ] in
  checki "starts at 1" 1 p1;
  checki "keeps within quantum" 1 (take (Some 1) [ 1; 2 ]);
  checki "preempts after quantum" 2 (take (Some 1) [ 1; 2 ])

let test_sched_round_robin_cycles () =
  let s = Sched.create (Sched.Round_robin { quantum = 1 }) in
  let seq = ref [] in
  let current = ref None in
  for _ = 1 to 6 do
    match pick s ~current:!current ~runnable:[ 1; 2; 3 ] with
    | Some p ->
      seq := p :: !seq;
      current := Some p
    | None -> Alcotest.fail "no pick"
  done;
  (* quantum 1: every instruction goes to the next process *)
  Alcotest.(check (list int)) "rotation" [ 1; 2; 3; 1; 2; 3 ] (List.rev !seq)

let test_sched_random_deterministic () =
  let run () =
    let s = Sched.create (Sched.Random_preempt { probability = 0.5; seed = 3 }) in
    let acc = ref [] in
    let current = ref None in
    for _ = 1 to 50 do
      match pick s ~current:!current ~runnable:[ 1; 2; 3 ] with
      | Some p ->
        acc := p :: !acc;
        current := Some p
      | None -> ()
    done;
    !acc
  in
  Alcotest.(check (list int)) "same seed, same schedule" (run ()) (run ())

let test_sched_copy () =
  let s = Sched.create (Sched.Random_preempt { probability = 0.5; seed = 5 }) in
  ignore (pick s ~current:None ~runnable:[ 1; 2; 3 ]);
  let s2 = Sched.copy s in
  let picks s =
    List.init 20 (fun _ -> pick s ~current:(Some 1) ~runnable:[ 1; 2; 3 ])
  in
  let copied = picks s2 in
  (* the copy continues from the original's RNG state, and drawing from
     it leaves the original's stream alone *)
  Alcotest.(check (list (option int))) "original unaffected" copied (picks s)

let test_sched_full_coverage_under_random () =
  (* under random preemption every runnable pid eventually runs *)
  let s = Sched.create (Sched.Random_preempt { probability = 0.5; seed = 9 }) in
  let seen = Hashtbl.create 8 in
  let current = ref None in
  for _ = 1 to 500 do
    match Sched.pick s ~current:!current ~runnable:[ 1; 2; 3; 4 ] with
    | Some p ->
      Hashtbl.replace seen p ();
      current := Some p
    | None -> ()
  done;
  checki "all four scheduled" 4 (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Vm *)

let test_vm_alloc () =
  let vm = Vm.create ~ram_size:(32 * Layout.page_size) in
  checki "16 reserved of 32" 16 (Vm.frames_free vm);
  (match Vm.alloc_frame vm with
  | Some f -> checkb "first frame past reserved" true (f >= 16)
  | None -> Alcotest.fail "should allocate");
  checki "one gone" 15 (Vm.frames_free vm)

let test_vm_exhaustion_and_free () =
  let vm = Vm.create ~ram_size:(17 * Layout.page_size) in
  let f = match Vm.alloc_frame vm with Some f -> f | None -> Alcotest.fail "alloc" in
  checkb "exhausted" true (Vm.alloc_frame vm = None);
  Vm.free_frame vm f;
  checkb "freed frame reusable" true (Vm.alloc_frame vm = Some f)

let test_vm_distinct_frames () =
  let vm = Vm.create ~ram_size:(32 * Layout.page_size) in
  let frames = List.init 16 (fun _ -> match Vm.alloc_frame vm with Some f -> f | None -> -1) in
  checki "all distinct" 16 (List.length (List.sort_uniq compare frames))

(* ------------------------------------------------------------------ *)
(* Kernel helpers *)

let small_config =
  { Kernel.default_config with Kernel.ram_size = 64 * Layout.page_size }

let fresh ?(config = small_config) () = Kernel.create config

let spawn_with kernel instrs =
  Kernel.spawn kernel ~name:"t" ~program:(Asm.assemble_list instrs) ()

(* a program writing [value] to its page at [va] then exiting by Halt *)
let writer_program ~va ~value = [ Isa.Li (1, va); Isa.Li (2, value); Isa.Store (1, 0, 2); Isa.Halt ]

let test_kernel_run_simple_program () =
  let kernel = fresh () in
  let p = Kernel.spawn kernel ~name:"w" ~program:[||] () in
  let va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  Process.set_program p (Asm.assemble_list (writer_program ~va ~value:1234));
  checkb "all exited" true (Kernel.run kernel () = Kernel.All_exited);
  checki "memory effect" 1234 (Kernel.read_user kernel p va);
  checkb "state" true (p.Process.state = Process.Exited Process.Normal)

let test_kernel_spawn_pids_increase () =
  let kernel = fresh () in
  let a = spawn_with kernel [ Isa.Halt ] and b = spawn_with kernel [ Isa.Halt ] in
  checkb "distinct increasing" true (b.Process.pid > a.Process.pid);
  checki "two processes" 2 (List.length (Kernel.processes kernel))

let test_kernel_time_advances () =
  let kernel = fresh () in
  ignore (spawn_with kernel [ Isa.Nop; Isa.Nop; Isa.Halt ]);
  ignore (Kernel.run kernel () : Kernel.run_result);
  checkb "clock moved" true (Kernel.now_ps kernel > 0)

let test_kernel_fault_kills () =
  let kernel = fresh () in
  let p = spawn_with kernel [ Isa.Li (1, 0x5000); Isa.Load (2, 1, 0); Isa.Halt ] in
  ignore (Kernel.run kernel () : Kernel.run_result);
  match p.Process.state with
  | Process.Exited (Process.Killed_fault (Addr_space.No_mapping _)) -> ()
  | s -> Alcotest.failf "expected fault kill, got %a" Process.pp_state s

let test_kernel_protection_kills () =
  let kernel = fresh () in
  let p = Kernel.spawn kernel ~name:"w" ~program:[||] () in
  let va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_only in
  Process.set_program p (Asm.assemble_list (writer_program ~va ~value:1));
  ignore (Kernel.run kernel () : Kernel.run_result);
  match p.Process.state with
  | Process.Exited (Process.Killed_fault (Addr_space.Protection (_, Addr_space.Write))) -> ()
  | s -> Alcotest.failf "expected protection kill, got %a" Process.pp_state s

let test_kernel_sys_exit_and_print () =
  let kernel = fresh () in
  let p =
    spawn_with kernel
      [
        Isa.Li (1, 777);
        Isa.Li (0, Sysno.sys_print);
        Isa.Syscall;
        Isa.Li (0, Sysno.sys_exit);
        Isa.Syscall;
        Isa.Li (1, 888) (* unreachable *);
        Isa.Halt;
      ]
  in
  ignore (Kernel.run kernel () : Kernel.run_result);
  Alcotest.(check (list (pair int int))) "console" [ (p.Process.pid, 777) ] (Kernel.console kernel);
  checki "did not run past exit" 777 (Regfile.get p.Process.ctx.Cpu.regs 1)

let test_kernel_sys_get_time () =
  let kernel = fresh () in
  let p = spawn_with kernel [ Isa.Li (0, Sysno.sys_get_time); Isa.Syscall; Isa.Halt ] in
  ignore (Kernel.run kernel () : Kernel.run_result);
  let reported = Regfile.get p.Process.ctx.Cpu.regs 0 in
  checkb "nanoseconds sane" true (reported > 0 && reported < 1_000_000)

let test_kernel_bad_syscall_kills () =
  let kernel = fresh () in
  let p = spawn_with kernel [ Isa.Li (0, 99); Isa.Syscall; Isa.Halt ] in
  ignore (Kernel.run kernel () : Kernel.run_result);
  match p.Process.state with
  | Process.Exited (Process.Killed _) -> ()
  | s -> Alcotest.failf "expected kill, got %a" Process.pp_state s

let test_kernel_sys_yield_rotates () =
  let kernel = fresh () in
  let yield_then_print tag =
    [
      Isa.Li (0, Sysno.sys_yield);
      Isa.Syscall;
      Isa.Li (1, tag);
      Isa.Li (0, Sysno.sys_print);
      Isa.Syscall;
      Isa.Halt;
    ]
  in
  let a = spawn_with kernel (yield_then_print 1) in
  let b = spawn_with kernel (yield_then_print 2) in
  ignore (a, b);
  ignore (Kernel.run kernel () : Kernel.run_result);
  checki "both printed" 2 (List.length (Kernel.console kernel))

let test_kernel_sys_dma () =
  let config = { small_config with Kernel.backend = Kernel.Local { bytes_per_s = 1e9 } } in
  let kernel = fresh ~config () in
  let p = Kernel.spawn kernel ~name:"dma" ~program:[||] () in
  let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let dst = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  Kernel.write_user kernel p src 0xfeedface;
  Process.set_program p
    (Asm.assemble_list
       [
         Isa.Li (1, src);
         Isa.Li (2, dst);
         Isa.Li (3, 64);
         Isa.Li (0, Sysno.sys_dma);
         Isa.Syscall;
         Isa.Halt;
       ]);
  ignore (Kernel.run kernel () : Kernel.run_result);
  checkb "status success" true (Regfile.get p.Process.ctx.Cpu.regs 0 >= 0);
  checki "data copied" 0xfeedface (Kernel.read_user kernel p dst);
  checki "one transfer" 1 (List.length (Engine.transfers (Kernel.engine kernel)))

let test_kernel_sys_dma_rejects_bad_perms () =
  let kernel = fresh () in
  let p = Kernel.spawn kernel ~name:"dma" ~program:[||] () in
  let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let dst = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_only in
  Process.set_program p
    (Asm.assemble_list
       [
         Isa.Li (1, src);
         Isa.Li (2, dst) (* read-only destination *);
         Isa.Li (3, 64);
         Isa.Li (0, Sysno.sys_dma);
         Isa.Syscall;
         Isa.Halt;
       ]);
  ignore (Kernel.run kernel () : Kernel.run_result);
  checki "status failure" Status.failure (Regfile.get p.Process.ctx.Cpu.regs 0);
  checki "nothing started" 0 (List.length (Engine.transfers (Kernel.engine kernel)))

let test_kernel_sys_dma_rejects_unmapped () =
  let kernel = fresh () in
  let p = Kernel.spawn kernel ~name:"dma" ~program:[||] () in
  let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  Process.set_program p
    (Asm.assemble_list
       [
         Isa.Li (1, src);
         Isa.Li (2, 0x700000) (* unmapped *);
         Isa.Li (3, 64);
         Isa.Li (0, Sysno.sys_dma);
         Isa.Syscall;
         Isa.Halt;
       ]);
  ignore (Kernel.run kernel () : Kernel.run_result);
  checki "status failure" Status.failure (Regfile.get p.Process.ctx.Cpu.regs 0)

let test_kernel_sys_sbrk () =
  let kernel = fresh () in
  let p =
    spawn_with kernel
      [
        Isa.Li (1, 2);
        Isa.Li (0, Sysno.sys_sbrk);
        Isa.Syscall;
        Isa.Mov (10, 0) (* va *);
        Isa.Li (2, 9999);
        Isa.Store (10, 0, 2) (* write to the new page *);
        Isa.Load (11, 10, 0);
        Isa.Halt;
      ]
  in
  ignore (Kernel.run kernel () : Kernel.run_result);
  checkb "va returned" true (Regfile.get p.Process.ctx.Cpu.regs 10 > 0);
  checki "new page usable" 9999 (Regfile.get p.Process.ctx.Cpu.regs 11);
  (* exhaustion returns -1 instead of killing *)
  let q = spawn_with kernel [ Isa.Li (1, 100000); Isa.Li (0, Sysno.sys_sbrk); Isa.Syscall; Isa.Halt ] in
  ignore (Kernel.run kernel () : Kernel.run_result);
  checki "out of memory" (-1) (Regfile.get q.Process.ctx.Cpu.regs 0)

let test_kernel_sys_atomic () =
  let config = { small_config with Kernel.backend = Kernel.Local { bytes_per_s = 1e9 } } in
  let kernel = fresh ~config () in
  let p = Kernel.spawn kernel ~name:"at" ~program:[||] () in
  let va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  Kernel.write_user kernel p va 10;
  Process.set_program p
    (Asm.assemble_list
       [
         Isa.Li (1, va);
         Isa.Li (2, Sysno.atomic_add);
         Isa.Li (3, 5);
         Isa.Li (0, Sysno.sys_atomic);
         Isa.Syscall;
         Isa.Mov (10, 0) (* save old value *);
         Isa.Li (1, va);
         Isa.Li (2, Sysno.atomic_cas);
         Isa.Li (3, 15);
         Isa.Li (4, 99);
         Isa.Li (0, Sysno.sys_atomic);
         Isa.Syscall;
         Isa.Halt;
       ]);
  ignore (Kernel.run kernel () : Kernel.run_result);
  checki "add returned old" 10 (Regfile.get p.Process.ctx.Cpu.regs 10);
  checki "cas returned old" 15 (Regfile.get p.Process.ctx.Cpu.regs 0);
  checki "final value" 99 (Kernel.read_user kernel p va)

let test_kernel_sys_sleep () =
  let kernel = fresh () in
  let p =
    spawn_with kernel
      [
        Isa.Li (1, 5000) (* 5 us *);
        Isa.Li (0, Sysno.sys_sleep);
        Isa.Syscall;
        Isa.Li (0, Sysno.sys_get_time);
        Isa.Syscall;
        Isa.Halt;
      ]
  in
  ignore (Kernel.run kernel () : Kernel.run_result);
  checkb "woke after 5us" true (Regfile.get p.Process.ctx.Cpu.regs 0 >= 5000);
  checkb "exited" true (p.Process.state = Process.Exited Process.Normal)

let test_kernel_sleepers_interleave () =
  (* two sleepers with different deadlines wake in order *)
  let kernel = fresh () in
  let sleeper ns tag =
    spawn_with kernel
      [
        Isa.Li (1, ns);
        Isa.Li (0, Sysno.sys_sleep);
        Isa.Syscall;
        Isa.Li (1, tag);
        Isa.Li (0, Sysno.sys_print);
        Isa.Syscall;
        Isa.Halt;
      ]
  in
  let _a = sleeper 50_000 1 (* 50 us *) in
  let _b = sleeper 5_000 2 (* 5 us *) in
  ignore (Kernel.run kernel () : Kernel.run_result);
  Alcotest.(check (list int)) "wake order" [ 2; 1 ] (List.map snd (Kernel.console kernel))

let test_kernel_sys_dma_wait () =
  (* slow backend: 8 KiB at ~19 MB/s is ~430 us of wire time *)
  let config =
    { small_config with
      Kernel.mechanism = Engine.Ext_shadow;
      backend = Kernel.Local { bytes_per_s = 19e6 } }
  in
  let kernel = fresh ~config () in
  let p = Kernel.spawn kernel ~name:"waiter" ~program:[||] () in
  let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let dst = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  (match Kernel.alloc_dma_context kernel p with Some _ -> () | None -> Alcotest.fail "ctx");
  ignore (Kernel.map_shadow_alias kernel p ~vaddr:src ~n:1 ~window:`Dma : int);
  ignore (Kernel.map_shadow_alias kernel p ~vaddr:dst ~n:1 ~window:`Dma : int);
  let asm = Asm.create () in
  Asm.li asm 1 src;
  Asm.li asm 2 dst;
  Asm.li asm 3 8192;
  Uldma.Ext_shadow.emit_dma asm;
  Asm.mov asm 10 0 (* status at initiation: remaining > 0 *);
  Asm.li asm 0 Sysno.sys_dma_wait;
  Asm.syscall asm;
  Asm.mov asm 11 0 (* wait result *);
  Asm.li asm 0 Sysno.sys_get_time;
  Asm.syscall asm;
  Asm.halt asm;
  Process.set_program p (Asm.assemble asm);
  ignore (Kernel.run kernel () : Kernel.run_result);
  let regs = p.Process.ctx.Cpu.regs in
  checkb "remaining at initiation" true (Regfile.get regs 10 > 0);
  checki "wait succeeded" 0 (Regfile.get regs 11);
  checkb "woke after the wire time" true (Regfile.get regs 0 > 400_000 (* ns *))

let test_kernel_sys_dma_wait_nothing () =
  let kernel = fresh () in
  let p =
    spawn_with kernel [ Isa.Li (0, Sysno.sys_dma_wait); Isa.Syscall; Isa.Halt ]
  in
  ignore (Kernel.run kernel () : Kernel.run_result);
  checki "nothing to wait for" (-1) (Regfile.get p.Process.ctx.Cpu.regs 0)

(* ------------------------------------------------------------------ *)
(* Kernel setup services *)

let test_kernel_alloc_pages_zeroed_and_mapped () =
  let kernel = fresh () in
  let p = Kernel.spawn kernel ~name:"m" ~program:[||] () in
  let va = Kernel.alloc_pages kernel p ~n:2 ~perms:Perms.read_write in
  checkb "page aligned" true (Layout.is_page_aligned va);
  checki "zeroed" 0 (Kernel.read_user kernel p (va + Layout.page_size));
  let va2 = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  checki "bump allocated" (va + (2 * Layout.page_size)) va2

let test_kernel_share_pages () =
  let kernel = fresh () in
  let a = Kernel.spawn kernel ~name:"a" ~program:[||] () in
  let b = Kernel.spawn kernel ~name:"b" ~program:[||] () in
  let va = Kernel.alloc_pages kernel a ~n:1 ~perms:Perms.read_write in
  Kernel.write_user kernel a va 555;
  let vb = Kernel.share_pages kernel ~from_process:a ~vaddr:va ~n:1 ~into:b ~perms:Perms.read_only in
  checki "b sees a's data" 555 (Kernel.read_user kernel b vb);
  checki "same physical frame" (Kernel.user_paddr kernel a va) (Kernel.user_paddr kernel b vb);
  match Addr_space.find_page b.Process.addr_space ~vpage:(Layout.page_of vb) with
  | Some pte -> checkb "read-only in b" true (Perms.equal pte.Pte.perms Perms.read_only)
  | None -> Alcotest.fail "mapping missing"

let test_kernel_map_shadow_alias () =
  let kernel = fresh ~config:{ small_config with Kernel.mechanism = Engine.Key_based } () in
  let p = Kernel.spawn kernel ~name:"s" ~program:[||] () in
  let va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let sva = Kernel.map_shadow_alias kernel p ~vaddr:va ~n:1 ~window:`Dma in
  checki "fixed offset" (va + Vm.shadow_va_offset) sva;
  (match Addr_space.find_page p.Process.addr_space ~vpage:(Layout.page_of sva) with
  | Some pte ->
    checkb "uncacheable" false pte.Pte.cacheable;
    let paddr = pte.Pte.frame lsl Layout.page_shift in
    checkb "shadow tagged" true (Shadow.is_shadow paddr);
    checki "aliases the data frame" (Kernel.user_paddr kernel p va)
      (Shadow.decode_exn paddr).Shadow.paddr
  | None -> Alcotest.fail "alias missing");
  (* permissions mirror the data page *)
  let ro = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_only in
  let sro = Kernel.map_shadow_alias kernel p ~vaddr:ro ~n:1 ~window:`Dma in
  match Addr_space.find_page p.Process.addr_space ~vpage:(Layout.page_of sro) with
  | Some pte -> checkb "alias read-only" true (Perms.equal pte.Pte.perms Perms.read_only)
  | None -> Alcotest.fail "alias missing"

let test_kernel_atomic_alias_window () =
  let kernel = fresh ~config:{ small_config with Kernel.mechanism = Engine.Key_based } () in
  let p = Kernel.spawn kernel ~name:"s" ~program:[||] () in
  let va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let ava = Kernel.map_shadow_alias kernel p ~vaddr:va ~n:1 ~window:`Atomic in
  checki "atomic offset" (va + Vm.atomic_va_offset) ava;
  match Addr_space.find_page p.Process.addr_space ~vpage:(Layout.page_of ava) with
  | Some pte ->
    checkb "atomic window bit" true
      (Shadow.decode_exn (pte.Pte.frame lsl Layout.page_shift)).Shadow.atomic
  | None -> Alcotest.fail "alias missing"

let test_kernel_ext_shadow_alias_carries_context () =
  let config = { small_config with Kernel.mechanism = Engine.Ext_shadow } in
  let kernel = fresh ~config () in
  let p = Kernel.spawn kernel ~name:"s" ~program:[||] () in
  let va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  (* without a context the kernel refuses *)
  checkb "requires context" true
    (try
       ignore (Kernel.map_shadow_alias kernel p ~vaddr:va ~n:1 ~window:`Dma : int);
       false
     with Failure _ -> true);
  let context, _, _ =
    match Kernel.alloc_dma_context kernel p with Some x -> x | None -> Alcotest.fail "no ctx"
  in
  let sva = Kernel.map_shadow_alias kernel p ~vaddr:va ~n:1 ~window:`Dma in
  match Addr_space.find_page p.Process.addr_space ~vpage:(Layout.page_of sva) with
  | Some pte ->
    checki "context in physical address" context
      (Shadow.decode_exn (pte.Pte.frame lsl Layout.page_shift)).Shadow.context
  | None -> Alcotest.fail "alias missing"

let test_kernel_map_remote_pages () =
  let kernel = fresh () in
  let p = Kernel.spawn kernel ~name:"r" ~program:[||] () in
  let va = Kernel.map_remote_pages kernel p ~remote_paddr:(4 * Layout.page_size) ~n:2 ~perms:Perms.read_write in
  (match Addr_space.find_page p.Process.addr_space ~vpage:(Layout.page_of va) with
  | Some pte ->
    checkb "uncacheable" false pte.Pte.cacheable;
    checki "frame in remote window" (Layout.remote_base + (4 * Layout.page_size))
      (pte.Pte.frame lsl Layout.page_shift)
  | None -> Alcotest.fail "mapping missing");
  checkb "unaligned rejected" true
    (try
       ignore (Kernel.map_remote_pages kernel p ~remote_paddr:12 ~n:1 ~perms:Perms.read_write : int);
       false
     with Invalid_argument _ -> true)

let test_kernel_alloc_dma_context () =
  let kernel = fresh () in
  let p = Kernel.spawn kernel ~name:"c" ~program:[||] () in
  let context, key, va =
    match Kernel.alloc_dma_context kernel p with Some x -> x | None -> Alcotest.fail "no ctx"
  in
  checki "context page va" Vm.context_page_va va;
  checkb "key non-trivial" true (key > 0xffff);
  checkb "process records it" true (p.Process.dma_context = Some context);
  (* the engine got the key *)
  checki "engine key" key (Context_file.get (Engine.contexts (Kernel.engine kernel)) context).Context_file.key;
  (* context page mapped uncacheable rw *)
  match Addr_space.find_page p.Process.addr_space ~vpage:(Layout.page_of va) with
  | Some pte ->
    checkb "uncacheable" false pte.Pte.cacheable;
    checki "frame is the context page" (Layout.context_page context)
      (pte.Pte.frame lsl Layout.page_shift)
  | None -> Alcotest.fail "context page unmapped"

let test_kernel_contexts_exhaust_and_free () =
  let config = { small_config with Kernel.n_contexts = 2 } in
  let kernel = fresh ~config () in
  let procs = List.init 3 (fun i -> Kernel.spawn kernel ~name:(string_of_int i) ~program:[||] ()) in
  let results = List.map (Kernel.alloc_dma_context kernel) procs in
  checki "two succeed" 2 (List.length (List.filter (fun r -> r <> None) results));
  (match procs with
  | first :: _ ->
    Kernel.free_dma_context kernel first;
    checkb "freed context reusable" true (Kernel.alloc_dma_context kernel first <> None)
  | [] -> assert false)

let test_kernel_hooks_flags () =
  let kernel = fresh () in
  checkb "unmodified by default" false (Kernel.kernel_modified kernel);
  Kernel.install_shrimp_hook kernel;
  checkb "modified after hook" true (Kernel.kernel_modified kernel)

let test_kernel_flash_hook_updates_engine () =
  let config = { small_config with Kernel.mechanism = Engine.Flash } in
  let kernel = fresh ~config () in
  Kernel.install_flash_hook kernel;
  let a = spawn_with kernel [ Isa.Nop; Isa.Halt ] in
  let b = spawn_with kernel [ Isa.Nop; Isa.Halt ] in
  ignore (a, b);
  ignore (Kernel.run kernel () : Kernel.run_result);
  checkb "context switches happened" true (Kernel.context_switches kernel >= 2)

let test_kernel_copy_independent () =
  let kernel = fresh () in
  let p = Kernel.spawn kernel ~name:"w" ~program:[||] () in
  let va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  Process.set_program p (Asm.assemble_list (writer_program ~va ~value:42));
  let snap = Kernel.copy kernel in
  ignore (Kernel.run kernel () : Kernel.run_result);
  checki "original ran" 42 (Kernel.read_user kernel p va);
  (* the snapshot has not run; its process is still ready *)
  let sp = match Kernel.find_process snap p.Process.pid with Some x -> x | None -> Alcotest.fail "gone" in
  checkb "snapshot still ready" true (Process.is_runnable sp);
  checki "snapshot memory untouched" 0 (Kernel.read_user snap sp va);
  ignore (Kernel.run snap () : Kernel.run_result);
  checki "snapshot runs independently" 42 (Kernel.read_user snap sp va)

let test_kernel_step_pid () =
  let kernel = fresh () in
  let a = spawn_with kernel [ Isa.Li (1, 1); Isa.Halt ] in
  let b = spawn_with kernel [ Isa.Li (1, 2); Isa.Halt ] in
  checkb "step b" true (Kernel.step_pid kernel b.Process.pid = `Ok);
  checki "b advanced" 2 (Regfile.get b.Process.ctx.Cpu.regs 1);
  checki "a untouched" 0 (Regfile.get a.Process.ctx.Cpu.regs 1);
  checkb "unknown pid" true (Kernel.step_pid kernel 99 = `Not_runnable)

(* One data access is one host call that charges, in order, its TLB
   miss (only when the translation missed) and its access: after the
   switch flushes the TLB, the first load of a page pays the miss, the
   second does not, and a faulting load pays only its instruction price. *)
let test_kernel_access_charges () =
  let kernel = fresh () in
  let tm = Kernel.timing kernel in
  let p = Kernel.spawn kernel ~name:"loads" ~program:[||] () in
  let va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  Process.set_program p
    (Asm.assemble_list
       Isa.[ Li (1, va); Load (2, 1, 0); Load (3, 1, 8); Li (4, 0); Load (5, 4, 0) ]);
  let step () =
    let t0 = Kernel.now_ps kernel in
    checkb "stepped" true (Kernel.step_pid kernel p.Process.pid = `Ok);
    Kernel.now_ps kernel - t0
  in
  ignore (step () : int);
  let instr = Uldma_bus.Timing.instruction_ps tm
  and hit = Uldma_bus.Timing.cached_access_ps tm
  and miss = Uldma_bus.Timing.tlb_miss_ps tm in
  checki "first load misses" (instr + miss + hit) (step ());
  checki "second load hits" (instr + hit) (step ());
  checki "li" instr (step ());
  let faulting = step () in
  checkb "fault kills" false (Process.is_runnable p);
  checki "a fault charges only its instruction price" instr faulting

let test_kernel_run_until () =
  let kernel = fresh () in
  ignore (spawn_with kernel [ Isa.Nop; Isa.Nop; Isa.Nop; Isa.Halt ]);
  let r = Kernel.run_until kernel (fun k -> Kernel.now_ps k > 0) in
  checkb "predicate fired" true (r = Kernel.Predicate)

let test_kernel_max_steps () =
  let kernel = fresh () in
  (* infinite loop *)
  ignore (spawn_with kernel [ Isa.Jmp 0 ]);
  checkb "bounded" true (Kernel.run kernel ~max_steps:100 () = Kernel.Max_steps)

let test_kernel_pal_execution () =
  let kernel = fresh () in
  let body = Asm.assemble_list [ Isa.Add (1, 1, Isa.Imm 5) ] in
  (match Kernel.install_pal kernel ~index:3 body with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let p = spawn_with kernel [ Isa.Li (1, 10); Isa.Call_pal 3; Isa.Halt ] in
  ignore (Kernel.run kernel () : Kernel.run_result);
  checki "pal effect" 15 (Regfile.get p.Process.ctx.Cpu.regs 1)

let test_kernel_pal_missing_kills () =
  let kernel = fresh () in
  let p = spawn_with kernel [ Isa.Call_pal 9; Isa.Halt ] in
  ignore (Kernel.run kernel () : Kernel.run_result);
  match p.Process.state with
  | Process.Exited (Process.Killed _) -> ()
  | s -> Alcotest.failf "expected kill, got %a" Process.pp_state s

let test_kernel_pal_not_preempted () =
  (* Round-robin quantum 1 preempts between every instruction, but a
     PAL body must execute atomically. Two processes both increment a
     shared counter via read-modify-write in PAL: no update is lost. *)
  let config =
    { small_config with Kernel.sched = Sched.Round_robin { quantum = 1 } }
  in
  let kernel = fresh ~config () in
  let owner = Kernel.spawn kernel ~name:"owner" ~program:[||] () in
  let counter_va = Kernel.alloc_pages kernel owner ~n:1 ~perms:Perms.read_write in
  Process.set_program owner (Asm.assemble_list [ Isa.Halt ]);
  let body =
    Asm.assemble_list [ Isa.Load (2, 1, 0); Isa.Add (2, 2, Isa.Imm 1); Isa.Store (1, 0, 2) ]
  in
  (match Kernel.install_pal kernel ~index:1 body with Ok () -> () | Error e -> Alcotest.fail e);
  let increments = 20 in
  let make_proc name =
    let p = Kernel.spawn kernel ~name ~program:[||] () in
    let shared =
      Kernel.share_pages kernel ~from_process:owner ~vaddr:counter_va ~n:1 ~into:p
        ~perms:Perms.read_write
    in
    let asm = Asm.create () in
    let loop = Asm.fresh_label asm "loop" in
    Asm.li asm 10 0;
    Asm.li asm 11 increments;
    Asm.li asm 1 shared;
    Asm.label asm loop;
    Asm.call_pal asm 1;
    Asm.add asm 10 10 (Isa.Imm 1);
    Asm.blt asm 10 11 loop;
    Asm.halt asm;
    Process.set_program p (Asm.assemble asm)
  in
  make_proc "inc1";
  make_proc "inc2";
  ignore (Kernel.run kernel () : Kernel.run_result);
  checki "no lost updates" (2 * increments) (Kernel.read_user kernel owner counter_va)

let () =
  Alcotest.run "os"
    [
      ( "sched",
        [
          Alcotest.test_case "empty" `Quick test_sched_empty;
          Alcotest.test_case "run to completion" `Quick test_sched_run_to_completion;
          Alcotest.test_case "round robin quantum" `Quick test_sched_round_robin;
          Alcotest.test_case "round robin cycles" `Quick test_sched_round_robin_cycles;
          Alcotest.test_case "random deterministic" `Quick test_sched_random_deterministic;
          Alcotest.test_case "copy" `Quick test_sched_copy;
          Alcotest.test_case "random covers all pids" `Quick test_sched_full_coverage_under_random;
        ] );
      ( "vm",
        [
          Alcotest.test_case "alloc" `Quick test_vm_alloc;
          Alcotest.test_case "exhaustion and free" `Quick test_vm_exhaustion_and_free;
          Alcotest.test_case "distinct frames" `Quick test_vm_distinct_frames;
        ] );
      ( "kernel-exec",
        [
          Alcotest.test_case "run simple program" `Quick test_kernel_run_simple_program;
          Alcotest.test_case "pids increase" `Quick test_kernel_spawn_pids_increase;
          Alcotest.test_case "time advances" `Quick test_kernel_time_advances;
          Alcotest.test_case "fault kills" `Quick test_kernel_fault_kills;
          Alcotest.test_case "protection kills" `Quick test_kernel_protection_kills;
          Alcotest.test_case "step_pid" `Quick test_kernel_step_pid;
          Alcotest.test_case "access charges" `Quick test_kernel_access_charges;
          Alcotest.test_case "run_until" `Quick test_kernel_run_until;
          Alcotest.test_case "max_steps" `Quick test_kernel_max_steps;
          Alcotest.test_case "copy independent" `Quick test_kernel_copy_independent;
        ] );
      ( "syscalls",
        [
          Alcotest.test_case "exit and print" `Quick test_kernel_sys_exit_and_print;
          Alcotest.test_case "get_time" `Quick test_kernel_sys_get_time;
          Alcotest.test_case "bad syscall kills" `Quick test_kernel_bad_syscall_kills;
          Alcotest.test_case "yield rotates" `Quick test_kernel_sys_yield_rotates;
          Alcotest.test_case "sys_dma" `Quick test_kernel_sys_dma;
          Alcotest.test_case "sys_dma bad perms" `Quick test_kernel_sys_dma_rejects_bad_perms;
          Alcotest.test_case "sys_dma unmapped" `Quick test_kernel_sys_dma_rejects_unmapped;
          Alcotest.test_case "sys_sbrk" `Quick test_kernel_sys_sbrk;
          Alcotest.test_case "sys_sleep" `Quick test_kernel_sys_sleep;
          Alcotest.test_case "sleepers wake in order" `Quick test_kernel_sleepers_interleave;
          Alcotest.test_case "sys_dma_wait" `Quick test_kernel_sys_dma_wait;
          Alcotest.test_case "sys_dma_wait with nothing" `Quick test_kernel_sys_dma_wait_nothing;
          Alcotest.test_case "sys_atomic" `Quick test_kernel_sys_atomic;
        ] );
      ( "setup",
        [
          Alcotest.test_case "alloc_pages" `Quick test_kernel_alloc_pages_zeroed_and_mapped;
          Alcotest.test_case "share_pages" `Quick test_kernel_share_pages;
          Alcotest.test_case "map_shadow_alias" `Quick test_kernel_map_shadow_alias;
          Alcotest.test_case "atomic alias window" `Quick test_kernel_atomic_alias_window;
          Alcotest.test_case "ext-shadow alias context" `Quick
            test_kernel_ext_shadow_alias_carries_context;
          Alcotest.test_case "map_remote_pages" `Quick test_kernel_map_remote_pages;
          Alcotest.test_case "alloc_dma_context" `Quick test_kernel_alloc_dma_context;
          Alcotest.test_case "contexts exhaust/free" `Quick test_kernel_contexts_exhaust_and_free;
          Alcotest.test_case "hooks flag" `Quick test_kernel_hooks_flags;
          Alcotest.test_case "flash hook runs" `Quick test_kernel_flash_hook_updates_engine;
        ] );
      ( "pal",
        [
          Alcotest.test_case "execution" `Quick test_kernel_pal_execution;
          Alcotest.test_case "missing kills" `Quick test_kernel_pal_missing_kills;
          Alcotest.test_case "not preempted" `Quick test_kernel_pal_not_preempted;
        ] );
    ]
