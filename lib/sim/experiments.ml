open Uldma_util
open Uldma_mem
open Uldma_bus
open Uldma_os
open Uldma_dma
module Mech = Uldma.Mech
module Api = Uldma.Api
module Oracle = Uldma_verify.Oracle
module Explorer = Uldma_verify.Explorer
module Scenario = Uldma_workload.Scenario
module Stub = Uldma.Session.Stub

type experiment = {
  id : string;
  title : string;
  paper_ref : string;
  run : unit -> Tbl.t;
}

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let paper_us = [ ("kernel", 18.6); ("ext-shadow", 1.1); ("rep-args", 2.6); ("key-based", 2.3) ]

let paper_cell name =
  match List.assoc_opt name paper_us with Some v -> Tbl.cell_us v | None -> "-"

let extra_rows = [ Uldma.Pal_dma.mech; Uldma.Shrimp1.mech; Uldma.Shrimp2.mech; Uldma.Flash.mech ]

let table1 ?(iterations = 1000) () =
  let tbl =
    Tbl.create ~title:"Table 1: DMA initiation latency (DEC Alpha 3000/300, TurboChannel 12.5 MHz)"
      ~columns:
        [
          ("mechanism", Tbl.Left);
          ("paper (us)", Tbl.Right);
          ("measured (us)", Tbl.Right);
          ("NI accesses", Tbl.Right);
          ("kernel modification", Tbl.Left);
        ]
  in
  let row (m : Mech.t) =
    let r = Measure.initiation ~iterations m in
    if r.Measure.successes <> r.Measure.iterations then
      failwith (Printf.sprintf "table1: %s had failures" m.Mech.name);
    Tbl.add_row tbl
      [
        m.Mech.name;
        paper_cell m.Mech.name;
        Printf.sprintf "%.2f" r.Measure.us_per_initiation;
        string_of_int m.Mech.ni_accesses;
        (if m.Mech.requires_kernel_modification then "required" else "none");
      ]
  in
  List.iter row Api.table1;
  Tbl.add_rule tbl;
  List.iter row extra_rows;
  tbl

(* ------------------------------------------------------------------ *)
(* Six-mechanism matrix: cost, protection, atomicity *)

let matrix6 () =
  let module Synth = Uldma_workload.Synth in
  let tbl =
    Tbl.create
      ~title:
        "Six-mechanism matrix: initiation cost, exhaustive protection verdict, collusion \
         surface (slots 2)"
      ~columns:
        [
          ("mechanism", Tbl.Left);
          ("initiation (us)", Tbl.Right);
          ("NI accesses", Tbl.Right);
          ("kernel modification", Tbl.Left);
          ("exhaustive scenario", Tbl.Left);
          ("schedules", Tbl.Right);
          ("verdict", Tbl.Left);
          ("collusion (viol/cand)", Tbl.Left);
        ]
  in
  let subjects =
    [
      Synth.Pal;
      Synth.Key;
      Synth.Ext;
      Synth.Rep Uldma_dma.Seq_matcher.Five;
      Synth.Iommu;
      Synth.Capio;
    ]
  in
  List.iter
    (fun subject ->
      let m = Synth.subject_mech subject in
      let r = Measure.initiation ~iterations:300 m in
      if r.Measure.successes <> r.Measure.iterations then
        failwith (Printf.sprintf "matrix6: %s had failures" m.Mech.name);
      let scenario_name, s =
        match subject with
        | Synth.Pal -> ("pal contested", Scenario.pal_contested ())
        | Synth.Key -> ("key contested", Scenario.key_contested ())
        | Synth.Ext -> ("ext-shadow contested", Scenario.ext_shadow_contested ())
        | Synth.Rep _ -> ("rep5 vs Fig. 5 splicer", Scenario.rep5 ())
        | Synth.Iommu -> ("iommu contested", Scenario.iommu_contested ())
        | Synth.Capio -> ("capio contested", Scenario.capio_contested ())
      in
      let er =
        Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s)
          ~max_paths:1_000_000 ~check:(Scenario.oracle_check s) ()
      in
      let verdict =
        match (er.Explorer.truncated, Explorer.verdict er) with
        | false, Explorer.Safe -> "SAFE (exactly-once)"
        | false, Explorer.Vulnerable n -> Printf.sprintf "VULNERABLE (%d)" n
        | true, _ | _, Explorer.Inconclusive ->
          failwith (Printf.sprintf "matrix6: %s exploration truncated" m.Mech.name)
      in
      let cr = Synth.run_cell ~slots:2 subject in
      let cell = cr.Synth.cr_cell in
      let collusion =
        if cell.Synth.cell_violating = 0 then
          Printf.sprintf "0/%d" cell.Synth.cell_candidates
        else
          Printf.sprintf "%d/%d (%s)" cell.Synth.cell_violating cell.Synth.cell_candidates
            cell.Synth.cell_witness
      in
      Tbl.add_row tbl
        [
          m.Mech.name;
          Printf.sprintf "%.2f" r.Measure.us_per_initiation;
          string_of_int m.Mech.ni_accesses;
          (if m.Mech.requires_kernel_modification then "required" else "none");
          scenario_name;
          string_of_int er.Explorer.paths;
          verdict;
          collusion;
        ])
    subjects;
  tbl

(* ------------------------------------------------------------------ *)
(* Bus and OS sweeps *)

let bus_presets = [ ("12.5 MHz", Timing.alpha3000_300); ("33 MHz", Timing.pci33); ("66 MHz", Timing.pci66) ]

(* §3.4's remark: Table 1 re-run at TurboChannel 12.5, PCI 33 and
   PCI 66 MHz. *)
let bus_sweep () =
  let tbl =
    Tbl.create ~title:"Bus-frequency sweep (sec. 3.4 remark: 'recent buses, like PCI, run at 66 MHz')"
      ~columns:
        (("mechanism", Tbl.Left)
        :: List.map (fun (name, _) -> (name ^ " (us)", Tbl.Right)) bus_presets)
  in
  List.iter
    (fun (m : Mech.t) ->
      let cells =
        List.map
          (fun (_, timing) ->
            let base = { Kernel.default_config with Kernel.timing } in
            let r = Measure.initiation ~base ~iterations:300 m in
            Printf.sprintf "%.2f" r.Measure.us_per_initiation)
          bus_presets
      in
      Tbl.add_row tbl (m.Mech.name :: cells))
    Api.table1;
  tbl

(* §2.2's range: kernel-level initiation as the empty-syscall cost
   sweeps 1000..5000 cycles; user-level mechanisms are unaffected. *)
let os_sweep () =
  let tbl =
    Tbl.create
      ~title:
        "OS-overhead sweep (sec. 2.2: empty syscall costs 1000-5000 cycles on commercial UNIX)"
      ~columns:
        [
          ("syscall cycles", Tbl.Right);
          ("kernel DMA (us)", Tbl.Right);
          ("ext-shadow (us)", Tbl.Right);
          ("ratio", Tbl.Right);
        ]
  in
  List.iter
    (fun cycles ->
      let timing = Timing.with_syscall_cycles Timing.alpha3000_300 cycles in
      let base = { Kernel.default_config with Kernel.timing } in
      let k = Measure.initiation ~base ~iterations:300 Uldma.Kernel_dma.mech in
      let e = Measure.initiation ~base ~iterations:300 Uldma.Ext_shadow.mech in
      Tbl.add_row tbl
        [
          string_of_int cycles;
          Printf.sprintf "%.2f" k.Measure.us_per_initiation;
          Printf.sprintf "%.2f" e.Measure.us_per_initiation;
          Printf.sprintf "%.0fx" (k.Measure.us_per_initiation /. e.Measure.us_per_initiation);
        ])
    [ 1000; 2000; 2300; 3000; 4000; 5000 ];
  tbl

(* ------------------------------------------------------------------ *)
(* Crossover: initiation overhead vs wire time *)

let crossover () =
  let kernel_us =
    (Measure.initiation ~iterations:300 Uldma.Kernel_dma.mech).Measure.us_per_initiation
  in
  let ext_us =
    (Measure.initiation ~iterations:300 Uldma.Ext_shadow.mech).Measure.us_per_initiation
  in
  let tbl =
    Tbl.create
      ~title:
        (Printf.sprintf
           "Initiation overhead as %% of total message time (kernel %.1f us vs ext-shadow %.2f us)"
           kernel_us ext_us)
      ~columns:
        [
          ("network", Tbl.Left);
          ("message", Tbl.Right);
          ("wire (us)", Tbl.Right);
          ("kernel init %", Tbl.Right);
          ("user init %", Tbl.Right);
        ]
  in
  let sizes = [ 64; 256; 1024; 4096; 16384; 65536 ] in
  let first = ref true in
  List.iter
    (fun link ->
      if not !first then Tbl.add_rule tbl;
      first := false;
      List.iter
        (fun size ->
          let wire_us = Units.to_us (Uldma_net.Link.wire_time_ps link size) in
          let pct init = 100.0 *. init /. (init +. wire_us) in
          Tbl.add_row tbl
            [
              link.Uldma_net.Link.name;
              Format.asprintf "%a" Units.pp_bytes size;
              Printf.sprintf "%.1f" wire_us;
              Printf.sprintf "%.0f%%" (pct kernel_us);
              Printf.sprintf "%.0f%%" (pct ext_us);
            ])
        sizes)
    [ Uldma_net.Link.atm155; Uldma_net.Link.atm622; Uldma_net.Link.gigabit ];
  tbl

(* ------------------------------------------------------------------ *)
(* Attack reproductions *)

let describe_violations report =
  match report.Oracle.violations with
  | [] -> "none"
  | vs -> String.concat "; " (List.map (Format.asprintf "%a" Oracle.pp_violation) vs)

let race_row tbl name hooked (s : Scenario.t) schedule =
  Scenario.run_legs s schedule;
  Scenario.finish s ();
  let report = Scenario.report s in
  Tbl.add_row tbl
    [
      name;
      (if hooked then "modified (hook installed)" else "UNMODIFIED");
      string_of_int (List.length (Scenario.transfers s));
      string_of_int (Scenario.victim_last_status s);
      describe_violations report;
    ]

let fig2_shrimp () =
  let tbl =
    Tbl.create
      ~title:
        "Fig. 2 baselines under the argument-mixing race (victim store / attacker store / victim load)"
      ~columns:
        [
          ("mechanism", Tbl.Left);
          ("kernel", Tbl.Left);
          ("transfers", Tbl.Right);
          ("victim status", Tbl.Right);
          ("oracle violations", Tbl.Left);
        ]
  in
  race_row tbl "shrimp-2" false (Scenario.shrimp2_race ~hook:false) Scenario.shrimp2_schedule;
  race_row tbl "shrimp-2" true (Scenario.shrimp2_race ~hook:true) Scenario.shrimp2_schedule;
  race_row tbl "flash" false (Scenario.flash_race ~hook:false) Scenario.shrimp2_schedule;
  race_row tbl "flash" true (Scenario.flash_race ~hook:true) Scenario.shrimp2_schedule;
  race_row tbl "ext-shadow-stateless" false (Scenario.ext_stateless_race ())
    Scenario.shrimp2_schedule;
  tbl

let attack_table ~title scenario schedule =
  let s = Scenario.traced scenario in
  Scenario.run_legs s schedule;
  Scenario.finish s ();
  let report = Scenario.report s in
  let tbl = Tbl.create ~title ~columns:[ ("observation", Tbl.Left); ("value", Tbl.Left) ] in
  (* the interleaving diagram, as in the paper's figure *)
  List.iteri
    (fun i (_, actor, access) ->
      Tbl.add_row tbl [ Printf.sprintf "%d: %s" (i + 1) actor; access ])
    (Scenario.access_timeline s);
  Tbl.add_rule tbl;
  Tbl.add_row tbl [ "transfers started"; string_of_int (List.length (Scenario.transfers s)) ];
  List.iter
    (fun tr -> Tbl.add_row tbl [ "  transfer"; Format.asprintf "%a" Transfer.pp tr ])
    (Scenario.transfers s);
  Tbl.add_row tbl [ "victim observed successes"; string_of_int (Scenario.victim_successes s) ];
  Tbl.add_row tbl [ "victim final status"; string_of_int (Scenario.victim_last_status s) ];
  Tbl.add_row tbl [ "oracle"; describe_violations report ];
  tbl

let fig5_attack3 () =
  attack_table
    ~title:
      "Fig. 5: attack on the 3-access variant — attacker transfers its data (C) into the victim's destination (B)"
    (fun () -> Scenario.fig5 ()) Scenario.fig5_schedule

let fig6_attack4 () =
  attack_table
    ~title:
      "Fig. 6: attack on the 4-access variant — the DMA starts but the victim is told it failed"
    Scenario.fig6 Scenario.fig6_schedule

(* The five-access method under heavy random preemption: retries
   happen, the DMA still completes exactly once, oracle clean. *)
let fig7_retry () =
  let tbl =
    Tbl.create
      ~title:
        "Fig. 7: the five-access method under heavy random preemption (with the Fig. 5 attacker running)"
      ~columns:
        [
          ("seed", Tbl.Right);
          ("victim successes", Tbl.Right);
          ("transfers", Tbl.Right);
          ("broken sequences (retries)", Tbl.Right);
          ("oracle", Tbl.Left);
        ]
  in
  List.iter
    (fun seed ->
      let s = Scenario.rep5_with_retry () in
      Scenario.run_random s ~seed ~switch_probability:0.25;
      let report = Scenario.report s in
      let counters = Engine.counters (Kernel.engine s.Scenario.kernel) in
      Tbl.add_row tbl
        [
          string_of_int seed;
          string_of_int (Scenario.victim_successes s);
          string_of_int (List.length (Scenario.transfers s));
          string_of_int counters.Engine.rejected;
          describe_violations report;
        ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  tbl

(* With copy-on-write snapshots the explorer comfortably affords a much
   higher path bound than the seed's 200k default; state it explicitly
   so the proof's coverage envelope is visible in one place. All seven
   variants complete exhaustively far below this. *)
let fig8_max_paths = 1_000_000

let fig8_proof () =
  let tbl =
    Tbl.create
      ~title:
        "Fig. 8 / sec. 3.3.1: exhaustive interleaving exploration of the repeated-passing variants vs the adversary"
      ~columns:
        [
          ("variant", Tbl.Left);
          ("schedules", Tbl.Right);
          ("violating schedules", Tbl.Right);
          ("complete", Tbl.Left);
          ("verdict", Tbl.Left);
        ]
  in
  let explore name =
    let e = Option.get (Scenario.find name) in
    let s = Scenario.instance e in
    let r =
      Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s)
        ~max_paths:fig8_max_paths ~check:(Scenario.oracle_check s) ()
    in
    let n_viol = List.length r.Explorer.violations in
    Tbl.add_row tbl
      [
        e.Scenario.title;
        string_of_int r.Explorer.paths;
        string_of_int n_viol;
        (if r.Explorer.truncated then "TRUNCATED" else "yes");
        (match Explorer.verdict r with
        | Explorer.Safe -> "SAFE under all schedules"
        | Explorer.Vulnerable _ -> "VULNERABLE"
        | Explorer.Inconclusive -> "INCONCLUSIVE");
      ]
  in
  List.iter explore [ "fig5"; "fig6"; "rep5"; "splice"; "ext-shadow"; "key-based"; "pal" ];
  tbl

(* ------------------------------------------------------------------ *)
(* Atomic operations (sec. 3.5) *)

let atomics () =
  let tbl =
    Tbl.create ~title:"Sec. 3.5: atomic operation (atomic_add) initiation cost"
      ~columns:
        [
          ("variant", Tbl.Left);
          ("us per op", Tbl.Right);
          ("speedup vs kernel", Tbl.Right);
          ("final counter", Tbl.Right);
        ]
  in
  let kernel_r = Measure.atomic_add_initiation Uldma.Atomic.Kernel_initiated in
  List.iter
    (fun variant ->
      let r = Measure.atomic_add_initiation variant in
      if r.Measure.final_counter <> r.Measure.iterations then
        failwith ("atomics: lost updates in " ^ r.Measure.variant);
      Tbl.add_row tbl
        [
          r.Measure.variant;
          Printf.sprintf "%.2f" r.Measure.us_per_op;
          Printf.sprintf "%.1fx" (kernel_r.Measure.us_per_op /. r.Measure.us_per_op);
          string_of_int r.Measure.final_counter;
        ])
    [
      Uldma.Atomic.Kernel_initiated;
      Uldma.Atomic.Ext_shadow_initiated;
      Uldma.Atomic.Key_initiated;
      Uldma.Atomic.Pal_initiated;
    ];
  tbl

(* ------------------------------------------------------------------ *)
(* Latency tails under contention *)

(* One-initiation wall-clock latency distribution while a compute
   process preempts at random: the retry-free mechanisms pay only for
   lost quanta; the repeated-passing method also pays for broken
   sequences. *)
let latency_tail () =
  let tbl =
    Tbl.create
      ~title:
        "Initiation latency under contention (one DMA vs a compute process, 25%-per-instruction random preemption, 150 runs)"
      ~columns:
        [
          ("mechanism", Tbl.Left);
          ("p50 (us)", Tbl.Right);
          ("p95 (us)", Tbl.Right);
          ("p99 (us)", Tbl.Right);
          ("max (us)", Tbl.Right);
        ]
  in
  List.iter
    (fun name ->
      let r = Measure.initiation_under_contention (Uldma.Api.find_exn name) in
      let s = r.Measure.latency_us in
      Tbl.add_row tbl
        [
          name;
          Printf.sprintf "%.1f" s.Uldma_util.Stats.p50;
          Printf.sprintf "%.1f" s.Uldma_util.Stats.p95;
          Printf.sprintf "%.1f" s.Uldma_util.Stats.p99;
          Printf.sprintf "%.1f" s.Uldma_util.Stats.max;
        ])
    [ "ext-shadow"; "key-based"; "rep-args"; "pal"; "kernel" ];
  tbl

(* ------------------------------------------------------------------ *)
(* Disk vs network: the paper's opening contrast *)

let disk_vs_net () =
  let kernel_us =
    (Measure.initiation ~iterations:300 Uldma.Kernel_dma.mech).Measure.us_per_initiation
  in
  let ext_us =
    (Measure.initiation ~iterations:300 Uldma.Ext_shadow.mech).Measure.us_per_initiation
  in
  let tbl =
    Tbl.create
      ~title:
        "Sec. 1: why disk DMA tolerated kernel initiation and network DMA does not (4 KiB requests)"
      ~columns:
        [
          ("device", Tbl.Left);
          ("service time", Tbl.Right);
          ("kernel init overhead", Tbl.Right);
          ("user init overhead", Tbl.Right);
        ]
  in
  let pct init_us total_us = Printf.sprintf "%.2f%%" (100.0 *. init_us /. (init_us +. total_us)) in
  let disk_row geometry =
    let disk = Uldma_io.Disk.create geometry in
    (* a representative 1/3-stroke random access *)
    let service =
      Units.to_us (Uldma_io.Disk.service_time disk ~block:(geometry.Uldma_io.Disk.blocks / 3))
    in
    Tbl.add_row tbl
      [
        geometry.Uldma_io.Disk.name;
        Printf.sprintf "%.0f us" service;
        pct kernel_us service;
        pct ext_us service;
      ]
  in
  disk_row Uldma_io.Disk.disk_1996;
  disk_row Uldma_io.Disk.disk_modern;
  Tbl.add_rule tbl;
  List.iter
    (fun (link : Uldma_net.Link.t) ->
      let wire = Units.to_us (Uldma_net.Link.wire_time_ps link 4096) in
      Tbl.add_row tbl
        [ link.Uldma_net.Link.name ^ " (4 KiB message)"; Printf.sprintf "%.0f us" wire; pct kernel_us wire; pct ext_us wire ])
    [ Uldma_net.Link.atm155; Uldma_net.Link.atm622; Uldma_net.Link.gigabit ];
  tbl

(* ------------------------------------------------------------------ *)
(* Accounting: where the time goes in a mixed workload *)

let accounting () =
  let config =
    {
      Kernel.default_config with
      Kernel.mechanism = Engine.Ext_shadow;
      backend = Kernel.Local { bytes_per_s = 1e9 };
      sched = Sched.Round_robin { quantum = 40 };
      ram_size = 2 * 1024 * 1024;
    }
  in
  let kernel = Kernel.create config in
  let mech = Uldma.Api.find_exn "ext-shadow" in
  let add_dma_user name iterations =
    let p = Kernel.spawn kernel ~name ~program:[||] () in
    let src = Kernel.alloc_pages kernel p ~n:2 ~perms:Perms.read_write in
    let dst = Kernel.alloc_pages kernel p ~n:2 ~perms:Perms.read_write in
    let result_va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
    let prepared =
      mech.Mech.prepare kernel p ~src:{ Mech.vaddr = src; pages = 2 }
        ~dst:{ Mech.vaddr = dst; pages = 2 }
    in
    Process.set_program p
      (Stub.build_loop
         {
           Stub.iterations;
           transfer_size = 1024;
           src_base = src;
           dst_base = dst;
           pages = 2;
           result_va;
         }
         ~emit_dma:prepared.Mech.emit_dma)
  in
  add_dma_user "sender-a" 150;
  add_dma_user "sender-b" 150;
  let busy = Kernel.spawn kernel ~name:"compute" ~program:[||] () in
  let asm = Uldma_cpu.Asm.create () in
  let loop = Uldma_cpu.Asm.fresh_label asm "busy" in
  Uldma_cpu.Asm.li asm 10 0;
  Uldma_cpu.Asm.li asm 11 4000;
  Uldma_cpu.Asm.label asm loop;
  Uldma_cpu.Asm.add asm 12 12 (Uldma_cpu.Isa.Imm 1);
  Uldma_cpu.Asm.add asm 10 10 (Uldma_cpu.Isa.Imm 1);
  Uldma_cpu.Asm.blt asm 10 11 loop;
  Uldma_cpu.Asm.halt asm;
  Process.set_program busy (Uldma_cpu.Asm.assemble asm);
  ignore (Kernel.run kernel ~max_steps:5_000_000 () : Kernel.run_result);
  Metrics.to_table (Metrics.snapshot kernel)

(* ------------------------------------------------------------------ *)
(* Ping-pong: two full machines exchanging messages over the wire *)

type pingpong_send = Remote_store | Ext_shadow_dma | Kernel_dma

(* Both nodes run the same program shape: the pinger sends k then
   spins on its local flag until the peer echoes k; the ponger waits
   first. Flags travel as Telegraphos remote writes or as 8-byte DMAs
   into the peer's flag word. *)
let pingpong_program ~rounds ~is_pinger ~local_flag ~remote_flag ~send =
  let asm = Uldma_cpu.Asm.create () in
  let send_k () =
    (match send with
    | Remote_store -> Uldma_cpu.Asm.store asm ~base:13 ~off:0 16
    | Ext_shadow_dma ->
      (* place k in the out-buffer (r14), then a 2-access DMA *)
      Uldma_cpu.Asm.store asm ~base:14 ~off:0 16;
      Uldma_cpu.Asm.mov asm Mech.reg_vsrc 14;
      Uldma_cpu.Asm.mov asm Mech.reg_vdst 13;
      Uldma_cpu.Asm.li asm Mech.reg_size 8;
      Uldma.Ext_shadow.emit_dma asm
    | Kernel_dma ->
      Uldma_cpu.Asm.store asm ~base:14 ~off:0 16;
      Uldma_cpu.Asm.mov asm Mech.reg_vsrc 14;
      Uldma_cpu.Asm.mov asm Mech.reg_vdst 13;
      Uldma_cpu.Asm.li asm Mech.reg_size 8;
      Uldma.Kernel_dma.emit_dma asm);
    Uldma_cpu.Asm.mb asm
  in
  let wait_k () =
    let spin = Uldma_cpu.Asm.fresh_label asm "spin" in
    Uldma_cpu.Asm.label asm spin;
    Uldma_cpu.Asm.load asm 4 ~base:12 ~off:0;
    Uldma_cpu.Asm.bne asm 4 16 spin
  in
  Uldma_cpu.Asm.li asm 12 local_flag;
  Uldma_cpu.Asm.li asm 13 remote_flag;
  Uldma_cpu.Asm.li asm 14 (local_flag + 64) (* out-buffer word *);
  Uldma_cpu.Asm.li asm 16 0 (* k *);
  Uldma_cpu.Asm.li asm 17 rounds;
  let round = Uldma_cpu.Asm.fresh_label asm "round" in
  Uldma_cpu.Asm.label asm round;
  Uldma_cpu.Asm.add asm 16 16 (Uldma_cpu.Isa.Imm 1);
  if is_pinger then begin
    send_k ();
    wait_k ()
  end
  else begin
    wait_k ();
    send_k ()
  end;
  Uldma_cpu.Asm.blt asm 16 17 round;
  Uldma_cpu.Asm.halt asm;
  Uldma_cpu.Asm.assemble asm

let pingpong_rtt ~link ~send ~rounds =
  let mechanism =
    match send with
    | Remote_store | Kernel_dma -> Engine.Ext_shadow
    | Ext_shadow_dma -> Engine.Ext_shadow
  in
  let config =
    {
      Kernel.default_config with
      Kernel.ram_size = 64 * Layout.page_size;
      mechanism;
      backend = Kernel.Local { bytes_per_s = 1e9 };
    }
  in
  (* a 2-node mesh on the new N-node surface: ping is node 0, pong is
     node 1 (plain remote offsets route to the successor, i.e. the peer) *)
  let cluster =
    Uldma.Cluster.create ~net:(Uldma_net.Backend.linked link) ~nodes:2 ~config ()
  in
  let setup node ~is_pinger =
    let kernel = Uldma.Cluster.node cluster node in
    let p = Kernel.spawn kernel ~name:(if is_pinger then "ping" else "pong") ~program:[||] () in
    let flag = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
    (p, flag)
  in
  (* two passes: allocate flags first to learn their physical bases *)
  let a, flag_a = setup 0 ~is_pinger:true in
  let b, flag_b = setup 1 ~is_pinger:false in
  let paddr_of node p flag = Kernel.user_paddr (Uldma.Cluster.node cluster node) p flag in
  let remote_for ~src ~dst p peer_paddr =
    Uldma.Cluster.map_remote cluster ~src ~dst p ~remote_paddr:peer_paddr ~n:1
      ~perms:Perms.read_write
  in
  let remote_a = remote_for ~src:0 ~dst:1 a (Layout.page_base (paddr_of 1 b flag_b)) in
  let remote_b = remote_for ~src:1 ~dst:0 b (Layout.page_base (paddr_of 0 a flag_a)) in
  let finish_setup node p ~is_pinger ~local_flag ~remote_flag =
    let kernel = Uldma.Cluster.node cluster node in
    (match send with
    | Ext_shadow_dma ->
      (match Kernel.alloc_dma_context kernel p with Some _ -> () | None -> failwith "ctx");
      ignore (Kernel.map_shadow_alias kernel p ~vaddr:local_flag ~n:1 ~window:`Dma : int);
      ignore (Kernel.map_shadow_alias kernel p ~vaddr:remote_flag ~n:1 ~window:`Dma : int)
    | Remote_store | Kernel_dma -> ());
    Process.set_program p
      (pingpong_program ~rounds ~is_pinger ~local_flag ~remote_flag ~send)
  in
  finish_setup 0 a ~is_pinger:true ~local_flag:flag_a ~remote_flag:remote_a;
  finish_setup 1 b ~is_pinger:false ~local_flag:flag_b ~remote_flag:remote_b;
  (match Uldma.Cluster.run cluster () with
  | Uldma.Cluster.All_exited -> ()
  | Uldma.Cluster.Max_steps | Uldma.Cluster.Predicate -> failwith "pingpong did not converge");
  Units.to_us (Uldma.Cluster.now_ps cluster) /. float_of_int rounds

(* A two-node [Uldma.Cluster] exchanging 8-byte messages: round-trip
   time when each message is launched by a Telegraphos remote store,
   by ext-shadow user-level DMA, and by a kernel-level DMA syscall. *)
let pingpong () =
  let tbl =
    Tbl.create
      ~title:"Ping-pong round-trip time between two full machines (one 8-byte message each way)"
      ~columns:
        [
          ("message launch", Tbl.Left);
          ("NI accesses", Tbl.Right);
          ("ATM 155 RTT (us)", Tbl.Right);
          ("GbE RTT (us)", Tbl.Right);
        ]
  in
  let rounds = 20 in
  List.iter
    (fun (name, send, accesses) ->
      let rtt link = pingpong_rtt ~link ~send ~rounds in
      Tbl.add_row tbl
        [
          name;
          accesses;
          Printf.sprintf "%.1f" (rtt Uldma_net.Link.atm155);
          Printf.sprintf "%.1f" (rtt Uldma_net.Link.gigabit);
        ])
    [
      ("remote store (Telegraphos write)", Remote_store, "1");
      ("ext-shadow user-level DMA", Ext_shadow_dma, "2");
      ("kernel-level DMA (syscall)", Kernel_dma, "4+trap");
    ];
  tbl

(* ------------------------------------------------------------------ *)
(* Key-width ablation: why "close to 60 bits" *)

(* §3.1's "60 bits" sized empirically: brute-force acceptance rate as
   the key field narrows. *)
let ablate_key_width () =
  let tbl =
    Tbl.create
      ~title:
        "Key-width ablation: Monte-Carlo acceptance of 200,000 random guesses per width"
      ~columns:
        [
          ("key width (bits)", Tbl.Right);
          ("expected hits", Tbl.Right);
          ("observed hits", Tbl.Right);
          ("verdict", Tbl.Left);
        ]
  in
  let guesses = 200_000 in
  List.iter
    (fun width ->
      let config = { Kernel.default_config with Kernel.mechanism = Engine.Key_based } in
      let kernel = Kernel.create config in
      let p = Kernel.spawn kernel ~name:"victim" ~program:[||] () in
      let data = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
      let context, key, _ =
        match Kernel.alloc_dma_context kernel p with Some x -> x | None -> assert false
      in
      (* narrow the key space: re-key the context to [width] bits *)
      let mask = (1 lsl width) - 1 in
      let narrow_key = key land mask in
      let engine = Kernel.engine kernel in
      ignore
        (Engine.device.Bus.handle engine Txn.Store
           ~paddr:(Layout.kernel_control_page + Regmap.key_offset ~context)
           ~value:narrow_key ~pid:(-1)
          : int);
      let shadow = Uldma_mmu.Shadow.encode (Kernel.user_paddr kernel p data) in
      let rng = Rng.create ~seed:(1000 + width) in
      let hits = ref 0 in
      for _ = 1 to guesses do
        let guess = Rng.dma_key rng land mask in
        let c = Context_file.get (Engine.contexts engine) context in
        Context_file.clear_args c;
        ignore
          (Engine.device.Bus.handle engine Txn.Store ~paddr:shadow
           ~value:(Regmap.key_word ~key:guess ~context)
           ~pid:99
            : int);
        if c.Context_file.dest <> None then incr hits
      done;
      let expected = float_of_int guesses /. (2.0 ** float_of_int width) in
      Tbl.add_row tbl
        [
          string_of_int width;
          Printf.sprintf "%.1f" expected;
          string_of_int !hits;
          (if width >= 40 then "practically unguessable"
           else if !hits > 0 then "BREAKABLE by brute force"
           else "marginal");
        ])
    [ 8; 12; 16; 24; 40; 58 ];
  tbl

(* ------------------------------------------------------------------ *)
(* Calibration (lmbench-style validation of the cost model) *)

(* Run a loop program in a fresh machine and return the per-iteration
   cost in picoseconds, after subtracting the empty-loop baseline. *)
let loop_cost ~iterations ~setup ~body =
  let run with_body =
    let config = { Kernel.default_config with Kernel.ram_size = 64 * Layout.page_size } in
    let kernel = Kernel.create config in
    let p = Kernel.spawn kernel ~name:"cal" ~program:[||] () in
    setup kernel p;
    let asm = Uldma_cpu.Asm.create () in
    let loop = Uldma_cpu.Asm.fresh_label asm "cal_loop" in
    Uldma_cpu.Asm.li asm 10 0;
    Uldma_cpu.Asm.li asm 11 iterations;
    Uldma_cpu.Asm.label asm loop;
    if with_body then body kernel p asm;
    Uldma_cpu.Asm.add asm 10 10 (Uldma_cpu.Isa.Imm 1);
    Uldma_cpu.Asm.blt asm 10 11 loop;
    Uldma_cpu.Asm.halt asm;
    Process.set_program p (Uldma_cpu.Asm.assemble asm);
    let t0 = Kernel.now_ps kernel in
    (match Kernel.run kernel ~max_steps:(100 * iterations) () with
    | Kernel.All_exited -> ()
    | Kernel.Max_steps | Kernel.Predicate -> failwith "calibration loop did not finish");
    (Kernel.now_ps kernel - t0) / iterations
  in
  run true - run false

let calibration () =
  let tm = Timing.alpha3000_300 in
  let tbl =
    Tbl.create
      ~title:
        "Calibration check (lmbench-style): measured primitive costs vs the configured model"
      ~columns:
        [
          ("primitive", Tbl.Left);
          ("configured", Tbl.Right);
          ("measured", Tbl.Right);
          ("note", Tbl.Left);
        ]
  in
  let iterations = 500 in
  let ps_cell ps = Format.asprintf "%a" Units.pp_time ps in
  let no_setup _ _ = () in
  let row name ~configured ~extra_instr ~setup ~body note =
    let measured = loop_cost ~iterations ~setup ~body in
    (* the body's own instruction-issue costs are part of the model *)
    let measured = measured - (extra_instr * Timing.instruction_ps tm) in
    Tbl.add_row tbl [ name; ps_cell configured; ps_cell measured; note ]
  in
  row "empty system call"
    ~configured:(Timing.syscall_ps tm)
    ~extra_instr:2 ~setup:no_setup
    ~body:(fun _ _ asm ->
      Uldma_cpu.Asm.li asm 0 Sysno.sys_get_time;
      Uldma_cpu.Asm.syscall asm)
    "sec. 2.2: '1,000-5,000 processor cycles'";
  row "null PAL call"
    ~configured:(Timing.pal_call_ps tm)
    ~extra_instr:2
    ~setup:(fun kernel _ ->
      match Kernel.install_pal kernel ~index:7 [| Uldma_cpu.Isa.Nop |] with
      | Ok () -> ()
      | Error e -> failwith e)
    ~body:(fun _ _ asm -> Uldma_cpu.Asm.call_pal asm 7)
    "CALL_PAL dispatch + 1-instr body";
  row "uncached store (bus crossing)"
    ~configured:(Timing.uncached_ps tm Uldma_bus.Txn.Store)
    ~extra_instr:2
    ~setup:(fun kernel p ->
      match Kernel.alloc_dma_context kernel p with
      | Some _ -> ()
      | None -> failwith "no context")
    ~body:(fun _ _ asm ->
      Uldma_cpu.Asm.li asm 12 Vm.context_page_va;
      Uldma_cpu.Asm.store asm ~base:12 ~off:0 10)
    "7 bus cycles at 12.5 MHz";
  row "cached access"
    ~configured:(Timing.cached_access_ps tm)
    ~extra_instr:2
    ~setup:(fun kernel p ->
      ignore (Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write : int))
    ~body:(fun _ p asm ->
      Uldma_cpu.Asm.li asm 12 p.Process.next_va;
      Uldma_cpu.Asm.store asm ~base:12 ~off:(-8) 10)
    "cache-hit store to own page";
  tbl

(* ------------------------------------------------------------------ *)
(* Key security (sec. 3.1) *)

let key_security () =
  let tbl =
    Tbl.create
      ~title:"Sec. 3.1: 'It would be easier to guess the UNIX password than to guess a DMA key'"
      ~columns:[ ("observation", Tbl.Left); ("value", Tbl.Left) ]
  in
  let config = { Kernel.default_config with Kernel.mechanism = Engine.Key_based } in
  let kernel = Kernel.create config in
  let p = Kernel.spawn kernel ~name:"victim" ~program:[||] () in
  let data = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let context, key, _ =
    match Kernel.alloc_dma_context kernel p with Some x -> x | None -> assert false
  in
  let engine = Kernel.engine kernel in
  let paddr = Kernel.user_paddr kernel p data in
  let shadow = Uldma_mmu.Shadow.encode paddr in
  let rng = Rng.create ~seed:7 in
  let guesses = 200_000 in
  for _ = 1 to guesses do
    let guess = Rng.dma_key rng in
    ignore
      (Engine.device.Bus.handle engine Txn.Store ~paddr:shadow
         ~value:(Regmap.key_word ~key:guess ~context)
         ~pid:99
        : int)
  done;
  let counters = Engine.counters engine in
  (* positive control: the real key is accepted *)
  ignore
    (Engine.device.Bus.handle engine Txn.Store ~paddr:shadow
       ~value:(Regmap.key_word ~key ~context)
       ~pid:p.Process.pid
      : int);
  let accepted_ctx = Context_file.get (Engine.contexts engine) context in
  Tbl.add_row tbl [ "key width (bits)"; "58" ];
  Tbl.add_row tbl [ "analytic P(single guess)"; "2^-58 ~= 3.5e-18" ];
  Tbl.add_row tbl [ "random guesses tried"; string_of_int guesses ];
  Tbl.add_row tbl [ "guesses rejected"; string_of_int counters.Engine.key_rejected ];
  Tbl.add_row tbl
    [ "guesses accepted"; string_of_int (guesses - counters.Engine.key_rejected) ];
  Tbl.add_row tbl
    [
      "correct key accepted (control)";
      (match accepted_ctx.Context_file.dest with Some _ -> "yes" | None -> "NO (bug!)");
    ];
  tbl

(* ------------------------------------------------------------------ *)
(* Ablations *)

let single_stub_run ~mechanism ~write_buffer ~get_emit =
  let config =
    {
      Kernel.default_config with
      Kernel.mechanism;
      write_buffer;
      ram_size = 64 * Layout.page_size;
    }
  in
  let kernel = Kernel.create config in
  let p = Kernel.spawn kernel ~name:"app" ~program:[||] () in
  let a = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let b = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let result_va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let emit = get_emit kernel p ~src:{ Mech.vaddr = a; pages = 1 } ~dst:{ Mech.vaddr = b; pages = 1 } in
  Process.set_program p
    (Stub.build_single ~vsrc:a ~vdst:b ~size:256 ~result_va ~emit_dma:emit);
  ignore (Kernel.run kernel ~max_steps:100_000 () : Kernel.run_result);
  let status = Stub.read_last_status kernel p ~result_va in
  let started = List.length (Engine.transfers (Kernel.engine kernel)) in
  (status, started)

let verdict (status, started) =
  if started = 1 && status >= 0 then "OK"
  else if started = 0 && status < 0 then "initiation failed (safe)"
  else if started = 0 && status >= 0 then "PHANTOM SUCCESS (unsafe)"
  else "started but reported failed (unsafe)"

let ablate_wbuf () =
  let tbl =
    Tbl.create
      ~title:
        "Write-buffer ablation: why the paper inserts memory barriers (collapse+forwarding buffer)"
      ~columns:
        [
          ("stub", Tbl.Left);
          ("write buffer", Tbl.Left);
          ("status", Tbl.Right);
          ("transfers", Tbl.Right);
          ("verdict", Tbl.Left);
        ]
  in
  let hazardous = Write_buffer.Bypass { forward = true; collapse = true } in
  let aliases_then emit k p ~src ~dst =
    Mech.map_dma_aliases k p ~src ~dst;
    emit
  in
  let prepared_of (m : Mech.t) k p ~src ~dst = (m.Mech.prepare k p ~src ~dst).Mech.emit_dma in
  let stubs =
    [
      ( "rep-args-5 with MBs",
        Engine.Rep_args Seq_matcher.Five,
        aliases_then Uldma.Rep_args.emit_dma_five_no_retry );
      ( "rep-args-5 without MBs",
        Engine.Rep_args Seq_matcher.Five,
        aliases_then Uldma.Rep_args.emit_dma_five_no_retry_no_mb );
      ("key-based (has MB)", Engine.Key_based, prepared_of Uldma.Key_dma.mech);
      ("ext-shadow", Engine.Ext_shadow, prepared_of Uldma.Ext_shadow.mech);
    ]
  in
  List.iter
    (fun (name, mechanism, get_emit) ->
      List.iter
        (fun (wb_name, write_buffer) ->
          let r = single_stub_run ~mechanism ~write_buffer ~get_emit in
          Tbl.add_row tbl
            [ name; wb_name; string_of_int (fst r); string_of_int (snd r); verdict r ])
        [ ("ordered", Write_buffer.Ordered); ("collapse+forward", hazardous) ])
    stubs;
  tbl

(* §3.1 "say 4 to 8": aggregate initiation throughput of 8 processes
   as the number of register contexts varies (losers use the kernel
   path). *)
let ablate_contexts () =
  let tbl =
    Tbl.create
      ~title:
        "Register-context ablation ('say 4 to 8'): 8 processes, losers fall back to kernel DMA"
      ~columns:
        [
          ("contexts", Tbl.Right);
          ("user-level procs", Tbl.Right);
          ("kernel-path procs", Tbl.Right);
          ("avg init (us)", Tbl.Right);
        ]
  in
  let procs = 8 and per_proc = 50 in
  List.iter
    (fun n_contexts ->
      let config =
        {
          Kernel.default_config with
          Kernel.mechanism = Engine.Key_based;
          n_contexts = max n_contexts 1;
          sched = Sched.Round_robin { quantum = 500 };
          ram_size = 8 * 1024 * 1024;
        }
      in
      let kernel = Kernel.create config in
      (* burn contexts so that effectively [n_contexts] are available *)
      if n_contexts = 0 then begin
        let burner = Kernel.spawn kernel ~name:"burner" ~program:[||] () in
        let rec burn () =
          match Kernel.alloc_dma_context kernel burner with Some _ -> burn () | None -> ()
        in
        burn ()
      end;
      let user = ref 0 and via_kernel = ref 0 in
      for i = 1 to procs do
        let p = Kernel.spawn kernel ~name:(Printf.sprintf "p%d" i) ~program:[||] () in
        let src = Kernel.alloc_pages kernel p ~n:2 ~perms:Perms.read_write in
        let dst = Kernel.alloc_pages kernel p ~n:2 ~perms:Perms.read_write in
        let result_va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
        let emit =
          try
            let prepared =
              Uldma.Key_dma.mech.Mech.prepare kernel p ~src:{ Mech.vaddr = src; pages = 2 }
                ~dst:{ Mech.vaddr = dst; pages = 2 }
            in
            incr user;
            prepared.Mech.emit_dma
          with Failure _ ->
            incr via_kernel;
            Uldma.Kernel_dma.emit_dma
        in
        Process.set_program p
          (Stub.build_loop
             {
               Stub.iterations = per_proc;
               transfer_size = 512;
               src_base = src;
               dst_base = dst;
               pages = 2;
               result_va;
             }
             ~emit_dma:emit)
      done;
      let t0 = Kernel.now_ps kernel in
      ignore (Kernel.run kernel ~max_steps:20_000_000 () : Kernel.run_result);
      let total_us = Units.to_us (Kernel.now_ps kernel - t0) in
      Tbl.add_row tbl
        [
          string_of_int n_contexts;
          string_of_int !user;
          string_of_int !via_kernel;
          Printf.sprintf "%.2f" (total_us /. float_of_int (procs * per_proc));
        ])
    [ 0; 1; 2; 4; 8 ];
  tbl

(* Preemption frequency vs rep-args retries: two five-access users
   under quanta from 1 to 500 instructions. *)
let ablate_quantum () =
  let tbl =
    Tbl.create
      ~title:
        "Scheduler-quantum ablation: two five-access users sharing the engine (100 DMAs each)"
      ~columns:
        [
          ("quantum (instr)", Tbl.Right);
          ("completed", Tbl.Right);
          ("broken sequences", Tbl.Right);
          ("context switches", Tbl.Right);
          ("outcome", Tbl.Left);
        ]
  in
  let per_proc = 100 in
  List.iter
    (fun quantum ->
      let config =
        {
          Kernel.default_config with
          Kernel.mechanism = Engine.Rep_args Seq_matcher.Five;
          sched = Sched.Round_robin { quantum };
          ram_size = 2 * 1024 * 1024;
        }
      in
      let kernel = Kernel.create config in
      let results = ref [] in
      for i = 1 to 2 do
        let p = Kernel.spawn kernel ~name:(Printf.sprintf "user%d" i) ~program:[||] () in
        let src = Kernel.alloc_pages kernel p ~n:2 ~perms:Perms.read_write in
        let dst = Kernel.alloc_pages kernel p ~n:2 ~perms:Perms.read_write in
        let result_va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
        let prepared =
          Uldma.Rep_args.mech.Mech.prepare kernel p ~src:{ Mech.vaddr = src; pages = 2 }
            ~dst:{ Mech.vaddr = dst; pages = 2 }
        in
        Process.set_program p
          (Stub.build_loop
             {
               Stub.iterations = per_proc;
               transfer_size = 512;
               src_base = src;
               dst_base = dst;
               pages = 2;
               result_va;
             }
             ~emit_dma:prepared.Mech.emit_dma);
        results := (p, result_va) :: !results
      done;
      let finished =
        match Kernel.run kernel ~max_steps:3_000_000 () with
        | Kernel.All_exited -> true
        | Kernel.Max_steps -> false
        | Kernel.Predicate -> false
      in
      let completed =
        List.fold_left
          (fun acc (p, result_va) ->
            acc + if finished then Stub.read_successes kernel p ~result_va else 0)
          0 !results
      in
      let counters = Engine.counters (Kernel.engine kernel) in
      Tbl.add_row tbl
        [
          string_of_int quantum;
          Printf.sprintf "%d/%d" completed (2 * per_proc);
          string_of_int counters.Engine.rejected;
          string_of_int (Kernel.context_switches kernel);
          (if not finished then "LIVELOCK (step budget exhausted)"
           else if completed = 2 * per_proc then "all DMAs completed"
           else "finished with failures");
        ])
    [ 1; 3; 5; 10; 20; 50; 200; 1000 ];
  tbl

(* ------------------------------------------------------------------ *)

let all =
  [
    { id = "table1"; title = "Table 1: initiation latency"; paper_ref = "sec. 3.4, Table 1"; run = (fun () -> table1 ()) };
    { id = "matrix6"; title = "Six-mechanism cost/protection/atomicity matrix"; paper_ref = "sec. 3.4 + related work (IOMMU, CAPIO)"; run = matrix6 };
    { id = "bus_sweep"; title = "Bus frequency sweep"; paper_ref = "sec. 3.4"; run = bus_sweep };
    { id = "os_sweep"; title = "Syscall overhead sweep"; paper_ref = "sec. 2.2"; run = os_sweep };
    { id = "crossover"; title = "Initiation vs wire-time crossover"; paper_ref = "sec. 1-2.2"; run = crossover };
    { id = "fig2_shrimp"; title = "SHRIMP-2/FLASH race"; paper_ref = "Fig. 2, sec. 2.5-2.6"; run = fig2_shrimp };
    { id = "fig5_attack3"; title = "Attack on 3-access variant"; paper_ref = "Fig. 5"; run = fig5_attack3 };
    { id = "fig6_attack4"; title = "Attack on 4-access variant"; paper_ref = "Fig. 6"; run = fig6_attack4 };
    { id = "fig7_retry"; title = "Five-access method under preemption"; paper_ref = "Fig. 7"; run = fig7_retry };
    { id = "fig8_proof"; title = "Exhaustive interleaving exploration"; paper_ref = "Fig. 8, sec. 3.3.1"; run = fig8_proof };
    { id = "atomics"; title = "User-level atomic operations"; paper_ref = "sec. 3.5"; run = atomics };
    { id = "key_security"; title = "Key-guessing security"; paper_ref = "sec. 3.1"; run = key_security };
    { id = "calibration"; title = "Cost-model calibration check"; paper_ref = "sec. 2.2/3.4 anchors"; run = calibration };
    { id = "pingpong"; title = "Two-node ping-pong latency"; paper_ref = "sec. 3.5 context (NOW messaging)"; run = pingpong };
    { id = "accounting"; title = "Machine accounting for a mixed workload"; paper_ref = "methodology"; run = accounting };
    { id = "disk_vs_net"; title = "Disk vs network service times"; paper_ref = "sec. 1 motivation"; run = disk_vs_net };
    { id = "latency_tail"; title = "Initiation latency under contention"; paper_ref = "sec. 3.1-3.3 atomicity"; run = latency_tail };
    { id = "ablate_key_width"; title = "Key-width security ablation"; paper_ref = "sec. 3.1"; run = ablate_key_width };
    { id = "ablate_wbuf"; title = "Write-buffer / memory-barrier ablation"; paper_ref = "Table 1 methodology"; run = ablate_wbuf };
    { id = "ablate_contexts"; title = "Register-context count ablation"; paper_ref = "sec. 3.1"; run = ablate_contexts };
    { id = "ablate_quantum"; title = "Scheduler quantum ablation"; paper_ref = "sec. 3.3"; run = ablate_quantum };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
