open Uldma_mem
open Uldma_cpu
open Uldma_os
open Uldma_dma
module Mech = Uldma.Mech
module Oracle = Uldma_verify.Oracle
module Explorer = Uldma_verify.Explorer
module Stub = Uldma.Session.Stub
module Trace = Uldma_obs.Trace
module Backend = Uldma_net.Backend

type t = {
  kernel : Kernel.t;
  victim : Process.t;
  attacker : Process.t;
  intents : Oracle.intent list;
  victim_result_va : int;
  attacker_result_va : int option; (* when the attacker also reports *)
  extras : (Process.t * int option) list;
      (* third and further processes (3-process contested workloads),
         each with its result page when it reports an outcome *)
  transfer_size : int;
  mutable labels : (int * string) list; (* physical page base -> name *)
}

type leg = V | M

let transfer_size = 256

(* A timed scenario swaps the default Null backend for a Kernel.Timed
   spec carrying the net backend's (tick-quantised) wire-time model;
   explicitly passing Backend.null is byte-identical to the default. *)
let backend_of_net : Backend.t option -> Kernel.backend_spec = function
  | None | Some Backend.Null -> Kernel.Null
  | Some b -> Kernel.Timed { duration_of_bytes = Backend.duration_ps b }

(* A small machine is plenty for two processes and keeps
   explorer snapshots cheap. *)
let make_kernel ?net mechanism =
  Kernel.create
    {
      Kernel.default_config with
      Kernel.ram_size = 64 * Layout.page_size;
      mechanism;
      sched = Sched.Round_robin { quantum = 50 };
      backend = backend_of_net net;
    }

let page_label kernel p va name = (Layout.page_base (Kernel.user_paddr kernel p va), name)

(* ------------------------------------------------------------------ *)
(* Processes: every machine is a victim through one mechanism plus the
   processes that race it. *)

(* A process that initiates [repeat] DMAs of [size] bytes between two
   fresh pages through [mech] (emitting [emit] when given), counting
   its successes into a third page. The victim and every tenant are
   one. *)
let initiator ?(repeat = 1) ?(size = transfer_size) ?emit kernel (mech : Mech.t) name =
  let p = Kernel.spawn kernel ~name ~program:[||] () in
  let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let dst = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let result = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let prepared =
    mech.Mech.prepare kernel p ~src:{ Mech.vaddr = src; pages = 1 }
      ~dst:{ Mech.vaddr = dst; pages = 1 }
  in
  let emit = Option.value emit ~default:prepared.Mech.emit_dma in
  Process.set_program p
    (Stub.build_repeat ~n:repeat ~vsrc:src ~vdst:dst ~size ~result_va:result ~emit_dma:emit);
  let intent = Oracle.intent_of_regions kernel p ~vsrc:src ~vdst:dst ~size ~requests:repeat in
  (p, src, dst, result, intent)

type victim = {
  process : Process.t;
  result_va : int;
  intent : Oracle.intent;
  pages : (int * string) list; (* A and B *)
}

let engine_mechanism (mech : Mech.t) =
  match mech.Mech.engine_mechanism with
  | Some m -> m
  | None -> invalid_arg ("Scenario: " ^ mech.Mech.name ^ " drives no engine")

let with_victim ?net ?repeat ?size ?emit mech =
  let kernel = make_kernel ?net (engine_mechanism mech) in
  let process, a, b, result_va, intent = initiator ?repeat ?size ?emit kernel mech "victim" in
  let pages = [ page_label kernel process a "A"; page_label kernel process b "B" ] in
  (kernel, { process; result_va; intent; pages })

let victim_labels v = v.pages

type op = S of int | L of int

let shadow_program ?(sized = true) vas ops =
  let asm = Asm.create () in
  List.iteri (fun i va -> Asm.li asm (12 + i) va) vas;
  List.iteri (fun i _ -> Asm.add asm (20 + i) (12 + i) (Isa.Imm Vm.shadow_va_offset)) vas;
  if sized then Asm.li asm 3 transfer_size;
  List.iter
    (function
      | S p ->
        Asm.store asm ~base:(20 + p) ~off:0 3;
        Asm.mb asm
      | L p -> Asm.load asm 4 ~base:(20 + p) ~off:0)
    ops;
  Asm.halt asm;
  Asm.assemble asm

(* The adversaries' programs. Fig. 5: S(foo) L(foo) L(C) L(C), the
   last load firing C -> B. Sec. 2.5: one store overwriting the pending
   (dest, size) slot. Sec. 3.3.1: S(X) S(X) L(X), hoping the victim's
   loads fill the sequence's load slots. *)
let fig5_splice = [ S 0; L 0; L 1; L 1 ]
let overwrite = [ S 0 ]
let store_splice = [ S 0; S 0; L 0 ]

let adversary ?(with_context = false) ?ops kernel name pages =
  let p = Kernel.spawn kernel ~name ~program:[||] () in
  if with_context then (
    match Kernel.alloc_dma_context kernel p with
    | Some _ -> ()
    | None -> failwith ("Scenario.adversary: no free register context for " ^ name));
  let vas = List.map (fun _ -> Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write) pages in
  List.iter
    (fun va -> ignore (Kernel.map_shadow_alias kernel p ~vaddr:va ~n:1 ~window:`Dma : int))
    vas;
  Option.iter (fun ops -> Process.set_program p (shadow_program vas ops)) ops;
  (p, vas, List.map2 (page_label kernel p) vas pages)

let fig5_attacker ?with_context kernel =
  let p, _, labels = adversary ?with_context ~ops:fig5_splice kernel "attacker" [ "foo"; "C" ] in
  (p, labels)

let make kernel v ?(intents = []) procs labels =
  match procs with
  | [] -> invalid_arg "Scenario.make: no process beside the victim"
  | (attacker, attacker_result_va) :: extras ->
    {
      kernel;
      victim = v.process;
      attacker;
      intents = v.intent :: intents;
      victim_result_va = v.result_va;
      attacker_result_va;
      extras;
      transfer_size;
      labels;
    }

(* ------------------------------------------------------------------ *)
(* The adversary shapes, each against the mechanisms it is raced with *)

(* The Fig. 5 splicer. Against an IOMMU or CAPIO victim, whose
   initiation never touches the shadow window, every attacker access is
   rejected [Unsupported], so every schedule must be SAFE. *)
let fig5_vs ?net ?emit mech =
  let kernel, v = with_victim ?net ?emit mech in
  let attacker, labels = fig5_attacker kernel in
  make kernel v [ (attacker, None) ] (victim_labels v @ labels)

let fig5 ?net () = fig5_vs ?net (Uldma.Rep_args.mech_of_variant Seq_matcher.Three)

(* the five-access method without its retry loop, for bounded
   exploration *)
let rep5_emit = Uldma.Rep_args.emit_dma_five_no_retry
let rep5 ?net () = fig5_vs ?net ~emit:rep5_emit Uldma.Rep_args.mech
let rep5_with_retry () = fig5_vs Uldma.Rep_args.mech
let iommu_fig5 ?net () = fig5_vs ?net Uldma.Iommu_dma.mech
let capio_fig5 ?net () = fig5_vs ?net Uldma.Capio_dma.mech

(* V's accesses: L(A) S(B) L(A); M's: S(foo) L(foo) L(C) L(C). *)
let fig5_schedule = [ V; M; M; M; V; M; V ]

(* The Fig. 6 attacker: a single LOAD from shadow(A), where it has
   legitimate read access to A (the victim's source page). *)
let fig6 () =
  let kernel, v = with_victim (Uldma.Rep_args.mech_of_variant Seq_matcher.Four) in
  let attacker = Kernel.spawn kernel ~name:"attacker" ~program:[||] () in
  let a =
    Kernel.share_pages kernel ~from_process:v.process ~vaddr:v.intent.Oracle.vsrc ~n:1
      ~into:attacker ~perms:Perms.read_only
  in
  ignore (Kernel.map_shadow_alias kernel attacker ~vaddr:a ~n:1 ~window:`Dma : int);
  Process.set_program attacker (shadow_program ~sized:false [ a ] [ L 0 ]);
  make kernel v [ (attacker, None) ] (victim_labels v)

(* V's accesses: S(B) L(A) S(B) [M: L(A) fires] V: L(A) rejected. *)
let fig6_schedule = [ V; V; V; M; V ]

(* The sec. 2.5 race: the attacker overwrites the single pending
   (dest,size) slot between the victim's store and load. The victim
   sets up through [prepare_raw], installing the mechanism's
   context-switch hook only when [hook]. *)
let two_step_race (mech : Mech.t) prepare_raw ~hook =
  let kernel, v = with_victim { mech with Mech.prepare = prepare_raw ~install_hook:hook } in
  let attacker, _, labels = adversary ~ops:overwrite kernel "attacker" [ "D" ] in
  make kernel v [ (attacker, None) ] (victim_labels v @ labels)

let shrimp2_race ~hook = two_step_race Uldma.Shrimp2.mech Uldma.Shrimp2.prepare_raw ~hook
let flash_race ~hook = two_step_race Uldma.Flash.mech Uldma.Flash.prepare_raw ~hook
let shrimp2_schedule = [ V; M; V ]

(* The same race against the contextless extended-shadow engine: the
   interloper's store carries ITS context bits, so the victim's load
   makes a mismatched pair and the engine refuses — safety without any
   kernel hook (sec. 3.2). *)
let ext_stateless_race () =
  let kernel, v = with_victim Uldma.Ext_shadow.mech_stateless in
  let attacker, _, labels =
    adversary ~with_context:true ~ops:overwrite kernel "attacker" [ "D" ]
  in
  make kernel v [ (attacker, None) ] (victim_labels v @ labels)

(* Which started transfer is the engine's newest decides what a
   contextless sys_dma_wait waits for. On the unhooked SHRIMP-2 engine
   the victim runs a two-step DMA of 4 KB and then a status load that
   finds no deposit, which sets the engine's last status to failure; a
   waiter runs a two-step DMA of 8 bytes and then waits for the
   engine's newest transfer, not its own; a third process runs a
   64-byte DMA through sys_dma, which sets no last status. Where the
   waiter's transfer starts after the kernel-path one and completes
   first, the wait returns at once; where it starts first, the wait
   blocks until the kernel-path transfer completes. Under a timed
   backend the two orders reach states equal in everything else the
   key holds, so only the key's newest flag keeps them apart. *)
let newest_wait ?net () =
  let shrimp2 =
    { Uldma.Shrimp2.mech with Mech.prepare = Uldma.Shrimp2.prepare_raw ~install_hook:false }
  in
  let failed_status_load asm =
    Uldma.Shrimp2.emit_dma asm;
    Asm.load asm Mech.reg_scratch0 ~base:Mech.reg_shadow_src ~off:0
  in
  let dma_then_wait asm =
    Uldma.Shrimp2.emit_dma asm;
    Asm.mov asm Mech.reg_scratch0 Mech.reg_status;
    Asm.li asm Mech.reg_status Sysno.sys_dma_wait;
    Asm.syscall asm;
    Asm.mov asm Mech.reg_status Mech.reg_scratch0
  in
  let kernel, v = with_victim ?net ~size:4096 ~emit:failed_status_load shrimp2 in
  let party name size emit mech src_name dst_name =
    let p, src, dst, result, intent = initiator ~size ?emit kernel mech name in
    ((p, Some result), intent, [ page_label kernel p src src_name; page_label kernel p dst dst_name ])
  in
  let parties =
    [
      party "waiter" 8 (Some dma_then_wait) shrimp2 "C" "D";
      party "kernel" 64 None Uldma.Kernel_dma.mech "E" "F";
    ]
  in
  make kernel v
    ~intents:(List.map (fun (_, i, _) -> i) parties)
    (List.map (fun (p, _, _) -> p) parties)
    (victim_labels v @ List.concat_map (fun (_, _, l) -> l) parties)

(* The store-splice against the five-access method: the victim's
   interleaved stores make it impossible (sec. 3.3.1), which the
   explorer verifies. *)
let rep5_splice () =
  let kernel, v = with_victim ~emit:rep5_emit Uldma.Rep_args.mech in
  let attacker, _, labels = adversary ~ops:store_splice kernel "attacker" [ "X" ] in
  make kernel v [ (attacker, None) ] (victim_labels v @ labels)

(* Both shapes at once: the Fig. 5 splicer and the store-splice
   attacker race one rep5 victim. Neither attacker reports an outcome;
   safety is the victim's DMA happening exactly once with no argument
   mixing under every three-way interleaving. *)
let rep5_contested3 () =
  let kernel, v = with_victim ~emit:rep5_emit Uldma.Rep_args.mech in
  let attacker, attacker_labels = fig5_attacker kernel in
  let splicer, _, labels = adversary ~ops:store_splice kernel "splicer" [ "X" ] in
  make kernel v [ (attacker, None); (splicer, None) ] (victim_labels v @ labels @ attacker_labels)

(* The rep5-style accomplice, retargeted at CAPIO: the accomplice has
   somehow learned the victim's capability *values* (they are plain
   words; secrecy is not the protection) and replays them through its
   OWN register context. The engine's context binding must reject the
   laundering attempt with [Bad_capability] under every schedule. *)
let capio_launder ?net () =
  let kernel, v = with_victim ?net Uldma.Capio_dma.mech in
  let victim_caps = Capability.live (Engine.capabilities (Kernel.engine kernel)) in
  let cap_with pred =
    match List.find_opt pred victim_caps with
    | Some c -> c.Capability.value
    | None -> failwith "Scenario.capio_launder: victim capability missing"
  in
  let cap_src = cap_with (fun c -> c.Capability.rights.Perms.read) in
  let cap_dst = cap_with (fun c -> c.Capability.rights.Perms.write) in
  let accomplice = Kernel.spawn kernel ~name:"accomplice" ~program:[||] () in
  let context_page_va =
    match Kernel.alloc_dma_context kernel accomplice with
    | Some (_, _, va) -> va
    | None -> failwith "Scenario.capio_launder: no context for accomplice"
  in
  let asm = Asm.create () in
  Asm.li asm Mech.reg_size transfer_size;
  Uldma.Capio_dma.emit_dma_with ~cap_src ~cap_dst ~context_page_va asm;
  Asm.halt asm;
  Process.set_program accomplice (Asm.assemble asm);
  make kernel v [ (accomplice, None) ] (victim_labels v)

(* Tenants: every process legitimately uses [mech] on its own buffers,
   each tenant [tenant_repeat] times, and reports its outcome. Safety =
   every DMA happens exactly its requested number of times with no
   argument mixing, under every schedule — the atomicity claim of sec.
   3.1/3.2. Two-process trees top out around 10^2..10^3 schedules; a
   third process and repeated initiations push the tree to 10^5..10^6
   (the multinomial of the leg counts), which is where state dedup and
   the bounded memo earn their keep. *)
let contested ?net ?(victim_repeat = 1) ?(tenant_repeat = 1) mech tenants =
  let kernel, v = with_victim ?net ~repeat:victim_repeat mech in
  let tenants =
    List.map
      (fun (name, src_name, dst_name) ->
        let p, src, dst, result, intent = initiator ~repeat:tenant_repeat kernel mech name in
        let labels = [ page_label kernel p src src_name; page_label kernel p dst dst_name ] in
        ((p, Some result), intent, labels))
      tenants
  in
  make kernel v
    ~intents:(List.map (fun (_, i, _) -> i) tenants)
    (List.map (fun (p, _, _) -> p) tenants)
    (victim_labels v @ List.concat_map (fun (_, _, l) -> l) tenants)

let one_tenant = [ ("tenant", "C", "D") ]
let two_tenants = [ ("tenant1", "C", "D"); ("tenant2", "E", "F") ]
let ext_shadow_contested () = contested Uldma.Ext_shadow.mech one_tenant
let key_contested ?net () = contested ?net Uldma.Key_dma.mech one_tenant
let pal_contested () = contested Uldma.Pal_dma.mech one_tenant
let iommu_contested ?net () = contested ?net Uldma.Iommu_dma.mech one_tenant
let capio_contested ?net () = contested ?net Uldma.Capio_dma.mech one_tenant

(* Key-based and IOMMU initiation cost 4 NI accesses, so even a single
   initiation per process (5 legs each) already yields ~7.6e5
   schedules; repeats would blow past any practical path budget. *)
let key_contested3 ?victim_repeat ?tenant_repeat () =
  contested ?victim_repeat ?tenant_repeat Uldma.Key_dma.mech two_tenants

let ext_shadow_contested3 ?(victim_repeat = 2) ?(tenant_repeat = 2) () =
  contested ~victim_repeat ~tenant_repeat Uldma.Ext_shadow.mech two_tenants

let iommu_contested3 ?victim_repeat ?tenant_repeat () =
  contested ?victim_repeat ?tenant_repeat Uldma.Iommu_dma.mech two_tenants

let capio_contested3 ?victim_repeat ?tenant_repeat () =
  contested ?victim_repeat ?tenant_repeat Uldma.Capio_dma.mech two_tenants

(* ------------------------------------------------------------------ *)
(* The catalogue: every explorable machine, named once *)

type build = Timed of (?net:Backend.t -> unit -> t) | Untimed of (unit -> t)
type entry = { name : string; title : string; build : build; schedule : leg list option }

let catalogue =
  let e ?schedule name title build = { name; title; build; schedule } in
  [
    e "fig5" "rep-args-3 (Fig. 5)" (Timed fig5) ~schedule:fig5_schedule;
    e "fig6" "rep-args-4 (Fig. 6)" (Untimed fig6) ~schedule:fig6_schedule;
    e "rep5" "rep-args-5 (Fig. 7)" (Timed rep5) ~schedule:fig5_schedule;
    e "splice" "rep-args-5 vs store-splice" (Untimed rep5_splice);
    e "key-based" "key-based, two tenants" (Timed key_contested);
    e "pal" "pal, two tenants" (Untimed pal_contested);
    e "ext-shadow" "ext-shadow, two tenants" (Untimed ext_shadow_contested);
    e "iommu" "iommu, two tenants" (Timed iommu_contested);
    e "capio" "capio, two tenants" (Timed capio_contested);
    e "iommu-fig5" "iommu vs Fig. 5 splicer" (Timed iommu_fig5);
    e "capio-fig5" "capio vs Fig. 5 splicer" (Timed capio_fig5);
    e "capio-launder" "capio vs capability launderer" (Timed capio_launder);
    (* the two-step races with and without their context-switch hooks
       (the only hooked kernels), and the stateless shadow race *)
    e "shrimp2-race" "shrimp-2 vs overwriter, unmodified kernel"
      (Untimed (fun () -> shrimp2_race ~hook:false))
      ~schedule:shrimp2_schedule;
    e "shrimp2-race-hook" "shrimp-2 vs overwriter, switch hook"
      (Untimed (fun () -> shrimp2_race ~hook:true));
    e "flash-race" "flash vs overwriter, unmodified kernel"
      (Untimed (fun () -> flash_race ~hook:false));
    e "flash-race-hook" "flash vs overwriter, switch hook"
      (Untimed (fun () -> flash_race ~hook:true));
    e "ext-stateless-race" "contextless ext-shadow vs overwriter" (Untimed ext_stateless_race);
    e "key-3" "key-based, three contested processes" (Untimed (fun () -> key_contested3 ()));
    e "ext-shadow-3" "ext-shadow, three contested processes"
      (Untimed (fun () -> ext_shadow_contested3 ()));
    e "rep5-3" "rep-args-5 vs two attackers" (Untimed rep5_contested3);
    e "iommu-3" "iommu, three contested processes" (Untimed (fun () -> iommu_contested3 ()));
    e "capio-3" "capio, three contested processes" (Untimed (fun () -> capio_contested3 ()));
  ]

let find name = List.find_opt (fun e -> e.name = name) catalogue

let instance ?net e =
  match (e.build, net) with
  | Timed f, _ -> f ?net ()
  | Untimed f, (None | Some Backend.Null) -> f ()
  | Untimed _, Some (Backend.Linked _) ->
    invalid_arg (Printf.sprintf "scenario %s has no timed variant; --net must be null" e.name)

let named ?net name =
  match find name with
  | Some e -> instance ?net e
  | None -> invalid_arg ("Scenario.named: no scenario " ^ name)

(* ------------------------------------------------------------------ *)
(* Explorer plumbing shared by every consumer (experiments, CLI,
   trace-checker, bench): the pid list to interleave and the oracle as
   a terminal-state check, both covering [extras]. *)

let processes t = t.victim :: t.attacker :: List.map fst t.extras

let explore_pids t = List.map (fun p -> p.Process.pid) (processes t)

let oracle_report t kernel =
  let read p result_va =
    match Kernel.find_process kernel p.Process.pid with
    | Some p' -> Stub.read_successes kernel p' ~result_va
    | None -> 0
  in
  let reported =
    (t.victim.Process.pid, read t.victim t.victim_result_va)
    ::
    (match t.attacker_result_va with
    | Some result_va -> [ (t.attacker.Process.pid, read t.attacker result_va) ]
    | None -> [])
    @ List.filter_map
        (fun (p, rva) -> Option.map (fun rva -> (p.Process.pid, read p rva)) rva)
        t.extras
  in
  Oracle.check ~kernel ~intents:t.intents ~reported_successes:reported

let oracle_check t kernel =
  match (oracle_report t kernel).Oracle.violations with [] -> None | v :: _ -> Some v

let pid_of t = function V -> t.victim.Process.pid | M -> t.attacker.Process.pid

let run_legs t legs =
  List.iter
    (fun leg ->
      ignore
        (Explorer.advance_one_leg t.kernel (pid_of t leg) ~max_instructions:2000
          : [ `Progress | `Exited | `Stuck ]))
    legs

let finish t ?(max_steps = 200_000) () =
  ignore (Kernel.run t.kernel ~max_steps () : Kernel.run_result)

let run_random t ~seed ~switch_probability =
  Kernel.set_sched_policy t.kernel (Sched.Random_preempt { probability = switch_probability; seed });
  finish t ()

let report t =
  let successes = Stub.read_successes t.kernel t.victim ~result_va:t.victim_result_va in
  let reported = [ (t.victim.Process.pid, successes) ] in
  let reported =
    match t.attacker_result_va with
    | Some result_va ->
      (t.attacker.Process.pid, Stub.read_successes t.kernel t.attacker ~result_va) :: reported
    | None -> reported
  in
  Oracle.check ~kernel:t.kernel ~intents:t.intents ~reported_successes:reported

let victim_successes t = Stub.read_successes t.kernel t.victim ~result_va:t.victim_result_va

let victim_last_status t = Stub.read_last_status t.kernel t.victim ~result_va:t.victim_result_va

let transfers t = Engine.transfers (Kernel.engine t.kernel)

(* ------------------------------------------------------------------ *)
(* Access-timeline rendering (the paper's interleaving diagrams) *)

let label_of_paddr t paddr =
  let describe base offset =
    match List.assoc_opt (Layout.page_base base) t.labels with
    | Some name -> if offset = 0 then name else Printf.sprintf "%s+%#x" name offset
    | None -> Printf.sprintf "%#x" (base lor offset)
  in
  match Uldma_mmu.Shadow.decode paddr with
  | Some d ->
    let inner = describe (Layout.page_base d.Uldma_mmu.Shadow.paddr) (Layout.page_offset d.Uldma_mmu.Shadow.paddr) in
    if d.Uldma_mmu.Shadow.atomic then Printf.sprintf "atomic_shadow(%s)" inner
    else Printf.sprintf "shadow(%s)" inner
  | None -> (
    match Layout.context_of_mmio paddr with
    | Some context -> Printf.sprintf "context%d_page" context
    | None ->
      if Layout.in_mmio paddr then "engine_control_page"
      else describe (Layout.page_base paddr) (Layout.page_offset paddr))

let traced f =
  if Trace.enabled (Trace.ambient ()) then f () else Trace.with_ambient (Trace.create ()) f

let access_timeline t =
  let sink = Kernel.trace t.kernel in
  if not (Trace.enabled sink) then
    invalid_arg "Scenario.access_timeline: the kernel's trace sink is disabled (see traced)";
  let machine = Kernel.machine_id t.kernel in
  let actor pid =
    if pid = t.victim.Process.pid then "victim"
    else if pid = t.attacker.Process.pid then "attacker"
    else
      match List.find_opt (fun (p, _) -> p.Process.pid = pid) t.extras with
      | Some (p, _) -> p.Process.name
      | None -> Printf.sprintf "pid%d" pid
  in
  List.filter_map
    (fun (r : Trace.record) ->
      match r.Trace.kind with
      | Trace.Uncached_access { op; paddr; value }
        when r.Trace.machine = machine && r.Trace.pid >= 0 ->
        let rendered =
          match op with
          | `Store -> Printf.sprintf "STORE %#x TO %s" value (label_of_paddr t paddr)
          | `Load -> Printf.sprintf "LOAD FROM %s" (label_of_paddr t paddr)
        in
        Some (r.Trace.at, actor r.Trace.pid, rendered)
      | _ -> None)
    (Trace.events sink)
