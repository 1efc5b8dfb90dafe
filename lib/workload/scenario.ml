open Uldma_mem
open Uldma_cpu
open Uldma_os
open Uldma_dma
module Mech = Uldma.Mech
module Oracle = Uldma_verify.Oracle
module Explorer = Uldma_verify.Explorer
module Stub = Uldma.Session.Stub
module Trace = Uldma_obs.Trace

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
let backend_of_net : Uldma_net.Backend.t option -> Kernel.backend_spec = function
  | None | Some Uldma_net.Backend.Null -> Kernel.Null
  | Some b -> Kernel.Timed { duration_of_bytes = Uldma_net.Backend.duration_ps b }

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

(* Victim: [repeat] DMAs A -> B through [mech], reporting its result. *)
let make_victim ?(repeat = 1) kernel (mech : Mech.t) ~emit_override =
  let victim = Kernel.spawn kernel ~name:"victim" ~program:[||] () in
  let a = Kernel.alloc_pages kernel victim ~n:1 ~perms:Perms.read_write in
  let b = Kernel.alloc_pages kernel victim ~n:1 ~perms:Perms.read_write in
  let result = Kernel.alloc_pages kernel victim ~n:1 ~perms:Perms.read_write in
  let prepared =
    mech.Mech.prepare kernel victim ~src:{ Mech.vaddr = a; pages = 1 }
      ~dst:{ Mech.vaddr = b; pages = 1 }
  in
  let emit = match emit_override with Some e -> e | None -> prepared.Mech.emit_dma in
  Process.set_program victim
    (Stub.build_repeat ~n:repeat ~vsrc:a ~vdst:b ~size:transfer_size ~result_va:result
       ~emit_dma:emit);
  let intent =
    Oracle.intent_of_regions kernel victim ~vsrc:a ~vdst:b ~size:transfer_size ~requests:repeat
  in
  (victim, a, b, result, intent)

let shadow reg_data reg_shadow asm =
  Asm.add asm reg_shadow reg_data (Isa.Imm Vm.shadow_va_offset)

(* The Fig. 5 attacker: S(foo) L(foo) L(C) L(C) over its own pages.
   [with_context] allocates it a register context first — required
   before shadow-mapping under the extended-shadow mechanism. *)
let fig5_attacker ?(with_context = false) kernel =
  let attacker = Kernel.spawn kernel ~name:"attacker" ~program:[||] () in
  if with_context then (
    match Kernel.alloc_dma_context kernel attacker with
    | Some _ -> ()
    | None -> failwith "Scenario.fig5_attacker: no free register context");
  let foo = Kernel.alloc_pages kernel attacker ~n:1 ~perms:Perms.read_write in
  let c = Kernel.alloc_pages kernel attacker ~n:1 ~perms:Perms.read_write in
  ignore (Kernel.map_shadow_alias kernel attacker ~vaddr:foo ~n:1 ~window:`Dma : int);
  ignore (Kernel.map_shadow_alias kernel attacker ~vaddr:c ~n:1 ~window:`Dma : int);
  let asm = Asm.create () in
  Asm.li asm 12 foo;
  Asm.li asm 13 c;
  shadow 12 20 asm;
  shadow 13 21 asm;
  Asm.li asm 3 transfer_size;
  Asm.store asm ~base:20 ~off:0 3 (* STORE foo-sized TO shadow(foo) *);
  Asm.mb asm;
  Asm.load asm 4 ~base:20 ~off:0 (* LOAD FROM shadow(foo) *);
  Asm.load asm 4 ~base:21 ~off:0 (* LOAD FROM shadow(C) *);
  Asm.load asm 4 ~base:21 ~off:0 (* LOAD FROM shadow(C) - fires C->B *);
  Asm.halt asm;
  Process.set_program attacker (Asm.assemble asm);
  (attacker, [ page_label kernel attacker foo "foo"; page_label kernel attacker c "C" ])

let fig5 ?net () =
  let mech = Uldma.Rep_args.mech_of_variant Seq_matcher.Three in
  let kernel = make_kernel ?net (Engine.Rep_args Seq_matcher.Three) in
  let victim, a, b, result, intent = make_victim kernel mech ~emit_override:None in
  let attacker, attacker_labels = fig5_attacker kernel in
  {
    kernel;
    victim;
    attacker;
    intents = [ intent ];
    victim_result_va = result;
    transfer_size;
    attacker_result_va = None;
    extras = [];
    labels =
      page_label kernel victim a "A" :: page_label kernel victim b "B" :: attacker_labels;
  }

(* V's accesses: L(A) S(B) L(A); M's: S(foo) L(foo) L(C) L(C). *)
let fig5_schedule = [ V; M; M; M; V; M; V ]

(* The Fig. 6 attacker: a single LOAD from shadow(A), where it has
   legitimate read access to A. *)
let fig6 () =
  let mech = Uldma.Rep_args.mech_of_variant Seq_matcher.Four in
  let kernel = make_kernel (Engine.Rep_args Seq_matcher.Four) in
  let victim, a, _b, result, intent = make_victim kernel mech ~emit_override:None in
  let attacker = Kernel.spawn kernel ~name:"attacker" ~program:[||] () in
  let a_shared =
    Kernel.share_pages kernel ~from_process:victim ~vaddr:a ~n:1 ~into:attacker
      ~perms:Perms.read_only
  in
  ignore (Kernel.map_shadow_alias kernel attacker ~vaddr:a_shared ~n:1 ~window:`Dma : int);
  let asm = Asm.create () in
  Asm.li asm 12 a_shared;
  shadow 12 20 asm;
  Asm.load asm 4 ~base:20 ~off:0 (* LOAD FROM shadow(A): completes V's sequence *);
  Asm.halt asm;
  Process.set_program attacker (Asm.assemble asm);
  {
    kernel;
    victim;
    attacker;
    intents = [ intent ];
    victim_result_va = result;
    transfer_size;
    attacker_result_va = None;
    extras = [];
    labels =
      [
        page_label kernel victim a "A";
        page_label kernel victim _b "B";
      ];
  }

(* V's accesses: S(B) L(A) S(B) [M: L(A) fires] V: L(A) rejected. *)
let fig6_schedule = [ V; V; V; M; V ]

(* The §2.5 race: the attacker overwrites the single pending
   (dest,size) slot between the victim's store and load. *)
let two_step_race ~mech ~mechanism ~hook =
  let kernel = make_kernel mechanism in
  let victim, _a, _b, result, intent =
    make_victim kernel
      {
        mech with
        Mech.prepare =
          (fun k p ~src ~dst ->
            match mechanism with
            | Engine.Shrimp_two_step -> Uldma.Shrimp2.prepare_raw ~install_hook:hook k p ~src ~dst
            | Engine.Flash -> Uldma.Flash.prepare_raw ~install_hook:hook k p ~src ~dst
            | _ -> mech.Mech.prepare k p ~src ~dst);
      }
      ~emit_override:None
  in
  let attacker = Kernel.spawn kernel ~name:"attacker" ~program:[||] () in
  let d = Kernel.alloc_pages kernel attacker ~n:1 ~perms:Perms.read_write in
  ignore (Kernel.map_shadow_alias kernel attacker ~vaddr:d ~n:1 ~window:`Dma : int);
  let asm = Asm.create () in
  Asm.li asm 12 d;
  shadow 12 20 asm;
  Asm.li asm 3 transfer_size;
  Asm.store asm ~base:20 ~off:0 3 (* STORE size TO shadow(D): overwrites pending dest *);
  Asm.mb asm;
  Asm.halt asm;
  Process.set_program attacker (Asm.assemble asm);
  {
    kernel;
    victim;
    attacker;
    intents = [ intent ];
    victim_result_va = result;
    transfer_size;
    attacker_result_va = None;
    extras = [];
    labels = [ page_label kernel attacker d "D" ];
  }

let shrimp2_race ~hook = two_step_race ~mech:Uldma.Shrimp2.mech ~mechanism:Engine.Shrimp_two_step ~hook

let flash_race ~hook = two_step_race ~mech:Uldma.Flash.mech ~mechanism:Engine.Flash ~hook

let shrimp2_schedule = [ V; M; V ]

(* The same three-leg race against the contextless extended-shadow
   engine: the interloper's store carries ITS context bits, so the
   victim's load makes a mismatched pair and the engine refuses —
   safety without any kernel hook (sec. 3.2). *)
let ext_stateless_race () =
  let mech = Uldma.Ext_shadow.mech_stateless in
  let kernel = make_kernel Engine.Ext_shadow_stateless in
  let victim, a, b, result, intent = make_victim kernel mech ~emit_override:None in
  let attacker = Kernel.spawn kernel ~name:"attacker" ~program:[||] () in
  (match Kernel.alloc_dma_context kernel attacker with
  | Some _ -> ()
  | None -> failwith "no context for attacker");
  let d = Kernel.alloc_pages kernel attacker ~n:1 ~perms:Perms.read_write in
  ignore (Kernel.map_shadow_alias kernel attacker ~vaddr:d ~n:1 ~window:`Dma : int);
  let asm = Asm.create () in
  Asm.li asm 12 d;
  shadow 12 20 asm;
  Asm.li asm 3 transfer_size;
  Asm.store asm ~base:20 ~off:0 3;
  Asm.mb asm;
  Asm.halt asm;
  Process.set_program attacker (Asm.assemble asm);
  {
    kernel;
    victim;
    attacker;
    intents = [ intent ];
    victim_result_va = result;
    transfer_size;
    attacker_result_va = None;
    extras = [];
    labels =
      [
        page_label kernel victim a "A";
        page_label kernel victim b "B";
        page_label kernel attacker d "D";
      ];
  }

let rep5_scenario ?net ~emit () =
  let mech = Uldma.Rep_args.mech in
  let kernel = make_kernel ?net (Engine.Rep_args Seq_matcher.Five) in
  let victim, a, b, result, intent = make_victim kernel mech ~emit_override:emit in
  let attacker, attacker_labels = fig5_attacker kernel in
  {
    kernel;
    victim;
    attacker;
    intents = [ intent ];
    victim_result_va = result;
    transfer_size;
    attacker_result_va = None;
    extras = [];
    labels =
      page_label kernel victim a "A" :: page_label kernel victim b "B" :: attacker_labels;
  }

let rep5 ?net () = rep5_scenario ?net ~emit:(Some Uldma.Rep_args.emit_dma_five_no_retry) ()

(* A second adversary shape against the five-access method: the
   attacker issues S(X) S(X) L(X) on its own page X, trying to splice
   the victim's loads of A into steps 2/4 of its own sequence and so
   exfiltrate A into X. The victim's interleaved stores make this
   impossible (sec. 3.3.1), which the explorer verifies. *)
let rep5_splice () =
  let mech = Uldma.Rep_args.mech in
  let kernel = make_kernel (Engine.Rep_args Seq_matcher.Five) in
  let victim, a, b, result, intent =
    make_victim kernel mech ~emit_override:(Some Uldma.Rep_args.emit_dma_five_no_retry)
  in
  let attacker = Kernel.spawn kernel ~name:"attacker" ~program:[||] () in
  let x = Kernel.alloc_pages kernel attacker ~n:1 ~perms:Perms.read_write in
  ignore (Kernel.map_shadow_alias kernel attacker ~vaddr:x ~n:1 ~window:`Dma : int);
  let asm = Asm.create () in
  Asm.li asm 12 x;
  shadow 12 20 asm;
  Asm.li asm 3 transfer_size;
  Asm.store asm ~base:20 ~off:0 3;
  Asm.mb asm;
  Asm.store asm ~base:20 ~off:0 3;
  Asm.mb asm;
  Asm.load asm 4 ~base:20 ~off:0;
  Asm.halt asm;
  Process.set_program attacker (Asm.assemble asm);
  {
    kernel;
    victim;
    attacker;
    intents = [ intent ];
    victim_result_va = result;
    transfer_size;
    attacker_result_va = None;
    extras = [];
    labels =
      [
        page_label kernel victim a "A";
        page_label kernel victim b "B";
        page_label kernel attacker x "X";
      ];
  }

let rep5_with_retry () = rep5_scenario ~emit:None ()

(* Both processes legitimately use the same mechanism on their own
   buffers; the "attacker" here is just a concurrent tenant. Safety =
   both DMAs happen exactly once with no argument mixing, under every
   schedule — the atomicity claim of sec. 3.1/3.2. *)
let contested ?net (mech : Mech.t) mechanism =
  let kernel = make_kernel ?net mechanism in
  let victim, a, b, result, intent = make_victim kernel mech ~emit_override:None in
  let attacker = Kernel.spawn kernel ~name:"tenant" ~program:[||] () in
  let c = Kernel.alloc_pages kernel attacker ~n:1 ~perms:Perms.read_write in
  let d = Kernel.alloc_pages kernel attacker ~n:1 ~perms:Perms.read_write in
  let tenant_result = Kernel.alloc_pages kernel attacker ~n:1 ~perms:Perms.read_write in
  let prepared =
    mech.Mech.prepare kernel attacker ~src:{ Mech.vaddr = c; pages = 1 }
      ~dst:{ Mech.vaddr = d; pages = 1 }
  in
  Process.set_program attacker
    (Stub.build_single ~vsrc:c ~vdst:d ~size:transfer_size ~result_va:tenant_result
       ~emit_dma:prepared.Mech.emit_dma);
  let tenant_intent =
    Oracle.intent_of_regions kernel attacker ~vsrc:c ~vdst:d ~size:transfer_size ~requests:1
  in
  {
    kernel;
    victim;
    attacker;
    intents = [ intent; tenant_intent ];
    victim_result_va = result;
    attacker_result_va = Some tenant_result;
    extras = [];
    transfer_size;
    labels =
      [
        page_label kernel victim a "A";
        page_label kernel victim b "B";
        page_label kernel attacker c "C";
        page_label kernel attacker d "D";
      ];
  }

let ext_shadow_contested () = contested Uldma.Ext_shadow.mech Engine.Ext_shadow

let key_contested ?net () = contested ?net Uldma.Key_dma.mech Engine.Key_based

let pal_contested () = contested Uldma.Pal_dma.mech Engine.Shrimp_two_step

let iommu_contested ?net () = contested ?net Uldma.Iommu_dma.mech Engine.Iommu

let capio_contested ?net () = contested ?net Uldma.Capio_dma.mech Engine.Capio

(* ------------------------------------------------------------------ *)
(* The Fig. 5 splicer against a mechanism whose initiation never
   touches the shadow window (IOMMU / CAPIO): every attacker shadow
   access is rejected [Unsupported], so exploration must find every
   schedule SAFE — there is no argument stream to splice into. *)

let fig5_vs ?net (mech : Mech.t) mechanism =
  let kernel = make_kernel ?net mechanism in
  let victim, a, b, result, intent = make_victim kernel mech ~emit_override:None in
  let attacker, attacker_labels = fig5_attacker kernel in
  {
    kernel;
    victim;
    attacker;
    intents = [ intent ];
    victim_result_va = result;
    transfer_size;
    attacker_result_va = None;
    extras = [];
    labels =
      page_label kernel victim a "A" :: page_label kernel victim b "B" :: attacker_labels;
  }

let iommu_fig5 ?net () = fig5_vs ?net Uldma.Iommu_dma.mech Engine.Iommu

let capio_fig5 ?net () = fig5_vs ?net Uldma.Capio_dma.mech Engine.Capio

(* The rep5-style accomplice, retargeted at CAPIO: the accomplice has
   somehow learned the victim's capability *values* (they are plain
   words; secrecy is not the protection) and replays them through its
   OWN register context. The engine's context binding must reject the
   laundering attempt with [Bad_capability] under every schedule. *)
let capio_launder ?net () =
  let mech = Uldma.Capio_dma.mech in
  let kernel = make_kernel ?net Engine.Capio in
  let victim, a, b, result, intent = make_victim kernel mech ~emit_override:None in
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
  {
    kernel;
    victim;
    attacker = accomplice;
    intents = [ intent ];
    victim_result_va = result;
    transfer_size;
    attacker_result_va = None;
    extras = [];
    labels = [ page_label kernel victim a "A"; page_label kernel victim b "B" ];
  }

(* ------------------------------------------------------------------ *)
(* Three-process contested workloads. Two-process trees top out around
   10^2..10^3 schedules — too small to stress dedup. A third
   process and repeated initiations push the tree to 10^5..10^6
   schedules (the multinomial of the three leg counts), which is where
   state dedup and the bounded memo earn their keep. Safety is the
   same atomicity claim as [contested], now with three concurrent
   register-context users. *)

let contested3 ?(victim_repeat = 2) ?(tenant_repeat = 2) (mech : Mech.t) mechanism =
  let kernel = make_kernel mechanism in
  let victim, a, b, result, intent =
    make_victim ~repeat:victim_repeat kernel mech ~emit_override:None
  in
  let spawn_tenant name =
    let p = Kernel.spawn kernel ~name ~program:[||] () in
    let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
    let dst = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
    let res = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
    let prepared =
      mech.Mech.prepare kernel p ~src:{ Mech.vaddr = src; pages = 1 }
        ~dst:{ Mech.vaddr = dst; pages = 1 }
    in
    Process.set_program p
      (Stub.build_repeat ~n:tenant_repeat ~vsrc:src ~vdst:dst ~size:transfer_size
         ~result_va:res ~emit_dma:prepared.Mech.emit_dma);
    let intent =
      Oracle.intent_of_regions kernel p ~vsrc:src ~vdst:dst ~size:transfer_size
        ~requests:tenant_repeat
    in
    (p, src, dst, res, intent)
  in
  let t1, c, d, r1, i1 = spawn_tenant "tenant1" in
  let t2, e, f, r2, i2 = spawn_tenant "tenant2" in
  {
    kernel;
    victim;
    attacker = t1;
    intents = [ intent; i1; i2 ];
    victim_result_va = result;
    attacker_result_va = Some r1;
    extras = [ (t2, Some r2) ];
    transfer_size;
    labels =
      [
        page_label kernel victim a "A";
        page_label kernel victim b "B";
        page_label kernel t1 c "C";
        page_label kernel t1 d "D";
        page_label kernel t2 e "E";
        page_label kernel t2 f "F";
      ];
  }

(* Key-based initiation costs 4 NI accesses, so even a single
   initiation per process (5 legs each) already yields ~7.6e5
   schedules; repeats would blow past any practical path budget. *)
let key_contested3 ?(victim_repeat = 1) ?(tenant_repeat = 1) () =
  contested3 ~victim_repeat ~tenant_repeat Uldma.Key_dma.mech Engine.Key_based

let ext_shadow_contested3 ?victim_repeat ?tenant_repeat () =
  contested3 ?victim_repeat ?tenant_repeat Uldma.Ext_shadow.mech Engine.Ext_shadow

(* IOMMU initiation is also 4 NI accesses; one initiation per process
   keeps the tree in the same ~7.6e5-schedule band as key_contested3. *)
let iommu_contested3 ?(victim_repeat = 1) ?(tenant_repeat = 1) () =
  contested3 ~victim_repeat ~tenant_repeat Uldma.Iommu_dma.mech Engine.Iommu

let capio_contested3 ?(victim_repeat = 1) ?(tenant_repeat = 1) () =
  contested3 ~victim_repeat ~tenant_repeat Uldma.Capio_dma.mech Engine.Capio

(* The five-access method against BOTH adversary shapes at once: the
   Fig. 5 splicer and the store-splice attacker race one rep5 victim.
   Neither attacker reports an outcome; safety is the victim's DMA
   happening exactly once with no argument mixing under every
   three-way interleaving. *)
let rep5_contested3 () =
  let mech = Uldma.Rep_args.mech in
  let kernel = make_kernel (Engine.Rep_args Seq_matcher.Five) in
  let victim, a, b, result, intent =
    make_victim kernel mech ~emit_override:(Some Uldma.Rep_args.emit_dma_five_no_retry)
  in
  let attacker, attacker_labels = fig5_attacker kernel in
  let splicer = Kernel.spawn kernel ~name:"splicer" ~program:[||] () in
  let x = Kernel.alloc_pages kernel splicer ~n:1 ~perms:Perms.read_write in
  ignore (Kernel.map_shadow_alias kernel splicer ~vaddr:x ~n:1 ~window:`Dma : int);
  let asm = Asm.create () in
  Asm.li asm 12 x;
  shadow 12 20 asm;
  Asm.li asm 3 transfer_size;
  Asm.store asm ~base:20 ~off:0 3;
  Asm.mb asm;
  Asm.store asm ~base:20 ~off:0 3;
  Asm.mb asm;
  Asm.load asm 4 ~base:20 ~off:0;
  Asm.halt asm;
  Process.set_program splicer (Asm.assemble asm);
  {
    kernel;
    victim;
    attacker;
    intents = [ intent ];
    victim_result_va = result;
    attacker_result_va = None;
    extras = [ (splicer, None) ];
    transfer_size;
    labels =
      page_label kernel victim a "A" :: page_label kernel victim b "B"
      :: page_label kernel splicer x "X" :: attacker_labels;
  }

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
