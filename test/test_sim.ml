(* Tests for the sim library: the measurement harness reproduces
   Table 1 within tolerance, sweeps behave monotonically, the cluster
   delivers bytes, and the experiment registry is sound. *)

open Uldma_util
open Uldma_mem
open Uldma_os
module Mech = Uldma.Mech
module Api = Uldma.Api
module Measure = Uldma_sim.Measure
module Experiments = Uldma_sim.Experiments
module Cluster = Uldma.Cluster
module Link = Uldma_net.Link
module Backend = Uldma_net.Backend

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Measure: Table 1 within tolerance *)

let paper = [ ("kernel", 18.6); ("ext-shadow", 1.1); ("rep-args", 2.6); ("key-based", 2.3) ]

let measure name = Measure.initiation ~iterations:400 (Api.find_exn name)

let test_table1_tolerances () =
  List.iter
    (fun (name, expected) ->
      let r = measure name in
      let error = abs_float (r.Measure.us_per_initiation -. expected) /. expected in
      if error > 0.12 then
        Alcotest.failf "%s: measured %.2f us vs paper %.1f us (%.0f%% off)" name
          r.Measure.us_per_initiation expected (100.0 *. error))
    paper

let test_table1_all_succeed () =
  List.iter
    (fun (name, _) ->
      let r = measure name in
      checki (name ^ " successes") r.Measure.iterations r.Measure.successes)
    paper

let test_order_of_magnitude () =
  (* "all user-level DMA methods perform about an order of magnitude
     better than the kernel-based DMA" *)
  let kernel = (measure "kernel").Measure.us_per_initiation in
  List.iter
    (fun name ->
      let user = (measure name).Measure.us_per_initiation in
      checkb (name ^ " ~10x better") true (kernel /. user > 6.0))
    [ "ext-shadow"; "rep-args"; "key-based"; "pal" ]

let test_ext_shadow_fastest () =
  (* "Best of all methods is the Extended Shadow Addressing" *)
  let ext = (measure "ext-shadow").Measure.us_per_initiation in
  List.iter
    (fun name ->
      checkb (name ^ " slower than ext-shadow") true
        ((measure name).Measure.us_per_initiation >= ext))
    [ "kernel"; "rep-args"; "key-based"; "pal" ]

let test_user_methods_scale_with_accesses () =
  (* "The other user-level DMA methods take 2.3-2.6 us, which is also
     expected since they use twice as many accesses" *)
  let ext = (measure "ext-shadow").Measure.us_per_initiation in
  let key = (measure "key-based").Measure.us_per_initiation in
  let ratio = key /. ext in
  checkb "about twice" true (ratio > 1.6 && ratio < 2.6)

let test_bus_speed_helps_user_more () =
  let base = Kernel.default_config in
  let fast = { base with Kernel.timing = Uldma_bus.Timing.pci66 } in
  let m b mech = (Measure.initiation ~base:b ~iterations:200 (Api.find_exn mech)).Measure.us_per_initiation in
  let ext_speedup = m base "ext-shadow" /. m fast "ext-shadow" in
  let kernel_speedup = m base "kernel" /. m fast "kernel" in
  checkb "user methods gain more from a faster bus" true (ext_speedup > kernel_speedup);
  checkb "ext gains substantially" true (ext_speedup > 2.0)

let test_syscall_cost_only_hits_kernel_path () =
  let slow =
    { Kernel.default_config with
      Kernel.timing = Uldma_bus.Timing.with_syscall_cycles Uldma_bus.Timing.alpha3000_300 5000 }
  in
  let m b mech = (Measure.initiation ~base:b ~iterations:200 (Api.find_exn mech)).Measure.us_per_initiation in
  checkb "kernel path slows" true (m slow "kernel" > m Kernel.default_config "kernel" *. 1.5);
  let delta = abs_float (m slow "ext-shadow" -. m Kernel.default_config "ext-shadow") in
  checkb "user path indifferent" true (delta < 0.01)

let test_atomic_measurements () =
  let k = Measure.atomic_add_initiation ~iterations:300 Uldma.Atomic.Kernel_initiated in
  let e = Measure.atomic_add_initiation ~iterations:300 Uldma.Atomic.Ext_shadow_initiated in
  let key = Measure.atomic_add_initiation ~iterations:300 Uldma.Atomic.Key_initiated in
  checki "kernel counter" 300 k.Measure.final_counter;
  checki "ext counter" 300 e.Measure.final_counter;
  checki "key counter" 300 key.Measure.final_counter;
  checkb "user-level much cheaper" true (k.Measure.us_per_op /. e.Measure.us_per_op > 5.0);
  checkb "ext cheaper than key" true (e.Measure.us_per_op < key.Measure.us_per_op)

let test_contention_latency () =
  let r = Measure.initiation_under_contention ~runs:40 (Api.find_exn "ext-shadow") in
  let s = r.Measure.latency_us in
  checkb "median above uncontended latency" true (s.Stats.p50 > 1.0);
  checkb "tail at least the median" true (s.Stats.p95 >= s.Stats.p50);
  (* the PAL stub cannot be preempted mid-sequence: its median beats
     the interruptible two-access stub under the same contention *)
  let pal = Measure.initiation_under_contention ~runs:40 (Api.find_exn "pal") in
  checkb "pal median tight" true (pal.Measure.latency_us.Stats.p50 <= s.Stats.p50 +. 1.0)

(* ------------------------------------------------------------------ *)
(* Cluster *)

let remote_buffer_paddr = 20 * Layout.page_size

let test_cluster_delivery () =
  let cluster =
    Cluster.create ~net:(Backend.linked Link.atm155) ~nodes:2
      ~config:
        {
          Kernel.default_config with
          Kernel.ram_size = 64 * Layout.page_size;
          backend = Kernel.Local { bytes_per_s = 1e9 };
        }
      ()
  in
  let kernel = Cluster.node cluster 0 in
  let p = Kernel.spawn kernel ~name:"send" ~program:[||] () in
  let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let dst =
    Kernel.map_remote_pages kernel p ~remote_paddr:remote_buffer_paddr ~n:1
      ~perms:Perms.read_write
  in
  for i = 0 to 31 do
    Kernel.write_user kernel p (src + (8 * i)) (i + 1)
  done;
  Process.set_program p
    (Uldma_cpu.Asm.assemble_list
       [
         Uldma_cpu.Isa.Li (1, src);
         Uldma_cpu.Isa.Li (2, dst);
         Uldma_cpu.Isa.Li (3, 256);
         Uldma_cpu.Isa.Li (0, Sysno.sys_dma);
         Uldma_cpu.Isa.Syscall;
         Uldma_cpu.Isa.Halt;
       ]);
  ignore (Kernel.run kernel ~max_steps:100_000 () : Kernel.run_result);
  checki "packet settled" 1 (Cluster.settle cluster);
  checki "bytes delivered" 256 (Cluster.write_bytes_into cluster 1);
  checki "first word on receiver" 1
    (Phys_mem.load_word (Kernel.ram (Cluster.node cluster 1)) remote_buffer_paddr);
  checki "last word on receiver" 32
    (Phys_mem.load_word (Kernel.ram (Cluster.node cluster 1)) (remote_buffer_paddr + 248));
  checkb "arrival after wire time" true
    (Cluster.last_arrival_ps cluster >= Link.wire_time_ps Link.atm155 256)

let test_cluster_user_level_remote_dma () =
  (* the Telegraphos use case end to end: an ext-shadow user-level DMA
     whose destination is mapped remote memory *)
  let mech = Api.find_exn "ext-shadow" in
  let config =
    Api.kernel_config mech
      ~base:
        {
          Kernel.default_config with
          Kernel.ram_size = 64 * Layout.page_size;
          backend = Kernel.Local { bytes_per_s = 1e9 };
        }
  in
  let cluster = Cluster.create ~net:(Backend.linked Link.gigabit) ~nodes:2 ~config () in
  let kernel = Cluster.node cluster 0 in
  let p = Kernel.spawn kernel ~name:"send" ~program:[||] () in
  let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let dst =
    Kernel.map_remote_pages kernel p ~remote_paddr:remote_buffer_paddr ~n:1
      ~perms:Perms.read_write
  in
  let result_va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let prepared =
    mech.Mech.prepare kernel p ~src:{ Mech.vaddr = src; pages = 1 }
      ~dst:{ Mech.vaddr = dst; pages = 1 }
  in
  Kernel.write_user kernel p src 0xcafef00d;
  Process.set_program p
    (Uldma.Session.Stub.build_single ~vsrc:src ~vdst:dst ~size:128 ~result_va
       ~emit_dma:prepared.Mech.emit_dma);
  ignore (Kernel.run kernel ~max_steps:100_000 () : Kernel.run_result);
  checki "stub saw success" 1 (Uldma.Session.Stub.read_successes kernel p ~result_va);
  checki "one packet" 1 (Cluster.settle cluster);
  checki "payload on peer" 0xcafef00d
    (Phys_mem.load_word (Kernel.ram (Cluster.node cluster 1)) remote_buffer_paddr);
  checkb "kernel unmodified" false (Kernel.kernel_modified kernel)

let test_cluster_remote_word_store () =
  (* a plain uncached store to a remote page is a one-word packet *)
  let cluster =
    Cluster.create ~net:(Backend.linked Link.gigabit) ~nodes:2
      ~config:{ Kernel.default_config with Kernel.ram_size = 64 * Layout.page_size }
      ()
  in
  let kernel = Cluster.node cluster 0 in
  let p = Kernel.spawn kernel ~name:"poker" ~program:[||] () in
  let dst =
    Kernel.map_remote_pages kernel p ~remote_paddr:remote_buffer_paddr ~n:1
      ~perms:Perms.read_write
  in
  Process.set_program p
    (Uldma_cpu.Asm.assemble_list
       [
         Uldma_cpu.Isa.Li (1, dst + 16);
         Uldma_cpu.Isa.Li (2, 4242);
         Uldma_cpu.Isa.Store (1, 0, 2);
         Uldma_cpu.Isa.Halt;
       ]);
  ignore (Kernel.run kernel ~max_steps:10_000 () : Kernel.run_result);
  checki "one packet" 1 (Cluster.settle cluster);
  checki "word on peer" 4242
    (Phys_mem.load_word (Kernel.ram (Cluster.node cluster 1)) (remote_buffer_paddr + 16))

let test_cluster_ordering () =
  let nif = Uldma_net.Netif.create ~link:Link.gigabit in
  Uldma_net.Netif.send nif ~now:0 ~dst_paddr:0 ~payload:(Bytes.make 1000 'a');
  Uldma_net.Netif.send nif ~now:0 ~dst_paddr:8 ~payload:(Bytes.make 10 'b');
  (* serialisation: the second packet departs after the first *)
  checki "both in flight" 2 (Uldma_net.Netif.in_flight nif);
  let order = ref [] in
  ignore (Uldma_net.Netif.drain_all nif (fun p -> order := p.Uldma_net.Netif.dst_paddr :: !order));
  Alcotest.(check (list int)) "fifo" [ 0; 8 ] (List.rev !order)

let test_netif_serialisation () =
  let nif = Uldma_net.Netif.create ~link:Link.atm155 in
  (* two back-to-back sends: the second serialises after the first *)
  Uldma_net.Netif.send nif ~now:0 ~dst_paddr:0 ~payload:(Bytes.make 1024 'x');
  Uldma_net.Netif.send nif ~now:0 ~dst_paddr:0 ~payload:(Bytes.make 1024 'y');
  let arrivals = ref [] in
  ignore (Uldma_net.Netif.drain_all nif (fun p -> arrivals := p.Uldma_net.Netif.arrive_at :: !arrivals));
  (match List.rev !arrivals with
  | [ a1; a2 ] ->
    let serialisation = Units.transfer_ps ~bytes_per_s:Link.atm155.Link.bytes_per_s 1024 in
    checki "second delayed by one serialisation" (a1 + serialisation) a2
  | _ -> Alcotest.fail "expected two arrivals");
  checki "delivered count" 2 (Uldma_net.Netif.delivered nif)

let test_netif_poll_respects_time () =
  let nif = Uldma_net.Netif.create ~link:Link.atm155 in
  Uldma_net.Netif.send nif ~now:0 ~dst_paddr:0 ~payload:(Bytes.make 64 'x');
  checki "too early" 0 (Uldma_net.Netif.poll nif ~now:1 (fun _ -> ()));
  let arrival = match Uldma_net.Netif.next_arrival nif with Some a -> a | None -> 0 in
  checki "on time" 1 (Uldma_net.Netif.poll nif ~now:arrival (fun _ -> ()));
  checki "queue empty" 0 (Uldma_net.Netif.in_flight nif)

let test_link_wire_times () =
  checkb "atm155 slower than gigabit" true
    (Link.wire_time_ps Link.atm155 4096 > Link.wire_time_ps Link.gigabit 4096);
  checkb "bigger is slower" true
    (Link.wire_time_ps Link.atm155 4096 > Link.wire_time_ps Link.atm155 64)

(* Random sends (any [now], sizes from 0) interleaved with polls at
   random cutoffs, some exactly at a pending arrival, against a
   reference that recomputes every arrival from the link's parameters:
   arrivals never go backwards in send order, and each poll delivers
   exactly the not-yet-delivered packets with [arrive_at <= cutoff], in
   send order. *)
let test_netif_fifo_property =
  let gen =
    QCheck2.Gen.(
      pair
        (int_range 0 (List.length Link.all))
        (list_size (int_range 0 60)
           (oneof
              [
                map2 (fun now size -> `Send (now, size)) (int_range 0 200_000_000) (int_range 0 3000);
                map (fun cutoff -> `Poll cutoff) (int_range 0 300_000_000);
                map (fun k -> `Poll_at k) nat;
              ])))
  in
  let prop (li, ops) =
    let link = if li = 0 then Link.instant else List.nth Link.all (li - 1) in
    let nif = Uldma_net.Netif.create ~link in
    let busy = ref 0 and last_arrival = ref 0 and sends = ref 0 in
    let pending = ref [] (* (index, arrival) in send order *) and ok = ref true in
    let take p = (p.Uldma_net.Netif.dst_paddr, p.Uldma_net.Netif.arrive_at) in
    let poll cutoff =
      let expected, rest = List.partition (fun (_, a) -> a <= cutoff) !pending in
      pending := rest;
      let got = ref [] in
      let n = Uldma_net.Netif.poll nif ~now:cutoff (fun p -> got := take p :: !got) in
      if n <> List.length expected || List.rev !got <> expected then ok := false
    in
    List.iteri
      (fun i op ->
        match op with
        | `Send (now, size) ->
          let depart = max now !busy in
          busy := depart + Units.transfer_ps ~bytes_per_s:link.Link.bytes_per_s size;
          let arrive = depart + Link.wire_time_ps link size in
          if arrive < !last_arrival then ok := false;
          last_arrival := arrive;
          incr sends;
          pending := !pending @ [ (i, arrive) ];
          Uldma_net.Netif.send nif ~now ~dst_paddr:i ~payload:(Bytes.create size)
        | `Poll cutoff -> poll cutoff
        | `Poll_at k -> (
          match !pending with
          | [] -> ()
          | l -> poll (snd (List.nth l (k mod List.length l)))))
      ops;
    let got = ref [] in
    ignore (Uldma_net.Netif.drain_all nif (fun p -> got := take p :: !got) : int);
    !ok && List.rev !got = !pending
    && Uldma_net.Netif.delivered nif = !sends
  in
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name:"netif fifo" ~count:300 gen prop)

let test_cluster_remote_atomic () =
  (* one-sided cluster: the atomic executes on receiver RAM and the
     old value flies back into the sender's mailbox word *)
  let config =
    {
      Kernel.default_config with
      Kernel.ram_size = 64 * Layout.page_size;
      mechanism = Uldma_dma.Engine.Ext_shadow;
      backend = Kernel.Local { bytes_per_s = 1e9 };
    }
  in
  let cluster = Cluster.create ~net:(Backend.linked Link.gigabit) ~nodes:2 ~config () in
  let kernel = Cluster.node cluster 0 in
  let p = Kernel.spawn kernel ~name:"adder" ~program:[||] () in
  let mailbox = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let remote = Kernel.map_remote_pages kernel p ~remote_paddr:remote_buffer_paddr ~n:1 ~perms:Perms.read_write in
  let prepared =
    Uldma.Atomic.prepare Uldma.Atomic.Ext_shadow_initiated kernel p
      ~region:{ Mech.vaddr = remote; pages = 1 }
  in
  Kernel.set_atomic_mailbox kernel p ~vaddr:mailbox;
  Phys_mem.store_word (Kernel.ram (Cluster.node cluster 1)) remote_buffer_paddr 40;
  let asm = Uldma_cpu.Asm.create () in
  Uldma_cpu.Asm.li asm 1 remote;
  Uldma_cpu.Asm.li asm 5 2;
  prepared.Uldma.Atomic.emit_add asm ~operand:5;
  Uldma_cpu.Asm.halt asm;
  Process.set_program p (Uldma_cpu.Asm.assemble asm);
  ignore (Kernel.run kernel ~max_steps:10_000 () : Kernel.run_result);
  ignore (Cluster.settle cluster : int);
  checki "executed at receiver" 42 (Phys_mem.load_word (Kernel.ram (Cluster.node cluster 1)) remote_buffer_paddr);
  checki "old value delivered to mailbox" 40 (Kernel.read_user kernel p mailbox)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_snapshot () =
  let config = { Kernel.default_config with Kernel.ram_size = 64 * Layout.page_size } in
  let kernel = Kernel.create config in
  let spawn name n =
    let p = Kernel.spawn kernel ~name ~program:[||] () in
    let asm = Uldma_cpu.Asm.create () in
    let loop = Uldma_cpu.Asm.fresh_label asm "l" in
    Uldma_cpu.Asm.li asm 10 0;
    Uldma_cpu.Asm.li asm 11 n;
    Uldma_cpu.Asm.label asm loop;
    Uldma_cpu.Asm.add asm 10 10 (Uldma_cpu.Isa.Imm 1);
    Uldma_cpu.Asm.blt asm 10 11 loop;
    Uldma_cpu.Asm.halt asm;
    Process.set_program p (Uldma_cpu.Asm.assemble asm)
  in
  spawn "light" 50;
  spawn "heavy" 500;
  ignore (Kernel.run kernel () : Kernel.run_result);
  let m = Uldma_sim.Metrics.snapshot kernel in
  checki "two processes" 2 (List.length m.Uldma_sim.Metrics.processes);
  let shares = List.map (fun r -> r.Uldma_sim.Metrics.share) m.Uldma_sim.Metrics.processes in
  checkb "shares sum to ~1" true (abs_float (List.fold_left ( +. ) 0.0 shares -. 1.0) < 0.01);
  (match m.Uldma_sim.Metrics.processes with
  | [ light; heavy ] ->
    checkb "heavy ran ~10x the instructions" true
      (heavy.Uldma_sim.Metrics.instructions > 8 * light.Uldma_sim.Metrics.instructions);
    checkb "heavy got more cpu" true
      (heavy.Uldma_sim.Metrics.cpu_time_us > light.Uldma_sim.Metrics.cpu_time_us)
  | _ -> Alcotest.fail "rows");
  checkb "fairness spread > 1" true (Uldma_sim.Metrics.fairness_spread m > 1.0);
  checkb "renders" true
    (String.length (Tbl.render (Uldma_sim.Metrics.to_table m)) > 100)

let test_metrics_fair_round_robin () =
  let config =
    {
      Kernel.default_config with
      Kernel.ram_size = 64 * Layout.page_size;
      sched = Sched.Round_robin { quantum = 5 };
    }
  in
  let kernel = Kernel.create config in
  List.iter
    (fun name ->
      let p = Kernel.spawn kernel ~name ~program:[||] () in
      let asm = Uldma_cpu.Asm.create () in
      let loop = Uldma_cpu.Asm.fresh_label asm "l" in
      Uldma_cpu.Asm.li asm 10 0;
      Uldma_cpu.Asm.li asm 11 300;
      Uldma_cpu.Asm.label asm loop;
      Uldma_cpu.Asm.add asm 10 10 (Uldma_cpu.Isa.Imm 1);
      Uldma_cpu.Asm.blt asm 10 11 loop;
      Uldma_cpu.Asm.halt asm;
      Process.set_program p (Uldma_cpu.Asm.assemble asm))
    [ "a"; "b"; "c" ];
  ignore (Kernel.run kernel () : Kernel.run_result);
  let m = Uldma_sim.Metrics.snapshot kernel in
  checkb "equal work, near-equal time" true (Uldma_sim.Metrics.fairness_spread m < 1.15)

(* ------------------------------------------------------------------ *)
(* Two-node cluster: ping-pong and remote atomics *)

let test_duplex_pingpong_orders () =
  let rtt send = Experiments.pingpong_rtt ~link:Link.gigabit ~send ~rounds:5 in
  let store = rtt Experiments.Remote_store in
  let ext = rtt Experiments.Ext_shadow_dma in
  let kernel = rtt Experiments.Kernel_dma in
  checkb "store cheapest" true (store <= ext);
  checkb "user DMA beats kernel DMA" true (ext < kernel);
  (* RTT must at least cover two wire crossings *)
  let floor_us = 2.0 *. Units.to_us (Link.wire_time_ps Link.gigabit 8) in
  checkb "causally consistent" true (store >= floor_us)

let test_duplex_basic_delivery () =
  let config = { Kernel.default_config with Kernel.ram_size = 64 * Layout.page_size } in
  let d = Cluster.create ~net:(Backend.linked Link.gigabit) ~nodes:2 ~config () in
  let ka = Cluster.node d 0 in
  let kb = Cluster.node d 1 in
  let a = Kernel.spawn ka ~name:"a" ~program:[||] () in
  let b = Kernel.spawn kb ~name:"b" ~program:(Uldma_cpu.Asm.assemble_list [ Uldma_cpu.Isa.Halt ]) () in
  let flag_b = Kernel.alloc_pages kb b ~n:1 ~perms:Perms.read_write in
  let peer = Kernel.user_paddr kb b flag_b in
  let remote = Kernel.map_remote_pages ka a ~remote_paddr:peer ~n:1 ~perms:Perms.read_write in
  Process.set_program a
    (Uldma_cpu.Asm.assemble_list
       Uldma_cpu.Isa.[ Li (1, remote); Li (2, 31337); Store (1, 0, 2); Halt ]);
  checkb "converges" true (Cluster.run d () = Cluster.All_exited);
  checki "word landed on B" 31337 (Kernel.read_user kb b flag_b);
  checki "one packet to B" 1 (Cluster.packets_into d 1);
  checki "none to A" 0 (Cluster.packets_into d 0)

let test_duplex_remote_atomic () =
  (* node A performs fetch-and-add on a counter living on node B; the
     old value comes back into A's kernel-set mailbox *)
  let config =
    {
      Kernel.default_config with
      Kernel.ram_size = 64 * Layout.page_size;
      mechanism = Uldma_dma.Engine.Ext_shadow;
      backend = Kernel.Local { bytes_per_s = 1e9 };
    }
  in
  let d = Cluster.create ~net:(Backend.linked Link.gigabit) ~nodes:2 ~config () in
  let ka = Cluster.node d 0 in
  let kb = Cluster.node d 1 in
  let b = Kernel.spawn kb ~name:"owner" ~program:(Uldma_cpu.Asm.assemble_list [ Uldma_cpu.Isa.Halt ]) () in
  let counter = Kernel.alloc_pages kb b ~n:1 ~perms:Perms.read_write in
  Kernel.write_user kb b counter 500;
  let a = Kernel.spawn ka ~name:"adder" ~program:[||] () in
  let mailbox = Kernel.alloc_pages ka a ~n:1 ~perms:Perms.read_write in
  let remote =
    Kernel.map_remote_pages ka a ~remote_paddr:(Kernel.user_paddr kb b counter) ~n:1
      ~perms:Perms.read_write
  in
  let prepared =
    Uldma.Atomic.prepare Uldma.Atomic.Ext_shadow_initiated ka a
      ~region:{ Mech.vaddr = remote; pages = 1 }
  in
  Kernel.set_atomic_mailbox ka a ~vaddr:mailbox;
  let sentinel = 0x5e47 in
  Kernel.write_user ka a mailbox sentinel;
  let asm = Uldma_cpu.Asm.create () in
  Uldma_cpu.Asm.li asm 1 remote;
  Uldma_cpu.Asm.li asm 5 7;
  prepared.Uldma.Atomic.emit_add asm ~operand:5;
  Uldma_cpu.Asm.mov asm 10 0 (* immediate status: in progress *);
  (* spin until the reply lands in the mailbox *)
  let spin = Uldma_cpu.Asm.fresh_label asm "spin" in
  Uldma_cpu.Asm.li asm 11 mailbox;
  Uldma_cpu.Asm.li asm 12 sentinel;
  Uldma_cpu.Asm.label asm spin;
  Uldma_cpu.Asm.load asm 13 ~base:11 ~off:0;
  Uldma_cpu.Asm.beq asm 13 12 spin;
  Uldma_cpu.Asm.halt asm;
  Process.set_program a (Uldma_cpu.Asm.assemble asm);
  checkb "converges" true (Cluster.run d () = Cluster.All_exited);
  checki "status was in-progress" Uldma_dma.Status.in_progress
    (Uldma_cpu.Regfile.get a.Process.ctx.Uldma_cpu.Cpu.regs 10);
  checki "old value in mailbox" 500
    (Uldma_cpu.Regfile.get a.Process.ctx.Uldma_cpu.Cpu.regs 13);
  checki "counter incremented on B" 507 (Kernel.read_user kb b counter)

let test_remote_atomic_requires_mailbox () =
  (* without a kernel-set mailbox, the engine refuses the remote op *)
  let config =
    {
      Kernel.default_config with
      Kernel.ram_size = 64 * Layout.page_size;
      mechanism = Uldma_dma.Engine.Ext_shadow;
      backend = Kernel.Local { bytes_per_s = 1e9 };
    }
  in
  let kernel = Kernel.create config in
  let p = Kernel.spawn kernel ~name:"x" ~program:[||] () in
  let remote = Kernel.map_remote_pages kernel p ~remote_paddr:0x8000 ~n:1 ~perms:Perms.read_write in
  let prepared =
    Uldma.Atomic.prepare Uldma.Atomic.Ext_shadow_initiated kernel p
      ~region:{ Mech.vaddr = remote; pages = 1 }
  in
  let asm = Uldma_cpu.Asm.create () in
  Uldma_cpu.Asm.li asm 1 remote;
  Uldma_cpu.Asm.li asm 5 1;
  prepared.Uldma.Atomic.emit_add asm ~operand:5;
  Uldma_cpu.Asm.halt asm;
  Process.set_program p (Uldma_cpu.Asm.assemble asm);
  ignore (Kernel.run kernel ~max_steps:10_000 () : Kernel.run_result);
  checki "rejected" Uldma_dma.Status.failure (Uldma_cpu.Regfile.get p.Process.ctx.Uldma_cpu.Cpu.regs 0);
  checki "nothing shipped" 0
    (List.length (Uldma_dma.Engine.take_outbound (Kernel.engine kernel)))

(* ------------------------------------------------------------------ *)
(* Experiments registry *)

let test_registry_ids_unique () =
  let ids = List.map (fun e -> e.Experiments.id) Experiments.all in
  checki "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids));
  checki "twenty-one experiments" 21 (List.length ids)

let test_registry_find () =
  checkb "table1 present" true (Experiments.find "table1" <> None);
  checkb "missing" true (Experiments.find "nope" = None)

let test_registry_paper_refs () =
  List.iter
    (fun e -> checkb (e.Experiments.id ^ " has a paper ref") true (e.Experiments.paper_ref <> ""))
    Experiments.all

let test_cheap_experiments_run () =
  (* the scripted-attack experiments are cheap; run them and sanity
     check they produce non-empty tables *)
  List.iter
    (fun id ->
      match Experiments.find id with
      | Some e ->
        let tbl = e.Experiments.run () in
        checkb (id ^ " renders") true (String.length (Tbl.render tbl) > 100)
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "fig2_shrimp"; "fig5_attack3"; "fig6_attack4"; "key_security"; "ablate_wbuf" ]

let () =
  Alcotest.run "sim"
    [
      ( "table1",
        [
          Alcotest.test_case "within 12% of the paper" `Slow test_table1_tolerances;
          Alcotest.test_case "all initiations succeed" `Slow test_table1_all_succeed;
          Alcotest.test_case "order of magnitude" `Slow test_order_of_magnitude;
          Alcotest.test_case "ext-shadow fastest" `Slow test_ext_shadow_fastest;
          Alcotest.test_case "scales with accesses" `Slow test_user_methods_scale_with_accesses;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "bus speed helps user methods more" `Slow
            test_bus_speed_helps_user_more;
          Alcotest.test_case "syscall cost only hits kernel path" `Slow
            test_syscall_cost_only_hits_kernel_path;
          Alcotest.test_case "atomic measurements" `Slow test_atomic_measurements;
          Alcotest.test_case "contention latency" `Slow test_contention_latency;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "delivery" `Quick test_cluster_delivery;
          Alcotest.test_case "user-level remote DMA" `Quick test_cluster_user_level_remote_dma;
          Alcotest.test_case "remote word store" `Quick test_cluster_remote_word_store;
          Alcotest.test_case "remote atomic via cluster" `Quick test_cluster_remote_atomic;
          Alcotest.test_case "ordering" `Quick test_cluster_ordering;
          Alcotest.test_case "netif serialisation" `Quick test_netif_serialisation;
          Alcotest.test_case "netif poll timing" `Quick test_netif_poll_respects_time;
          Alcotest.test_case "wire times" `Quick test_link_wire_times;
          test_netif_fifo_property;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "snapshot" `Quick test_metrics_snapshot;
          Alcotest.test_case "round-robin fairness" `Quick test_metrics_fair_round_robin;
        ] );
      ( "duplex",
        [
          Alcotest.test_case "basic delivery" `Quick test_duplex_basic_delivery;
          Alcotest.test_case "ping-pong ordering" `Slow test_duplex_pingpong_orders;
          Alcotest.test_case "remote atomic round trip" `Quick test_duplex_remote_atomic;
          Alcotest.test_case "remote atomic requires mailbox" `Quick
            test_remote_atomic_requires_mailbox;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "ids unique" `Quick test_registry_ids_unique;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "paper refs" `Quick test_registry_paper_refs;
          Alcotest.test_case "cheap experiments run" `Slow test_cheap_experiments_run;
        ] );
    ]
