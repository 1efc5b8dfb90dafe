(* Telegraphos-style shared memory across two workstations.

   The paper's sec. 3.5 context: "several network interfaces that
   provide a shared-memory abstraction on a Network of Workstations
   have been developed [Telegraphos, Dolphin SCI]. To facilitate
   shared-memory programming, these interfaces also provide atomic
   operations."

   Node B hosts a shared page (a slot counter and a message board).
   Two writer processes on node A claim board slots with user-level
   *remote* fetch-and-add operations (two uncached accesses each; the
   old value returns over the wire into a kernel-set mailbox), then
   publish their messages with remote stores, and finally elect a
   finisher with a remote compare-and-swap. No system call after
   setup; no kernel modification anywhere.

   Run with: dune exec examples/telegraphos_shm.exe *)

open Uldma_mem
open Uldma_cpu
open Uldma_os
module Mech = Uldma.Mech
module Cluster = Uldma.Cluster

let messages_per_writer = 3
let sentinel = 0x5e47

(* shared page layout on node B *)
let slot_counter_off = 0
let cas_winner_off = 8
let board_off = 64

let writer_program ~remote ~mailbox ~writer_id ~prepared =
  let asm = Asm.create () in
  let wait_reply () =
    let spin = Asm.fresh_label asm "wait_reply" in
    Asm.label asm spin;
    Asm.load asm 13 ~base:11 ~off:0;
    Asm.beq asm 13 12 spin;
    (* r13 = old value; rearm the mailbox for the next operation *)
    Asm.store asm ~base:11 ~off:0 12
  in
  Asm.li asm 11 mailbox;
  Asm.li asm 12 sentinel;
  Asm.li asm 14 (remote + board_off);
  Asm.li asm 10 0;
  Asm.li asm 15 messages_per_writer;
  let next = Asm.fresh_label asm "next_message" in
  Asm.label asm next;
  (* claim a board slot: remote fetch_and_add(slot_counter, 1) *)
  Asm.li asm 1 (remote + slot_counter_off);
  Asm.li asm 5 1;
  prepared.Uldma.Atomic.emit_add asm ~operand:5;
  wait_reply ();
  (* board[slot] <- writer_id * 100 + sequence, via a remote store *)
  Asm.shl asm 6 13 3;
  Asm.add asm 6 6 (Isa.Reg 14);
  Asm.li asm 7 (writer_id * 100);
  Asm.add asm 7 7 (Isa.Reg 10);
  Asm.store asm ~base:6 ~off:0 7;
  Asm.mb asm;
  Asm.add asm 10 10 (Isa.Imm 1);
  Asm.blt asm 10 15 next;
  (* leader election: remote CAS(cas_winner, 0 -> writer_id) *)
  Asm.li asm 1 (remote + cas_winner_off);
  Asm.li asm 5 0;
  Asm.li asm 6 writer_id;
  prepared.Uldma.Atomic.emit_cas asm ~expected:5 ~desired:6;
  wait_reply ();
  Asm.halt asm;
  Asm.assemble asm

let () =
  print_endline "=== Telegraphos shared memory: remote atomics over the wire ===\n";
  let config =
    {
      Kernel.default_config with
      Kernel.ram_size = 64 * Layout.page_size;
      mechanism = Uldma_dma.Engine.Ext_shadow;
      backend = Kernel.Local { bytes_per_s = 1e9 };
      sched = Sched.Round_robin { quantum = 25 };
    }
  in
  let c =
    Cluster.create ~net:(Uldma_net.Backend.linked Uldma_net.Link.gigabit) ~nodes:2 ~config ()
  in
  let node_a = Cluster.node c 0 and node_b = Cluster.node c 1 in

  (* node B: the memory host *)
  let host = Kernel.spawn node_b ~name:"host" ~program:(Asm.assemble_list [ Isa.Halt ]) () in
  let shared = Kernel.alloc_pages node_b host ~n:1 ~perms:Perms.read_write in
  let shared_paddr = Kernel.user_paddr node_b host shared in

  (* node A: two writers, each with its own context and mailbox *)
  let spawn_writer writer_id =
    let p = Kernel.spawn node_a ~name:(Printf.sprintf "writer%d" writer_id) ~program:[||] () in
    let mailbox = Kernel.alloc_pages node_a p ~n:1 ~perms:Perms.read_write in
    let remote =
      Kernel.map_remote_pages node_a p ~remote_paddr:shared_paddr ~n:1 ~perms:Perms.read_write
    in
    let prepared =
      Uldma.Atomic.prepare Uldma.Atomic.Ext_shadow_initiated node_a p
        ~region:{ Mech.vaddr = remote; pages = 1 }
    in
    Kernel.set_atomic_mailbox node_a p ~vaddr:mailbox;
    Kernel.write_user node_a p mailbox sentinel;
    Process.set_program p (writer_program ~remote ~mailbox ~writer_id ~prepared)
  in
  spawn_writer 1;
  spawn_writer 2;

  (match Cluster.run c () with
  | Cluster.All_exited -> ()
  | Cluster.Max_steps | Cluster.Predicate -> failwith "did not converge");

  let read off = Kernel.read_user node_b host (shared + off) in
  let slots = read slot_counter_off in
  Printf.printf "board slots claimed:  %d (expected %d)\n" slots (2 * messages_per_writer);
  Printf.printf "CAS leader:           writer %d\n" (read cas_winner_off);
  print_endline "board contents (slot: value = writer*100 + seq):";
  for slot = 0 to slots - 1 do
    Printf.printf "  %d: %d\n" slot (read (board_off + (8 * slot)))
  done;
  let seen = List.init slots (fun slot -> read (board_off + (8 * slot))) in
  let expected =
    List.concat_map (fun w -> List.init messages_per_writer (fun s -> (w * 100) + s)) [ 1; 2 ]
  in
  Printf.printf "\nall messages present, no slot clobbered: %b\n"
    (List.sort compare seen = List.sort compare expected);
  Printf.printf "packets delivered:    %d to B, %d replies to A\n"
    (Cluster.packets_into c 1) (Cluster.packets_into c 0);
  Format.printf "simulated time:       %a@." Uldma_util.Units.pp_time (Cluster.now_ps c);
  print_endline
    "\nEvery slot claim was a user-level remote fetch-and-add: one store + one load\n\
     on node A, the add executed at node B's memory, the old value returned into\n\
     a kernel-set mailbox. The kernels were never modified."
