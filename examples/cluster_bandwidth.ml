(* Cluster bandwidth: the workload the paper's introduction motivates.

   A Network-of-Workstations application streams messages of varying
   sizes to a peer node. We compare achieved goodput when each message
   is launched with kernel-level DMA (a system call per message) vs
   extended shadow addressing (two uncached stores per message), on an
   ATM-155 link and on a Gigabit LAN.

   Run with: dune exec examples/cluster_bandwidth.exe *)

open Uldma_util
open Uldma_mem
open Uldma_os
module Mech = Uldma.Mech
module Api = Uldma.Api
module Cluster = Uldma.Cluster
module Link = Uldma_net.Link

let messages = 64

let run ~link ~mech_name ~message_size =
  let mech = Api.find_exn mech_name in
  let config =
    Api.kernel_config mech
      ~base:
        {
          Kernel.default_config with
          Kernel.ram_size = 128 * Layout.page_size;
          backend = Kernel.Local { bytes_per_s = 1e9 };
        }
  in
  let cluster = Cluster.create ~net:(Uldma_net.Backend.linked link) ~nodes:2 ~config () in
  let kernel = Cluster.node cluster 0 in
  let p = Kernel.spawn kernel ~name:"streamer" ~program:[||] () in
  let pages = 8 in
  let src = Kernel.alloc_pages kernel p ~n:pages ~perms:Perms.read_write in
  (* the destination is the peer node's memory, Telegraphos style *)
  let dst =
    Kernel.map_remote_pages kernel p ~remote_paddr:(32 * Layout.page_size) ~n:pages
      ~perms:Perms.read_write
  in
  let result_va = Kernel.alloc_pages kernel p ~n:1 ~perms:Perms.read_write in
  let prepared =
    mech.Mech.prepare kernel p ~src:{ Mech.vaddr = src; pages }
      ~dst:{ Mech.vaddr = dst; pages }
  in
  (* cycle through as many distinct page offsets as the message size
     allows within the region (power of two for the stub's mask) *)
  let pages_cycled =
    let fit = pages * Layout.page_size / max message_size Layout.page_size in
    let rec pow2 p = if 2 * p <= fit then pow2 (2 * p) else p in
    min pages (pow2 1)
  in
  Process.set_program p
    (Uldma.Session.Stub.build_loop
       {
         Uldma.Session.Stub.iterations = messages;
         transfer_size = message_size;
         src_base = src;
         dst_base = dst;
         pages = pages_cycled;
         result_va;
       }
       ~emit_dma:prepared.Mech.emit_dma);
  (match Kernel.run kernel ~max_steps:10_000_000 () with
  | Kernel.All_exited -> ()
  | _ -> failwith "streamer did not finish");
  ignore (Cluster.settle cluster : int);
  let elapsed_s = Units.to_us (Cluster.last_arrival_ps cluster) /. 1e6 in
  let bytes = Cluster.write_bytes_into cluster 1 in
  float_of_int bytes /. elapsed_s /. 1e6 (* MB/s goodput *)

let () =
  print_endline "=== NOW message streaming: kernel vs user-level DMA initiation ===";
  Printf.printf "(%d messages per cell; goodput in MB/s at the receiver)\n\n" messages;
  List.iter
    (fun link ->
      let tbl =
        Tbl.create
          ~title:(Format.asprintf "%a" Link.pp link)
          ~columns:
            [
              ("message size", Tbl.Right);
              ("kernel DMA (MB/s)", Tbl.Right);
              ("ext-shadow (MB/s)", Tbl.Right);
              ("gain", Tbl.Right);
            ]
      in
      List.iter
        (fun message_size ->
          let k = run ~link ~mech_name:"kernel" ~message_size in
          let u = run ~link ~mech_name:"ext-shadow" ~message_size in
          Tbl.add_row tbl
            [
              Format.asprintf "%a" Units.pp_bytes message_size;
              Printf.sprintf "%.2f" k;
              Printf.sprintf "%.2f" u;
              Printf.sprintf "%+.0f%%" (100.0 *. ((u /. k) -. 1.0));
            ])
        [ 64; 256; 1024; 4096; 16384; 65536 ];
      Tbl.print tbl)
    [ Link.atm155; Link.gigabit ];
  print_endline
    "Small messages gain the most: the initiation cost dominates their total time,\n\
     which is exactly the trend the paper's introduction predicts."
