open Uldma_mem
open Uldma_cpu
open Uldma_os

(* ------------------------------------------------------------------ *)
(* Stub-loop builders.                                                 *)
(*                                                                     *)
(* These live here (rather than in the workload layer) so that the     *)
(* Session front-end below can install measurement programs without a  *)
(* dependency cycle.                                                   *)
(* ------------------------------------------------------------------ *)

module Stub = struct
  type spec = {
    iterations : int;
    transfer_size : int;
    src_base : int;
    dst_base : int;
    pages : int;
    result_va : int;
  }

  (* register assignments private to the harness loop (the mechanism
     stubs clobber r0-r3 and r20-r28 only) *)
  let r_i = 10
  let r_n = 11
  let r_src = 12
  let r_dst = 13
  let r_mask = 14
  let r_offset = 15
  let r_successes = 16
  let r_result = 17

  let zero = Regfile.zero_reg

  let emit_success_count asm =
    let skip = Asm.fresh_label asm "skip_count" in
    Asm.blt asm Mech.reg_status zero skip;
    Asm.add asm r_successes r_successes (Isa.Imm 1);
    Asm.label asm skip

  let emit_epilogue asm ~result_va =
    Asm.li asm r_result result_va;
    Asm.store asm ~base:r_result ~off:0 r_successes;
    Asm.store asm ~base:r_result ~off:8 Mech.reg_status;
    Asm.halt asm

  let is_power_of_two n = n > 0 && n land (n - 1) = 0

  let build_loop spec ~emit_dma =
    if not (is_power_of_two spec.pages) then
      invalid_arg "Session.Stub.build_loop: pages must be a power of two";
    let asm = Asm.create () in
    let loop = Asm.fresh_label asm "loop" in
    Asm.li asm r_i 0;
    Asm.li asm r_n spec.iterations;
    Asm.li asm r_src spec.src_base;
    Asm.li asm r_dst spec.dst_base;
    Asm.li asm r_mask (spec.pages - 1);
    Asm.li asm r_successes 0;
    Asm.label asm loop;
    (* successive DMAs use different pages: offset = (i mod pages) << 13 *)
    Asm.and_ asm r_offset r_i (Isa.Reg r_mask);
    Asm.shl asm r_offset r_offset Layout.page_shift;
    Asm.add asm Mech.reg_vsrc r_src (Isa.Reg r_offset);
    Asm.add asm Mech.reg_vdst r_dst (Isa.Reg r_offset);
    Asm.li asm Mech.reg_size spec.transfer_size;
    emit_dma asm;
    emit_success_count asm;
    Asm.add asm r_i r_i (Isa.Imm 1);
    Asm.blt asm r_i r_n loop;
    emit_epilogue asm ~result_va:spec.result_va;
    Asm.assemble asm

  let build_repeat ~n ~vsrc ~vdst ~size ~result_va ~emit_dma =
    let asm = Asm.create () in
    let loop = Asm.fresh_label asm "loop" in
    Asm.li asm r_i 0;
    Asm.li asm r_n n;
    Asm.li asm r_successes 0;
    Asm.label asm loop;
    Asm.li asm Mech.reg_vsrc vsrc;
    Asm.li asm Mech.reg_vdst vdst;
    Asm.li asm Mech.reg_size size;
    emit_dma asm;
    emit_success_count asm;
    Asm.add asm r_i r_i (Isa.Imm 1);
    Asm.blt asm r_i r_n loop;
    emit_epilogue asm ~result_va;
    Asm.assemble asm

  let build_single ~vsrc ~vdst ~size ~result_va ~emit_dma =
    build_repeat ~n:1 ~vsrc ~vdst ~size ~result_va ~emit_dma

  let read_successes kernel p ~result_va = Kernel.read_user kernel p result_va
  let read_last_status kernel p ~result_va = Kernel.read_user kernel p (result_va + 8)
end

(* ------------------------------------------------------------------ *)
(* The one-stop session                                                *)
(* ------------------------------------------------------------------ *)

type preset =
  | Paper_machine
  | Local_backend of { bytes_per_s : float }
  | Timeshared of { quantum : int; bytes_per_s : float }

type t = { mech : Mech.t; kernel : Kernel.t }

type proc = {
  process : Process.t;
  src : Mech.region;
  dst : Mech.region;
  result_va : int;
  emit_dma : Asm.t -> unit;
}

let config_of_preset = function
  | Paper_machine -> Kernel.default_config
  | Local_backend { bytes_per_s } ->
    { Kernel.default_config with Kernel.backend = Kernel.Local { bytes_per_s } }
  | Timeshared { quantum; bytes_per_s } ->
    {
      Kernel.default_config with
      Kernel.sched = Sched.Round_robin { quantum };
      backend = Kernel.Local { bytes_per_s };
    }

let create ~mech ?preset ?config ?trace () =
  let m = Api.find_exn mech in
  let base =
    match (config, preset) with
    | Some c, _ -> c
    | None, Some p -> config_of_preset p
    | None, None -> Kernel.default_config
  in
  let kernel = Kernel.create (Api.kernel_config ~base m) in
  (match trace with None -> () | Some sink -> Kernel.set_trace kernel sink);
  { mech = m; kernel }

let of_mech ?preset ?config ?trace m =
  let base =
    match (config, preset) with
    | Some c, _ -> c
    | None, Some p -> config_of_preset p
    | None, None -> Kernel.default_config
  in
  let kernel = Kernel.create (Api.kernel_config ~base m) in
  (match trace with None -> () | Some sink -> Kernel.set_trace kernel sink);
  { mech = m; kernel }

let kernel t = t.kernel
let mech t = t.mech
let trace t = Kernel.trace t.kernel
let now_ps t = Kernel.now_ps t.kernel

let process t ~name ?(src_pages = 8) ?(dst_pages = 8) () =
  let p = Kernel.spawn t.kernel ~name ~program:[||] () in
  let src = Kernel.alloc_pages t.kernel p ~n:src_pages ~perms:Perms.read_write in
  let dst = Kernel.alloc_pages t.kernel p ~n:dst_pages ~perms:Perms.read_write in
  let result_va = Kernel.alloc_pages t.kernel p ~n:1 ~perms:Perms.read_write in
  let src = { Mech.vaddr = src; pages = src_pages } in
  let dst = { Mech.vaddr = dst; pages = dst_pages } in
  let prepared = t.mech.Mech.prepare t.kernel p ~src ~dst in
  { process = p; src; dst; result_va; emit_dma = prepared.Mech.emit_dma }

let dma_stub ?(iterations = 1000) ?(transfer_size = 1024) _t proc =
  let pages = min proc.src.Mech.pages proc.dst.Mech.pages in
  Process.set_program proc.process
    (Stub.build_loop
       {
         Stub.iterations;
         transfer_size;
         src_base = proc.src.Mech.vaddr;
         dst_base = proc.dst.Mech.vaddr;
         pages;
         result_va = proc.result_va;
       }
       ~emit_dma:proc.emit_dma)

let dma_once ?(transfer_size = 1024) _t proc =
  Process.set_program proc.process
    (Stub.build_single ~vsrc:proc.src.Mech.vaddr ~vdst:proc.dst.Mech.vaddr ~size:transfer_size
       ~result_va:proc.result_va ~emit_dma:proc.emit_dma)

let program _t proc instrs = Process.set_program proc.process instrs

let run ?max_steps t = Kernel.run t.kernel ?max_steps ()

let run_exn ?max_steps t =
  match run ?max_steps t with
  | Kernel.All_exited -> ()
  | Kernel.Max_steps -> failwith ("Session.run_exn: " ^ t.mech.Mech.name ^ " did not finish")
  | Kernel.Predicate -> assert false

(* ------------------------------------------------------------------ *)
(* Cluster front door                                                  *)
(* ------------------------------------------------------------------ *)

let cluster ?(net = "atm155") ?tick_ps ?mech ?preset ?config ?config_of ~nodes () =
  match Uldma_net.Backend.of_string ?tick_ps net with
  | Error e -> Error e
  | Ok backend -> (
    if nodes < 2 || nodes > Cluster.max_nodes then
      Error
        (Printf.sprintf "cluster size must be in 2..%d nodes (got %d)" Cluster.max_nodes nodes)
    else
      let base =
        match (config, preset) with
        | Some c, _ -> c
        | None, Some p -> config_of_preset p
        | None, None -> Kernel.default_config
      in
      let apply_mech =
        match mech with
        | None -> Ok (fun c -> c)
        | Some name -> (
          match Api.find name with
          | Some m -> Ok (fun c -> Api.kernel_config ~base:c m)
          | None ->
            Error
              (Printf.sprintf "unknown mechanism %S (expected one of: %s)" name
                 (String.concat ", " Api.names)))
      in
      match apply_mech with
      | Error e -> Error e
      | Ok apply ->
        let config_of =
          match config_of with
          | Some f -> fun i -> apply (f i)
          | None -> fun _ -> apply base
        in
        Ok (Cluster.create ~net:backend ~config_of ~nodes ~config:(apply base) ()))

let cluster_exn ?net ?tick_ps ?mech ?preset ?config ?config_of ~nodes () =
  match cluster ?net ?tick_ps ?mech ?preset ?config ?config_of ~nodes () with
  | Ok c -> c
  | Error e -> invalid_arg ("Session.cluster: " ^ e)

let successes t proc = Kernel.read_user t.kernel proc.process proc.result_va
let last_status t proc = Kernel.read_user t.kernel proc.process (proc.result_va + 8)
let read t proc va = Kernel.read_user t.kernel proc.process va
let write t proc va v = Kernel.write_user t.kernel proc.process va v
let metrics t = Kernel.counter_snapshot t.kernel
