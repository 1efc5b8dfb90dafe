open Uldma_util
open Uldma_mem
open Uldma_os
open Uldma_dma
open Uldma_net

(* ------------------------------------------------------------------ *)
(* Addressing: bits 26..31 of the remote-window offset carry the       *)
(* destination node (value = node + 1; 0 = "my successor", so a plain  *)
(* remote mapping on a two-node cluster reaches the peer). 64 MiB of   *)
(* peer RAM is addressable per node; the window holds 63 field values, *)
(* i.e. up to 62 explicitly named nodes.                               *)
(* ------------------------------------------------------------------ *)

let node_shift = 26
let node_mask = 0x3f
let per_node_bytes = 1 lsl node_shift
let max_nodes = node_mask - 1

(* On the wire, atomic requests are distinguished from plain writes by
   a tag bit far above the remote window. *)
let atomic_tag = 1 lsl 60

(* strip both the tag and the node field to recover the destination's
   local physical address *)
let local_mask = lnot (atomic_tag lor (node_mask lsl node_shift))

let remote_paddr ~node off =
  if node < 0 || node >= max_nodes then
    invalid_arg (Printf.sprintf "Cluster.remote_paddr: node %d out of range" node);
  if off < 0 || off >= per_node_bytes then
    invalid_arg
      (Printf.sprintf "Cluster.remote_paddr: offset %#x outside the per-node 64 MiB window" off);
  ((node + 1) lsl node_shift) lor off

type t = {
  kernels : Kernel.t array;
  mesh : Netif.t option array array; (* mesh.(src).(dst); None on the diagonal *)
  packets_into : int array;
  write_bytes_into : int array;
  mutable last_arrival : Units.ps;
}

let create ?(net = Backend.null) ?config_of ~nodes:n ~config () =
  if n < 2 || n > max_nodes then
    invalid_arg (Printf.sprintf "Cluster.create: nodes must be in 2..%d (got %d)" max_nodes n);
  let config_of = match config_of with Some f -> f | None -> fun _ -> config in
  let link = match Backend.link net with Some l -> l | None -> Link.instant in
  (* kernels first, in index order, so trace machine ids follow node
     indices on a shared ambient sink *)
  let kernels = Array.init n (fun i -> Kernel.create (config_of i)) in
  let mesh =
    Array.init n (fun src ->
      Array.init n (fun dst ->
        if src = dst then None
        else begin
          let nif = Netif.create ~link in
          (* arrivals at [dst] are traced on [dst]'s machine id *)
          Netif.set_sink nif ~machine:(Kernel.machine_id kernels.(dst)) (Kernel.trace kernels.(dst));
          Some nif
        end))
  in
  {
    kernels;
    mesh;
    packets_into = Array.make n 0;
    write_bytes_into = Array.make n 0;
    last_arrival = 0;
  }

let nodes t = Array.length t.kernels

let node t i =
  if i < 0 || i >= nodes t then
    invalid_arg (Printf.sprintf "Cluster.node: %d out of range (cluster has %d nodes)" i (nodes t));
  t.kernels.(i)

let mesh_netif t ~src ~dst =
  match t.mesh.(src).(dst) with
  | Some nif -> nif
  | None -> invalid_arg "Cluster.mesh_netif: src = dst"

let map_remote t ~src ~dst p ~remote_paddr:off ~n ~perms =
  ignore (node t src);
  ignore (node t dst);
  Kernel.map_remote_pages t.kernels.(src) p ~remote_paddr:(remote_paddr ~node:dst off) ~n ~perms

(* ------------------------------------------------------------------ *)
(* Wire protocol: plain writes carry their payload; atomics carry      *)
(* opcode + operands + reply address in a 32-byte record and are       *)
(* answered with an 8-byte write to the originator's mailbox.          *)
(* ------------------------------------------------------------------ *)

let encode_atomic (op : Atomic_op.t) ~reply_paddr =
  let payload = Bytes.create 32 in
  let opcode, a, b =
    match op with
    | Atomic_op.Add v -> (1, v, 0)
    | Atomic_op.Fetch_store v -> (2, v, 0)
    | Atomic_op.Cas { expected; new_value } -> (3, expected, new_value)
  in
  Bytes.set_int64_le payload 0 (Int64.of_int opcode);
  Bytes.set_int64_le payload 8 (Int64.of_int a);
  Bytes.set_int64_le payload 16 (Int64.of_int b);
  Bytes.set_int64_le payload 24 (Int64.of_int reply_paddr);
  payload

let decode_atomic payload =
  let word i = Int64.to_int (Bytes.get_int64_le payload (8 * i)) in
  let op =
    match word 0 with
    | 1 -> Atomic_op.Add (word 1)
    | 2 -> Atomic_op.Fetch_store (word 1)
    | _ -> Atomic_op.Cas { expected = word 1; new_value = word 2 }
  in
  (op, word 3)

let route t ~src addr =
  let f = (addr lsr node_shift) land node_mask in
  let n = nodes t in
  if f = 0 then (src + 1) mod n
  else if f - 1 < n then f - 1
  else
    failwith
      (Printf.sprintf "Cluster: packet from node %d addresses node %d, but the cluster has %d nodes"
         src (f - 1) n)

(* move freshly initiated transfers of node [src] onto the wires *)
let pump_outbound t src =
  List.iter
    (fun (p : Engine.outbound_packet) ->
      let dst = route t ~src p.Engine.remote_addr in
      let nif = mesh_netif t ~src ~dst in
      match p.Engine.kind with
      | Engine.Remote_write ->
        Netif.send nif ~now:p.Engine.sent_at ~dst_paddr:p.Engine.remote_addr
          ~payload:p.Engine.payload
      | Engine.Remote_atomic { op; reply_paddr } ->
        Netif.send nif ~now:p.Engine.sent_at
          ~dst_paddr:(atomic_tag lor p.Engine.remote_addr)
          ~payload:(encode_atomic op ~reply_paddr))
    (Engine.take_outbound (Kernel.engine t.kernels.(src)))

let pump_outbound_all t =
  for src = 0 to nodes t - 1 do
    pump_outbound t src
  done

(* [origin] is the node the packet came from (for atomic replies) *)
let apply t ~dst ~origin (p : Netif.packet) =
  let ram = Kernel.ram t.kernels.(dst) in
  if p.Netif.dst_paddr land atomic_tag <> 0 then begin
    let target = p.Netif.dst_paddr land local_mask in
    let op, reply_paddr = decode_atomic p.Netif.payload in
    let old_value =
      Atomic_op.execute op ~read:(Phys_mem.load_word ram) ~write:(Phys_mem.store_word ram) ~target
    in
    let reply = Bytes.create 8 in
    Bytes.set_int64_le reply 0 (Int64.of_int old_value);
    (* the reply rides the wire back to the originator's mailbox *)
    Netif.send (mesh_netif t ~src:dst ~dst:origin) ~now:p.Netif.arrive_at ~dst_paddr:reply_paddr
      ~payload:reply
  end
  else begin
    let local = p.Netif.dst_paddr land local_mask in
    let len = Bytes.length p.Netif.payload in
    for i = 0 to len - 1 do
      Phys_mem.store_byte ram (local + i) (Char.code (Bytes.get p.Netif.payload i))
    done;
    t.write_bytes_into.(dst) <- t.write_bytes_into.(dst) + len
  end;
  t.packets_into.(dst) <- t.packets_into.(dst) + 1;
  t.last_arrival <- max t.last_arrival p.Netif.arrive_at

(* move fresh transfers onto the wires, then deliver what has arrived
   by each destination's clock *)
let pump t =
  pump_outbound_all t;
  for dst = 0 to nodes t - 1 do
    let now = Kernel.now_ps t.kernels.(dst) in
    for origin = 0 to nodes t - 1 do
      if origin <> dst then
        ignore (Netif.poll (mesh_netif t ~src:origin ~dst) ~now (apply t ~dst ~origin) : int)
    done
  done

let settle t =
  let total = ref 0 in
  let progress = ref true in
  (* replies generated while draining land on other wires, so sweep
     until a whole pass moves nothing *)
  while !progress do
    pump_outbound_all t;
    let sweep = ref 0 in
    for src = 0 to nodes t - 1 do
      for dst = 0 to nodes t - 1 do
        if src <> dst then
          sweep := !sweep + Netif.drain_all (mesh_netif t ~src ~dst) (apply t ~dst ~origin:src)
      done
    done;
    total := !total + !sweep;
    progress := !sweep > 0
  done;
  Array.iter
    (fun k ->
      if t.last_arrival > Kernel.now_ps k then
        Uldma_bus.Clock.advance (Kernel.clock k) (t.last_arrival - Kernel.now_ps k))
    t.kernels;
  !total

type stop = All_exited | Max_steps | Predicate

let in_flight_total t =
  let n = ref 0 in
  for src = 0 to nodes t - 1 do
    for dst = 0 to nodes t - 1 do
      if src <> dst then n := !n + Netif.in_flight (mesh_netif t ~src ~dst)
    done
  done;
  !n

(* If a node is idle but has packets in flight toward it, advance its
   clock to the next arrival so the packet can land (an exited node's
   RAM still receives packets). *)
let settle_idle t dst =
  let next = ref None in
  for origin = 0 to nodes t - 1 do
    if origin <> dst then
      match Netif.next_arrival (mesh_netif t ~src:origin ~dst) with
      | Some at -> (
        match !next with Some cur when cur <= at -> () | _ -> next := Some at)
      | None -> ()
  done;
  match !next with
  | Some at when at > Kernel.now_ps t.kernels.(dst) ->
    Uldma_bus.Clock.advance (Kernel.clock t.kernels.(dst)) (at - Kernel.now_ps t.kernels.(dst))
  | Some _ | None -> ()

let run t ?(max_steps = 20_000_000) ?(until = fun _ -> false) () =
  let n = nodes t in
  let runnable i = Kernel.runnable_pids t.kernels.(i) <> [] in
  let rec loop steps =
    if until t then Predicate
    else if steps >= max_steps then Max_steps
    else begin
      for i = 0 to n - 1 do
        if not (runnable i) then settle_idle t i
      done;
      pump t;
      (* step the runnable node with the lowest clock; lowest index on
         ties (scanning downward with <= leaves the smallest index) *)
      let choice = ref (-1) in
      for i = n - 1 downto 0 do
        if
          runnable i
          && (!choice < 0 || Kernel.now_ps t.kernels.(i) <= Kernel.now_ps t.kernels.(!choice))
        then choice := i
      done;
      if !choice >= 0 then begin
        (match Kernel.step t.kernels.(!choice) with `Stepped _ | `Idle -> ());
        loop (steps + 1)
      end
      else begin
        (* every machine idle: let in-flight packets land, then stop *)
        for i = 0 to n - 1 do
          settle_idle t i
        done;
        pump t;
        if in_flight_total t = 0 then All_exited else loop (steps + 1)
      end
    end
  in
  loop 0

let now_ps t = Array.fold_left (fun acc k -> max acc (Kernel.now_ps k)) 0 t.kernels
let last_arrival_ps t = t.last_arrival
let packets_into t i = t.packets_into.(i)
let write_bytes_into t i = t.write_bytes_into.(i)
