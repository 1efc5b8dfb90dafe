open Uldma_util
open Uldma_net

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

type params = {
  nodes : int;
  clients : int;
  transfers : int;
  batch : int;
  window : int;
  value_size : int;
  get_ratio : float;
  seed : int;
  mech : string;
}

let default_params =
  {
    nodes = 4;
    clients = 1000;
    transfers = 1_000_000;
    batch = 8;
    window = 32;
    value_size = 64;
    get_ratio = 0.5;
    seed = 42;
    mech = "ext-shadow";
  }

let validate_params p =
  if p.nodes < 2 || p.nodes > Uldma.Cluster.max_nodes then
    Error (Printf.sprintf "nodes must be in 2..%d (got %d)" Uldma.Cluster.max_nodes p.nodes)
  else if p.clients < 1 then Error "clients must be >= 1"
  else if p.transfers < 1 then Error "transfers must be >= 1"
  else if p.batch < 1 then Error "batch must be >= 1"
  else if p.window < 1 then Error "window must be >= 1"
  else if p.value_size < 1 then Error "value-size must be >= 1"
  else if not (p.get_ratio >= 0.0 && p.get_ratio <= 1.0) then
    Error "get-ratio must be in [0, 1]"
  else Ok p

(* ------------------------------------------------------------------ *)
(* Calibration: run the real mechanism, read the clock.                *)
(* ------------------------------------------------------------------ *)

type calibration = {
  cal_mech : string;
  initiation_ps : int;
  submit_ps : int;
  service_base_ps : int;
  ram_bytes_per_s : float;
}

let calibrate ?(iterations = 256) ?config mech =
  match Uldma.Api.find mech with
  | None ->
    Error
      (Printf.sprintf "unknown mechanism %S (expected one of: %s)" mech
         (String.concat ", " Uldma.Api.names))
  | Some m ->
    (* Table-1 methodology on the Null backend: the clock delta per
       iteration is pure initiation cost (loop overhead included, which
       is honest — a real submission loop pays it too). *)
    let s = Uldma.Session.of_mech ?config m in
    let p = Uldma.Session.process s ~name:"cal" () in
    Uldma.Session.dma_stub ~iterations ~transfer_size:64 s p;
    Uldma.Session.run_exn s;
    let initiation_ps = Uldma.Session.now_ps s / iterations in
    let timing = Uldma_os.Kernel.timing (Uldma.Session.kernel s) in
    (* enqueue one descriptor: build it in registers and store it to
       the (cached) submission queue *)
    let submit_ps =
      (2 * Uldma_bus.Timing.instruction_ps timing) + (2 * Uldma_bus.Timing.cached_access_ps timing)
    in
    Ok
      {
        cal_mech = mech;
        initiation_ps;
        submit_ps;
        service_base_ps = Units.ns 500.0;
        ram_bytes_per_s = 1e9;
      }

(* ------------------------------------------------------------------ *)
(* Instruction-level validation burst over the real mesh.              *)
(* ------------------------------------------------------------------ *)

let cosim_burst cluster ~words =
  let open Uldma_os in
  let module C = Uldma.Cluster in
  let n = C.nodes cluster in
  for src = 0 to n - 1 do
    let kernel = C.node cluster src in
    let dst = (src + 1) mod n in
    let p = Kernel.spawn kernel ~name:(Printf.sprintf "burst%d" src) ~program:[||] () in
    (* write into the last page of the successor's RAM: the frame
       allocator hands out low frames first, so the top page is free *)
    let peer_ram = (Kernel.config (C.node cluster dst)).Kernel.ram_size in
    let vaddr =
      C.map_remote cluster ~src ~dst p
        ~remote_paddr:(peer_ram - Uldma_mem.Layout.page_size)
        ~n:1 ~perms:Uldma_mem.Perms.read_write
    in
    let open Uldma_cpu in
    let asm = Asm.create () in
    let loop = Asm.fresh_label asm "loop" in
    Asm.li asm 10 vaddr;
    Asm.li asm 11 words;
    Asm.li asm 12 0;
    Asm.label asm loop;
    Asm.store asm ~base:10 ~off:0 12;
    Asm.add asm 10 10 (Isa.Imm 8);
    Asm.add asm 12 12 (Isa.Imm 1);
    Asm.blt asm 12 11 loop;
    Asm.halt asm;
    Process.set_program p (Asm.assemble asm)
  done;
  (match C.run cluster () with
  | C.All_exited -> ()
  | C.Max_steps | C.Predicate -> failwith "Kv_load.cosim_burst: cluster did not converge");
  let bytes = ref 0 and packets = ref 0 in
  for i = 0 to n - 1 do
    bytes := !bytes + C.write_bytes_into cluster i;
    packets := !packets + C.packets_into cluster i
  done;
  (!bytes, !packets)

(* ------------------------------------------------------------------ *)
(* The discrete-event load generator.                                  *)
(*                                                                     *)
(* Resources: one shared CPU per node (clients contend FCFS for        *)
(* descriptor writes and doorbells), one NI engine per node (serves    *)
(* GET/PUT value movement), and one wire per ordered node pair timed   *)
(* by Link.reserve, the rule Netif uses: departure waits for the wire  *)
(* to be free, serialisation occupies it, latency pipelines.           *)
(* ------------------------------------------------------------------ *)

type result = {
  net_name : string;
  transfers : int;
  gets : int;
  puts : int;
  doorbells : int;
  value_bytes : int;
  wire_bytes : int;
  latency : Uldma_obs.Percentile.t;
  sim_ps : int;
  counters : Uldma_obs.Counters.t;
}

let header_bytes = 32 (* request header: op, key, length, sequence *)
let ack_bytes = 16 (* PUT acknowledgement *)

(* ------------------------------------------------------------------ *)
(* The event core. Nothing in the event loop allocates.                *)
(*                                                                     *)
(* Every event is ordered by (time, seq), [seq] counting events in the *)
(* order they are scheduled, exactly as one global heap of every event *)
(* would order them. Most events need not sit in the heap, though,     *)
(* because they join queues whose (time, seq) only grows:              *)
(*                                                                     *)
(* - a wire departs in order and each departure waits out the previous *)
(*   one's serialisation (Link.reserve), so arrivals on one wire come  *)
(*   in time order;                                                    *)
(* - a client that submits wakes again when its node's CPU is next     *)
(*   free, and that time never goes back, so the wake-ups a node's     *)
(*   submissions schedule come in time order too.                      *)
(*                                                                     *)
(* Each such queue is a FIFO linked through flat int arrays, and only  *)
(* its head sits in the heap. The heap holds one entry per wire and    *)
(* per node plus the few clients woken by a completion: tens of        *)
(* entries where one per transfer in flight (tens of thousands) would  *)
(* otherwise be.                                                       *)
(*                                                                     *)
(* Every transfer from submission to response owns a slot: a fixed run *)
(* of ints in one flat array. A client's unflushed descriptors and the *)
(* messages on a wire are linked through their slots.                  *)
(* ------------------------------------------------------------------ *)

let nil = -1

(* slot fields *)
let s_meta = 0 (* see [meta] *)
let s_submit = 1
let s_arrive = 2
let s_seq = 3
let s_next = 4
let slot_width = 5

(* client fields *)
let c_ready = 0
let c_remaining = 1
let c_outstanding = 2
let c_parked = 3
let c_head = 4 (* unflushed descriptors, oldest first *)
let c_tail = 5
let c_pending = 6
let c_wake = 7 (* time, seq and successor on its node's run queue *)
let c_seq = 8
let c_next = 9
let c_node = 10
let client_width = 11

(* wire fields, one wire per ordered node pair *)
let w_busy = 0 (* Link.reserve's busy_until *)
let w_head = 1
let w_tail = 2
let wire_width = 3

(* node fields *)
let n_cpu_free = 0
let n_engine_free = 1
let n_head = 2 (* run queue *)
let n_tail = 3
let node_width = 4

(* A transfer's fixed facts in one int: whether it is a GET, whether
   its message in flight is the response, the server and client nodes
   (6 bits each: at most 62 nodes) and the client. *)
let[@inline] meta ~client ~src ~dst ~is_get =
  (client lsl 14) lor (src lsl 8) lor (dst lsl 2) lor if is_get then 1 else 0

let reply_bit = 2
let[@inline] meta_get m = m land 1
let[@inline] meta_dst m = (m lsr 2) land 63
let[@inline] meta_src m = (m lsr 8) land 63
let[@inline] meta_client m = m lsr 14

let[@inline] imax (a : int) b = if a >= b then a else b

let run p ~cal ~net =
  (match validate_params p with Ok _ -> () | Error e -> invalid_arg ("Kv_load.run: " ^ e));
  let n = p.nodes and clients = p.clients in
  let link = match Backend.link net with Some l -> l | None -> Link.instant in
  (* message sizes and serialisation times, indexed by is_get *)
  let req_bytes = [| header_bytes + p.value_size; header_bytes |] in
  let resp_bytes = [| ack_bytes; header_bytes + p.value_size |] in
  let req_ser = Array.map (Link.serialisation_ps link) req_bytes in
  let resp_ser = Array.map (Link.serialisation_ps link) resp_bytes in
  let latency_ps = link.Link.latency_ps in
  let service_ps =
    cal.service_base_ps + Units.transfer_ps ~bytes_per_s:cal.ram_bytes_per_s p.value_size
  in
  let cl = Array.make (clients * client_width) 0 in
  let base = p.transfers / clients and extra = p.transfers mod clients in
  (* a client holds at most [window] slots, and never more than it
     has transfers *)
  let n_slots = ref 0 in
  for c = 0 to clients - 1 do
    let quota = base + if c < extra then 1 else 0 in
    let ci = c * client_width in
    cl.(ci + c_remaining) <- quota;
    cl.(ci + c_head) <- nil;
    cl.(ci + c_tail) <- nil;
    cl.(ci + c_node) <- c mod n;
    n_slots := !n_slots + min p.window quota
  done;
  let slots = Array.make (!n_slots * slot_width) 0 in
  let free = Array.init !n_slots Fun.id in
  let n_free = ref !n_slots in
  let wires = Array.make (n * n * wire_width) 0 in
  for w = 0 to (n * n) - 1 do
    wires.((w * wire_width) + w_head) <- nil;
    wires.((w * wire_width) + w_tail) <- nil
  done;
  let nodes = Array.make (n * node_width) 0 in
  for node = 0 to n - 1 do
    nodes.((node * node_width) + n_head) <- nil;
    nodes.((node * node_width) + n_tail) <- nil
  done;
  let rngs = Array.init clients (fun c -> Rng.create ~seed:(p.seed + (31 * c) + 1)) in
  (* heap values: [c < clients] is client c woken by a completion,
     [clients + w] the head of wire w, [clients + n*n + node] the head
     of node's run queue *)
  let heap = Pqueue.Int.create () in
  let first_wire = clients and first_node = clients + (n * n) in
  let seq = ref 0 in
  let latency = Uldma_obs.Percentile.create () in
  let counters = Uldma_obs.Counters.create () in
  let latency_hist = Uldma_obs.Counters.histogram counters "kv.latency_ps" in
  let gets = ref 0 and puts = ref 0 and doorbells = ref 0 in
  let value_bytes = ref 0 and wire_bytes = ref 0 in
  let completed = ref 0 and sim_end = ref 0 in
  (* client [c] steps again at [key], which is no earlier than any
     wake-up already on its node's run queue *)
  let requeue c key =
    let ci = c * client_width in
    let node = cl.(ci + c_node) in
    let ni = node * node_width in
    cl.(ci + c_wake) <- key;
    cl.(ci + c_seq) <- !seq;
    cl.(ci + c_next) <- nil;
    let tail = nodes.(ni + n_tail) in
    if tail = nil then begin
      nodes.(ni + n_head) <- c;
      Pqueue.Int.push heap ~key ~seq:!seq (first_node + node)
    end
    else cl.((tail * client_width) + c_next) <- c;
    nodes.(ni + n_tail) <- c;
    incr seq
  in
  (* put [slot]'s message on the wire src -> dst at [now] *)
  let send ~src ~dst ~now ~bytes ~ser slot =
    let w = (src * n) + dst in
    let wi = w * wire_width in
    let busy = Link.reserve ~busy_until:wires.(wi + w_busy) ~now ~serialisation:ser in
    wires.(wi + w_busy) <- busy;
    wire_bytes := !wire_bytes + bytes;
    let arrive = busy + latency_ps in
    let si = slot * slot_width in
    slots.(si + s_arrive) <- arrive;
    slots.(si + s_seq) <- !seq;
    slots.(si + s_next) <- nil;
    let tail = wires.(wi + w_tail) in
    if tail = nil then begin
      wires.(wi + w_head) <- slot;
      Pqueue.Int.push heap ~key:arrive ~seq:!seq (first_wire + w)
    end
    else slots.((tail * slot_width) + s_next) <- slot;
    wires.(wi + w_tail) <- slot;
    incr seq
  in
  let flush c =
    let ci = c * client_width in
    if cl.(ci + c_pending) > 0 then begin
      let node = cl.(ci + c_node) in
      let ni = node * node_width in
      (* the doorbell: one verified initiation sequence, whatever the
         batch size — this is the scaling lever *)
      let fin = imax cl.(ci + c_ready) nodes.(ni + n_cpu_free) + cal.initiation_ps in
      cl.(ci + c_ready) <- fin;
      nodes.(ni + n_cpu_free) <- fin;
      incr doorbells;
      let slot = ref cl.(ci + c_head) in
      while !slot <> nil do
        let si = !slot * slot_width in
        let next = slots.(si + s_next) in
        let m = slots.(si + s_meta) in
        let g = meta_get m in
        send ~src:node ~dst:(meta_dst m) ~now:fin ~bytes:req_bytes.(g) ~ser:req_ser.(g) !slot;
        slot := next
      done;
      cl.(ci + c_head) <- nil;
      cl.(ci + c_tail) <- nil;
      cl.(ci + c_pending) <- 0
    end
  in
  let step c now =
    let ci = c * client_width in
    let node = cl.(ci + c_node) in
    let ni = node * node_width in
    let remaining = cl.(ci + c_remaining) in
    if remaining > 0 && cl.(ci + c_outstanding) < p.window then begin
      (* enqueue one descriptor in the process's submission queue *)
      let fin = imax (imax now cl.(ci + c_ready)) nodes.(ni + n_cpu_free) + cal.submit_ps in
      cl.(ci + c_ready) <- fin;
      nodes.(ni + n_cpu_free) <- fin;
      let rng = rngs.(c) in
      let dst = node + 1 + Rng.int rng (n - 1) in
      let dst = if dst >= n then dst - n else dst in
      let is_get = Rng.chance rng p.get_ratio in
      if is_get then incr gets else incr puts;
      decr n_free;
      let slot = free.(!n_free) in
      let si = slot * slot_width in
      slots.(si + s_meta) <- meta ~client:c ~src:node ~dst ~is_get;
      slots.(si + s_submit) <- fin;
      slots.(si + s_next) <- nil;
      let tail = cl.(ci + c_tail) in
      if tail = nil then cl.(ci + c_head) <- slot
      else slots.((tail * slot_width) + s_next) <- slot;
      cl.(ci + c_tail) <- slot;
      cl.(ci + c_pending) <- cl.(ci + c_pending) + 1;
      cl.(ci + c_remaining) <- remaining - 1;
      cl.(ci + c_outstanding) <- cl.(ci + c_outstanding) + 1;
      if cl.(ci + c_pending) >= p.batch || remaining = 1 then flush c;
      (* the client's ready time is now its node's CPU-free time *)
      requeue c cl.(ci + c_ready)
    end
    else if remaining > 0 then begin
      (* window full: push out what we have and sleep on a completion *)
      flush c;
      cl.(ci + c_parked) <- 1
    end
    else flush c
  in
  (* the head of node's run queue steps *)
  let run_next node now =
    let ni = node * node_width in
    let c = nodes.(ni + n_head) in
    let next = cl.((c * client_width) + c_next) in
    if next = nil then begin
      nodes.(ni + n_head) <- nil;
      nodes.(ni + n_tail) <- nil;
      Pqueue.Int.remove_min heap
    end
    else begin
      nodes.(ni + n_head) <- next;
      let nci = next * client_width in
      Pqueue.Int.replace_min heap ~key:cl.(nci + c_wake) ~seq:cl.(nci + c_seq) (first_node + node)
    end;
    step c now
  in
  (* the head message of wire [w] arrives *)
  let deliver w now =
    let wi = w * wire_width in
    let slot = wires.(wi + w_head) in
    let si = slot * slot_width in
    let next = slots.(si + s_next) in
    if next = nil then begin
      wires.(wi + w_head) <- nil;
      wires.(wi + w_tail) <- nil;
      Pqueue.Int.remove_min heap
    end
    else begin
      wires.(wi + w_head) <- next;
      let nsi = next * slot_width in
      Pqueue.Int.replace_min heap ~key:slots.(nsi + s_arrive) ~seq:slots.(nsi + s_seq)
        (first_wire + w)
    end;
    let m = slots.(si + s_meta) in
    if m land reply_bit = 0 then begin
      (* a request: the target node's NI serves it, a fixed cost plus
         the value moving through its memory system. No server CPU —
         the whole point of user-level DMA as a service. *)
      let dst = meta_dst m in
      let di = dst * node_width in
      let fin = imax now nodes.(di + n_engine_free) + service_ps in
      nodes.(di + n_engine_free) <- fin;
      slots.(si + s_meta) <- m lor reply_bit;
      let g = meta_get m in
      send ~src:dst ~dst:(meta_src m) ~now:fin ~bytes:resp_bytes.(g) ~ser:resp_ser.(g) slot
    end
    else begin
      (* a response: the transfer is done *)
      let lat = now - slots.(si + s_submit) in
      Uldma_obs.Percentile.record latency lat;
      Uldma_obs.Counters.record latency_hist lat;
      value_bytes := !value_bytes + p.value_size;
      let c = meta_client m in
      let ci = c * client_width in
      cl.(ci + c_outstanding) <- cl.(ci + c_outstanding) - 1;
      free.(!n_free) <- slot;
      incr n_free;
      incr completed;
      if now > !sim_end then sim_end := now;
      if cl.(ci + c_parked) = 1 then begin
        cl.(ci + c_parked) <- 0;
        (* earlier than the node's queued wake-ups, possibly: straight
           into the heap *)
        Pqueue.Int.push heap ~key:(imax now cl.(ci + c_ready)) ~seq:!seq c;
        incr seq
      end
    end
  in
  for c = 0 to clients - 1 do
    if cl.((c * client_width) + c_remaining) > 0 then requeue c 0
  done;
  while not (Pqueue.Int.is_empty heap) do
    let now = Pqueue.Int.min_key heap and v = Pqueue.Int.min_value heap in
    if v < first_wire then begin
      Pqueue.Int.remove_min heap;
      step v now
    end
    else if v < first_node then deliver (v - first_wire) now
    else run_next (v - first_node) now
  done;
  let total = p.transfers in
  if !completed <> total then
    failwith
      (Printf.sprintf "Kv_load.run: internal stall (%d of %d transfers completed)" !completed
         total);
  Uldma_obs.Counters.add counters "kv.requests" total;
  Uldma_obs.Counters.add counters "kv.gets" !gets;
  Uldma_obs.Counters.add counters "kv.puts" !puts;
  Uldma_obs.Counters.add counters "kv.doorbells" !doorbells;
  Uldma_obs.Counters.add counters "kv.wire_bytes" !wire_bytes;
  Uldma_obs.Counters.add counters "kv.value_bytes" !value_bytes;
  {
    net_name = Backend.name net;
    transfers = total;
    gets = !gets;
    puts = !puts;
    doorbells = !doorbells;
    value_bytes = !value_bytes;
    wire_bytes = !wire_bytes;
    latency;
    sim_ps = !sim_end;
    counters;
  }

let sweep p ~cal backends = List.map (fun (name, net) -> (name, run p ~cal ~net)) backends

let sim_seconds r = float_of_int r.sim_ps *. 1e-12
let transfers_per_s r = float_of_int r.transfers /. sim_seconds r
let gbps r = float_of_int (r.value_bytes * 8) /. sim_seconds r /. 1e9

(* ------------------------------------------------------------------ *)
(* Machine-readable report                                             *)
(* ------------------------------------------------------------------ *)

module Report = struct
  type batching = { bat_net : string; batch1 : result; batched : result }

  type t = {
    params : params;
    cal : calibration;
    headline_net : string;
    sweep : (string * result) list;
    batching : batching;
    cosim_nodes : int;
    cosim_bytes : int;
    cosim_packets : int;
  }

  let speedup b = transfers_per_s b.batched /. transfers_per_s b.batch1

  let pct r q = Uldma_obs.Percentile.percentile r.latency q

  let emit_result buf ~indent r =
    let pad = String.make indent ' ' in
    Printf.bprintf buf "%s\"transfers\": %d,\n" pad r.transfers;
    Printf.bprintf buf "%s\"gets\": %d,\n" pad r.gets;
    Printf.bprintf buf "%s\"puts\": %d,\n" pad r.puts;
    Printf.bprintf buf "%s\"doorbells\": %d,\n" pad r.doorbells;
    Printf.bprintf buf "%s\"value_bytes\": %d,\n" pad r.value_bytes;
    Printf.bprintf buf "%s\"wire_bytes\": %d,\n" pad r.wire_bytes;
    Printf.bprintf buf "%s\"p50_ps\": %d,\n" pad (pct r 0.50);
    Printf.bprintf buf "%s\"p99_ps\": %d,\n" pad (pct r 0.99);
    Printf.bprintf buf "%s\"p999_ps\": %d,\n" pad (pct r 0.999);
    Printf.bprintf buf "%s\"mean_ps\": %.1f,\n" pad (Uldma_obs.Percentile.mean r.latency);
    Printf.bprintf buf "%s\"min_ps\": %d,\n" pad (Uldma_obs.Percentile.min_value r.latency);
    Printf.bprintf buf "%s\"max_ps\": %d,\n" pad (Uldma_obs.Percentile.max_value r.latency);
    Printf.bprintf buf "%s\"sim_seconds\": %.9f,\n" pad (sim_seconds r);
    Printf.bprintf buf "%s\"transfers_per_s\": %.1f,\n" pad (transfers_per_s r);
    Printf.bprintf buf "%s\"goodput_gbps\": %.6f\n" pad (gbps r)

  let to_json ?wall_seconds t =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n";
    Printf.bprintf buf "  \"schema_version\": 1,\n";
    Printf.bprintf buf "  \"bench\": \"cluster\",\n";
    (match wall_seconds with
    | Some w -> Printf.bprintf buf "  \"wall_seconds\": %.3f,\n" w
    | None -> ());
    Printf.bprintf buf "  \"params\": {\n";
    Printf.bprintf buf "    \"nodes\": %d,\n" t.params.nodes;
    Printf.bprintf buf "    \"clients\": %d,\n" t.params.clients;
    Printf.bprintf buf "    \"transfers\": %d,\n" t.params.transfers;
    Printf.bprintf buf "    \"batch\": %d,\n" t.params.batch;
    Printf.bprintf buf "    \"window\": %d,\n" t.params.window;
    Printf.bprintf buf "    \"value_size_bytes\": %d,\n" t.params.value_size;
    Printf.bprintf buf "    \"get_ratio\": %.3f,\n" t.params.get_ratio;
    Printf.bprintf buf "    \"seed\": %d,\n" t.params.seed;
    Printf.bprintf buf "    \"mech\": %S,\n" t.params.mech;
    Printf.bprintf buf "    \"net\": %S\n" t.headline_net;
    Printf.bprintf buf "  },\n";
    Printf.bprintf buf "  \"calibration\": {\n";
    Printf.bprintf buf "    \"mech\": %S,\n" t.cal.cal_mech;
    Printf.bprintf buf "    \"initiation_ps\": %d,\n" t.cal.initiation_ps;
    Printf.bprintf buf "    \"submit_ps\": %d,\n" t.cal.submit_ps;
    Printf.bprintf buf "    \"service_base_ps\": %d,\n" t.cal.service_base_ps;
    Printf.bprintf buf "    \"ram_bytes_per_s\": %.0f\n" t.cal.ram_bytes_per_s;
    Printf.bprintf buf "  },\n";
    Printf.bprintf buf "  \"cosim\": {\n";
    Printf.bprintf buf "    \"nodes\": %d,\n" t.cosim_nodes;
    Printf.bprintf buf "    \"write_bytes\": %d,\n" t.cosim_bytes;
    Printf.bprintf buf "    \"packets\": %d\n" t.cosim_packets;
    Printf.bprintf buf "  },\n";
    Printf.bprintf buf "  \"backends\": {\n";
    let rec emit_sweep = function
      | [] -> ()
      | (name, r) :: rest ->
        Printf.bprintf buf "    %S: {\n" name;
        emit_result buf ~indent:6 r;
        Printf.bprintf buf "    }%s\n" (if rest = [] then "" else ",");
        emit_sweep rest
    in
    emit_sweep t.sweep;
    Printf.bprintf buf "  },\n";
    Printf.bprintf buf "  \"batching\": {\n";
    Printf.bprintf buf "    \"net\": %S,\n" t.batching.bat_net;
    Printf.bprintf buf "    \"batch1\": {\n";
    emit_result buf ~indent:6 t.batching.batch1;
    Printf.bprintf buf "    },\n";
    Printf.bprintf buf "    \"batched\": {\n";
    emit_result buf ~indent:6 t.batching.batched;
    Printf.bprintf buf "    },\n";
    Printf.bprintf buf "    \"batch\": %d,\n" t.params.batch;
    Printf.bprintf buf "    \"speedup\": %.3f\n" (speedup t.batching);
    Printf.bprintf buf "  }\n";
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  let write ~path ?wall_seconds t =
    let dir = Filename.dirname path in
    if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out path in
    output_string oc (to_json ?wall_seconds t);
    close_out oc
end
