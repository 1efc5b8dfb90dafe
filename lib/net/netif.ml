open Uldma_util

type packet = {
  dst_paddr : int;
  payload : Bytes.t;
  arrive_at : Units.ps;
}

type t = {
  link : Link.t;
  queue : packet Queue.t; (* send order, which is also arrival order *)
  mutable delivered : int;
  mutable busy_until : Units.ps; (* link serialisation point *)
  mutable sink : Uldma_obs.Trace.t;
  mutable machine : int; (* the *receiving* machine's id *)
}

let create ~link =
  {
    link;
    queue = Queue.create ();
    delivered = 0;
    busy_until = 0;
    sink = Uldma_obs.Trace.null;
    machine = 0;
  }

let set_sink t ~machine sink =
  t.sink <- sink;
  t.machine <- machine

(* Delivery happens on the receiving machine; the engine's Packet_tx
   carries the sending side. pid -1: arrival is not on any process's
   behalf. *)
let trace_rx t p =
  if Uldma_obs.Trace.enabled t.sink then
    Uldma_obs.Trace.emit t.sink ~at:p.arrive_at ~machine:t.machine ~pid:(-1)
      (Uldma_obs.Trace.Packet_rx { dst_paddr = p.dst_paddr; bytes = Bytes.length p.payload })

let send t ~now ~dst_paddr ~payload =
  let serialisation = Link.serialisation_ps t.link (Bytes.length payload) in
  t.busy_until <- Link.reserve ~busy_until:t.busy_until ~now ~serialisation;
  Queue.push { dst_paddr; payload; arrive_at = t.busy_until + t.link.Link.latency_ps } t.queue

let deliver t apply =
  let p = Queue.pop t.queue in
  trace_rx t p;
  apply p;
  t.delivered <- t.delivered + 1

(* arrivals come in send order (Link.reserve), so the arrived packets
   are exactly a prefix of the queue *)
let poll t ~now apply =
  let before = t.delivered in
  while (not (Queue.is_empty t.queue)) && (Queue.peek t.queue).arrive_at <= now do
    deliver t apply
  done;
  t.delivered - before

let in_flight t = Queue.length t.queue

let delivered t = t.delivered

let next_arrival t = Option.map (fun p -> p.arrive_at) (Queue.peek_opt t.queue)

let drain_all t apply =
  let before = t.delivered in
  while not (Queue.is_empty t.queue) do
    deliver t apply
  done;
  t.delivered - before
