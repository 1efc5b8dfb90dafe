(** Key-value load generation at cluster scale.

    The paper's argument is that 2–5-instruction DMA initiation makes
    {e fine-grained cluster communication} cheap. This module puts a
    number on that at service scale: thousands of simulated client
    processes spread over an N-node mesh issue millions of small
    GET/PUT transfers through per-process submission queues with
    batched doorbells, and completion latency comes back as
    p50/p99/p999 plus aggregate Gb/s per wire.

    Two levels of fidelity cooperate:

    - {b Calibration} ({!calibrate}) runs the {e real} verified
      initiation mechanism through {!Uldma.Session} on the
      instruction-level machine and reads the per-doorbell cost off the
      simulated clock; the per-descriptor enqueue cost comes from the
      same machine's timing model. {!cosim_burst} additionally drives
      full kernels through the {!Uldma.Cluster} mesh to validate the
      wire path end to end.
    - {b Load generation} ({!run}) replays those measured costs in a
      discrete-event simulation of clients, node CPUs, NI engines and
      the full mesh of links (exact {!Uldma_net.Netif} timing algebra:
      serialisation occupies the wire, latency pipelines), which is
      what makes 10^6-transfer runs take seconds instead of hours.

    Everything is deterministic: all randomness comes from
    {!Uldma_util.Rng} streams derived from [params.seed], and events at
    equal times run in the order they were scheduled, so equal seeds
    give byte-identical reports. *)

type params = {
  nodes : int;  (** mesh size (2..62) *)
  clients : int;  (** client processes, spread round-robin over nodes *)
  transfers : int;  (** total GET/PUT requests across all clients *)
  batch : int;  (** descriptors per doorbell (1 = unbatched) *)
  window : int;  (** max outstanding requests per client *)
  value_size : int;  (** value payload bytes *)
  get_ratio : float;  (** fraction of GETs (rest are PUTs) *)
  seed : int;
  mech : string;  (** mechanism whose initiation cost is calibrated *)
}

val default_params : params
(** 4 nodes, 1000 clients, 10^6 transfers, batch 8, window 32, 64-byte
    values, 50% GETs, seed 42, ext-shadow. *)

val validate_params : params -> (params, string) result

(** {1 Calibration} *)

type calibration = {
  cal_mech : string;
  initiation_ps : int;
      (** measured cost of one verified initiation sequence (the
          doorbell): simulated clock delta per iteration of the
          Table-1 stub loop *)
  submit_ps : int;
      (** cost of enqueueing one descriptor in the process's submission
          queue (a few cached stores, from the machine timing model) *)
  service_base_ps : int;  (** fixed NI cost to serve a request *)
  ram_bytes_per_s : float;  (** server-side memory bandwidth *)
}

val calibrate :
  ?iterations:int -> ?config:Uldma_os.Kernel.config -> string -> (calibration, string) result
(** [calibrate mech] runs [iterations] (default 256) real initiations
    through {!Uldma.Session} and derives the cost constants above.
    Unknown mechanism names come back as [Error]. *)

val cosim_burst : Uldma.Cluster.t -> words:int -> int * int
(** Instruction-level validation of the wire path: on every node of the
    given cluster, spawn a process that issues [words] remote
    single-word stores to its successor through the verified
    remote-window path, co-simulate to completion, and return
    [(write_bytes, packets)] summed over all nodes (expected:
    [nodes * words * 8] bytes). *)

(** {1 Load generation} *)

type result = {
  net_name : string;
  transfers : int;
  gets : int;
  puts : int;
  doorbells : int;
  value_bytes : int;  (** payload bytes moved (the useful work) *)
  wire_bytes : int;  (** bytes on the wire incl. headers/acks *)
  latency : Uldma_obs.Percentile.t;  (** submit -> response, ps *)
  sim_ps : int;  (** simulated makespan *)
  counters : Uldma_obs.Counters.t;  (** kv.* counters + pow2 histogram *)
}

val header_bytes : int
(** Bytes of a request header (op, key, length, sequence). A GET
    request is a header and its response a header plus the value; a PUT
    request is a header plus the value. *)

val ack_bytes : int
(** Bytes of a PUT acknowledgement. *)

val run : params -> cal:calibration -> net:Uldma_net.Backend.t -> result
(** Simulate [params.transfers] transfers to completion. Per-transfer
    and per-client state is sized from [params] up front and the event
    heap holds only queue heads, so the event loop allocates nothing
    once that small heap has grown. *)

val sweep :
  params -> cal:calibration -> (string * Uldma_net.Backend.t) list -> (string * result) list
(** [run] over several backends, one after another on the calling
    domain. *)

val transfers_per_s : result -> float
val gbps : result -> float
(** Useful-payload goodput: [value_bytes * 8 / sim_seconds / 1e9]. *)

(** {1 The machine-readable report (_results/BENCH_cluster.json)} *)

module Report : sig
  type batching = {
    bat_net : string;
    batch1 : result;
    batched : result;  (** at [params.batch] *)
  }

  type t = {
    params : params;
    cal : calibration;
    headline_net : string;
    sweep : (string * result) list;  (** includes the headline *)
    batching : batching;
    cosim_nodes : int;
    cosim_bytes : int;
    cosim_packets : int;
  }

  val speedup : batching -> float
  (** [transfers_per_s batched / transfers_per_s batch1]. *)

  val to_json : ?wall_seconds:float -> t -> string
  (** Schema v1. With equal seeds the output is byte-identical except
      for the single ["wall_seconds"] line (only emitted when given) —
      strip lines containing [wall_seconds] before comparing. *)

  val write : path:string -> ?wall_seconds:float -> t -> unit
  (** [to_json] to [path], creating the parent directory if needed. *)
end
