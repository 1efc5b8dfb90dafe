(** The one-stop front door: mechanism lookup, kernel construction,
    process + region setup, stub installation and result readout in a
    handful of calls.

    The classic seven-step dance
    ([Api.find_exn] → [Api.kernel_config] → [Kernel.create] →
    [Kernel.spawn] → [Kernel.alloc_pages] ×3 → [Mech.prepare] →
    build a program around [prepared.emit_dma]) collapses to:

    {[
      let s = Session.create ~mech:"ext-shadow" () in
      let p = Session.process s ~name:"app" () in
      Session.dma_stub s p ~iterations:1000;
      Session.run_exn s;
      Printf.printf "%d successes\n" (Session.successes s p)
    ]}

    Sessions compose with the observability layer: pass [?trace] (or
    install an ambient sink with [Uldma_obs.Trace.with_ambient] before
    [create]) and read the machine's named counters back with
    [metrics]. *)

open Uldma_cpu
open Uldma_os

(** {1 Stub-loop builders}

    Program builders around the mechanism stubs. Every built program
    counts the initiations whose status was non-negative (success,
    §3.1) in a register and stores, on exit, the success count at
    [result_va] and the last status at [result_va + 8] — the channel
    through which the harness and the oracle learn what the process
    believes happened.

    The measurement loop reproduces the paper's Table 1 methodology:
    "we perform a simple test of initiating 1,000 DMA operations.
    Successive DMA operations were done to (from) different addresses,
    so as to eliminate any caching effects". *)

module Stub : sig
  type spec = {
    iterations : int;
    transfer_size : int;
    src_base : int;  (** base of the source region *)
    dst_base : int;
    pages : int;  (** pages cycled through; must be a power of two *)
    result_va : int;
  }

  val build_loop : spec -> emit_dma:(Asm.t -> unit) -> Isa.instr array
  (** [iterations] initiations, cycling source and destination through
      [pages] pages (the Table 1 loop above). *)

  val build_single :
    vsrc:int -> vdst:int -> size:int -> result_va:int ->
    emit_dma:(Asm.t -> unit) -> Isa.instr array
  (** One initiation, then record results and halt. *)

  val build_repeat :
    n:int -> vsrc:int -> vdst:int -> size:int -> result_va:int ->
    emit_dma:(Asm.t -> unit) -> Isa.instr array
  (** [n] initiations of the same transfer (contention scenarios). *)

  val read_successes : Kernel.t -> Process.t -> result_va:int -> int
  val read_last_status : Kernel.t -> Process.t -> result_va:int -> int
end

(** {1 Sessions} *)

type preset =
  | Paper_machine
      (** [Kernel.default_config]: alpha3000_300 timing, null backend,
          run-to-completion scheduling. *)
  | Local_backend of { bytes_per_s : float }
      (** Paper machine plus a local DMA backend that actually moves
          bytes at the given rate. *)
  | Timeshared of { quantum : int; bytes_per_s : float }
      (** Round-robin preemption every [quantum] instructions, local
          backend — the multiprogrammed setting of §4. *)

type t

type proc = {
  process : Process.t;
  src : Mech.region;
  dst : Mech.region;
  result_va : int;
  emit_dma : Asm.t -> unit;
      (** emit one DMA initiation using this process's prepared
          mechanism state; reads [Mech.reg_vsrc]/[reg_vdst]/[reg_size],
          leaves status in [Mech.reg_status] *)
}

val create :
  mech:string -> ?preset:preset -> ?config:Kernel.config ->
  ?trace:Uldma_obs.Trace.t -> unit -> t
(** Look the mechanism up by name ([Api.find_exn] — raises
    [Invalid_argument] on unknown names), derive the kernel
    configuration ([?config] wins over [?preset] wins over
    [Paper_machine]), build the kernel and, when [?trace] is given,
    attach the sink ([Kernel.set_trace]). *)

val of_mech :
  ?preset:preset -> ?config:Kernel.config -> ?trace:Uldma_obs.Trace.t ->
  Mech.t -> t
(** [create] for an already-resolved mechanism value. *)

val process : t -> name:string -> ?src_pages:int -> ?dst_pages:int -> unit -> proc
(** Spawn a process, allocate source/destination regions (default 8
    pages each; power of two required by [dma_stub]) plus a one-page
    result area, and run the mechanism's [prepare] step. *)

val dma_stub : ?iterations:int -> ?transfer_size:int -> t -> proc -> unit
(** Install the standard measurement loop (default 1000 iterations of
    1024 bytes) as the process's program. Successive iterations cycle
    through [min src.pages dst.pages] distinct pages. *)

val dma_once : ?transfer_size:int -> t -> proc -> unit
(** Install a single-initiation program (latency probes). *)

val program : t -> proc -> Isa.instr array -> unit
(** Install a custom program (typically built around [proc.emit_dma]). *)

val run : ?max_steps:int -> t -> Kernel.run_result
val run_exn : ?max_steps:int -> t -> unit
(** [run], raising [Failure] if the step budget ran out. *)

val successes : t -> proc -> int
(** Initiations the process counted as successful (status >= 0). *)

val last_status : t -> proc -> int
(** Status of the process's last initiation. *)

val read : t -> proc -> int -> int
val write : t -> proc -> int -> int -> unit
(** Peek/poke a word in the process's address space (host-level). *)

(** {1 Clusters}

    The same front-door philosophy for N-node co-simulations: name the
    wire and the mechanism, get back a fully meshed {!Cluster}. *)

val cluster :
  ?net:string ->
  ?tick_ps:Uldma_util.Units.ps ->
  ?mech:string ->
  ?preset:preset ->
  ?config:Kernel.config ->
  ?config_of:(int -> Kernel.config) ->
  nodes:int ->
  unit ->
  (Cluster.t, string) result
(** [cluster ~nodes ()] builds an [nodes]-way full mesh over the named
    wire. [?net] accepts exactly the [Backend.of_string] spellings the
    CLI's [--net] uses ([null], [atm155], [atm622], [gigabit], [hic];
    default [atm155]) and [?tick_ps] its quantisation (must be
    positive). [?mech] names a mechanism ([Api.find]) applied to every
    node's configuration; [?config] wins over [?preset] wins over the
    paper machine, and [?config_of] overrides per node (the mechanism,
    when given, is applied on top). All validation failures come back
    as [Error], never as exceptions. *)

val cluster_exn :
  ?net:string ->
  ?tick_ps:Uldma_util.Units.ps ->
  ?mech:string ->
  ?preset:preset ->
  ?config:Kernel.config ->
  ?config_of:(int -> Kernel.config) ->
  nodes:int ->
  unit ->
  Cluster.t
(** [cluster], raising [Invalid_argument] on error. *)

val metrics : t -> Uldma_obs.Counters.t
(** The machine's named-counter registry ([Kernel.counter_snapshot]):
    [os.*], [bus.*] and [dma.*] sections. *)

val kernel : t -> Kernel.t
(** Escape hatch to the full kernel surface. *)

val mech : t -> Mech.t
val trace : t -> Uldma_obs.Trace.t
val now_ps : t -> Uldma_util.Units.ps
