(** The calibrated cost model.

    Every simulated action is charged a duration derived from a
    [Timing.t]. The default preset, [alpha3000_300], models the paper's
    evaluation platform — a DEC Alpha 3000 model 300 (150 MHz 21064)
    whose TurboChannel I/O bus, and the prototype FPGA board on it, run
    at 12.5 MHz — and is calibrated from the two anchors the paper
    gives: an empty system call costs thousands of CPU cycles (we use
    2300, inside the 1000-5000 range of [McVoy & Staelin 96] quoted in
    §2.2), and one uncached crossing of the 12.5 MHz bus costs a
    handful of 80 ns bus cycles (stores 7, loads 5), which reproduces
    Table 1's 1.1 / 2.3 / 2.6 / 18.6 µs split.

    §3.4's closing remark — "recent buses, like the PCI bus, run at
    frequencies as high as 66 MHz" — is covered by the [pci33] /
    [pci66] presets used in the bus-sweep benchmark.

    Prices are computed once, when a model is built: the presets,
    {!with_bus_hz} and {!with_syscall_cycles} all go through one
    constructor, which multiplies each cycle count by the cycle time of
    its clock ({!Uldma_util.Units.cycle_ps}). A [*_ps] accessor, or the
    field of the same name, is then a plain read, so the interpreter
    charges an instruction, an access or a TLB miss without arithmetic.
    The record is private: a model edited outside this module would
    carry stale prices. *)

type t = private {
  name : string;
  cpu_hz : int;
  bus_hz : int;
  uncached_store_bus_cycles : int;
  uncached_load_bus_cycles : int;
  cached_access_cpu_cycles : int; (** cache-hit load/store *)
  instruction_cpu_cycles : int; (** base cost of any instruction *)
  memory_barrier_cpu_cycles : int;
  syscall_cpu_cycles : int; (** trap + kernel entry/exit (empty syscall) *)
  translate_cpu_cycles : int; (** kernel software translation, per address *)
  check_size_cpu_cycles : int; (** kernel protection check over a range *)
  context_switch_cpu_cycles : int;
  pal_call_cpu_cycles : int; (** CALL_PAL dispatch + return *)
  tlb_miss_cpu_cycles : int;
  iotlb_walk_bus_cycles : int;
      (** IOMMU table walk serviced by the engine on an IOTLB miss *)
  dma_setup_ps : Uldma_util.Units.ps; (** engine latency before wire time *)
  cpu_cycle_ps : Uldma_util.Units.ps;
  bus_cycle_ps : Uldma_util.Units.ps;
  instruction_ps : Uldma_util.Units.ps; (** [instruction_cpu_cycles] CPU cycles *)
  cached_access_ps : Uldma_util.Units.ps;
  uncached_store_ps : Uldma_util.Units.ps; (** [uncached_store_bus_cycles] bus cycles *)
  uncached_load_ps : Uldma_util.Units.ps;
  memory_barrier_ps : Uldma_util.Units.ps;
  syscall_ps : Uldma_util.Units.ps;
  translate_ps : Uldma_util.Units.ps;
  check_size_ps : Uldma_util.Units.ps;
  context_switch_ps : Uldma_util.Units.ps;
  pal_call_ps : Uldma_util.Units.ps;
  tlb_miss_ps : Uldma_util.Units.ps;
  iotlb_walk_ps : Uldma_util.Units.ps; (** [iotlb_walk_bus_cycles] bus cycles *)
}

val alpha3000_300 : t
(** The paper's platform: 150 MHz CPU, 12.5 MHz TurboChannel. *)

val pci33 : t
val pci66 : t
val modern : t
(** A 2 GHz CPU on a 66 MHz bus — for "soon, the OS overhead will
    dominate" projections. *)

val with_bus_hz : t -> int -> t
(** Same machine, different bus frequency (bus-sweep experiments). *)

val with_syscall_cycles : t -> int -> t
(** Same machine, different OS-entry cost (OS-overhead sweep). *)

val cpu_cycle_ps : t -> Uldma_util.Units.ps
val bus_cycle_ps : t -> Uldma_util.Units.ps

val instruction_ps : t -> Uldma_util.Units.ps
val cached_access_ps : t -> Uldma_util.Units.ps
val uncached_ps : t -> Txn.op -> Uldma_util.Units.ps
val memory_barrier_ps : t -> Uldma_util.Units.ps
val syscall_ps : t -> Uldma_util.Units.ps
val translate_ps : t -> Uldma_util.Units.ps
val check_size_ps : t -> Uldma_util.Units.ps
val context_switch_ps : t -> Uldma_util.Units.ps
val pal_call_ps : t -> Uldma_util.Units.ps
val tlb_miss_ps : t -> Uldma_util.Units.ps
val iotlb_walk_ps : t -> Uldma_util.Units.ps
