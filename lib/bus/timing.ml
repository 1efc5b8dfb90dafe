open Uldma_util

type t = {
  name : string;
  cpu_hz : int;
  bus_hz : int;
  uncached_store_bus_cycles : int;
  uncached_load_bus_cycles : int;
  cached_access_cpu_cycles : int;
  instruction_cpu_cycles : int;
  memory_barrier_cpu_cycles : int;
  syscall_cpu_cycles : int;
  translate_cpu_cycles : int;
  check_size_cpu_cycles : int;
  context_switch_cpu_cycles : int;
  pal_call_cpu_cycles : int;
  tlb_miss_cpu_cycles : int;
  iotlb_walk_bus_cycles : int;
  dma_setup_ps : Units.ps;
  cpu_cycle_ps : Units.ps;
  bus_cycle_ps : Units.ps;
  instruction_ps : Units.ps;
  cached_access_ps : Units.ps;
  uncached_store_ps : Units.ps;
  uncached_load_ps : Units.ps;
  memory_barrier_ps : Units.ps;
  syscall_ps : Units.ps;
  translate_ps : Units.ps;
  check_size_ps : Units.ps;
  context_switch_ps : Units.ps;
  pal_call_ps : Units.ps;
  tlb_miss_ps : Units.ps;
  iotlb_walk_ps : Units.ps;
}

(* The one constructor: every model's prices are its cycle counts times
   the cycle time of their clock, computed here and nowhere else. *)
let make ~name ~cpu_hz ~bus_hz ~uncached_store_bus_cycles ~uncached_load_bus_cycles
    ~cached_access_cpu_cycles ~instruction_cpu_cycles ~memory_barrier_cpu_cycles
    ~syscall_cpu_cycles ~translate_cpu_cycles ~check_size_cpu_cycles ~context_switch_cpu_cycles
    ~pal_call_cpu_cycles ~tlb_miss_cpu_cycles ~iotlb_walk_bus_cycles ~dma_setup_ps =
  let cpu_cycle_ps = Units.cycle_ps ~hz:cpu_hz and bus_cycle_ps = Units.cycle_ps ~hz:bus_hz in
  let cpu n = n * cpu_cycle_ps and bus n = n * bus_cycle_ps in
  {
    name;
    cpu_hz;
    bus_hz;
    uncached_store_bus_cycles;
    uncached_load_bus_cycles;
    cached_access_cpu_cycles;
    instruction_cpu_cycles;
    memory_barrier_cpu_cycles;
    syscall_cpu_cycles;
    translate_cpu_cycles;
    check_size_cpu_cycles;
    context_switch_cpu_cycles;
    pal_call_cpu_cycles;
    tlb_miss_cpu_cycles;
    iotlb_walk_bus_cycles;
    dma_setup_ps;
    cpu_cycle_ps;
    bus_cycle_ps;
    instruction_ps = cpu instruction_cpu_cycles;
    cached_access_ps = cpu cached_access_cpu_cycles;
    uncached_store_ps = bus uncached_store_bus_cycles;
    uncached_load_ps = bus uncached_load_bus_cycles;
    memory_barrier_ps = cpu memory_barrier_cpu_cycles;
    syscall_ps = cpu syscall_cpu_cycles;
    translate_ps = cpu translate_cpu_cycles;
    check_size_ps = cpu check_size_cpu_cycles;
    context_switch_ps = cpu context_switch_cpu_cycles;
    pal_call_ps = cpu pal_call_cpu_cycles;
    tlb_miss_ps = cpu tlb_miss_cpu_cycles;
    iotlb_walk_ps = bus iotlb_walk_bus_cycles;
  }

(* [t]'s prices recomputed from its (edited) name, clocks and cycle counts. *)
let reprice t =
  make ~name:t.name ~cpu_hz:t.cpu_hz ~bus_hz:t.bus_hz
    ~uncached_store_bus_cycles:t.uncached_store_bus_cycles
    ~uncached_load_bus_cycles:t.uncached_load_bus_cycles
    ~cached_access_cpu_cycles:t.cached_access_cpu_cycles
    ~instruction_cpu_cycles:t.instruction_cpu_cycles
    ~memory_barrier_cpu_cycles:t.memory_barrier_cpu_cycles
    ~syscall_cpu_cycles:t.syscall_cpu_cycles ~translate_cpu_cycles:t.translate_cpu_cycles
    ~check_size_cpu_cycles:t.check_size_cpu_cycles
    ~context_switch_cpu_cycles:t.context_switch_cpu_cycles
    ~pal_call_cpu_cycles:t.pal_call_cpu_cycles ~tlb_miss_cpu_cycles:t.tlb_miss_cpu_cycles
    ~iotlb_walk_bus_cycles:t.iotlb_walk_bus_cycles ~dma_setup_ps:t.dma_setup_ps

let alpha3000_300 =
  make ~name:"alpha3000/300 + TurboChannel 12.5MHz" ~cpu_hz:150_000_000 ~bus_hz:12_500_000
    ~uncached_store_bus_cycles:7 ~uncached_load_bus_cycles:5 ~cached_access_cpu_cycles:1
    ~instruction_cpu_cycles:2 ~memory_barrier_cpu_cycles:5 ~syscall_cpu_cycles:2300
    ~translate_cpu_cycles:60 ~check_size_cpu_cycles:40 ~context_switch_cpu_cycles:600
    ~pal_call_cpu_cycles:30 ~tlb_miss_cpu_cycles:30
      (* IOMMU page-table walk: two dependent memory reads over the I/O
         bus plus compare/merge — comparable to an uncached load pair *)
    ~iotlb_walk_bus_cycles:12 ~dma_setup_ps:(Units.ns 400.0)

let pci33 = reprice { alpha3000_300 with name = "alpha + PCI 33MHz"; bus_hz = 33_000_000 }

let pci66 = reprice { alpha3000_300 with name = "alpha + PCI 66MHz"; bus_hz = 66_000_000 }

let modern =
  reprice
    {
      alpha3000_300 with
      name = "2GHz CPU + PCI 66MHz";
      cpu_hz = 2_000_000_000;
      bus_hz = 66_000_000;
      syscall_cpu_cycles = 4500;
      context_switch_cpu_cycles = 2000;
    }

let with_bus_hz t hz =
  reprice { t with name = Printf.sprintf "%s @bus %dMHz" t.name (hz / 1_000_000); bus_hz = hz }

let with_syscall_cycles t c = reprice { t with syscall_cpu_cycles = c }

let cpu_cycle_ps t = t.cpu_cycle_ps
let bus_cycle_ps t = t.bus_cycle_ps
let instruction_ps t = t.instruction_ps
let cached_access_ps t = t.cached_access_ps

let uncached_ps t op =
  match (op : Txn.op) with Txn.Store -> t.uncached_store_ps | Txn.Load -> t.uncached_load_ps

let memory_barrier_ps t = t.memory_barrier_ps
let syscall_ps t = t.syscall_ps
let translate_ps t = t.translate_ps
let check_size_ps t = t.check_size_ps
let context_switch_ps t = t.context_switch_ps
let pal_call_ps t = t.pal_call_ps
let tlb_miss_ps t = t.tlb_miss_ps
let iotlb_walk_ps t = t.iotlb_walk_ps
