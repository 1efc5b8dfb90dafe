(** The I/O bus: routes physical accesses to RAM or to a memory-mapped
    device (the DMA engine), charging simulated time per crossing.

    A bus carries one device state of type ['d] (the machine's DMA
    engine), which it passes to every device handler; devices are
    static records over that state, registered by the machine at
    construction time. An access that neither RAM nor a device claims
    raises [Bus_error]. *)

type 'd t

exception Bus_error of int

type 'd device = {
  claims : int -> bool;
  handle : 'd -> Txn.op -> paddr:int -> value:int -> pid:int -> int;
      (** the bus's device state, then the access's fields ([value] is 0
          for loads, [pid] is provenance only); returns the load reply,
          ignored for stores *)
}

val create : clock:Clock.t -> timing:Timing.t -> ram:Uldma_mem.Phys_mem.t -> 'd -> 'd t
(** A bus with no devices over the given device state. *)

val clock : _ t -> Clock.t

val set_sink : _ t -> machine:int -> Uldma_obs.Trace.t -> unit
(** Attach a structured trace sink (default [Trace.null]): every
    uncached crossing then also emits an [Uncached_access] event
    stamped with the given machine id, in issue order. The sink is the
    bus's only transaction record. Carried across [copy]. *)

val timing : _ t -> Timing.t
val ram : _ t -> Uldma_mem.Phys_mem.t

val register_device : 'd t -> 'd device -> unit
(** Devices are probed in registration order. *)

val load : _ t -> pid:int -> cacheable:bool -> int -> int
(** Word load. Cacheable accesses must target RAM and are charged the
    cache-hit cost; uncacheable accesses are charged bus cycles and are
    visible to devices. *)

val store : _ t -> pid:int -> cacheable:bool -> int -> int -> unit

val access_counts : _ t -> int array
(** The counters {!pid_access_count} reads, indexed by pid + 1 (the
    kernel, pid -1, at 0); a pid past the end has made no access. The
    bus's own array, replaced when it grows: read it, do not keep or
    write it. *)

val pid_access_count : _ t -> int -> int
(** O(1) count of uncached accesses issued on behalf of a pid (the
    kernel's pid -1 included) since the bus — or the snapshot lineage
    it belongs to — was created. Counted whether or not a sink is on;
    consumers should compare deltas, not absolute values. *)

val busy_ps : _ t -> Uldma_util.Units.ps
(** Cumulative time the bus spent on uncached crossings — utilization
    numerator for the accounting report. *)

val copy : 'd t -> ram:Uldma_mem.Phys_mem.t -> clock:Clock.t -> 'd -> 'd t
(** Snapshot with the given already-copied RAM, clock and device state:
    carries the timing model, the devices (shared, not rebuilt), the
    sink, [busy_ps] and the per-pid counters. *)
