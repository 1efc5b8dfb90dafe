(** The I/O bus: routes physical accesses to RAM or to a memory-mapped
    device (the DMA engine), charging simulated time per crossing.

    Device claims are registered by the machine at construction time;
    an access that neither RAM nor a device claims raises
    [Bus_error]. *)

type t

exception Bus_error of int

type device = {
  claims : int -> bool;
  handle : Txn.t -> int; (** returns the load reply; ignored for stores *)
}

val create : clock:Clock.t -> timing:Timing.t -> ram:Uldma_mem.Phys_mem.t -> unit -> t

val clock : t -> Clock.t

val set_sink : t -> machine:int -> Uldma_obs.Trace.t -> unit
(** Attach a structured trace sink (default [Trace.null]): every
    uncached crossing then also emits an [Uncached_access] event
    stamped with the given machine id, in issue order. The sink is the
    bus's only transaction record. Carried across [copy]. *)

val timing : t -> Timing.t
val ram : t -> Uldma_mem.Phys_mem.t

val register_device : t -> device -> unit
(** Devices are probed in registration order. *)

val load : t -> pid:int -> cacheable:bool -> int -> int
(** Word load. Cacheable accesses must target RAM and are charged the
    cache-hit cost; uncacheable accesses are charged bus cycles and are
    visible to devices. *)

val store : t -> pid:int -> cacheable:bool -> int -> int -> unit

val pid_access_count : t -> int -> int
(** O(1) count of uncached accesses issued on behalf of a pid (the
    kernel's pid -1 included) since the bus — or the snapshot lineage
    it belongs to — was created. Counted whether or not a sink is on;
    consumers should compare deltas, not absolute values. *)

val busy_ps : t -> Uldma_util.Units.ps
(** Cumulative time the bus spent on uncached crossings — utilization
    numerator for the accounting report. *)

val copy : t -> ram:Uldma_mem.Phys_mem.t -> clock:Clock.t -> t
(** Snapshot with the given already-copied RAM and clock: carries the
    timing model, the sink, [busy_ps] and the per-pid counters, but no
    devices — the caller re-registers devices that hold state. *)
