(** Structured event tracing for the whole simulated machine.

    Every layer of the simulator (bus, cpu, os, dma, net, verify) can
    stamp typed events into a {!t} sink. An event carries the simulated
    time in picoseconds, a machine id (one per kernel instance; cluster
    runs have several), the pid on whose behalf the event
    happened ([-1] for the kernel itself), and a typed {!kind} payload.
    The sink is the machine's only event record: the bus and the DMA
    engine keep no logs of their own, and the paper's interleaving
    diagrams ([Scenario.access_timeline]) are read back from the
    [Uncached_access] events of one machine id.

    Cost contract: when a sink is disabled ({!enabled} is [false] —
    the default, and always true of {!null}), the per-event cost in
    instrumented code is a single load-and-branch; no event record is
    allocated. Enabled sinks append into a capped ring buffer: the
    newest [cap] events are retained and {!dropped} counts the rest, so
    tracing a long run cannot exhaust memory. *)

type layer = Bus | Cpu | Os | Dma | Net | Verify

type kind =
  | Instr_retired of { opcode : string }
  | Uncached_access of { op : [ `Load | `Store ]; paddr : int; value : int }
  | Wbuf_collapse of { paddr : int }
  | Wbuf_flush of { drained : int }
  | Syscall_enter of { sysno : int }
  | Syscall_exit of { sysno : int }
  | Ctx_switch of { from_pid : int; to_pid : int }
  | Pal_enter of { index : int }
  | Pal_exit of { index : int }
  | Engine_decode of { paddr : int }
  | Engine_match of { step : int }
  | Engine_reject of { reason : string }
  | Iotlb_miss of { vpage : int }
  | Iotlb_fill of { vpage : int }
  | Cap_check of { cap : int; ok : bool }
  | Transfer_start of { src : int; dst : int; size : int; duration : int }
  | Transfer_complete of { src : int; dst : int; size : int }
  | Packet_tx of { dst_paddr : int; bytes : int }
  | Packet_rx of { dst_paddr : int; bytes : int }
  | Oracle_violation of { detail : string }
  | Explorer_fork of { depth : int }
  | Explorer_prune of { depth : int; reason : string }
  | Explorer_dedup of { depth : int }
      (** exploration reached an already-expanded engine-visible state *)

type record = { at : Uldma_util.Units.ps; machine : int; pid : int; kind : kind }

type t

val create : ?cap:int -> unit -> t
(** A fresh, enabled sink retaining at most [cap] events (default
    262144). *)

val null : t
(** The shared always-disabled sink. Every kernel starts wired to this
    unless an ambient sink is installed; emitting to it is a no-op. *)

val enabled : t -> bool
(** Cheap guard; instrumented code must test this before building an
    event payload. *)

val set_enabled : t -> bool -> unit
(** Pause/resume recording on a sink created with {!create}. Raises
    [Invalid_argument] on {!null}. *)

val emit : t -> at:Uldma_util.Units.ps -> machine:int -> pid:int -> kind -> unit
(** Record one event (no-op when disabled). *)

val events : t -> record list
(** The retained window, oldest first. *)

val total : t -> int
(** Events emitted since creation (or {!clear}), including dropped. *)

val dropped : t -> int
(** Events that fell out of the retained window. *)

val clear : t -> unit

val register_machine : t -> int
(** Allocate the next machine id (0, 1, 2, ...) for a kernel attached
    to this sink. On a disabled sink always returns 0 so that untraced
    runs are deterministic. *)

val ambient : unit -> t
(** The process-global default sink picked up by [Kernel.create];
    {!null} outside {!with_ambient}. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Run a thunk with the given ambient sink, restoring the previous one
    (even on exceptions). *)

val layer_of_kind : kind -> layer
val layer_name : layer -> string
val kind_name : kind -> string

val pp_record : Format.formatter -> record -> unit
