(** A point-to-point network interface: packets depart when the DMA
    engine hands them over and arrive after the link's wire time.
    The receiving side applies arrived packets to its own physical
    memory when polled.

    Timing is {!Link.reserve}'s FIFO rule, so arrivals never go
    backwards in send order and the in-flight packets form a plain
    queue: [poll] pops from its head. *)

type packet = {
  dst_paddr : int;
  payload : Bytes.t;
  arrive_at : Uldma_util.Units.ps;
}

type t

val create : link:Link.t -> t

val set_sink : t -> machine:int -> Uldma_obs.Trace.t -> unit
(** Attach a structured trace sink: every delivery ([poll] or
    [drain_all]) then emits a [Packet_rx] event stamped with the
    packet's arrival time and the given (receiving) machine id. *)

val send : t -> now:Uldma_util.Units.ps -> dst_paddr:int -> payload:Bytes.t -> unit

val poll : t -> now:Uldma_util.Units.ps -> (packet -> unit) -> int
(** Deliver (in send order, which is arrival order) every packet whose
    [arrive_at] is at most [now]; returns how many were delivered. *)

val in_flight : t -> int
val delivered : t -> int
val next_arrival : t -> Uldma_util.Units.ps option
val drain_all : t -> (packet -> unit) -> int
(** Deliver everything regardless of time (end-of-run settling). *)
