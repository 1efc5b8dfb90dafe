(** Interconnect link models.

    §2.2's motivation: "ATM networks that provide 155 Mbps are common
    today, and will soon be upgraded to 622 Mbps. Gigabit LANs have
    already started to appear in the market." These three presets (plus
    a HIC/IEEE-1355 one, the technology of the ARCHES project that
    funded the paper) drive the initiation-overhead-versus-wire-time
    crossover experiment. *)

type t = {
  name : string;
  bytes_per_s : float;
  latency_ps : Uldma_util.Units.ps; (** propagation + switch latency *)
}

val atm155 : t
val atm622 : t
val gigabit : t
val hic1355 : t

val all : t list
(** The four timed presets (not [instant]). *)

val instant : t
(** Infinite bandwidth, zero latency — the wire model of the [Null]
    backend, for meshes that want uniform plumbing without wire time. *)

val serialisation_ps : t -> int -> Uldma_util.Units.ps
(** How long a payload of n bytes occupies the link (0 for n <= 0 and
    for [instant]). *)

val wire_time_ps : t -> int -> Uldma_util.Units.ps
(** Latency + serialisation time for a payload of n bytes. *)

val reserve :
  busy_until:Uldma_util.Units.ps -> now:Uldma_util.Units.ps -> serialisation:Uldma_util.Units.ps ->
  Uldma_util.Units.ps
(** The FIFO rule of one link direction. A message offered at [now]
    departs at [max now busy_until], once the previous message has
    finished serialising, and holds the link for [serialisation].
    Returns the link's new busy-until, departure + [serialisation]; the
    message arrives [latency_ps] after that, i.e. at departure +
    [wire_time_ps].

    Because every departure waits out the previous serialisation,
    arrivals on one link never go backwards in send order, whatever
    the [now] values. *)

val pp : Format.formatter -> t -> unit
