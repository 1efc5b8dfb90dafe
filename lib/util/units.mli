(** Time, size and bandwidth units.

    All simulated time in this code base is an integer number of
    picoseconds, so a 150 MHz CPU cycle (6666 ps) and an 80 ns bus cycle
    (80000 ps) are both exact and no floating point ever enters machine
    state. *)

type ps = int
(** Simulated time in picoseconds. *)

val ps_per_ns : int

val ns : float -> ps
(** Nanoseconds to picoseconds (rounded). *)

val us : float -> ps

val to_ns : ps -> float
val to_us : ps -> float

val cycle_ps : hz:int -> ps
(** Duration of one cycle of an [hz]-frequency clock, in ps (rounded). *)

val cycles : hz:int -> int -> ps
(** [cycles ~hz n] is the duration of [n] cycles. *)

val pp_time : Format.formatter -> ps -> unit
(** Human-readable time: picks ns / us / ms as appropriate. *)

val kib : int -> int
val mib : int -> int

val mbps : float -> float
(** [mbps m] is a bandwidth of [m] megabits per second, in bytes per
    second. *)

val transfer_ps : bytes_per_s:float -> int -> ps
(** Time to push [n] bytes at the given bandwidth. *)

val pp_bytes : Format.formatter -> int -> unit
(** "64 B", "4 KiB", "2 MiB". *)
