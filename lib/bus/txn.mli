(** Bus transactions as seen by memory-mapped devices.

    A transaction carries the issuing process id as *provenance* for
    the test oracle and for the FLASH baseline (whose modified kernel
    tells the engine who is running). Devices receive the whole
    transaction, but a user-level protection mechanism must not decide
    on [pid]: real hardware would not see it. *)

type op = Load | Store

type t = {
  op : op;
  paddr : int;
  value : int; (** store payload; 0 for loads *)
  pid : int; (** issuing process (provenance only) *)
  at : Uldma_util.Units.ps; (** issue time *)
}

val pp : Format.formatter -> t -> unit
