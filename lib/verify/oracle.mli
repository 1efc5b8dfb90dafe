(** The safety oracle for user-level DMA initiation.

    A mechanism is correct when (paper §2.1 and §3.3.1):

    + {b protection} — every transfer the engine starts corresponds to
      a request some process was entitled to make;
    + {b atomicity / no argument mixing} — every started transfer is
      exactly one process's (source, destination, size) triple, never a
      splice of two processes' arguments (Fig. 5's C->B transfer);
    + {b status truthfulness} — a process is told success iff its
      transfer actually started, exactly once per request (Fig. 6's
      "DMA started but reported failed").

    The harness declares each process's *intents* (the transfers its
    stub will legitimately request, with both virtual and physical
    addresses) and, after the run, reports how many successes each
    stub observed (stubs count statuses >= 0 and store the count where
    the harness can read it). The oracle then audits the engine's
    transfer log against the declarations. *)

type intent = {
  pid : int;
  vsrc : int;
  vdst : int;
  psrc : int;
  pdst : int;
  size : int;
  requests : int; (** how many times the stub issues this DMA *)
}

type violation =
  | Unattributed_transfer of Uldma_dma.Transfer.t
      (** started transfer matching no declared intent: mixed or forged
          arguments (Fig. 5) *)
  | Rights_violation of { intent : intent; missing : string }
      (** a declared intent its own process had no right to make —
          would indicate a protection hole in the mechanism/setup *)
  | Phantom_success of { pid : int; reported : int; started : int }
      (** a stub observed more successes than transfers started for it *)
  | Lost_transfer of { pid : int; reported : int; started : int }
      (** transfers started exceed the successes the stub observed
          (Fig. 6: started but reported failed) *)

type report = {
  violations : violation list;
  transfers_checked : int;
  intents_checked : int;
}

val check :
  kernel:Uldma_os.Kernel.t ->
  intents:intent list ->
  reported_successes:(int * int) list ->
  report
(** [reported_successes] maps pid -> successes the stub counted.
    Transfers are read from the kernel's engine log. Intent attribution
    ignores the transfer's provenance pid — mechanisms must be judged
    on addresses alone, exactly like the hardware. *)

val ok : report -> bool
val kind_name : violation -> string
(** The violation's kind as one lowercase word: ["unattributed"],
    ["rights"], ["phantom"] or ["lost"]. Violation identity across
    exploration modes is this kind plus the schedule (payloads carry
    simulated timestamps that legitimately differ between merged
    prefixes). *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit

val intent_of_regions :
  Uldma_os.Kernel.t ->
  Uldma_os.Process.t ->
  vsrc:int ->
  vdst:int ->
  size:int ->
  requests:int ->
  intent
(** Translate the virtual endpoints through the process's page table. *)
