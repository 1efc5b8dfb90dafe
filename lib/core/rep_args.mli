(** Repeated passing of arguments (§3.3) — the paper's other novel
    mechanism, in all three historical variants.

    - [Three]: Dubnicki's LOAD-STORE-LOAD. Breakable (Fig. 5): a
      malicious process can splice its own source address into a
      victim's sequence and transfer its data into the victim's
      destination.
    - [Four]: the "obvious extension". Breakable (Fig. 6): the attacker
      can complete the victim's sequence, so the transfer starts but
      the victim is told it failed.
    - [Five] (Fig. 7): STORE LOAD STORE LOAD LOAD with the retry loop;
      proven safe in §3.3.1 (and machine-checked by Uldma_verify).

    Memory barriers follow each store, matching the paper's Table 1
    methodology ("a memory barrier was used to make sure that repeated
    accesses to the same address were not collapsed in (or serviced by)
    the write buffer").

    [mech] is the five-access method; [mech_of_variant] exposes the
    vulnerable ones for the attack-reproduction experiments. *)

val mech : Mech.t
val mech_of_variant : Uldma_dma.Seq_matcher.variant -> Mech.t

val emit_dma_five_no_retry : Uldma_cpu.Asm.t -> unit
(** One pass of the five-access sequence without the retry loop — used
    by interleaving-exploration tests that need bounded programs. *)

val emit_dma_five_no_retry_no_mb : Uldma_cpu.Asm.t -> unit
(** The same pass with the memory barriers stripped — exists solely so
    the write-buffer ablation can demonstrate the hazard the paper's
    barriers prevent. Do not use in applications. *)
