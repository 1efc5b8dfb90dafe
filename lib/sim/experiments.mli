(** Every table and figure of the paper, regenerated.

    Each experiment is a pure function producing a rendered table; the
    registry maps experiment ids (the ones DESIGN.md and EXPERIMENTS.md
    use) to implementations. [uldma_cli all] prints every table, and
    [uldma_cli run ID --csv _results/ID.csv] regenerates one committed
    table. Experiments that no caller runs by name are reached only
    through [all] and [find]. *)

type experiment = {
  id : string;
  title : string;
  paper_ref : string; (** where in the paper this comes from *)
  run : unit -> Uldma_util.Tbl.t;
}

val table1 : ?iterations:int -> unit -> Uldma_util.Tbl.t
(** The headline: DMA initiation latency per mechanism, with the
    paper's measured column alongside ours. *)

val matrix6 : unit -> Uldma_util.Tbl.t
(** The six-mechanism matrix (pal, key-based, ext-shadow, rep-args,
    iommu, capio): measured initiation cost, NI access count and
    kernel-modification requirement alongside an exhaustive-exploration
    protection/atomicity verdict and the slots-2 collusion-campaign
    cell (violating candidates / candidates, witness program). *)

val crossover : unit -> Uldma_util.Tbl.t
(** §1/§2.2 motivation: initiation overhead vs wire time across
    message sizes and networks; the regime where the OS overhead
    exceeds the data transfer itself. *)

val fig2_shrimp : unit -> Uldma_util.Tbl.t
(** SHRIMP-2 / FLASH argument-mixing race, with and without the kernel
    modification each requires. *)

val fig5_attack3 : unit -> Uldma_util.Tbl.t
val fig6_attack4 : unit -> Uldma_util.Tbl.t
val fig8_proof : unit -> Uldma_util.Tbl.t
(** Exhaustive interleaving exploration of all three variants against
    the adversary: violations found for 3 and 4, none for 5. *)

val atomics : unit -> Uldma_util.Tbl.t
(** §3.5: user-level vs kernel-level atomic operation initiation. *)

val key_security : unit -> Uldma_util.Tbl.t
(** §3.1: key-guessing — analytic bound and a Monte-Carlo campaign. *)

val calibration : unit -> Uldma_util.Tbl.t
(** lmbench-style validation: measure the primitive costs (empty
    syscall, PAL dispatch, bus crossings, cache hits) inside the
    simulator by differential loop timing and compare them with the
    configured model — the same methodology the paper's §2.2 citation
    used on real machines. *)

type pingpong_send = Remote_store | Ext_shadow_dma | Kernel_dma

val pingpong_rtt : link:Uldma_net.Link.t -> send:pingpong_send -> rounds:int -> float
(** Round-trip time in µs per round (exposed for tests). *)

val disk_vs_net : unit -> Uldma_util.Tbl.t
(** §1's opening contrast: initiation overhead as a fraction of the
    device service time — negligible for millisecond magnetic disks,
    dominant for fast-network messages. *)

val accounting : unit -> Uldma_util.Tbl.t
(** Machine accounting (Metrics) for a mixed DMA + compute workload:
    per-process CPU attribution, bus utilization, engine activity. *)

val ablate_wbuf : unit -> Uldma_util.Tbl.t
(** Why the paper's memory barriers matter: mechanisms under a
    collapsing/forwarding write buffer, with and without barriers. *)

val all : experiment list

val find : string -> experiment option
