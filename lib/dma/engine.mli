(** The network-interface DMA engine.

    One engine instance implements one of the paper's initiation
    mechanisms on its shadow window, *plus* the classic kernel path
    through the kernel control page (always available — Fig. 1's
    baseline works no matter which user-level mechanism the board is
    configured with), *plus* the atomic-operation unit (§3.5).

    The engine is a bus device: it claims every MMIO and shadow
    physical address and decodes the transaction stream. It never looks
    at a transaction's provenance pid — with one deliberate exception:
    the FLASH mechanism reads the [current_pid] register that a
    *modified kernel* updates on every context switch, which is exactly
    the kernel modification the paper is arguing against. *)

type mechanism =
  | Shrimp_mapped (** §2.4: one-access DMA to the page's mapped-out twin *)
  | Shrimp_two_step (** §2.5 (and §2.7 PAL): store dest+size, load src *)
  | Flash (** §2.6: two-step, validated against the kernel-maintained pid *)
  | Key_based (** §3.1, Fig. 3 *)
  | Ext_shadow (** §3.2, Fig. 4, with register contexts *)
  | Ext_shadow_stateless
      (** §3.2's no-register-context engine: "when it receives pairs of
          STORE and LOAD instructions, it checks the CONTEXT_ID values
          of the two physical addresses. If they are different, the DMA
          operation is not started and an error code is returned." *)
  | Rep_args of Seq_matcher.variant (** §3.3, Fig. 7 *)
  | Iommu
      (** IOMMU virtual-address DMA (related work): initiation passes
          *virtual* source/destination through the context page's
          argument registers; the engine translates them itself via a
          bounded IOTLB backed by the owning process's page table. No
          shadow-address setup, but misses cost a charged table walk
          and an unmapped page is a [Not_present] reject. *)
  | Capio
      (** CAPIO-style capability-checked initiation (related work):
          requests name 64-bit unforgeable capabilities minted by
          [Os.grant_dma_cap]; the engine checks context, rights, range
          and revocation before firing from the capability's physical
          base. *)

type reject_reason =
  | Bad_key
  | No_context
  | Wrong_context
  | Incomplete_arguments
  | Broken_sequence
  | Bad_range
  | Not_mapped_out
  | Wrong_pid (** FLASH: pending args belong to a switched-out process *)
  | Unsupported
  | Not_present (** IOMMU: translation fault (no mapping / wrong rights) *)
  | Bad_capability (** CAPIO: unknown, foreign or under-privileged value *)
  | Revoked_capability (** CAPIO: once-valid value used after revocation *)

type counters = {
  mutable rejected : int;
  mutable key_rejected : int;
  mutable atomics : int;
  mutable remote_sends : int;
}

type packet_kind =
  | Remote_write
  | Remote_atomic of { op : Atomic_op.t; reply_paddr : int }
      (** execute at the peer's [remote_addr]; the old value is
          delivered back into the sender's local word [reply_paddr]
          (the context's kernel-set mailbox) *)

type outbound_packet = {
  remote_addr : int; (** physical address on the peer node *)
  payload : Bytes.t; (** [Remote_write] payload; empty for atomics *)
  sent_at : Uldma_util.Units.ps;
  kind : packet_kind;
}

type t

val create :
  clock:Uldma_bus.Clock.t ->
  backend:Transfer.backend ->
  ram_size:int ->
  mechanism:mechanism ->
  ?n_contexts:int ->
  ?iotlb_walk_ps:int ->
  unit ->
  t
(** [n_contexts] defaults to 4 ("say 4 to 8", §3.1). [iotlb_walk_ps]
    (default 0) is charged on the machine clock for every IOTLB miss
    under the [Iommu] mechanism. *)

val mechanism : t -> mechanism
val contexts : t -> Context_file.t

val set_sink : t -> machine:int -> Uldma_obs.Trace.t -> unit
(** Attach a structured trace sink (default [Trace.null]): decodes,
    matches, rejections ([Engine_reject], named by {!reject_name}),
    transfer start/completion and outbound packets then emit typed
    events. The sink is the engine's only event record. Carried across
    [copy]. *)

val device : t Uldma_bus.Bus.device
(** The engine as a bus device over the bus's engine state: register it
    with [Bus.register_device] on a bus created over the engine; a
    [Bus.copy] over the copied engine carries it. *)

val copy : t -> clock:Uldma_bus.Clock.t -> backend:Transfer.backend -> t
(** Snapshot for the interleaving explorer; the caller supplies the
    copied clock and a backend bound to the copied RAM. *)

(** {1 Privileged operations}

    These model kernel accesses to the (never user-mapped) control
    page. The kernel performs them through the bus so they are charged
    bus time; tests may also call the direct helpers below. *)

val set_context_owner : t -> context:int -> pid:int option -> unit
(** Oracle metadata only (which process the OS gave the context to). *)

val set_current_pid : t -> int -> unit
(** FLASH context-switch hook action. *)

val map_out : t -> src_page:int -> dst_page:int -> unit
(** SHRIMP-1: install a mapped-out entry (physical page bases). *)

val mapped_out_dst : t -> src_page:int -> int option

val iommu_bind : t -> context:int -> table:Uldma_mmu.Page_table.t -> unit
(** Iommu: bind a register context to the owning process's page table
    (the structure the engine walks on an IOTLB miss). The kernel
    re-binds after every fork so the engine never walks a stale
    snapshot's table. *)

val iommu_unbind : t -> context:int -> unit

val iotlb_invalidate : t -> vpage:int -> unit
(** Unmap shootdown (also reachable as a charged kernel-page store to
    [Regmap.k_iotlb_invalidate]). *)

val iotlb_flush : t -> unit
val iotlb_stats : t -> Uldma_mmu.Iotlb.stats

val revoke_caps_pid : t -> pid:int -> unit
(** Capio revocation on exit: every capability the process was granted
    dies with it. *)

val revoke_caps_range : t -> base:int -> len:int -> unit
(** Capio revocation on unmap: kill capabilities overlapping the
    physical range. *)

val capabilities : t -> Capability.t

(** {1 Observation}

    The engine keeps only what its accounting needs: the started
    transfers, the outbound queue and the {!counters}. Its event
    history (rejections with their reasons, transfer starts) goes to
    the trace sink attached with {!set_sink}. *)

val transfers : t -> Transfer.t list
(** Started transfers, oldest first. *)

val n_transfers : t -> int
(** [List.length (transfers t)], in O(1): the engine's one count of
    started transfers. *)

val take_outbound : t -> outbound_packet list
(** Drain the outbound network queue, oldest first. Remote-window
    stores contribute single-word packets; DMA transfers whose
    destination names remote memory contribute their whole payload
    (Telegraphos-style remote writes). *)

val counters : t -> counters
val context_status : t -> int -> int

val encode : Uldma_util.Enc.t -> t -> unit
(** Feed a canonical encoding of the engine's observable
    state (matcher, contexts, pending deposits, atomic slots, transfer
    observables, mapped-out table, outbound queue), for the explorer's
    state fingerprint. In-flight transfers are encoded by their
    clock-relative view — exact remaining-wire-time-at-now plus total
    duration — so two engines that differ only in absolute clock but
    agree on every deadline encode identically; under a zero-duration
    backend the extra fields are constant and the encoding merges the
    same states it always did. Two engines with equal encodings are
    indistinguishable to the simulated programs and to the Fig. 8
    oracle. Diagnostic state (counters, trace sink, absolute
    timestamps) is excluded. A [Buf] sink gets every register; an [Fp]
    sink gets the two lanes of {!Seq_matcher.digest},
    {!Context_file.digest} and {!digest} in place of the registers and
    the transfers' static fields, plus what depends on the clock: each
    in-flight transfer's (ordinal, remaining wire time). The statuses
    as loads see them now and the last transfer's remaining bytes are
    not fed: they are functions of those and of digested fields (a
    context's status is its failure code or its newest transfer's
    remaining bytes, and {!Context_file.digest} covers whether a
    transfer was started through each context), so an [Fp] key walks
    no status; under a zero-duration backend nothing is ever in
    flight. *)

val digest : t -> int * int
(** The two lanes of the write-maintained additive digest
    ({!Uldma_util.Fp128.replace_int}) of the engine's own registers;
    the register contexts and the matcher keep theirs
    ({!Context_file.digest}, {!Seq_matcher.digest}). It covers the
    registers that {!encode} streams in [Buf] mode — pending deposit,
    kernel-page and atomic registers, last status, staged capability
    and mapped-out page — plus each started transfer's static fields
    (src, dst, size, pid, context, duration) at slots taken from its
    ordinal, and the transfer count. Every value enters as value xor
    its reset value, so a fresh engine digests to [(0, 0)]. Built from
    scratch on the first call (a fingerprint {!encode}) and maintained
    by every register write from then on; before that a write pays only
    the test of the built flag. {!copy} copies it and the flag. *)

val scratch_digest : t -> int * int
(** {!digest} recomputed from the registers, without touching the
    maintained one: the reference it must always equal. *)

val next_transfer_deadline : t -> Uldma_util.Units.ps option
(** Earliest [end_time] strictly after [now] among started transfers —
    the next instant at which waiting (advancing the clock without
    running any process) changes an observable. [None] when nothing is
    in flight, in particular always under a zero-duration backend. The
    engine keeps the transfers still in flight apart, so this walks
    only those. *)

val context_transfer_end : t -> int -> Uldma_util.Units.ps option
(** Completion time of the context's last transfer (for sys_dma_wait). *)

val last_transfer_end : t -> Uldma_util.Units.ps option

val reject_name : reject_reason -> string
(** The reason's snake_case name ("bad_key", "wrong_context", ...), as
    carried by the [Engine_reject] trace event. *)
