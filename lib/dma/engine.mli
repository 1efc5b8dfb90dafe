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
  dg:int array ->
  unit ->
  t
(** [n_contexts] defaults to 4 ("say 4 to 8", §3.1). [iotlb_walk_ps]
    (default 0) is charged on the machine clock for every IOTLB miss
    under the [Iommu] mechanism. The engine, its register contexts,
    matcher and IOTLB keep the sum of their terms ({!iter_terms}) in
    [dg], the machine's two-lane digest cell. *)

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
    [Bus.copy] over the copied engine carries it.

    The handler picks the window (remote, kernel control page, register
    context page, shadow) and decodes the access there; the shadow
    window has one arm group per mechanism (DESIGN.md §8a). Every
    access answers a status word: a load's is the value the program
    reads; a store's is the status the store leaves ([Status.failure]
    on a reject, [Status.in_progress] when it only staged an argument)
    and carries no contract: [Bus.store] and every caller discard it. *)

val copy : t -> dg:int array -> clock:Uldma_bus.Clock.t -> backend:Transfer.backend -> t
(** Snapshot for the interleaving explorer; the caller supplies the
    copied digest cell, the copied clock and a backend bound to the
    copied RAM. *)

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

val capabilities : t -> Capability.cap list
(** The capability table, newest first. *)

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

val iter_terms : (int -> int -> unit) -> t -> unit
(** The engine's keyed words as (slot, word) terms:
    {!iter_register_terms}, then {!iter_table_terms}. Every word is its
    value xor its reset value, so a fresh engine with a [Five] matcher
    has no nonzero word, and every write moves its terms in the cell,
    except the started transfers' ({!add_history}).
    Counters, the trace sink and absolute times are not keyed: the
    simulated programs cannot read them back. *)

val iter_register_terms : (int -> int -> unit) -> t -> unit
(** In slot domain 2 the engine's own registers — pending deposit,
    [current_pid], kernel-page and atomic registers, last status,
    staged capability, staged mapped-out page — then the started
    transfers as a multiset: their count, and each transfer's static
    fields (src, dst, size, pid, context, duration) at slots from its
    rank in the order of those fields (equal transfers in start order);
    then the terms of its register contexts, matcher and IOTLB
    ({!Context_file.iter_terms}, {!Seq_matcher.iter_terms},
    {!Uldma_mmu.Iotlb.iter_terms}). Start order is not keyed: no
    program and no oracle check can observe it. *)

val add_history : t -> int array -> unit
(** [add_history t acc] adds the lane sums of the started transfers'
    terms (the count and the ranked static fields above) into [acc.(0)]
    and [acc.(1)]. They are kept apart from the digest cell and brought
    up to date only when a key reads them: the transfers started since
    the last key are sorted in and the terms re-summed. So the cell plus
    [add_history] is the sum of {!iter_terms}, and a machine that is
    never keyed pays nothing for its transfers' terms. *)

val iter_table_terms : (int -> int -> unit) -> t -> unit
(** The capability table, the mapped-out map and the outbound queue,
    each a sequence ({!Uldma_util.Fp128.iter_seq}) in slot domains 9,
    10 and 11; a packet's send time is not keyed. *)

val add_live : Uldma_util.Enc.t -> t -> unit
(** Write what a key needs beyond {!iter_terms}: each in-flight
    transfer, in rank order, as its rank with two flags (the engine's
    newest transfer, its context's newest transfer) and its remaining
    wire time, the engine's only clock-relative values. A context's
    status as loads see it and the newest transfer's remaining bytes
    are functions of these and of keyed words, so they are not written;
    under a zero-duration backend nothing is ever in flight and nothing
    is written at all. *)

val transfer_in_flight : t -> bool
(** A started transfer's wire time has not elapsed: the clock then
    reaches a keyed value, its remaining time. Never true under a
    zero-duration backend. *)

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
