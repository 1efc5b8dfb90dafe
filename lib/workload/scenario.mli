(** Attack scenarios reproducing the paper's interleaving figures,
    plus randomized adversarial campaigns, and the {!catalogue} that
    names every explorable machine once.

    A scenario holds a victim that initiates one DMA (A -> B) with some
    mechanism, and an attacker running an adversarial access sequence
    (or tenants running the same mechanism).
    [run_legs] drives an exact interleaving at NI-access granularity
    (the granularity of the paper's Fig. 5/6/8 diagrams); [finish] lets
    both run to completion afterwards; [report] audits the run with the
    safety oracle. *)

type t = {
  kernel : Uldma_os.Kernel.t;
  victim : Uldma_os.Process.t;
  attacker : Uldma_os.Process.t;
  intents : Uldma_verify.Oracle.intent list;
  victim_result_va : int;
  attacker_result_va : int option;
      (** set in the contested scenarios, where the second process also
          runs a legitimate DMA and reports its outcome *)
  extras : (Uldma_os.Process.t * int option) list;
      (** third and further processes (the 3-process contested
          workloads), each with its result page when it reports an
          outcome; empty in every two-process scenario *)
  transfer_size : int;
  mutable labels : (int * string) list;
      (** physical page base -> symbolic name (A, B, C, foo, D) *)
}

type leg = V | M

(** The [?net] parameter on {!fig5}, {!rep5} and the other builders
    that take one selects the DMA wire-time model ({!Uldma_net.Backend}): omitted or
    [Backend.Null], transfers complete instantly (the Table-1
    methodology every golden output uses — passing [Backend.null]
    explicitly is byte-identical to the default); a [Backend.Linked]
    backend gives every transfer its link's tick-quantised wire time,
    sys_dma_wait genuinely blocks, and the explorer gains the
    transfer-completion wait leg ({!Uldma_verify.Explorer.wait_leg}). *)

val fig5 : ?net:Uldma_net.Backend.t -> unit -> t
(** The Fig. 5 attack on the 3-access repeated-passing variant: the
    attacker splices shadow(C) into the victim's sequence, starting a
    C -> B transfer. Drive with [fig5_schedule]. *)

val fig5_schedule : leg list

val fig6 : unit -> t
(** The Fig. 6 attack on the 4-access variant: the attacker (with
    read-only access to A) completes the victim's sequence; the DMA
    starts but the victim is told it failed. *)

val fig6_schedule : leg list

val shrimp2_race : hook:bool -> t
(** The §2.5 argument-mixing race on SHRIMP-2. With [hook:false] the
    kernel is unmodified and the race starts an A -> D transfer into
    the attacker's page; with [hook:true] the modified kernel
    invalidates pending arguments at every context switch. *)

val shrimp2_schedule : leg list

val ext_stateless_race : unit -> t
(** The same race against §3.2's contextless extended-shadow engine:
    safe with an unmodified kernel, because the attacker's store
    carries its own context bits and the pair mismatches. *)

val newest_wait : ?net:Uldma_net.Backend.t -> unit -> t
(** Three processes on the unhooked SHRIMP-2 engine whose futures
    depend on which started transfer is the engine's newest: a 4 KB
    two-step DMA followed by a status load that finds no deposit (the
    engine's last status then reads failure), an 8-byte two-step DMA
    followed by sys_dma_wait, which waits for the engine's newest
    transfer, and a 64-byte kernel-path DMA, which sets no last status.
    Under a timed backend the short and the kernel-path transfer start
    in either order, and states that differ only in which of them is
    newest reach equal keys unless the key marks the newest in-flight
    transfer ({!Uldma_dma.Engine.add_live}). Not in the {!catalogue};
    [tools/diff_explore] runs it. *)

val flash_race : hook:bool -> t
(** Same race against the FLASH mechanism; safe only with the
    kernel-maintained current-process register ([hook:true]). *)

val rep5 : ?net:Uldma_net.Backend.t -> unit -> t
(** The five-access method (no retry loop, for bounded exploration)
    against the Fig. 5-style attacker. *)

val rep5_with_retry : unit -> t

val rep5_splice : unit -> t
(** The five-access method against a store-splice adversary: the
    attacker issues S(X) S(X) L(X) on its own page, hoping the victim's
    loads of A fill its sequence's load slots and exfiltrate A into X.
    The §3.3.1 argument covers this shape too; the explorer confirms. *)

val ext_shadow_contested : unit -> t
(** Two tenants, each running one legitimate ext-shadow DMA on its own
    register context. Exhaustive exploration must find both transfers
    happening exactly once under every schedule (§3.2 atomicity). *)

val key_contested : ?net:Uldma_net.Backend.t -> unit -> t
(** Same, for the key-based mechanism (§3.1). *)

val pal_contested : unit -> t
(** Same, for the PAL method (§2.7): the two-access window is
    uninterruptible, so even the single pending slot cannot mix. *)

val iommu_contested : ?net:Uldma_net.Backend.t -> unit -> t
(** Same, for IOMMU virtual-address DMA: two tenants pass virtual
    addresses through their own register contexts; the engine
    translates through the IOTLB. *)

val capio_contested : ?net:Uldma_net.Backend.t -> unit -> t
(** Same, for CAPIO capability-checked DMA: each tenant fires with its
    own kernel-minted capabilities. *)

val iommu_fig5 : ?net:Uldma_net.Backend.t -> unit -> t
(** The Fig. 5 splicer against an IOMMU victim. IOMMU initiation never
    touches the shadow window, so every attacker access is rejected
    [Unsupported] — exploration must find every schedule SAFE. *)

val capio_fig5 : ?net:Uldma_net.Backend.t -> unit -> t
(** Same splicer against a CAPIO victim; same expectation. *)

val capio_launder : ?net:Uldma_net.Backend.t -> unit -> t
(** The rep5-style accomplice retargeted at CAPIO: the accomplice has
    learned the victim's capability values and replays them through
    its {e own} register context. The laundering is rejected under
    every schedule — [Bad_capability] (context binding) while the
    victim is alive, [Revoked_capability] once the victim has exited
    and its caps were revoked by pid — a capability is not a bearer
    token here, it names its context and dies with its grantor. *)

val key_contested3 : ?victim_repeat:int -> ?tenant_repeat:int -> unit -> t
(** Three concurrent tenants of the key-based mechanism: one victim and
    two tenants, each initiating [victim_repeat] / [tenant_repeat]
    (default 1 each — key-based initiation is 4 NI accesses, so one
    initiation per process already gives a ~7.6e5-schedule tree)
    legitimate DMAs on its own pages. Sized so state dedup has a large
    tree to collapse. Safety: every DMA happens
    exactly its requested number of times with no argument mixing,
    under every three-way schedule. *)

val ext_shadow_contested3 : ?victim_repeat:int -> ?tenant_repeat:int -> unit -> t
(** Same, for the extended-shadow mechanism (defaults 2 and 2: also a
    ~7.6e5-schedule tree). [~victim_repeat:1 ~tenant_repeat:1] gives a
    1680-schedule tree, small enough for unit tests that still
    exercise three-way interleaving. *)

val iommu_contested3 : ?victim_repeat:int -> ?tenant_repeat:int -> unit -> t
(** Three concurrent IOMMU tenants (defaults 1 and 1: 4-NI-access
    initiation gives the same ~7.6e5-schedule band as
    [key_contested3]). *)

val capio_contested3 : ?victim_repeat:int -> ?tenant_repeat:int -> unit -> t
(** Three concurrent CAPIO tenants, same sizing. *)

val rep5_contested3 : unit -> t
(** The five-access method against both adversary shapes at once: the
    Fig. 5 splicer and the store-splice attacker race one rep5 victim
    in a single three-process (~6.3e5-schedule) tree. Exploration
    shows the victim's §3.3.1 property holds — no violation ever
    touches a victim page and the victim's outcome is always truthful
    — while the strict oracle additionally flags a {e collusion
    channel}: the two adversaries can jointly complete a five-access
    sequence and start a C -> X transfer between their {e own} pages.
    Each colluder could legitimately request the same transfer, so the
    channel is benign by consent and outside the paper's threat model,
    but the oracle (which audits addresses against declared intents,
    like the hardware would) rightly reports it as unattributed. *)

val processes : t -> Uldma_os.Process.t list
(** Victim, attacker, then [extras], in spawn order. *)

val explore_pids : t -> int list
(** The pid list to hand to {!Uldma_verify.Explorer.explore} —
    [processes] projected to pids. *)

val oracle_check : t -> Uldma_os.Kernel.t -> Uldma_verify.Oracle.violation option
(** An explorer [check]: audit an arbitrary kernel state (typically an
    explorer terminal snapshot) against the scenario's intents, reading
    each reporting process's success count out of that state, and
    return the first violation, if any. Pure. *)

val run_legs : t -> leg list -> unit
(** Advance the named process by one NI access per leg. *)

val finish : t -> ?max_steps:int -> unit -> unit
(** Round-robin both processes until they exit. *)

val run_random : t -> seed:int -> switch_probability:float -> unit
(** Run the whole scenario under a randomized preemptive schedule
    (10%-per-instruction switches by default semantics of the seed). *)

val report : t -> Uldma_verify.Oracle.report
val victim_successes : t -> int
val victim_last_status : t -> int
val transfers : t -> Uldma_dma.Transfer.t list

val traced : (unit -> 'a) -> 'a
(** [traced f] builds a scenario (or anything else that creates
    kernels) under an enabled trace sink, so that {!access_timeline}
    can read it back: the ambient sink when one is enabled (a
    [--trace] run), otherwise a fresh private [Trace.create ()]
    installed as ambient for the duration of [f]. *)

val access_timeline : t -> (Uldma_util.Units.ps * string * string) list
(** The engine-visible access stream of the run, in bus order, with
    symbolic page names (A, B, C, foo, D) — a regeneration of the
    paper's Fig. 5/6 interleaving diagrams. Each entry is
    (time, actor, rendered access). It reads the kernel's trace sink:
    the [Uncached_access] records stamped with this kernel's machine
    id and a process pid (kernel accesses are left out), so other
    kernels sharing the sink do not show. The scenario must have been
    built under {!traced}, and the sink must still retain the run
    (its default cap holds any scenario); raises [Invalid_argument]
    when the sink is disabled. *)

val label_of_paddr : t -> int -> string
(** Symbolic name for a physical address ("A+0x40", "shadow(C)"), used
    by [access_timeline]. *)

(** {2 The catalogue}

    Every explorable machine, named once: the CLI's [explore] and
    [timeline], [tools/diff_explore], [tools/check_trace] and
    [tools/bench_explorer] all read their machines from here. *)

type build =
  | Timed of (?net:Uldma_net.Backend.t -> unit -> t)
      (** has a wire-time variant (see {!fig5}'s [?net]) *)
  | Untimed of (unit -> t)  (** runs under the Null backend only *)

type entry = {
  name : string;  (** as spelled on the command line, e.g. ["iommu-fig5"] *)
  title : string;  (** what [explore] prints, e.g. ["iommu vs Fig. 5 splicer"] *)
  build : build;
  schedule : leg list option;  (** the paper's interleaving, where it draws one *)
}

val catalogue : entry list
(** The 17 [explore] machines and the five two-step races, in the
    order [tools/diff_explore] runs them. *)

val find : string -> entry option

val instance : ?net:Uldma_net.Backend.t -> entry -> t
(** The entry's machine, at [net] when it is timed (default Null).
    Raises [Invalid_argument "scenario NAME has no timed variant; --net
    must be null"] for an untimed entry given a linked backend. *)

val named : ?net:Uldma_net.Backend.t -> string -> t
(** {!find} then {!instance}; raises [Invalid_argument] for an unknown
    name. *)

(** {2 Scenario building blocks}

    Every machine is a victim through one mechanism plus the processes
    that race it. The pieces are exposed so program synthesis
    ({!Synth}) can build whole families of machines that differ only in
    one process's program. *)

val transfer_size : int
(** Bytes per DMA in every scenario (one cache-line-ish unit). *)

val make_kernel : ?net:Uldma_net.Backend.t -> Uldma_dma.Engine.mechanism -> Uldma_os.Kernel.t
(** A 64-page machine with round-robin scheduling and the given
    protection mechanism / net backend. It takes the ambient trace
    sink like every [Kernel.create]. *)

type victim

val with_victim :
  ?net:Uldma_net.Backend.t ->
  ?repeat:int ->
  ?size:int ->
  ?emit:(Uldma_cpu.Asm.t -> unit) ->
  Uldma.Mech.t ->
  Uldma_os.Kernel.t * victim
(** A {!make_kernel} machine running [mech]'s engine personality
    ([Mech.t.engine_mechanism]) and the standard victim: [repeat]
    (default 1) DMAs of [size] bytes (default 256) A -> B through
    [mech], emitted by [emit] when given, reporting into a result
    page. *)

val victim_labels : victim -> (int * string) list
(** The victim's pages A and B, for the [labels] field. *)

type op = S of int | L of int
(** An adversary's shadow-window access to its page [p]: [S p] stores
    the transfer size to the page's shadow alias and drains the write
    buffer (the store idiom of an initiation), [L p] loads from it. *)

val shadow_program : ?sized:bool -> int list -> op list -> Uldma_cpu.Isa.instr array
(** [shadow_program vas ops]: page [i]'s va into r[12+i], its shadow
    alias into r[20+i], the transfer size into r3 (unless [sized] is
    false), then [ops] and a halt. *)

val adversary :
  ?with_context:bool ->
  ?ops:op list ->
  Uldma_os.Kernel.t ->
  string ->
  string list ->
  Uldma_os.Process.t * int list * (int * string) list
(** [adversary kernel name pages] spawns [name] with one fresh
    shadow-mapped page per entry of [pages] (named by it), running
    {!shadow_program} of [ops] when given, else an empty program:
    [(process, page vas, labels)]. [with_context] (default false)
    allocates it a register context first — required before
    shadow-mapping under the extended-shadow mechanism. *)

val fig5_attacker :
  ?with_context:bool -> Uldma_os.Kernel.t -> Uldma_os.Process.t * (int * string) list
(** The Fig. 5 attacker (S(foo) L(foo) L(C) L(C) over its own
    shadow-mapped pages): [(attacker, page labels)]. *)

val make :
  Uldma_os.Kernel.t ->
  victim ->
  ?intents:Uldma_verify.Oracle.intent list ->
  (Uldma_os.Process.t * int option) list ->
  (int * string) list ->
  t
(** The one constructor: [make kernel victim ~intents procs labels].
    The first of [procs] is the attacker, the rest are [extras], each
    with its result page when it reports; [intents] are declared beside
    the victim's. *)
