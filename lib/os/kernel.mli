(** The operating-system kernel — and, because this simulator has one
    CPU, the machine's execution loop.

    The kernel is deliberately *unmodified* by default: it knows
    nothing about user-level DMA beyond the standard services any UNIX
    provides (build address spaces, create mappings — including shadow
    mappings, which are set up with ordinary mmap-like calls at
    initialisation time — and serve [sys_dma] the classic way).

    The SHRIMP-2 and FLASH baselines *require* a modified context
    switch handler; that modification is modelled as explicit,
    installable hooks ([install_shrimp_hook], [install_flash_hook]).
    [kernel_modified] reports whether any such hook is installed — the
    paper's mechanisms all run with it false, and the safety test suite
    checks exactly that. *)

type backend_spec =
  | Null  (** zero-duration, no data movement (Table 1 methodology) *)
  | Local of { bytes_per_s : float }  (** real copies within local RAM *)
  | Timed of { label : string; duration_of_bytes : int -> int }
      (** Null's no-data-movement semantics with a real wire time:
          [duration_of_bytes n] picoseconds for an [n]-byte transfer.
          [label] names the model (e.g. a net backend's cache key) for
          reporting; [duration_of_bytes] must be pure. This is how
          [Uldma_net.Backend] plugs into the kernel without [lib/os]
          depending on [lib/net]. *)

type config = {
  timing : Uldma_bus.Timing.t;
  ram_size : int;
  mechanism : Uldma_dma.Engine.mechanism;
  n_contexts : int;
  backend : backend_spec;
  write_buffer : Uldma_bus.Write_buffer.mode;
  sched : Sched.policy;
  seed : int;
  disk : Uldma_io.Disk.geometry option;
      (** attach a disk (served by [sys_disk_read]/[sys_disk_write]);
          [None] by default *)
}

val default_config : config
(** alpha3000_300 timing, 4 MiB RAM, [Ext_shadow], 4 contexts, [Null]
    backend, ordered write buffer, run-to-completion scheduling. *)

type t

val create : config -> t

val copy : t -> t
(** Independent snapshot (explorer support). Process contexts, engine
    registers, clock, scheduler and write buffer are duplicated. Tables
    the next leg rarely writes are shared: RAM by 512 B copy-on-write
    chunk, page tables as persistent maps, the TLBs and the IOTLB
    copy-on-write (the first write on either side copies), and the PAL
    table, which installs replace. So a snapshot costs O(live
    bookkeeping), not O(RAM size) or O(table capacity). The bus carries
    timing, its device registration and per-pid access counters. *)

val snapshot : t -> t
(** Alias for [copy]; the intent-revealing name for explorer forks. *)

(** {1 Accessors} *)

val config : t -> config
val clock : t -> Uldma_bus.Clock.t
val now_ps : t -> Uldma_util.Units.ps
val bus : t -> Uldma_dma.Engine.t Uldma_bus.Bus.t
val engine : t -> Uldma_dma.Engine.t
val timing : t -> Uldma_bus.Timing.t
val ram : t -> Uldma_mem.Phys_mem.t
val processes : t -> Process.t list
val find_process : t -> int -> Process.t option
val runnable_pids : t -> int list
val console : t -> (int * int) list
(** (pid, value) pairs from [sys_print], oldest first. *)

val context_switches : t -> int

(** {1 Observability}

    Every kernel owns a structured trace sink ({!Uldma_obs.Trace}) and
    a machine id. [create] adopts the process-global ambient sink
    ([Trace.ambient ()]) — the (disabled) null sink unless an
    experiment driver installed one — and registers a fresh machine id
    on it. Forks made by [copy]/[snapshot] share the parent's sink and
    machine id. *)

val set_trace : t -> Uldma_obs.Trace.t -> unit
(** Attach a sink after construction: registers a new machine id on it
    and rewires the bus, engine and write-buffer instrumentation. *)

val trace : t -> Uldma_obs.Trace.t
val machine_id : t -> int

val state_encoding : ?relative_to:t -> t -> string
(** Canonical encoding of the machine's engine-visible state: running
    pid, per-process control state (state tag, pc, registers, DMA
    context/key, uncached-access count), write-buffer drain frontier,
    console, DMA engine observables and RAM pages dirtied since the
    root (O(dirtied), not O(RAM)). Cost bookkeeping (clock, charged bus
    time, switch/instruction counters, trace state) is excluded: it
    differs between commuting schedule prefixes but cannot influence
    future observable steps. Time-dependent observables are folded in
    {e relative to now}: each in-flight transfer's exact remaining wire
    time and duration, and each blocked process's remaining sleep — so
    states differing only by an absolute clock offset merge while
    states with genuinely different pending deadlines never do. Under
    the [Null] backend these fields are constants and the encoding
    partitions states exactly as before. Equal encodings => identical
    evolution under identical schedules; the explorer's memo table keys
    on this string, so dedup can miss a merge but never merge distinct
    states. [relative_to] (a common snapshot ancestor, e.g. the
    explorer root) restricts the RAM part to pages physically diverged
    from it — exact, and O(work since the root) instead of O(all
    setup-time writes).

    Program text is covered relative to [relative_to] the same way: a
    live process whose program array is not physically its baseline
    process's (same pid) adds its residual text
    ({!Process.encode_text}) — the instruction suffix from pc for a
    straight-line program, the whole program otherwise. An exited
    process adds nothing, and without [relative_to] every live
    process's text is added. Kernels snapshotted from one baseline
    that differ only in a process's program therefore never share an
    encoding while their residual texts differ. *)

val state_key : ?relative_to:t -> paranoid:bool -> t -> string * int
(** Memo key for the explorer, plus the number of bytes streamed at
    this call to produce it. With [~paranoid:false] (the default
    exploration mode) the same token walk as [state_encoding] is
    streamed into one two-lane 126-bit fingerprint
    ({!Uldma_util.Fp128}) and the 16-byte packed key is returned — no
    encoding string is materialised, and RAM pages, the process table,
    the IOTLB and the DMA engine's registers enter as their
    write-maintained additive digests ({!Phys_mem.page_digest},
    {!Process.digest}, {!Uldma_mmu.Iotlb.digest},
    {!Uldma_dma.Context_file.digest}, {!Uldma_dma.Seq_matcher.digest}
    and {!Uldma_dma.Engine.digest}, the last covering the engine's
    kernel-page and atomic registers and every started transfer's
    static fields), two ints each, so a key costs O(tokens streamed)
    whatever was written since the last one. The process table enters
    as one lane sum over every process's pid-salted digest (registers,
    state code, DMA context and key), followed by each process's pc and
    uncached-access count and a sleeper's remaining time. Of the engine
    only what depends on the clock is streamed, and only while a
    transfer is in flight: the context statuses as loads see them now
    and the remaining time of each transfer still in flight (with
    nothing in flight these are functions of digested fields, so a key
    under the [Null] backend walks no transfer and no status). The
    byte count is exactly what was streamed here: digest upkeep is paid
    by the writes, not by the key. The engine's digests are built on
    the first key, so a machine that is never keyed pays only a flag
    test per register write; a residual-text digest is built once per
    program, on the first key that needs it, and fed as two ints. Two
    states with equal encodings always get equal keys; distinct states
    collide only if both 63-bit lanes collide (~2^-126 —
    [tools/diff_explore] checks fingerprint runs against paranoid runs
    differentially). With [~paranoid:true] the key is the full
    [state_encoding] string, under which key equality is exactly
    encoding equality. *)

val counter_snapshot : t -> Uldma_obs.Counters.t
(** The machine's accounting as a uniform named-counter registry:
    [os.*] (elapsed time, context switches, instructions, syscalls),
    [bus.*] (busy time, per-pid uncached crossings) and [dma.*]
    (transfers started, rejections, atomics, remote sends). *)

val set_sched_policy : t -> Sched.policy -> unit
(** Replace the scheduling policy mid-run (used by randomized attack
    campaigns that set up deterministically, then run preemptively). *)

(** {1 Process and memory setup (host-level kernel services)} *)

val spawn : t -> name:string -> program:Uldma_cpu.Isa.instr array -> ?superuser:bool -> unit -> Process.t

val alloc_pages : t -> Process.t -> n:int -> perms:Uldma_mem.Perms.t -> int
(** Map [n] fresh zeroed pages; returns the first virtual address.
    Raises [Failure] when out of frames. *)

val share_pages :
  t -> from_process:Process.t -> vaddr:int -> n:int -> into:Process.t -> perms:Uldma_mem.Perms.t -> int
(** Map the frames backing [from_process]'s pages into [into]'s address
    space with (possibly weaker) [perms]; returns the new vaddr. *)

val map_remote_pages :
  t -> Process.t -> remote_paddr:int -> n:int -> perms:Uldma_mem.Perms.t -> int
(** Map [n] pages of the peer node's physical memory (Telegraphos-style
    NOW shared memory) into the process at a fresh virtual address.
    [remote_paddr] is the page-aligned physical address on the peer.
    Uncached stores there become single-word network packets; passing
    such an address as a DMA destination ships the payload remotely
    (drain with [Uldma_dma.Engine.take_outbound] or [Uldma.Cluster]). *)

val map_shadow_alias : t -> Process.t -> vaddr:int -> n:int -> window:[ `Dma | `Atomic ] -> int
(** Create the process's shadow aliases for [n] existing data pages.
    The alias of address [a] is [a + Vm.shadow_va_offset] (or
    [atomic_va_offset]); aliases are uncacheable and carry the
    process's register-context id in the physical address when the
    engine mechanism is [Ext_shadow] (§3.2). Alias permissions mirror
    the data pages' permissions — this is precisely how shadow
    addressing inherits protection from the MMU. *)

val alloc_dma_context : t -> Process.t -> (int * int * int) option
(** Assign a free register context: returns (context id, key, va of the
    mapped context page). The key is stored in the engine "in memory
    locations unreadable by user processes" via the control page. *)

val set_atomic_mailbox : t -> Process.t -> vaddr:int -> unit
(** Point the process's register context's atomic-reply mailbox at one
    of its own writable words: the old value of a *remote* atomic
    operation is delivered there when the reply packet arrives. Only
    the kernel can set it, because it is stored as a physical address
    (the process cannot aim it at memory it does not own). *)

val free_dma_context : t -> Process.t -> unit

val grant_dma_cap :
  t -> Process.t -> vaddr:int -> len:int -> rights:Uldma_mem.Perms.t -> int option
(** CAPIO: mint an unforgeable 64-bit capability over the process's
    [vaddr, vaddr+len) (which must be owned with [rights] and be
    physically contiguous) and install it in the engine through the
    control page. Requires an allocated DMA context — the capability is
    bound to it. Also reachable from user code as
    [Sysno.sys_grant_dma_cap]. [None] on any check failure. *)

val unmap_pages : t -> Process.t -> vaddr:int -> n:int -> unit
(** Tear down [n] page mappings with the mechanism's DMA-protection
    shootdowns: per-page IOTLB invalidation under [Iommu], revocation
    of capabilities over the freed frames under [Capio]. *)

val install_pal : t -> index:int -> Uldma_cpu.Isa.instr array -> (unit, string) result
(** Privileged: install a PAL function (§2.7). *)

val map_out_page : t -> Process.t -> vaddr:int -> dst_paddr:int -> unit
(** SHRIMP-1: declare [dst_paddr]'s page the mapped-out twin of the
    page backing [vaddr]. *)

(** {1 Kernel modification (for the SHRIMP-2 / FLASH baselines only)} *)

val install_shrimp_hook : t -> unit
val install_flash_hook : t -> unit
val kernel_modified : t -> bool

(** {1 Execution} *)

type run_result = All_exited | Max_steps | Predicate

val step : t -> [ `Stepped of int | `Idle ]
(** Let the scheduler pick a process and execute one instruction
    (handling any trap it raises to completion). [`Idle] when nothing
    is runnable. *)

val step_pid : t -> int -> [ `Ok | `Not_runnable ]
(** Force one instruction of a specific process; performs a context
    switch if needed. *)

val run_leg : t -> int -> max_instructions:int -> [ `Progress | `Exited | `Stuck ]
(** One interleaving-explorer leg of a process: switch to it if it is
    not running, then execute its instructions until its count of
    uncached accesses ({!Uldma_bus.Bus.pid_access_count}) grows
    ([`Progress]), [max_instructions] have run ([`Stuck]) or it is no
    longer runnable ([`Exited]), testing them in that order after each
    instruction. An unknown or non-runnable pid is [`Exited]; a budget
    [<= 0] is [`Stuck] before anything runs. Equal, in every effect, to
    calling {!step_pid} under the same tests until one holds. *)

val next_transfer_deadline : t -> Uldma_util.Units.ps option
(** Earliest in-flight transfer completion strictly after now — the
    next instant at which pure waiting changes an observable. Always
    [None] under the zero-duration [Null] backend. *)

val advance_to_next_completion : t -> bool
(** Idle the machine forward to [next_transfer_deadline] (waking any
    sleepers whose deadline passed) and return [true]; [false] (and no
    effect) when nothing is in flight. The explorer exposes this as a
    scheduling leg of its own ({!Uldma_verify.Explorer.wait_leg}): at
    NI-access granularity "let the wire drain before anyone touches
    the NI again" is a scheduling decision like any other. *)

val run : t -> ?max_steps:int -> unit -> run_result
val run_until : t -> ?max_steps:int -> (t -> bool) -> run_result
(** The predicate is evaluated after every instruction. *)

(** {1 Harness access to user memory} *)

val read_user : t -> Process.t -> int -> int
(** Word-read a user virtual address, bypassing timing (harness only).
    Raises [Failure] if unmapped. *)

val write_user : t -> Process.t -> int -> int -> unit

val user_paddr : t -> Process.t -> int -> int
(** Translate without access checks (harness/oracle use). *)
