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
  | Timed of { duration_of_bytes : int -> int }
      (** Null's no-data-movement semantics with a real wire time:
          [duration_of_bytes n] picoseconds for an [n]-byte transfer;
          [duration_of_bytes] must be pure. This is how
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
    registers, clock, scheduler and write buffer are duplicated, and
    the digest cell they write (see {!digest}) is copied once. Tables
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
    a machine id. [create] takes the process-global ambient sink
    ([Trace.ambient ()]) — the (disabled) null sink unless an
    experiment driver installed one — and registers a fresh machine id
    on it. Forks made by [copy]/[snapshot] share the parent's sink and
    machine id. *)

val set_trace : t -> Uldma_obs.Trace.t -> unit
(** Attach a sink after construction: registers a new machine id on it
    and rewires the bus, engine and write-buffer instrumentation. *)

val trace : t -> Uldma_obs.Trace.t
val machine_id : t -> int

(** {1 The state key}

    Everything the simulated programs and the Fig. 8 oracle can observe
    is keyed; cost bookkeeping (clock, charged bus time,
    switch/instruction counters, trace state) is not: it differs
    between commuting schedule prefixes but cannot influence future
    observable steps. Time-dependent observables are keyed {e relative
    to now}: each in-flight transfer's exact remaining wire time and
    each blocked process's remaining sleep, so states differing only
    by an absolute clock offset merge while states with genuinely
    different pending deadlines never do. [relative_to] (a common
    snapshot ancestor, e.g. the explorer root) restricts the RAM part
    to pages physically diverged from it — exact, and O(work since the
    root) instead of O(all setup-time writes) — and program text the
    same way: a live process whose program array is not physically its
    baseline process's (same pid) keys its residual text
    ({!Process.encode_text}); an exited process keys none, and without
    [relative_to] every live process keys its text. *)

val iter_terms : ?relative_to:t -> (int -> int -> unit) -> t -> unit
(** The machine's keyed words as (slot, word) terms over disjoint slot
    domains ({!Uldma_util.Fp128.domain}), in slot order: each process's
    ({!Process.iter_terms}, with its uncached-access count and its text
    keyed as above), the DMA engine's registers, transfers and units
    ({!Uldma_dma.Engine.iter_register_terms}), the write buffer's, the
    console's, the free-context list's and the engine's tables
    ({!Uldma_dma.Engine.iter_table_terms}). *)

val digest : ?relative_to:t -> t -> int * int
(** The maintained digest of {!iter_terms}'s terms: the machine's
    digest cell, into which the engine, write buffer, console and
    free-context list write their terms on every change from creation
    on, plus the engine's started transfers
    ({!Uldma_dma.Engine.add_history}), plus each process's
    register-file lanes after folding its pc, access count and text
    ({!Process.fold_key}). It must always equal
    [Fp128.sum_terms (iter_terms ?relative_to) t]. *)

val fingerprint : ?relative_to:t -> t -> int * int * int
(** The explorer's memo key: the two finalised lanes of a 126-bit
    fingerprint of the state {!state_encoding} writes, and the bytes
    streamed to make it. It streams a flags word (force-switch, hooks)
    and the lane sums of {!digest} (the started transfers keyed as a
    multiset) and of the RAM pages diverged from
    [relative_to] ({!Phys_mem.add_diverged}), then the live part: each
    sleeper's remaining time, the running pid where a context switch
    can reach keyed state (a hook is installed, the mechanism is
    [Iommu], the write buffer holds an entry, a transfer is in flight
    or a process sleeps; else, and for an exited process unless the
    write buffer holds an entry, [min_int]) and the engine's in-flight
    transfers ({!Uldma_dma.Engine.add_live}). Under the
    [Null] backend a key streams four ints and reads O(processes)
    words.

    RAM is keyed relative to the baseline: the sum is over the touched
    pages whose record is not the baseline's, and a page that diverged
    to zeros has a nonzero term. The kernel's RAM keeps that sum
    relative to one baseline; a key relative to another baseline first
    re-keys it, O(touched pages), and snapshots inherit it. A key
    without [relative_to], or relative to the kernel itself, is
    {!scratch_fingerprint}. Equal encodings always give equal keys;
    distinct ones collide only if both 63-bit lanes collide (~2^-126 —
    [tools/diff_explore] checks fingerprint runs against paranoid runs
    differentially). *)

val scratch_fingerprint : ?relative_to:t -> t -> int * int * int
(** {!fingerprint} from the enumeration: the sum of {!iter_terms}'s
    terms, and the RAM sum from a walk over the touched pages. It
    changes no keyed state (the enumeration may bring the engine's
    keyed view of its started transfers up to date), and
    {!fingerprint} must always equal it. *)

val state_encoding : ?relative_to:t -> t -> string
(** The paranoid key: {!fingerprint}'s content, unhashed. The flags
    word, every nonzero term of {!iter_terms} as a (slot, word) pair
    ({!Uldma_util.Enc.terms}), the live part written by the same code
    over the text sink, then what the fingerprint hashes as text: each
    keyed program's residual text and the raw bytes of each keyed RAM
    page. Equal encodings mean equal keyed state exactly, so the
    explorer's paranoid memo can miss a merge but never merge distinct
    states. *)

val state_key : ?relative_to:t -> paranoid:bool -> t -> string * int
(** Memo key as a string, plus the number of bytes streamed at this
    call to produce it. With [~paranoid:false] it is {!fingerprint}'s
    lanes packed into 16 bytes ({!Uldma_util.Fp128.pack}); the explorer
    passes the lanes to the memo directly. With [~paranoid:true] the
    key is the full {!state_encoding} string, under which key equality
    is exactly encoding equality. *)

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
