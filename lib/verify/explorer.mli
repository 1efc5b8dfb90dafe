(** Exhaustive bounded interleaving exploration — a machine-checked
    version of the paper's §3.3.1 correctness argument (Fig. 8).

    The explorer enumerates *every* schedule of a set of processes and
    evaluates a safety check at every terminal state. Enumerating at
    single-instruction granularity would be wasteful: instructions that
    do not touch the network interface only affect the issuing
    process's private registers and private memory, so interleavings
    that differ only in their placement commute. The explorer therefore
    branches at {e NI-access granularity}: one scheduling "leg" runs a
    process up to and including its next uncached (engine-visible) bus
    transaction. This is exactly the granularity of the paper's own
    Fig. 5/6/8 interleaving diagrams.

    {2 Timed backends and the wait leg}

    Under a timed net backend ([Kernel.Timed], built from
    {!Uldma_net.Backend}) transfers stay in flight for a real wire
    time, and "let the wire drain before anyone touches the NI again"
    becomes a scheduling decision of its own. Whenever a transfer is in
    flight the explorer therefore offers one extra leg, {!wait_leg}
    (pseudo-pid [-2], ordered after every real pid): it idles the
    machine to the next transfer completion instead of running a
    process. Terminal states require both no runnable process and
    nothing in flight. Dedup stays sound because the state encoding
    folds in each transfer's {e exact} remaining-time-at-now (see
    [Kernel.state_encoding]); the schedule tree stays finite because a
    backend's durations are quantised to its tick, which caps how many
    distinct deadline patterns the legs between two NI accesses can
    produce. With the zero-duration Null backend no deadline ever
    exists, no wait leg is ever offered, and trees (and goldens) are
    exactly as before.

    States are forked with [Kernel.snapshot] (copy-on-write RAM and
    persistent page tables, so a fork is cheap even with large RAM) and
    a leg's NI accesses are counted by the bus's O(1) per-pid counters
    rather than by scanning the trace.

    On top of the leg-granular tree the explorer {e deduplicates
    states}: two schedule prefixes that reach the same engine-visible
    state ([Kernel.state_encoding]) share one subtree expansion, and
    [paths] is counted through the resulting DAG rather than re-walked.
    Memoized subtrees carry their violation schedules as suffixes and
    re-emit them under each new prefix, so deduplication (and
    parallelism) change cost, never results: [paths], the violating
    schedules, and even their order are identical with [dedup] on or
    off and with any [jobs] value — including under truncation (see
    the lease discussion below). One caveat: a memo hit re-emits the
    ['v] value computed on the first-discovered prefix, so payload
    fields outside the dedup abstraction — simulated timestamps,
    chiefly — may differ from what a brute-force run would compute for
    the same schedule.

    {2 Parallel driver (work stealing)}

    With [jobs > 1] every worker domain owns a private Chase–Lev deque
    ([Ws_deque]); the root subtree seeds one of them and load balance
    is dynamic: while any domain is hungry, a worker expanding a tree
    node publishes the node's unexpanded sibling legs onto its own
    deque and descends only into the first, so thieves peel off the
    shallowest — largest — published subtrees and a long-running
    subtree keeps shedding work for as long as anyone is idle.
    Termination is detected with an atomic in-flight task counter.
    [check] then runs on worker domains and must be pure (the standard
    oracles are).

    Three mechanisms keep the parallel driver from paying for its own
    machinery (DESIGN.md §5f):

    - {e Sequential cutoff}: a node is published only when its
      estimated subtree size (remaining depth × spare width) clears an
      adaptive threshold; small subtrees run inline with no deque, no
      fork a thief could take, and — with domain-local generations —
      no shard locks. Hungry domains failing to steal lower the
      threshold (bootstrapping an empty system); publications nobody
      steals raise it. The equilibrium value is reported as [cutoff].
    - {e Domain-local memo generations}: each worker writes summaries
      to a private unsynchronised generation, merged into the shared
      sharded table in batches at task boundaries ([memo_merges]
      counts them). Shards are owned by the first domain to merge into
      them, and a worker hitting another domain's shard prefers
      stealing from that domain next.
    - {e Truncation leases}: [max_paths] is split into per-task leases
      at publication, and every run logs what it finds in DFS order; a
      final settlement walk replays the log against the real budget.
      Violations therefore come out in DFS (pid-rank lexicographic)
      order — the sequential emission order — with no sorting, and a
      truncated parallel run reproduces the {e exact} sequential
      clipped frontier: same [paths], same violation list and order,
      same [truncated] flag at every [jobs] value. The one field that
      stays best-effort in a {e truncated parallel} run is
      [stuck_legs] (stuck legs are not individually positioned in the
      log); it is exact sequentially and whenever the run completes.

    {2 Memo bounding and persistence}

    The memo table is {e bounded} ([memo_cap] summaries in the hot
    generation; two-generation rotation with promotion on touch — see
    {!Memo}). Eviction costs re-expansion only, so sequential results
    are bit-identical to an unbounded table while peak memory stays
    capped. [evictions] in the result counts discarded summaries.

    [memo_file] names an optional {e persistent} cache: violation-free
    subtree summaries are saved on completion and seed lookups on the
    next run, keyed by [memo_key] and guarded by a schema version plus
    the root kernel's fingerprint (see {!Memo.Persist}); a stale or
    foreign file is ignored wholesale. Because only safe summaries are
    persisted, a warm start can skip work but can never mask a
    violation. *)

type 'v result = {
  paths : int; (** complete schedules explored (counted through the DAG) *)
  violations : ('v * int list) list;
      (** violation + the pid schedule (one pid per leg) that reached it *)
  truncated : bool; (** the path budget was hit; exploration is incomplete *)
  states_visited : int;
      (** nodes actually expanded (memo misses + terminals); with dedup
          this is the DAG size, without it the full tree size *)
  dedup_hits : int; (** subtree expansions avoided by the memo table *)
  stuck_legs : int;
      (** legs abandoned because a pid exceeded the per-leg instruction
          budget without an NI access; only those branches are pruned,
          their siblings are still explored *)
  evictions : int;
      (** memo summaries discarded by the bounded table's generation
          rotation (0 when the table never filled) *)
  steals : int;
      (** tasks taken from another domain's deque (0 when [jobs] = 1) *)
  publications : int;
      (** subtree-root tasks published for stealing (0 when [jobs] = 1);
          kept low by the adaptive cutoff *)
  lease_splits : int;
      (** published tasks whose lease was strictly below [max_paths] —
          i.e. publications where truncation accounting actually had to
          split the budget *)
  memo_merges : int;
      (** domain-local memo generations merged into the shared table
          (0 when [jobs] = 1, where writes go straight to the single
          unlocked shard) *)
  cutoff : int;
      (** final value of the adaptive publication threshold (the
          initial default when [jobs] = 1, where nothing adapts it) *)
  snapshots : int;
      (** [Kernel.snapshot] calls made (seed + per-leg forks). A node's
          final leg advances its parent in place — the parent is dead
          after the expansion loop — so a width-w node pays w-1 copies
          and width-1 chains pay none. *)
  bytes_hashed : int;
      (** bytes streamed into memo keys at the nodes: walk tokens
          (write-maintained component digests count as their two ints;
          their upkeep is paid by the writes, not here) plus any
          campaign decoration in fingerprint mode, full decorated
          encoding lengths in [paranoid_memo] mode. The per-node ratio
          is the bench's [bytes_hashed_per_node]. *)
  counters : Uldma_obs.Counters.t;
      (** per-domain observability: [explorer.d<i>.steals],
          [.publications], [.lease_splits], [.memo_merges] for each
          worker domain [i]. Filled after all domains join. *)
}

(** {2 Cross-exploration shared memo (campaign mode)}

    A ['v shared_memo] is one bounded memo table that outlives many
    [explore] calls in one process, so exploration N warm-starts from
    the in-memory union of what explorations 1..N-1 memoized — this is
    what makes a campaign of thousands of near-identical candidate
    programs cost far less than that many cold runs (see {!Campaign}).

    Sharing across candidates is sound only with two key decorations,
    both applied automatically when [?shared] is passed to [explore]:

    - a fixed 8-byte {e generation} prefix. The campaign driver bumps
      it ({!bump_generation}) whenever the root baseline or net
      backend changes, so keys minted against one baseline can never
      alias keys minted against another — root-relative encodings are
      only comparable under one baseline. Bumping makes the old
      generation's entries unreachable (they age out of the bounded
      table) without a stop-the-world clear.
    - a per-candidate [?key_tag]. Program text is deliberately absent
      from [Kernel.state_encoding] (programs live in [Cpu.ctx], not
      RAM), so two candidates that differ only in one process's
      program can reach identical engine-visible states with different
      futures. The tag must determine that process's residual
      behaviour — for straight-line candidate programs, a fingerprint
      of the instruction suffix from the current pc (equal once two
      candidates' remaining code is equal, and constant after exit,
      which is where most cross-candidate sharing comes from). The tag
      must be fixed-width so key concatenation stays unambiguous. *)

type 'v shared_memo

val create_shared : ?cap:int -> ?locked:bool -> unit -> 'v shared_memo
(** A fresh shared table (64 shards, [cap] defaulting to the explore
    default, [locked] defaulting to [true] — pass [false] only when a
    single domain will ever touch it). *)

val bump_generation : 'v shared_memo -> unit
(** Start a new key generation: every key minted afterwards is
    disjoint from every key minted before. Call between campaign cells
    (baseline or backend change); never concurrently with [explore]. *)

val shared_generation : 'v shared_memo -> int
val shared_length : 'v shared_memo -> int
(** Resident summaries (all generations); racy under concurrency. *)

val shared_evictions : 'v shared_memo -> int
(** Cumulative evictions over the table's whole life. *)

val explore :
  root:Uldma_os.Kernel.t ->
  pids:int list ->
  ?baseline:Uldma_os.Kernel.t ->
  ?max_instructions_per_leg:int ->
  ?max_paths:int ->
  ?dedup:bool ->
  ?paranoid_memo:bool ->
  ?jobs:int ->
  ?memo_cap:int ->
  ?memo_file:string ->
  ?memo_key:string ->
  ?memo_net:string ->
  ?shared:'v shared_memo ->
  ?key_tag:(Uldma_os.Kernel.t -> string) ->
  ?cutoff:int ->
  ?merge_batch:int ->
  check:(Uldma_os.Kernel.t -> 'v option) ->
  unit ->
  'v result
(** [check] runs at each terminal state (all of [pids] exited or
    stuck, and nothing in flight). Defaults: 2000 instructions per
    leg, 1_000_000 paths, [dedup] on, [paranoid_memo] off, [jobs] 1,
    [memo_cap] 262144 summaries, no [memo_file], [memo_key]
    ["default"], [memo_net] ["null"]. [paranoid_memo] keys the memo on
    full encoding strings instead of streamed 126-bit fingerprints:
    slower, but a key equality is then exactly a state equality — the
    verification mode [tools/diff_explore] runs differentially against
    the fingerprint default. A paranoid run neither reads nor writes
    [memo_file] (the persistent cache stores fingerprint keys).
    The root kernel is not mutated. With [jobs > 1], [check]
    runs on worker domains and must be pure. [memo_key] distinguishes
    scenarios sharing one [memo_file]; [memo_net] must name the
    kernel's net backend (e.g. [Uldma_net.Backend.cache_key]) whenever
    it is not the Null backend — the persistent cache keys sections by
    (scenario, net) because the root fingerprint alone cannot tell
    backends apart (nothing is in flight at the root). Reusing a key
    across different scenarios is safe (the root fingerprint guard
    rejects the stale section) but forfeits the warm start.

    [baseline] overrides the encoding baseline (default: [root]). A
    campaign passes the common base kernel all candidate roots were
    snapshotted from, so every candidate's keys live in one comparable
    space; the baseline must not be mutated (or snapshotted from
    another domain) while any exploration that uses it runs.

    [shared] routes all memo traffic through a cross-exploration table
    instead of a private one (see above); [memo_file] is then ignored
    — decorated keys are meaningless outside their own table. Pass
    [key_tag] (fixed-width, residual-behaviour-determining) whenever
    candidates sharing the table differ in program text.

    [cutoff] sets the {e initial} adaptive publication threshold
    (default 8; clamped to [1, 2^20]). Raising it biases against
    intra-tree splitting — a campaign with plentiful candidates sets
    it high so small trees stay sequential and parallelism comes from
    the outer candidate queue. [merge_batch] sets the forced
    domain-local generation merge threshold (default 256; the boundary
    merge minimum scales down with it). Both are pure performance
    knobs: results are identical at any setting. *)

val wait_leg : int
(** The pseudo-pid ([-2]) recorded in a schedule when the leg idled the
    machine to the next in-flight transfer completion instead of
    running a process. Never appears under the Null backend. *)

val advance_one_leg : Uldma_os.Kernel.t -> int -> max_instructions:int -> [ `Progress | `Exited | `Stuck ]
(** Run pid until its next NI access completes (or it exits). Exposed
    for tests. *)
