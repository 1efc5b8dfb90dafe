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
    A memoized subtree summary references its violating children's
    summaries instead of copying their schedules, so it costs O(1)
    words beyond children that already exist, and memo memory grows
    with states, not with violations × depth. A hit re-emits the
    subtree's violations under the current prefix, so deduplication
    changes cost, never results: [paths], the violating schedules, and
    even their order are identical with [dedup] on or off — including
    under truncation. One caveat: a memo hit re-emits the ['v] value
    computed on the first-discovered prefix, so payload fields outside
    the dedup abstraction — simulated timestamps, chiefly — may differ
    from what a brute-force run would compute for the same schedule.

    {2 One sequential search over one bounded table}

    [explore] is a single depth-first search.
    Violations are recorded in DFS (pid-rank lexicographic) order as
    they are met. [max_paths] counts terminals, memo-hit subtrees
    included; a hit is taken only when its whole path count still fits
    the budget, otherwise the state is re-expanded, so a clipped run
    stops exactly where the plain tree walk would and reports exactly
    what that walk found before the budget ran out.

    The memo table is {e bounded} ([memo_cap] summaries in the hot
    generation; two-generation rotation with promotion on touch — see
    {!Memo}). Eviction costs re-expansion only, so results are
    bit-identical to an unbounded table while peak memory stays
    capped. [evictions] in the result counts discarded summaries. *)

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
  snapshots : int;
      (** [Kernel.snapshot] calls made (seed + per-leg forks). A node's
          final leg advances its parent in place — the parent is dead
          after the expansion loop — so a width-w node pays w-1 copies
          and width-1 chains pay none. *)
  bytes_hashed : int;
      (** bytes streamed into memo keys at the nodes: walk tokens
          (write-maintained component digests and residual-text digests
          count as their two ints; their upkeep is paid by the writes,
          not here) in fingerprint mode, full encoding lengths in
          [paranoid_memo] mode. The per-node ratio is the bench's
          [bytes_hashed_per_node]. *)
}

(** {2 Cross-exploration shared memo (campaign mode)}

    A ['v shared_memo] is one bounded memo table that outlives many
    [explore] calls in one process, so exploration N warm-starts from
    the in-memory union of what explorations 1..N-1 memoized — this is
    what makes a campaign of thousands of near-identical candidate
    programs cost far less than that many cold runs (see {!Campaign}).
    The key ({!Uldma_os.Kernel.state_key}) covers program text relative
    to the baseline, so explorations of candidates that differ in a
    program share the table as they are; a key is comparable only
    under one baseline, so a table is emptied ({!clear_shared}) before
    it serves another. *)

type 'v shared_memo

val create_shared : ?cap:int -> unit -> 'v shared_memo
(** A fresh shared table: one {!Memo} whose hot generation holds [cap]
    summaries (default: the explore default). *)

val clear_shared : 'v shared_memo -> unit
(** Drop every summary. Call between campaign cells (baseline or
    backend change), not while an [explore] runs. *)

val shared_length : 'v shared_memo -> int
(** Resident summaries. *)

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
  ?memo_cap:int ->
  ?shared:'v shared_memo ->
  check:(Uldma_os.Kernel.t -> 'v option) ->
  unit ->
  'v result
(** [check] runs at each terminal state (all of [pids] exited or
    stuck, and nothing in flight). Defaults: 2000 instructions per
    leg, 1_000_000 paths, [dedup] on, [paranoid_memo] off, [memo_cap]
    262144 summaries. [paranoid_memo] keys the memo on full encoding
    strings instead of streamed 126-bit fingerprints: slower, but a key
    equality is then exactly a state equality — the verification mode
    [tools/diff_explore] runs differentially against the fingerprint
    default. The root kernel is not mutated.

    [baseline] overrides the encoding baseline (default: [root]). A
    campaign passes the common base kernel all candidate roots were
    snapshotted from, so every candidate's keys live in one comparable
    space; the baseline must not be mutated while any exploration
    that uses it runs.

    [shared] routes all memo traffic through a cross-exploration table
    instead of a private one (see above); [memo_cap] is then ignored. *)

type verdict =
  | Safe  (** complete, and no schedule violates *)
  | Vulnerable of int  (** this many violating schedules were found *)
  | Inconclusive  (** clipped by [max_paths] before any violation was found *)

val verdict : 'v result -> verdict
(** The one reading of a result: a violation is a witness whatever the
    budget did, but the absence of one proves safety only for a complete
    exploration. *)

val wait_leg : int
(** The pseudo-pid ([-2]) recorded in a schedule when the leg idled the
    machine to the next in-flight transfer completion instead of
    running a process. Never appears under the Null backend. *)

val advance_one_leg : Uldma_os.Kernel.t -> int -> max_instructions:int -> [ `Progress | `Exited | `Stuck ]
(** Run pid until its next NI access completes (or it exits, or spends
    [max_instructions]): one call of {!Uldma_os.Kernel.run_leg}. *)
