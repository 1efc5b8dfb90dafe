(** Campaign engine: run many near-identical candidate explorations
    through one cross-exploration shared memo (DESIGN.md §5h).

    A {e campaign cell} is one (baseline kernel, oracle) pair and an
    array of candidates — kernels snapshotted from the baseline that
    differ only in one process's program (the synthesized accomplice,
    typically; see {!Uldma_workload.Synth}). All candidates share one
    {!Explorer.shared_memo}: candidate N warm-starts from the
    in-memory union of candidates 1..N-1, which is where the campaign
    speedup comes from — the post-exit and common-residual subtrees of
    near-identical programs collapse onto the same keys, because the
    state key covers each program's residual text relative to the
    baseline ({!Uldma_os.Kernel.state_key}).

    {2 Order}

    Candidates are explored one after another, in array order, on the
    calling domain; every candidate is one {!Explorer.explore}.

    {2 Determinism}

    Per-candidate [paths], [violations] (list, order) and [truncated]
    are independent of memo warmth — the explorer's dedup invariants —
    so a campaign's result array is byte-identical to running every
    candidate cold. A cell empties its table first, so neither its
    results nor its cost fields depend on the cells run before it.

    {2 Requirements}

    The baseline must not be mutated while [run] executes (every
    candidate's exploration reads its pages and programs as the shared
    encoding baseline). *)

open Uldma_os

(** ['v], the oracle's violation type, no longer constrains a field; it
    stays because [perfbench/] names [Oracle.violation candidate]. *)
type 'v candidate = {
  c_label : string;  (** stable identifier, e.g. the program's mnemonic string *)
  c_root : Kernel.t;  (** private snapshot of the cell baseline, program installed *)
}

type stats = {
  g_candidates : int;
  g_paths : int;  (** sum of per-candidate [paths] *)
  g_states : int;  (** sum of per-candidate [states_visited] *)
  g_hits : int;  (** sum of per-candidate [dedup_hits] *)
  g_memo_length : int;  (** summaries resident in the cell's table after the run *)
  g_memo_evictions : int;  (** cumulative evictions of the shared table *)
}

val run :
  candidates:'v candidate array ->
  pids:int list ->
  baseline:Kernel.t ->
  ?jobs:int ->
  ?max_instructions_per_leg:int ->
  ?max_paths:int ->
  ?dedup:bool ->
  ?paranoid_memo:bool ->
  ?memo_cap:int ->
  ?shared:'v Explorer.shared_memo ->
  check:(Kernel.t -> 'v option) ->
  unit ->
  'v Explorer.result array * stats
(** Explore every candidate in order; [results.(i)] belongs to
    [candidates.(i)]. A fresh shared memo ([memo_cap] summaries,
    default [2^20]) is created unless [shared] is passed; a passed
    table is emptied on entry, so the cell owns it for the run.

    [jobs] must be 1 (its default); any other value raises
    [Invalid_argument]. It is left from the multi-domain fan-out and
    stays only because [perfbench/] still passes [~jobs:1] (ROADMAP.md
    lists its removal). *)
