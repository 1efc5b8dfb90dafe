(** Campaign engine: run many near-identical candidate explorations
    through one cross-exploration shared memo (DESIGN.md §5h).

    A {e campaign cell} is one (baseline kernel, oracle) pair and an
    array of candidates — kernels snapshotted from the baseline that
    differ only in one process's program (the synthesized accomplice,
    typically; see {!Uldma_workload.Synth}). All candidates share one
    {!Explorer.shared_memo}: candidate N warm-starts from the
    in-memory union of candidates 1..N-1, which is where the campaign
    speedup comes from — the post-exit and common-residual subtrees of
    near-identical programs collapse onto the same decorated keys.

    {2 Order}

    Candidates are explored one after another, in array order, on the
    calling domain; every candidate is one {!Explorer.explore}.

    {2 Determinism}

    Per-candidate [paths], [violations] (list, order) and [truncated]
    are independent of memo warmth — the explorer's dedup invariants —
    so a campaign's result array is byte-identical to running every
    candidate cold, and does not depend on which cells ran before it
    in a chained table. Warmth shows up only in cost fields
    ([states_visited], [dedup_hits], timings).

    {2 Requirements}

    - The baseline must not be mutated while [run] executes (every
      candidate's exploration reads its pages as the shared encoding
      baseline).
    - Each candidate's [c_key_tag] must determine the residual
      behaviour of the process whose program varies (see
      {!Explorer.explore}'s [key_tag] doc). *)

open Uldma_os

type 'v candidate = {
  c_label : string;  (** stable identifier, e.g. the program's mnemonic string *)
  c_root : Kernel.t;  (** private snapshot of the cell baseline, program installed *)
  c_key_tag : (Kernel.t -> string) option;
      (** fixed-width residual tag; [None] only if all candidates share
          one program text *)
}

type stats = {
  g_candidates : int;
  g_paths : int;  (** sum of per-candidate [paths] *)
  g_states : int;  (** sum of per-candidate [states_visited] *)
  g_hits : int;  (** sum of per-candidate [dedup_hits] *)
  g_memo_length : int;  (** summaries resident in the shared table after the run *)
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
    default [2^20]) is created unless [shared] is passed — pass one to
    chain cells of a grid through a single table; the generation is
    bumped on entry either way, so a reused table never aliases a
    previous cell's keys.

    [jobs] must be 1 (its default); any other value raises
    [Invalid_argument]. It is left from the multi-domain fan-out and
    stays only because [perfbench/] still passes [~jobs:1] (ROADMAP.md
    lists its removal). *)
