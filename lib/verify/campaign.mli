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

    {2 Fan-out}

    [jobs] domains each pull whole candidates off a shared queue
    ([min jobs #candidates] of them, reported as [g_outer]); every
    candidate is one sequential {!Explorer.explore}. The shared table
    is locked whenever more than one domain uses it.

    {2 Determinism}

    Per-candidate [paths], [violations] (list, order) and [truncated]
    are independent of memo warmth, job counts and scheduling — the
    explorer's dedup invariants — so a campaign's result array is
    byte-identical at every [jobs] value, and identical to running
    every candidate cold and sequentially. Warmth shows up only in cost
    fields ([states_visited], [dedup_hits], timings).

    {2 Safety requirements}

    - Candidate roots MUST be snapshotted from the baseline
      {e sequentially, before [run]} (typically by the enumerator):
      [Kernel.snapshot] clears the source's page-ownership flags, so
      concurrent snapshots of one baseline race.
    - The baseline must not be mutated while [run] executes (worker
      domains read its pages as the shared encoding baseline).
    - [check] must be pure (it runs on worker domains).
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
  g_outer : int;  (** domains that explored candidates *)
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
(** Explore every candidate; [results.(i)] belongs to
    [candidates.(i)]. A fresh shared memo ([memo_cap] summaries,
    default [2^20]) is created unless [shared] is passed — pass one to
    chain cells of a grid through a single table; the generation is
    bumped on entry either way, so a reused table never aliases a
    previous cell's keys. *)
