(** Bounded adversary-program synthesis — the campaign engine's first
    real client (ROADMAP "map the whole consent-collusion surface").

    The hand-built rep5-3 collusion channel showed that two adversaries
    can jointly complete a five-access sequence. This module replaces
    the hand-built accomplice with a bounded search: every program of
    up to [slots] ops from a small grammar over the accomplice's two
    shadow-mapped pages —

    - [S p]: initiate on page [p] (a transfer-sized store to its
      shadow alias, plus a memory barrier, exactly the Fig. 5
      attacker's store idiom);
    - [L p]: read page [p]'s shadow alias;

    canonicalised up to page renaming (pages in first-use order; the
    two pages are symmetric by construction, so each pruned sequence
    behaves identically to a canonical one). Each candidate becomes a
    {!Uldma_verify.Campaign.candidate}: a snapshot of a common base
    kernel (rep5-class victim + Fig. 5 attacker + accomplice slot)
    with the candidate program installed. The state key covers the
    accomplice's residual program — the grammar is straight-line, so
    that is its instruction suffix from the pc — which lets candidates
    share memo entries exactly where their futures agree. The
    campaign explores every candidate under every schedule, and a
    {e cell} summarises one (mechanism, net backend) pair into a row
    of the collusion catalogue, including a minimal witness program
    when the cell admits collusion. *)

type op = S of int | L of int  (** page index 0 or 1 *)

val mnemonic : op list -> string
(** Stable program label, e.g. ["S0.L0.L1"]. *)

val enumerate : ?exact:bool -> slots:int -> unit -> op list array
(** All canonical candidate programs of length 1..[slots], lengths
    ascending and lexicographic within a length (so minimal witnesses
    are simply the first violating entry). The page swap acts freely
    on raw sequences, so there are [4^n / 2] canonical programs per
    length [n]: 2, 10, 42, 170, 682 cumulative for slots 1..5.
    [exact] keeps only the length-[slots] programs — the family whose
    candidates share the most state (cross-candidate memo hits need
    matching bus access counts, which same-length op mixes give),
    used by the bench throughput experiment. *)

type subject =
  | Rep of Uldma_dma.Seq_matcher.variant
  | Pal
  | Key
  | Ext
  | Iommu
  | Capio
      (** The campaign's mechanism axis: the repeated-passing variants
          plus the five other matrix mechanisms. Under [Iommu]/[Capio]
          the shadow window rejects every accomplice access
          ([Unsupported]) — the differential fact the six-mechanism
          catalogue records. *)

val subject_label : subject -> string
(** ["rep3".."rep5"], ["pal"], ["key-based"], ["ext-shadow"],
    ["iommu"], ["capio"] — the catalogue's mech column. *)

val subject_of_string : string -> subject option
(** Inverse of {!subject_label}; also accepts the ["key"] and ["ext"]
    short spellings. *)

val subject_mech : subject -> Uldma.Mech.t

type base
(** A base kernel: victim (one DMA through the cell's mechanism, the
    only declared intent), the Fig. 5 attacker, and the accomplice —
    two fresh shadow-mapped pages and an empty program slot. *)

val make_base : ?net:Uldma_net.Backend.t -> ?repeat:int -> subject -> base
(** [repeat] is the victim's DMA iteration count (default 1). More
    iterations deepen the victim's own subtree — the part every
    candidate shares once the accomplice has exited. Under [Ext] the
    attacker and accomplice are allocated register contexts (extended
    shadow addressing cannot map aliases without one). *)

val base_scenario : base -> Scenario.t

val candidate : base -> op list -> Uldma_verify.Oracle.violation Uldma_verify.Campaign.candidate
(** Snapshot the base and install the program. *)

val net_label : Uldma_net.Backend.t option -> string
(** [Backend.cache_key], or ["null"]. *)

val kind_name : Uldma_verify.Oracle.violation -> string
(** Alias of {!Uldma_verify.Oracle.kind_name}. *)

val result_facts :
  Uldma_verify.Oracle.violation Uldma_verify.Explorer.result ->
  int * bool * (string * int list) list
(** The warmth-independent projection of one candidate's result:
    [paths], [truncated], and each violation's kind and schedule, in
    order. A shared-memo run and a cold run of the same candidate agree
    on it exactly; violation payloads (simulated timestamps) are left
    out because they depend on which prefix first reached a memoised
    subtree. *)

(** {2 Campaign cells and the collusion catalogue} *)

type cell = {
  cell_mech : string;
  cell_net : string;
  cell_slots : int;
  cell_candidates : int;
  cell_violating : int;  (** candidates with at least one violation *)
  cell_truncated : int;  (** candidates clipped by [max_paths] *)
  cell_paths : int;
  cell_states : int;
  cell_hits : int;
  cell_witness : string;  (** minimal violating program, ["-"] when safe *)
  cell_witness_violations : int;
  cell_witness_kinds : string;
  cell_results_fp : string;
      (** hex digest of every candidate's (label, paths, truncated,
          violation kinds + schedules) — the warmth-independent
          facts, so equal digests mean byte-identical
          per-candidate results. Violation {e payloads} (simulated
          timestamps) are excluded: which schedule prefix first
          discovers a memoized subtree legitimately varies. *)
}

type cell_run = {
  cr_cell : cell;
  cr_ops : op list array;
  cr_results : Uldma_verify.Oracle.violation Uldma_verify.Explorer.result array;
  cr_stats : Uldma_verify.Campaign.stats;
}

val run_cell :
  ?net:Uldma_net.Backend.t ->
  ?repeat:int ->
  ?slots:int ->
  ?exact:bool ->
  ?max_paths:int ->
  subject ->
  cell_run
(** Build the base, enumerate, and run the whole candidate family
    through {!Uldma_verify.Campaign.run} on a table of its own.
    Defaults: [slots] 3 (42 candidates), [max_paths] 1e6 per
    candidate. *)

val catalogue_row : cell -> string

val write_catalogue : string -> cell list -> unit
(** CSV: a header line, then one [catalogue_row] per cell. *)
