(* Bounded adversary-program synthesis: enumerate every small
   accomplice program over a 2-page S/L grammar, canonicalised up to
   page renaming, and drive the whole family through the campaign
   engine. See the mli for the contract. *)

open Uldma_os
open Uldma_dma
module Oracle = Uldma_verify.Oracle
module Explorer = Uldma_verify.Explorer
module Campaign = Uldma_verify.Campaign

type op = Scenario.op = S of int | L of int

let pages = 2

let show_op = function
  | S p -> Printf.sprintf "S%d" p
  | L p -> Printf.sprintf "L%d" p

let mnemonic ops = String.concat "." (List.map show_op ops)

(* All canonical op sequences of length 1..slots, lengths ascending and
   lexicographic (S before L, low page first) within a length. A
   sequence is canonical when pages appear in first-use order: page k
   may occur only after 0..k-1 all have. Page identities are symmetric
   by construction (two fresh same-sized shadow-mapped pages), so each
   pruned sequence behaves identically to the canonical one that
   renames its pages. The swap acts freely, so over 2 pages this
   halves the raw count to 4^n / 2 per length n — 682 candidates
   cumulative for slots = 5. *)
let enumerate ?(exact = false) ~slots () =
  if slots < 1 then invalid_arg "Synth.enumerate: slots must be >= 1";
  let out = ref [] in
  let rec gen seq used left =
    if left = 0 then out := List.rev seq :: !out
    else
      for p = 0 to min used (pages - 1) do
        let used' = max used (p + 1) in
        gen (S p :: seq) used' (left - 1);
        gen (L p :: seq) used' (left - 1)
      done
  in
  for len = (if exact then slots else 1) to slots do
    gen [] 0 len
  done;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)

type base = {
  b_scenario : Scenario.t;
  b_pid : int; (* the accomplice's pid *)
  b_pages : int list; (* its two data page vas (shadow-mapped at spawn) *)
}

let variant_label = function
  | Seq_matcher.Three -> "rep3"
  | Seq_matcher.Four -> "rep4"
  | Seq_matcher.Five -> "rep5"

(* The campaign's mechanism axis: the three repeated-passing variants
   plus the other five matrix mechanisms, so one grammar of accomplice
   programs probes the whole six-mechanism protection matrix. *)
type subject =
  | Rep of Seq_matcher.variant
  | Pal
  | Key
  | Ext
  | Iommu
  | Capio

let subject_label = function
  | Rep v -> variant_label v
  | Pal -> "pal"
  | Key -> "key-based"
  | Ext -> "ext-shadow"
  | Iommu -> "iommu"
  | Capio -> "capio"

let subject_of_string = function
  | "rep3" -> Some (Rep Seq_matcher.Three)
  | "rep4" -> Some (Rep Seq_matcher.Four)
  | "rep5" -> Some (Rep Seq_matcher.Five)
  | "pal" -> Some Pal
  | "key" | "key-based" -> Some Key
  | "ext" | "ext-shadow" -> Some Ext
  | "iommu" -> Some Iommu
  | "capio" -> Some Capio
  | _ -> None

let subject_mech = function
  | Rep v -> Uldma.Rep_args.mech_of_variant v
  | Pal -> Uldma.Pal_dma.mech
  | Key -> Uldma.Key_dma.mech
  | Ext -> Uldma.Ext_shadow.mech
  | Iommu -> Uldma.Iommu_dma.mech
  | Capio -> Uldma.Capio_dma.mech

let net_label = function
  | None -> "null"
  | Some b -> Uldma_net.Backend.cache_key b

(* The matrix-cell base: the standard victim (through the subject's
   mechanism) and the Fig. 5 attacker, plus an accomplice slot — two
   fresh shadow-mapped pages and an empty program for each candidate to
   fill in. Only the victim declares an intent, so any
   adversary-attributable transfer is a violation. Under IOMMU/CAPIO
   the shadow window itself is dead (every access rejects
   [Unsupported]), which is exactly the differential fact the
   six-mechanism catalogue is after. *)
let make_base ?net ?repeat subject =
  let emit =
    (* the retrying five-access stub spins forever under exploration *)
    match subject with
    | Rep Seq_matcher.Five -> Some Uldma.Rep_args.emit_dma_five_no_retry
    | Rep (Seq_matcher.Three | Seq_matcher.Four) | Pal | Key | Ext | Iommu | Capio -> None
  in
  (* extended shadow addressing encodes the register context in the
     alias, so the adversaries need contexts before they can map *)
  let with_context = match subject with Ext -> true | _ -> false in
  let kernel, victim = Scenario.with_victim ?net ?repeat ?emit (subject_mech subject) in
  let attacker, attacker_labels = Scenario.fig5_attacker ~with_context kernel in
  let accomplice, pages, labels =
    Scenario.adversary ~with_context kernel "accomplice" [ "P0"; "P1" ]
  in
  let scenario =
    Scenario.make kernel victim
      [ (attacker, None); (accomplice, None) ]
      (Scenario.victim_labels victim @ labels @ attacker_labels)
  in
  { b_scenario = scenario; b_pid = accomplice.Process.pid; b_pages = pages }

let base_scenario base = base.b_scenario

(* The accomplice's program is [Scenario.shadow_program] over its two
   pages: the same prologue for every candidate, then the ops. *)
let candidate base ops =
  let root = Kernel.snapshot base.b_scenario.Scenario.kernel in
  (match Kernel.find_process root base.b_pid with
  | Some p -> Process.set_program p (Scenario.shadow_program base.b_pages ops)
  | None -> invalid_arg "Synth.candidate: accomplice not in base kernel");
  { Campaign.c_label = mnemonic ops; c_root = root }

(* ------------------------------------------------------------------ *)
(* Cell runner and collusion catalogue. *)

let kind_name = Oracle.kind_name

let result_facts (r : Oracle.violation Explorer.result) =
  ( r.Explorer.paths,
    r.Explorer.truncated,
    List.map (fun (v, schedule) -> (kind_name v, schedule)) r.Explorer.violations )

(* Deterministic digest of one candidate's result: label, path count,
   truncation, and each violation's kind + schedule. Violation
   *payloads* (simulated timestamps inside transfers) depend on which
   schedule prefix first discovered a memoized subtree, so they are
   deliberately left out — kind and schedule are the
   warmth-independent facts the explorer guarantees. *)
let add_result fp label (r : Oracle.violation Explorer.result) =
  let module F = Uldma_util.Fp128 in
  F.add_string fp label;
  F.add_int fp r.Explorer.paths;
  F.add_int fp (if r.Explorer.truncated then 1 else 0);
  List.iter
    (fun (v, schedule) ->
      F.add_string fp (kind_name v);
      List.iter (F.add_int fp) schedule)
    r.Explorer.violations

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

type cell = {
  cell_mech : string;
  cell_net : string;
  cell_slots : int;
  cell_candidates : int;
  cell_violating : int; (* candidates with at least one violation *)
  cell_truncated : int; (* candidates clipped by max_paths *)
  cell_paths : int;
  cell_states : int;
  cell_hits : int;
  cell_witness : string; (* minimal violating program, "-" when safe *)
  cell_witness_violations : int;
  cell_witness_kinds : string;
  cell_results_fp : string; (* hex digest of every per-candidate result *)
}

type cell_run = {
  cr_cell : cell;
  cr_ops : op list array;
  cr_results : Oracle.violation Explorer.result array;
  cr_stats : Campaign.stats;
}

let dedup_sorted xs = List.sort_uniq compare xs

let make_cell ~mech ~net ~slots ~ops ~results ~(stats : Campaign.stats) =
  let n = Array.length results in
  let violating = ref 0 and truncated = ref 0 in
  let witness = ref None in
  let fp = Uldma_util.Fp128.create () in
  Array.iteri
    (fun i (r : Oracle.violation Explorer.result) ->
      let label = mnemonic ops.(i) in
      add_result fp label r;
      if r.Explorer.truncated then incr truncated;
      if r.Explorer.violations <> [] then begin
        incr violating;
        (* enumeration order is shortest-first, so the first violating
           candidate is a minimal witness *)
        if !witness = None then witness := Some (label, r)
      end)
    results;
  let witness_label, witness_viols, witness_kinds =
    match !witness with
    | None -> ("-", 0, "-")
    | Some (label, r) ->
      let kinds =
        dedup_sorted (List.map (fun (v, _) -> kind_name v) r.Explorer.violations)
      in
      (label, List.length r.Explorer.violations, String.concat "+" kinds)
  in
  {
    cell_mech = mech;
    cell_net = net;
    cell_slots = slots;
    cell_candidates = n;
    cell_violating = !violating;
    cell_truncated = !truncated;
    cell_paths = stats.Campaign.g_paths;
    cell_states = stats.Campaign.g_states;
    cell_hits = stats.Campaign.g_hits;
    cell_witness = witness_label;
    cell_witness_violations = witness_viols;
    cell_witness_kinds = witness_kinds;
    cell_results_fp = hex (Uldma_util.Fp128.key fp);
  }

let run_cell ?net ?repeat ?(slots = 3) ?exact ?(max_paths = 1_000_000) subject =
  let base = make_base ?net ?repeat subject in
  let ops = enumerate ?exact ~slots () in
  let candidates = Array.map (candidate base) ops in
  let results, stats =
    Campaign.run ~candidates ~pids:(Scenario.explore_pids base.b_scenario)
      ~baseline:base.b_scenario.Scenario.kernel ~max_paths
      ~check:(Scenario.oracle_check base.b_scenario)
      ()
  in
  {
    cr_cell =
      make_cell ~mech:(subject_label subject) ~net:(net_label net) ~slots ~ops ~results
        ~stats;
    cr_ops = ops;
    cr_results = results;
    cr_stats = stats;
  }

(* The catalogue records only warmth-independent facts: states/hits
   stay out, because they are exactly what memo warmth changes (a
   cell's order of candidates, its table's capacity). The CLI table
   still displays them from the cell. *)
let catalogue_header =
  "mech,net,slots,candidates,violating,truncated,paths,witness,witness_violations,witness_kinds,results_fp"

let catalogue_row c =
  Printf.sprintf "%s,%s,%d,%d,%d,%d,%d,%s,%d,%s,%s" c.cell_mech c.cell_net c.cell_slots
    c.cell_candidates c.cell_violating c.cell_truncated c.cell_paths c.cell_witness
    c.cell_witness_violations c.cell_witness_kinds c.cell_results_fp

(* A row's identity: its (mech, net, slots) columns. *)
let row_key row = List.filteri (fun i _ -> i < 3) (String.split_on_char ',' row)

(* Merge into the catalogue at [path]: a row of the same (mech, net,
   slots) is replaced in place, other rows are kept, and new ones are
   appended, so a run over a few cells never drops the rest. A path
   that holds no catalogue (missing, or another header) gets exactly
   the run's rows. *)
let write_catalogue path cells =
  let old =
    match In_channel.with_open_text path In_channel.input_all with
    | text -> (
      match String.split_on_char '\n' text with
      | header :: rows when header = catalogue_header -> List.filter (( <> ) "") rows
      | _ -> [])
    | exception Sys_error _ -> []
  in
  let fresh = List.map catalogue_row cells in
  let same a b = row_key a = row_key b in
  let kept = List.map (fun r -> Option.value (List.find_opt (same r) fresh) ~default:r) old in
  let added = List.filter (fun r -> not (List.exists (same r) old)) fresh in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun row -> output_string oc (row ^ "\n")) ((catalogue_header :: kept) @ added))
