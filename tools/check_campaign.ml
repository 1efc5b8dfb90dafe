(* Campaign differential checker (CI: @campaign-smoke).

   Proves on a small candidate family that the campaign engine is pure
   acceleration:

   1. shared-vs-cold soundness — every candidate's (paths, truncated,
      violations as kind + schedule) from a shared-memo campaign run
      equals a cold sequential Explorer.explore of the same candidate;
   2. repeatability — a second campaign run on a fresh table produces
      identical per-candidate results and an identical catalogue row
      (including the results fingerprint);
   3. sharing actually shares — the shared run expands no more states
      than the cold runs did in aggregate, and strictly fewer when the
      family has more than a handful of candidates.

   Exit 0 on success, 1 on any mismatch. *)

module Explorer = Uldma_verify.Explorer
module Synth = Uldma_workload.Synth
module Scenario = Uldma_workload.Scenario

let slots = ref 2
let exact = ref false
let repeat = ref 1
let max_paths = ref 1_000_000
let verbose = ref false
let subject = ref (Synth.Rep Uldma_dma.Seq_matcher.Five)

let usage () =
  prerr_endline
    "usage: check_campaign [--slots N] [--exact] [--repeat N] [--max-paths N] \
     [--mech rep3|rep4|rep5|pal|key|ext|iommu|capio] [--verbose]";
  exit 2

let rec parse = function
  | [] -> ()
  | "--slots" :: v :: rest ->
    slots := int_of_string v;
    parse rest
  | "--mech" :: v :: rest ->
    (match Synth.subject_of_string v with
    | Some s -> subject := s
    | None -> usage ());
    parse rest
  | "--exact" :: rest ->
    exact := true;
    parse rest
  | "--repeat" :: v :: rest ->
    repeat := int_of_string v;
    parse rest
  | "--max-paths" :: v :: rest ->
    max_paths := int_of_string v;
    parse rest
  | "--verbose" :: rest ->
    verbose := true;
    parse rest
  | _ -> usage ()

let fail = ref false

let check_eq what i a b =
  if a <> b then begin
    fail := true;
    Printf.eprintf "MISMATCH: candidate %d: %s differs\n%!" i what
  end

let () =
  parse (List.tl (Array.to_list Sys.argv));
  let subject = !subject in
  (* cold baseline: every candidate explored sequentially with its own
     private memo, no baseline/tag decoration *)
  let base = Synth.make_base ~repeat:!repeat subject in
  let ops = Synth.enumerate ~exact:!exact ~slots:!slots () in
  let candidates = Array.map (Synth.candidate base) ops in
  let scenario = Synth.base_scenario base in
  let pids = Scenario.explore_pids scenario in
  let check = Scenario.oracle_check scenario in
  let cold_states = ref 0 in
  let cold_hits = ref 0 in
  let cold_bytes = ref 0 in
  let cold_snaps = ref 0 in
  let t0 = Unix.gettimeofday () in
  let cold =
    Array.map
      (fun (c : _ Uldma_verify.Campaign.candidate) ->
        let r =
          Explorer.explore ~root:c.Uldma_verify.Campaign.c_root ~pids
            ~max_paths:!max_paths ~check ()
        in
        cold_states := !cold_states + r.Explorer.states_visited;
        cold_hits := !cold_hits + r.Explorer.dedup_hits;
        cold_bytes := !cold_bytes + r.Explorer.bytes_hashed;
        cold_snaps := !cold_snaps + r.Explorer.snapshots;
        Synth.result_facts r)
      candidates
  in
  let cold_secs = Unix.gettimeofday () -. t0 in
  (* each run creates its own fresh shared table *)
  let run_campaign () =
    let t0 = Unix.gettimeofday () in
    let cr =
      Synth.run_cell ~repeat:!repeat ~slots:!slots ~exact:!exact ~max_paths:!max_paths subject
    in
    (cr, Unix.gettimeofday () -. t0)
  in
  let shared1, shared1_secs = run_campaign () in
  let shared2, _ = run_campaign () in
  let n = Array.length candidates in
  for i = 0 to n - 1 do
    let c1 = Synth.result_facts shared1.Synth.cr_results.(i) in
    check_eq "shared vs cold" i c1 cold.(i);
    check_eq "shared repeat" i (Synth.result_facts shared2.Synth.cr_results.(i)) c1
  done;
  let row r = Synth.catalogue_row r.Synth.cr_cell in
  if row shared1 <> row shared2 then begin
    fail := true;
    Printf.eprintf "MISMATCH: catalogue row not reproducible on a fresh table\n  %s\n  %s\n%!"
      (row shared1) (row shared2)
  end;
  let shared_states = shared1.Synth.cr_stats.Uldma_verify.Campaign.g_states in
  if shared_states > !cold_states then begin
    fail := true;
    Printf.eprintf "REGRESSION: shared memo expanded more states (%d) than cold (%d)\n%!"
      shared_states !cold_states
  end;
  if n > 8 && shared_states >= !cold_states then begin
    fail := true;
    Printf.eprintf "REGRESSION: no cross-candidate sharing (%d shared vs %d cold states)\n%!"
      shared_states !cold_states
  end;
  if !verbose || !fail then
    Printf.printf
      "check_campaign: %d candidates, cold %d states %.2fs, shared %d states %.2fs (%.2fx states, \
       %.2fx time), witness %s\n%!"
      n !cold_states cold_secs shared_states shared1_secs
      (float_of_int !cold_states /. float_of_int (max 1 shared_states))
      (cold_secs /. Float.max 1e-9 shared1_secs)
      shared1.Synth.cr_cell.Synth.cell_witness;
  if !verbose then begin
    Printf.printf
      "check_campaign: arrivals cold %d (%d hits) vs shared %d (%d hits), %.2fx\n%!"
      (!cold_states + !cold_hits) !cold_hits
      (shared_states + shared1.Synth.cr_stats.Uldma_verify.Campaign.g_hits)
      shared1.Synth.cr_stats.Uldma_verify.Campaign.g_hits
      (float_of_int (!cold_states + !cold_hits)
      /. float_of_int (max 1 (shared_states + shared1.Synth.cr_stats.Uldma_verify.Campaign.g_hits)));
    let shared_bytes, shared_snaps =
      Array.fold_left
        (fun (b, s) (r : _ Explorer.result) ->
          (b + r.Explorer.bytes_hashed, s + r.Explorer.snapshots))
        (0, 0) shared1.Synth.cr_results
    in
    Printf.printf
      "check_campaign: hashed cold %d B, shared %d B; snapshots cold %d, shared %d\n%!"
      !cold_bytes shared_bytes !cold_snaps shared_snaps
  end;
  if !fail then exit 1;
  Printf.printf
    "campaign differential OK: %d candidates, state ratio %.2fx, catalogue repeatable\n%!" n
    (float_of_int !cold_states /. float_of_int (max 1 shared_states))
