(* Tests for the verification layer (oracle + interleaving explorer)
   and the attack scenarios: reproduces Figs. 5, 6, the SHRIMP/FLASH
   races, and machine-checks §3.3.1 exhaustively and by randomized
   campaign. *)

open Uldma_os
open Uldma_dma
module Oracle = Uldma_verify.Oracle
module Explorer = Uldma_verify.Explorer
module Scenario = Uldma_workload.Scenario

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let has_violation pred report = List.exists pred report.Oracle.violations

let is_unattributed = function Oracle.Unattributed_transfer _ -> true | _ -> false
let is_lost = function Oracle.Lost_transfer _ -> true | _ -> false
let is_phantom = function Oracle.Phantom_success _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Oracle on hand-built runs *)

let clean_run () =
  (* an uncontested ext-shadow DMA: the oracle must pass it *)
  let s = Scenario.rep5_with_retry () in
  Scenario.finish s ();
  s

let test_oracle_accepts_clean_run () =
  let s = clean_run () in
  let report = Scenario.report s in
  checkb "ok" true (Oracle.ok report);
  checki "one transfer checked" 1 report.Oracle.transfers_checked;
  checki "one intent" 1 report.Oracle.intents_checked

let test_oracle_flags_missing_intent () =
  let s = clean_run () in
  (* drop the intent: the transfer becomes unattributable *)
  let report =
    Oracle.check ~kernel:s.Scenario.kernel ~intents:[] ~reported_successes:[]
  in
  checkb "unattributed" true (has_violation is_unattributed report)

let test_oracle_flags_phantom () =
  let s = clean_run () in
  (* claim two successes when only one transfer started *)
  let report =
    Oracle.check ~kernel:s.Scenario.kernel ~intents:s.Scenario.intents
      ~reported_successes:[ (s.Scenario.victim.Process.pid, 2) ]
  in
  checkb "phantom" true (has_violation is_phantom report)

let test_oracle_flags_lost () =
  let s = clean_run () in
  let report =
    Oracle.check ~kernel:s.Scenario.kernel ~intents:s.Scenario.intents
      ~reported_successes:[ (s.Scenario.victim.Process.pid, 0) ]
  in
  checkb "lost" true (has_violation is_lost report)

let test_oracle_flags_rights_violation () =
  let s = clean_run () in
  (* declare an intent into memory the victim has no mapping for at
     all: psrc/pdst are raw physical addresses the process never saw *)
  let bogus =
    {
      Oracle.pid = s.Scenario.victim.Process.pid;
      vsrc = 0x7000_0000;
      vdst = 0x7000_2000;
      psrc = 0;
      pdst = 0;
      size = 64;
      requests = 1;
    }
  in
  let report =
    Oracle.check ~kernel:s.Scenario.kernel ~intents:[ bogus ] ~reported_successes:[]
  in
  checkb "rights violation" true
    (has_violation (function Oracle.Rights_violation _ -> true | _ -> false) report)

(* ------------------------------------------------------------------ *)
(* Scripted attacks: the paper's figures *)

let test_fig5_attack_reproduces () =
  let s = Scenario.fig5 () in
  Scenario.run_legs s Scenario.fig5_schedule;
  Scenario.finish s ();
  let report = Scenario.report s in
  (* the attacker started C -> B: unattributable *)
  checkb "argument mixing detected" true (has_violation is_unattributed report);
  checki "exactly one transfer" 1 (List.length (Scenario.transfers s));
  (* the transfer's destination is the victim's B *)
  (match (Scenario.transfers s, s.Scenario.intents) with
  | [ tr ], [ intent ] ->
    checki "into victim's destination" intent.Oracle.pdst tr.Transfer.dst;
    checkb "from attacker's data, not victim's source" true
      (tr.Transfer.src <> intent.Oracle.psrc)
  | _ -> Alcotest.fail "expected one transfer and one intent");
  checki "victim saw no success" 0 (Scenario.victim_successes s)

let test_fig6_attack_reproduces () =
  let s = Scenario.fig6 () in
  Scenario.run_legs s Scenario.fig6_schedule;
  Scenario.finish s ();
  let report = Scenario.report s in
  (* the transfer is the victim's own (A -> B), but the victim was told
     it failed: a lost transfer *)
  checkb "started-but-reported-failed" true (has_violation is_lost report);
  checkb "no unattributed transfer" false (has_violation is_unattributed report);
  checki "one transfer" 1 (List.length (Scenario.transfers s));
  checki "victim saw failure" Status.failure (Scenario.victim_last_status s)

let test_shrimp2_race_unmodified_kernel () =
  let s = Scenario.shrimp2_race ~hook:false in
  Scenario.run_legs s Scenario.shrimp2_schedule;
  Scenario.finish s ();
  checkb "kernel unmodified" false (Kernel.kernel_modified s.Scenario.kernel);
  let report = Scenario.report s in
  checkb "mixed arguments" true (has_violation is_unattributed report)

let test_shrimp2_race_with_hook () =
  let s = Scenario.shrimp2_race ~hook:true in
  Scenario.run_legs s Scenario.shrimp2_schedule;
  Scenario.finish s ();
  checkb "kernel modified" true (Kernel.kernel_modified s.Scenario.kernel);
  let report = Scenario.report s in
  checkb "safe" true (Oracle.ok report);
  checki "race prevented: nothing started" 0 (List.length (Scenario.transfers s))

let test_flash_race_unmodified_kernel () =
  let s = Scenario.flash_race ~hook:false in
  Scenario.run_legs s Scenario.shrimp2_schedule;
  Scenario.finish s ();
  checkb "mixed arguments" true (has_violation is_unattributed (Scenario.report s))

let test_flash_race_with_hook () =
  let s = Scenario.flash_race ~hook:true in
  Scenario.run_legs s Scenario.shrimp2_schedule;
  Scenario.finish s ();
  checkb "safe" true (Oracle.ok (Scenario.report s))

let test_ext_stateless_race_safe () =
  let s = Scenario.ext_stateless_race () in
  Scenario.run_legs s Scenario.shrimp2_schedule;
  Scenario.finish s ();
  checkb "kernel unmodified" false (Kernel.kernel_modified s.Scenario.kernel);
  checkb "safe" true (Oracle.ok (Scenario.report s));
  checki "race prevented" 0 (List.length (Scenario.transfers s))

let test_rep5_resists_fig5_schedule () =
  (* the exact Fig. 5 interleaving applied to the five-access method *)
  let s = Scenario.rep5 () in
  Scenario.run_legs s Scenario.fig5_schedule;
  Scenario.finish s ();
  checkb "safe" true (Oracle.ok (Scenario.report s))

(* ------------------------------------------------------------------ *)
(* Explorer *)

let explore_with ?dedup ?paranoid_memo ?jobs ?memo_cap ?memo_file ?memo_key ?max_paths scenario =
  let s = scenario () in
  Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s) ?dedup ?paranoid_memo
    ?jobs ?memo_cap ?memo_file ?memo_key ?max_paths ~check:(Scenario.oracle_check s) ()

let explore scenario = explore_with scenario

let test_explorer_rep5_safe_all_schedules () =
  let r = explore (fun () -> Scenario.rep5 ()) in
  checkb "complete" false r.Explorer.truncated;
  checkb "many schedules" true (r.Explorer.paths > 100);
  checki "no violations" 0 (List.length r.Explorer.violations)

let test_explorer_rep3_finds_fig5 () =
  let r = explore (fun () -> Scenario.fig5 ()) in
  checkb "complete" false r.Explorer.truncated;
  checkb "violations found" true (List.length r.Explorer.violations > 0);
  (* at least one of them is the argument-mixing attack *)
  checkb "unattributed transfer among them" true
    (List.exists (fun (v, _) -> is_unattributed v) r.Explorer.violations)

let test_explorer_rep4_finds_fig6 () =
  let r = explore Scenario.fig6 in
  checkb "violations found" true (List.length r.Explorer.violations > 0);
  checkb "lost transfer among them" true
    (List.exists (fun (v, _) -> is_lost v) r.Explorer.violations)

let test_explorer_rep5_resists_store_splice () =
  (* the S(X) S(X) L(X) adversary trying to exfiltrate the victim's A
     into its own page X *)
  let r = explore Scenario.rep5_splice in
  checkb "complete" false r.Explorer.truncated;
  checki "no violations" 0 (List.length r.Explorer.violations)

let test_explorer_contested_mechanisms_safe () =
  List.iter
    (fun (name, scenario) ->
      let r = explore scenario in
      if r.Explorer.truncated then Alcotest.failf "%s: truncated" name;
      if r.Explorer.violations <> [] then
        Alcotest.failf "%s: %d violating schedules" name (List.length r.Explorer.violations))
    [
      ("ext-shadow", Scenario.ext_shadow_contested);
      ("key-based", (fun () -> Scenario.key_contested ()));
      ("pal", Scenario.pal_contested);
      ("iommu", (fun () -> Scenario.iommu_contested ()));
      ("capio", (fun () -> Scenario.capio_contested ()));
      ("iommu-fig5", (fun () -> Scenario.iommu_fig5 ()));
      ("capio-fig5", (fun () -> Scenario.capio_fig5 ()));
    ]

(* the CAPIO laundering accomplice: a victim capability replayed
   through the accomplice's own register context must be rejected
   [Bad_capability] — and the attempt must actually reach the engine,
   otherwise this test would pass vacuously *)
let launder_rejects engine ~pid:accomplice_pid reason =
  List.exists
    (function
      | Engine.Rejected { reason = r; pid; _ } -> r = reason && pid = accomplice_pid
      | Engine.Started _ | Engine.Atomic_done _ -> false)
    (Engine.events engine)

let test_capio_launder_rejected_concrete () =
  (* accomplice fires first, while the victim (and its caps) are alive:
     the context binding rejects the replay as Bad_capability *)
  let s = Scenario.capio_launder () in
  Scenario.run_legs s [ Scenario.M; Scenario.M; Scenario.M; Scenario.M ];
  Scenario.finish s ();
  let engine = Kernel.engine s.Scenario.kernel in
  let accomplice_pid = s.Scenario.attacker.Process.pid in
  checkb "laundering rejected Bad_capability" true
    (launder_rejects engine ~pid:accomplice_pid Engine.Bad_capability);
  checki "only the victim's transfer started" 1 (List.length (Engine.transfers engine));
  checkb "oracle clean" true (Oracle.ok (Scenario.report s))

let test_capio_launder_rejected_after_victim_exit () =
  (* the other phase: once the victim exits, its caps are revoked by
     pid, so a late replay is rejected Revoked_capability instead —
     still never fires *)
  let s = Scenario.capio_launder () in
  Scenario.finish s ();
  let engine = Kernel.engine s.Scenario.kernel in
  let accomplice_pid = s.Scenario.attacker.Process.pid in
  checkb "late replay rejected Revoked_capability" true
    (launder_rejects engine ~pid:accomplice_pid Engine.Revoked_capability);
  checki "only the victim's transfer started" 1 (List.length (Engine.transfers engine))

let test_explorer_capio_launder_safe () =
  let r = explore (fun () -> Scenario.capio_launder ()) in
  checkb "not truncated" false r.Explorer.truncated;
  checki "no violating schedule" 0 (List.length r.Explorer.violations)

(* unmap shootdown: a granted capability dies with its mapping, and
   dies as *revoked* (distinguishable from never-granted) *)
let test_kernel_unmap_revokes_caps () =
  let kernel = Scenario.make_kernel Engine.Capio in
  let p = Kernel.spawn kernel ~name:"p" ~program:[||] () in
  let va = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
  (match Kernel.alloc_dma_context kernel p with
  | Some _ -> ()
  | None -> Alcotest.fail "no context");
  let value =
    match Kernel.grant_dma_cap kernel p ~vaddr:va ~len:64 ~rights:Uldma_mem.Perms.read_write with
    | Some v -> v
    | None -> Alcotest.fail "grant refused"
  in
  let engine = Kernel.engine kernel in
  let find () = Capability.find (Engine.capabilities engine) ~value in
  (match find () with
  | Some c -> checkb "live before unmap" false c.Capability.revoked
  | None -> Alcotest.fail "cap not installed");
  Kernel.unmap_pages kernel p ~vaddr:va ~n:1;
  match find () with
  | Some c -> checkb "revoked after unmap" true c.Capability.revoked
  | None -> Alcotest.fail "revoked cap must stay findable (Revoked <> Bad)"

let test_kernel_grant_rejects_bad_ranges () =
  let kernel = Scenario.make_kernel Engine.Capio in
  let p = Kernel.spawn kernel ~name:"p" ~program:[||] () in
  (match Kernel.alloc_dma_context kernel p with
  | Some _ -> ()
  | None -> Alcotest.fail "no context");
  let ro = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_only in
  checkb "write right on read-only page refused" true
    (Kernel.grant_dma_cap kernel p ~vaddr:ro ~len:64 ~rights:Uldma_mem.Perms.read_write = None);
  checkb "unmapped range refused" true
    (Kernel.grant_dma_cap kernel p ~vaddr:(50 * Uldma_mem.Layout.page_size) ~len:64
       ~rights:Uldma_mem.Perms.read_only
    = None)

let test_explorer_schedules_recorded () =
  let r = explore (fun () -> Scenario.fig5 ()) in
  match r.Explorer.violations with
  | (_, schedule) :: _ ->
    checkb "non-trivial schedule" true (List.length schedule >= 3);
    checkb "mentions both pids" true
      (List.exists (fun pid -> pid = 1) schedule && List.exists (fun pid -> pid = 2) schedule)
  | [] -> Alcotest.fail "expected a violating schedule"

let test_explorer_root_untouched () =
  let s = Scenario.rep5 () in
  let pids = [ s.Scenario.victim.Process.pid ] in
  ignore (Explorer.explore ~root:s.Scenario.kernel ~pids ~check:(fun _ -> None) ());
  checkb "root still runnable" true (Kernel.runnable_pids s.Scenario.kernel <> []);
  checki "root clock untouched" 0 (Kernel.now_ps s.Scenario.kernel)

let test_explorer_max_paths_truncates () =
  let s = Scenario.rep5 () in
  let pids = [ s.Scenario.victim.Process.pid; s.Scenario.attacker.Process.pid ] in
  let r = Explorer.explore ~root:s.Scenario.kernel ~pids ~max_paths:3 ~check:(fun _ -> None) () in
  checkb "truncated" true r.Explorer.truncated

(* A pid that spins forever without touching the NI makes every leg
   through it [`Stuck]. Regression: a stuck leg used to poison the
   whole exploration (global truncation, siblings abandoned); now only
   that branch is pruned and the siblings keep being expanded. *)
let test_explorer_stuck_leg_prunes_branch_only () =
  let kernel = Kernel.create Kernel.default_config in
  let spinner = Kernel.spawn kernel ~name:"spinner" ~program:[| Uldma_cpu.Isa.Jmp 0 |] () in
  let worker =
    Kernel.spawn kernel ~name:"worker" ~program:[| Uldma_cpu.Isa.Nop; Uldma_cpu.Isa.Halt |] ()
  in
  let r =
    Explorer.explore ~root:kernel ~pids:[ spinner.Process.pid; worker.Process.pid ]
      ~max_instructions_per_leg:100 ~dedup:false ~check:(fun _ -> None) ()
  in
  checkb "not globally truncated" false r.Explorer.truncated;
  (* the spinner is stuck both at the root and after the worker's exit:
     proof the sibling branch survived the first stuck leg *)
  checkb "several stuck legs recorded" true (r.Explorer.stuck_legs >= 2);
  checkb "sibling branch expanded" true (r.Explorer.states_visited >= 2)

(* Canonical form of a violation list for cross-configuration
   comparison: constructor kind + violating schedule. The payloads are
   NOT compared: a memo hit re-emits the violation value computed on
   the first-discovered commuting prefix, whose simulated timestamps
   (e.g. Transfer.at inside Unattributed_transfer) legitimately differ
   from a later prefix's even though the engine-visible outcome is the
   same — that is exactly the state abstraction dedup merges on. *)
let canon_violations (r : _ Explorer.result) =
  List.map
    (fun (v, schedule) ->
      ( (match v with
        | Oracle.Unattributed_transfer _ -> "unattributed"
        | Oracle.Rights_violation _ -> "rights"
        | Oracle.Phantom_success _ -> "phantom"
        | Oracle.Lost_transfer _ -> "lost"),
        schedule ))
    r.Explorer.violations

(* Equality invariant of the memoization: with the real oracle
   attached, dedup on/off must report the same schedules and the same
   violation kinds, in the same order (the golden Fig. 8 table relies
   on this). *)
let test_explorer_dedup_equivalence () =
  List.iter
    (fun scenario ->
      let on = explore scenario in
      let off = explore_with ~dedup:false scenario in
      checki "paths equal" off.Explorer.paths on.Explorer.paths;
      checkb "violations identical, in order" true (canon_violations on = canon_violations off);
      checki "no dedup hits when off" 0 off.Explorer.dedup_hits)
    [ (fun () -> Scenario.fig5 ()); (fun () -> Scenario.rep5 ()) ]

(* Same invariant across worker-domain counts: the parallel driver
   concatenates per-subtree results in the sequential DFS order, so
   any --jobs must reproduce the jobs=1 schedules exactly. *)
let test_explorer_jobs_determinism () =
  List.iter
    (fun scenario ->
      let seq = explore scenario in
      List.iter
        (fun jobs ->
          let par = explore_with ~jobs scenario in
          checki (Printf.sprintf "jobs=%d paths" jobs) seq.Explorer.paths par.Explorer.paths;
          checkb
            (Printf.sprintf "jobs=%d violations identical, in order" jobs)
            true
            (canon_violations seq = canon_violations par);
          checkb (Printf.sprintf "jobs=%d complete" jobs) false par.Explorer.truncated)
        [ 2; 4 ])
    [ (fun () -> Scenario.fig5 ()); (fun () -> Scenario.rep5 ()) ]

let test_explorer_dedup_reduces_states () =
  let on = explore (fun () -> Scenario.rep5 ()) in
  let off = explore_with ~dedup:false (fun () -> Scenario.rep5 ()) in
  checkb "fewer states than schedules" true (on.Explorer.states_visited < on.Explorer.paths);
  checkb "fewer states than brute force" true
    (on.Explorer.states_visited < off.Explorer.states_visited);
  checkb "dedup hits recorded" true (on.Explorer.dedup_hits > 0);
  checki "brute force visits every interior node at least once" off.Explorer.states_visited
    (off.Explorer.states_visited + off.Explorer.dedup_hits)

(* Regression for the work-stealing driver, in two parts — the two
   pieces of [Explorer.result] whose assembly actually differs between
   the sequential DFS and the re-split/steal/sort pipeline.

   (a) stuck-leg accounting: a deliberately spinning third pid makes
   stuck legs appear at every surviving node, and the global counter
   must agree at every job count. (A pid that never reaches an NI
   access also never exits, so no schedule completes — paths = 0 is
   the documented pruning semantics, which the parallel driver must
   reproduce too, published-and-stolen subtrees included.)

   (b) violation re-emission order: rep5_contested3's ~1.4e3 collusion
   violations flow through memo re-emission AND the parallel
   rank-lexicographic sort; every job count must deliver them in the
   sequential order. *)
let test_explorer_jobs_stuck_and_violation_order () =
  let run_spinner jobs =
    let s = Scenario.fig5 () in
    let spinner =
      Kernel.spawn s.Scenario.kernel ~name:"spinner" ~program:[| Uldma_cpu.Isa.Jmp 0 |] ()
    in
    Explorer.explore ~root:s.Scenario.kernel
      ~pids:(Scenario.explore_pids s @ [ spinner.Process.pid ])
      ~max_instructions_per_leg:100 ~jobs ~check:(Scenario.oracle_check s) ()
  in
  let seq = run_spinner 1 in
  checkb "spinner makes stuck legs" true (seq.Explorer.stuck_legs > 0);
  List.iter
    (fun jobs ->
      let par = run_spinner jobs in
      checki (Printf.sprintf "spinner jobs=%d paths" jobs) seq.Explorer.paths par.Explorer.paths;
      checki
        (Printf.sprintf "spinner jobs=%d stuck legs" jobs)
        seq.Explorer.stuck_legs par.Explorer.stuck_legs)
    [ 2; 4 ];
  let run_contested jobs =
    let s = Scenario.rep5_contested3 () in
    Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s) ~jobs
      ~check:(Scenario.oracle_check s) ()
  in
  let seq = run_contested 1 in
  checkb "many violations to order" true (List.length seq.Explorer.violations > 100);
  List.iter
    (fun jobs ->
      let par = run_contested jobs in
      checki (Printf.sprintf "contested jobs=%d paths" jobs) seq.Explorer.paths
        par.Explorer.paths;
      checkb
        (Printf.sprintf "contested jobs=%d violations identical, in order" jobs)
        true
        (canon_violations seq = canon_violations par))
    [ 2; 4 ]

(* The bounded memo is a cost knob, never a result knob: a cap small
   enough to force constant eviction must re-derive the identical
   answer, just visiting more states. *)
let test_explorer_bounded_memo_equivalence () =
  let base = explore (fun () -> Scenario.rep5 ()) in
  let capped = explore_with ~memo_cap:32 (fun () -> Scenario.rep5 ()) in
  checkb "evictions happened" true (capped.Explorer.evictions > 0);
  checkb "still complete" false capped.Explorer.truncated;
  checki "paths equal" base.Explorer.paths capped.Explorer.paths;
  checkb "violations identical, in order" true (canon_violations base = canon_violations capped);
  checkb "eviction costs re-expansion" true
    (capped.Explorer.states_visited >= base.Explorer.states_visited);
  checki "default cap evicts nothing here" 0 base.Explorer.evictions

(* Persistent cross-scenario cache: a warm run of an independently
   rebuilt scenario reuses the saved safe summaries (fewer expansions,
   same answer), while a different memo_key falls back to cold because
   the stored section's root fingerprint cannot match. *)
let test_explorer_memo_file_warm_start () =
  let file = Filename.temp_file "uldma_memo" ".bin" in
  Sys.remove file;
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let cold = explore_with ~memo_file:file ~memo_key:"rep5" (fun () -> Scenario.rep5 ()) in
      checkb "cache file written" true (Sys.file_exists file);
      let warm = explore_with ~memo_file:file ~memo_key:"rep5" (fun () -> Scenario.rep5 ()) in
      checki "paths equal" cold.Explorer.paths warm.Explorer.paths;
      checkb "violations identical" true (canon_violations cold = canon_violations warm);
      checkb "warm run expands fewer states" true
        (warm.Explorer.states_visited < cold.Explorer.states_visited);
      checkb "warm run hits the cache" true (warm.Explorer.dedup_hits > 0);
      (* same file, different scenario under a reused key: the root
         fingerprint guard must reject the section, not corrupt results *)
      let other = explore_with ~memo_file:file ~memo_key:"rep5" (fun () -> Scenario.fig5 ()) in
      let plain = explore (fun () -> Scenario.fig5 ()) in
      checki "foreign section ignored: paths" plain.Explorer.paths other.Explorer.paths;
      checkb "foreign section ignored: violations" true
        (canon_violations plain = canon_violations other))

(* Three-process contested tree (1680 schedules): every jobs level and
   dedup off must agree exactly — this is the shape where the
   work-stealing driver actually re-splits interior nodes. *)
let test_explorer_3proc_determinism () =
  let small () = Scenario.ext_shadow_contested3 ~victim_repeat:1 ~tenant_repeat:1 () in
  let seq = explore small in
  checki "multinomial (3,3,3) schedule count" 1680 seq.Explorer.paths;
  checki "safe" 0 (List.length seq.Explorer.violations);
  let nodedup = explore_with ~dedup:false small in
  checki "no-dedup paths" seq.Explorer.paths nodedup.Explorer.paths;
  List.iter
    (fun jobs ->
      let par = explore_with ~jobs small in
      checki (Printf.sprintf "jobs=%d paths" jobs) seq.Explorer.paths par.Explorer.paths;
      checkb (Printf.sprintf "jobs=%d complete" jobs) false par.Explorer.truncated;
      checkb
        (Printf.sprintf "jobs=%d violations identical" jobs)
        true
        (canon_violations seq = canon_violations par))
    [ 2; 4 ]

(* Truncation under parallelism: the lease mechanism must make a
   clipped parallel run reproduce the sequential clipped frontier
   exactly — same path count, same violation list in the same order,
   same truncated flag — at every jobs level. Two shapes: the safe
   ext-shadow-3 tree (clipping only the count) and rep5-contested3
   with the budget landing *inside* the violation region (clipping the
   violation list mid-stream, the hard case for per-task leases). *)
let test_explorer_truncated_parallel_leases () =
  List.iter
    (fun (label, scenario, max_paths, expect_viol) ->
      let seq = explore_with ~max_paths scenario in
      checkb (label ^ " seq truncated") true seq.Explorer.truncated;
      checki (label ^ " seq clipped exactly at budget") max_paths seq.Explorer.paths;
      if expect_viol then
        checkb (label ^ " budget lands inside the violation region") true
          (seq.Explorer.violations <> []);
      List.iter
        (fun jobs ->
          let par = explore_with ~jobs ~max_paths scenario in
          checkb (Printf.sprintf "%s jobs=%d truncated" label jobs) true par.Explorer.truncated;
          checki (Printf.sprintf "%s jobs=%d clipped paths" label jobs) seq.Explorer.paths
            par.Explorer.paths;
          checkb
            (Printf.sprintf "%s jobs=%d clipped violations identical, in order" label jobs)
            true
            (canon_violations seq = canon_violations par);
          checkb
            (Printf.sprintf "%s jobs=%d lease splits bounded by publications" label jobs)
            true
            (par.Explorer.lease_splits <= par.Explorer.publications))
        [ 2; 4 ])
    [
      ("ext-shadow-3", (fun () -> Scenario.ext_shadow_contested3 ()), 5_000, false);
      ("rep5-3", (fun () -> Scenario.rep5_contested3 ()), 300_000, true);
    ]

(* rep5 vs two colluding adversaries: the victim's §3.3.1 property
   holds across all ~6.3e5 schedules — every violation the strict
   oracle reports is an unattributed transfer wholly between the
   colluders' own pages (the consent-based collusion channel), never
   touching A or B and never lying to the victim. *)
let test_explorer_rep5_contested3_victim_safe () =
  let s = Scenario.rep5_contested3 () in
  let victim_pages =
    List.filter_map
      (fun (base, name) -> if name = "A" || name = "B" then Some base else None)
      s.Scenario.labels
  in
  checki "both victim pages labelled" 2 (List.length victim_pages);
  let r =
    Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s)
      ~check:(Scenario.oracle_check s) ()
  in
  checkb "complete" false r.Explorer.truncated;
  checkb "collusion channel found" true (r.Explorer.violations <> []);
  List.iter
    (fun (v, _) ->
      match v with
      | Oracle.Unattributed_transfer tr ->
        let touches addr =
          List.mem (Uldma_mem.Layout.page_base addr) victim_pages
        in
        if touches tr.Uldma_dma.Transfer.src || touches tr.Uldma_dma.Transfer.dst then
          Alcotest.failf "collusion transfer touches a victim page: %#x -> %#x"
            tr.Uldma_dma.Transfer.src tr.Uldma_dma.Transfer.dst
      | Oracle.Rights_violation _ | Oracle.Phantom_success _ | Oracle.Lost_transfer _ ->
        Alcotest.fail "victim-visible violation (expected only collusion transfers)")
    r.Explorer.violations

(* Satellite of the memo rework: shard selection hashes the whole key,
   so long keys sharing a prefix (exactly what root-relative state
   encodings look like) still spread over the shards. *)
let test_memo_shard_balance () =
  let module Memo = Uldma_verify.Memo in
  let prefix = String.make 500 'k' in
  let seen = Hashtbl.create 64 in
  for i = 0 to 999 do
    let key = Printf.sprintf "%s|%d" prefix i in
    Hashtbl.replace seen (Memo.shard_of_string ~shards:64 key) ()
  done;
  checkb "long shared-prefix keys spread over shards" true (Hashtbl.length seen >= 16);
  (* and FNV-1a really reads past the prefix *)
  checkb "suffix changes the hash" false
    (Int64.equal (Memo.fnv1a64 (prefix ^ "a")) (Memo.fnv1a64 (prefix ^ "b")))

(* Fingerprint-keyed dedup (the default) against paranoid full-string
   keying: identical results, strictly fewer bytes hashed. The paranoid
   leg materialises every encoding string, so its bytes_hashed is the
   sum of all encoding lengths; the fingerprint leg streams walk tokens
   and reuses cached page digests, so it must come in under that. *)
let test_explorer_paranoid_equivalence () =
  let fp = explore (fun () -> Scenario.rep5 ()) in
  let par = explore_with ~paranoid_memo:true (fun () -> Scenario.rep5 ()) in
  checki "paths equal" fp.Explorer.paths par.Explorer.paths;
  checki "states equal" fp.Explorer.states_visited par.Explorer.states_visited;
  checki "dedup hits equal" fp.Explorer.dedup_hits par.Explorer.dedup_hits;
  checkb "violations identical, in order" true (canon_violations fp = canon_violations par);
  checkb "both legs account hashing work" true
    (fp.Explorer.bytes_hashed > 0 && par.Explorer.bytes_hashed > 0);
  checkb "fingerprinting hashes fewer bytes than string keying" true
    (fp.Explorer.bytes_hashed < par.Explorer.bytes_hashed);
  (* last-leg elision: a node's final leg advances the parent in place,
     so snapshots stay strictly below expanded states + seed *)
  checkb "snapshots elided on final legs" true
    (fp.Explorer.snapshots < fp.Explorer.states_visited + 1)

(* Regression: [Memo.length] used to sum hot + cold sizes, double
   counting a key alive in both generations after a cold-hit promotion. *)
let test_memo_length_distinct () =
  let module Memo = Uldma_verify.Memo in
  let t = Memo.create ~shards:1 ~cap:4 ~locked:false in
  List.iter (fun k -> Memo.add t k k) [ "a"; "b"; "c"; "d" ];
  (* cap reached: the generations rotated, all four keys are now cold *)
  checki "all four resident after rotation" 4 (Memo.length t);
  (* a cold hit promotes the key back into hot: alive in BOTH tables *)
  checkb "cold hit found" true (Memo.find t "a" = Some "a");
  checki "promoted key counts once" 4 (Memo.length t);
  (* iter must agree with length on the de-duplicated view *)
  let seen = ref [] in
  Memo.iter t (fun k _ -> seen := k :: !seen);
  checki "iter visits each key once" 4 (List.length !seen);
  Alcotest.(check (list string)) "the four keys" [ "a"; "b"; "c"; "d" ]
    (List.sort compare !seen)

(* The persistent cache's tmp file is pid-unique, so a stale tmp from a
   crashed or concurrent run can never be renamed over [file] by this
   run — and this run's save must succeed around any such garbage. *)
let test_memo_persist_unique_tmp () =
  let module Persist = Uldma_verify.Memo.Persist in
  let file = Filename.temp_file "uldma_memo" ".bin" in
  Sys.remove file;
  let stale_fixed = file ^ ".tmp" in
  let stale_pid = file ^ ".99999999.tmp" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ file; stale_fixed; stale_pid ])
    (fun () ->
      (* plant garbage under both the legacy fixed tmp name and a
         foreign pid-suffixed one *)
      let plant f =
        let oc = open_out_bin f in
        output_string oc "not a memo file";
        close_out oc
      in
      plant stale_fixed;
      plant stale_pid;
      Persist.save ~file ~scenario:"s" ~net:"null" ~root:7L
        [ ("k", { Persist.p_paths = 3; p_stuck = 0 }) ];
      checkb "file written" true (Sys.file_exists file);
      checkb "this run's tmp renamed away" false
        (Sys.file_exists (Printf.sprintf "%s.%d.tmp" file (Unix.getpid ())));
      checkb "foreign tmps untouched" true
        (Sys.file_exists stale_fixed && Sys.file_exists stale_pid);
      match Persist.load ~file ~scenario:"s" ~net:"null" ~root:7L with
      | None -> Alcotest.fail "saved section did not load back"
      | Some tbl ->
        checki "one entry" 1 (Hashtbl.length tbl);
        checkb "entry intact" true
          (Hashtbl.find_opt tbl "k" = Some { Persist.p_paths = 3; p_stuck = 0 }))

(* Schema 4: the fingerprint key function changed, so a schema-3 file is
   rejected as a whole — its sections neither load nor survive a
   merge-on-save — while a fresh file round-trips. *)
let test_memo_persist_schema_bump () =
  let module Persist = Uldma_verify.Memo.Persist in
  checki "schema" 4 Persist.schema;
  let file = Filename.temp_file "uldma_memo" ".bin" in
  let entry n = { Persist.p_paths = n; p_stuck = 0 } in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ file; file ^ ".lock" ])
    (fun () ->
      (* a well-formed schema-3 file: same magic and layout, old version *)
      let section = Hashtbl.create 1 in
      Hashtbl.replace section "k3" (entry 3);
      let body = Hashtbl.create 1 in
      Hashtbl.replace body "old\x00null" (7L, section);
      let oc = open_out_bin file in
      Marshal.to_channel oc ("uldma-explorer-memo", 3, body) [];
      close_out oc;
      checkb "schema-3 section rejected" true
        (Persist.load ~file ~scenario:"old" ~net:"null" ~root:7L = None);
      Persist.save ~file ~scenario:"new" ~net:"null" ~root:8L [ ("k4", entry 4) ];
      checkb "schema-3 section not merged into the rewrite" true
        (Persist.load ~file ~scenario:"old" ~net:"null" ~root:7L = None);
      match Persist.load ~file ~scenario:"new" ~net:"null" ~root:8L with
      | None -> Alcotest.fail "fresh section did not load back"
      | Some tbl ->
        checki "one entry" 1 (Hashtbl.length tbl);
        checkb "entry intact" true (Hashtbl.find_opt tbl "k4" = Some (entry 4)))

(* Fingerprint keys and encoding strings must induce the same equality
   relation on states. Randomized: two kernels built from the same
   scenario, each mutated by a random word-store script, agree on their
   encodings iff they agree on their fingerprint keys; and replaying
   one script must reproduce its key exactly. A fingerprint collision
   between distinct encodings would need both 63-bit lanes to collide
   (~2^-126), far below what this test could ever draw. *)
let explorer_fp_iff_encoding =
  let build ops =
    let s = Scenario.rep5 () in
    let k = s.Scenario.kernel in
    let ram = Kernel.ram k in
    let nslots = Uldma_mem.Phys_mem.size ram / 8 in
    List.iter
      (fun (slot, v) -> Uldma_mem.Phys_mem.store_word ram (slot mod nslots * 8) v)
      ops;
    k
  in
  let key k = fst (Kernel.state_key ~paranoid:false k) in
  let gen_ops =
    QCheck2.Gen.(list_size (int_range 0 10) (pair nat (int_range 0 0xffff)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"explorer: fingerprint equality iff encoding equality" ~count:60
       (QCheck2.Gen.pair gen_ops gen_ops)
       (fun (ops_a, ops_b) ->
         let a = build ops_a and b = build ops_b in
         let same_enc = Kernel.state_encoding a = Kernel.state_encoding b in
         let same_key = key a = key b in
         (* determinism: replaying a script reproduces its key *)
         key (build ops_a) = key a && same_enc = same_key))

(* The fingerprint hashes only engine-visible state: two independently
   built copies of a scenario agree, and advancing one NI-access leg
   changes it while leaving the root's untouched. *)
let test_kernel_fingerprint_stability () =
  let a = (Scenario.rep5 ()).Scenario.kernel and b = (Scenario.rep5 ()).Scenario.kernel in
  Alcotest.(check string) "identical builds encode identically"
    (Kernel.state_encoding a) (Kernel.state_encoding b);
  checkb "identical builds fingerprint identically" true
    (Int64.equal (Kernel.fingerprint a) (Kernel.fingerprint b));
  let before = Kernel.fingerprint a in
  let fork = Kernel.snapshot a in
  checkb "snapshot leaves the fingerprint alone" true
    (Int64.equal before (Kernel.fingerprint a));
  (match Explorer.advance_one_leg fork 1 ~max_instructions:2000 with
  | `Progress | `Exited -> ()
  | `Stuck -> Alcotest.fail "unexpected stuck leg");
  checkb "a leg changes the fork's fingerprint" false
    (Int64.equal before (Kernel.fingerprint fork));
  checkb "...but not the root's" true (Int64.equal before (Kernel.fingerprint a));
  (* the root-relative encoding starts empty on the RAM side and grows
     only with diverged pages, so it stays much shorter than the
     absolute one *)
  checkb "relative encoding is compact" true
    (String.length (Kernel.state_encoding ~relative_to:a fork)
    < String.length (Kernel.state_encoding fork))

let test_advance_one_leg () =
  let s = Scenario.rep5 () in
  let kernel = Kernel.copy s.Scenario.kernel in
  (* one leg = up to and including the process's next NI access *)
  (match Explorer.advance_one_leg kernel s.Scenario.victim.Process.pid ~max_instructions:500 with
  | `Progress -> ()
  | `Exited | `Stuck -> Alcotest.fail "expected progress");
  checkb "victim still mid-stub" true
    (List.mem s.Scenario.victim.Process.pid (Kernel.runnable_pids kernel))

(* Kernel snapshots share RAM copy-on-write and page tables by
   persistent-map sharing; driving one fork through a whole scenario
   must leave the root and a sibling fork bit-identical. *)
let test_kernel_snapshot_isolation () =
  List.iter
    (fun (name, scenario) ->
      let s = scenario () in
      let root = s.Scenario.kernel in
      let root_ram = Kernel.ram root in
      let ram_len = Uldma_mem.Phys_mem.size root_ram in
      let sum_before = Uldma_mem.Phys_mem.checksum root_ram ~addr:0 ~len:ram_len in
      let a = Kernel.snapshot root and b = Kernel.snapshot root in
      (* run fork [a] to completion, interleaving both pids *)
      let pids = [ s.Scenario.victim.Process.pid; s.Scenario.attacker.Process.pid ] in
      let budget = ref 100 in
      while Kernel.runnable_pids a <> [] && !budget > 0 do
        decr budget;
        List.iter
          (fun pid -> ignore (Explorer.advance_one_leg a pid ~max_instructions:2000))
          pids
      done;
      if !budget = 0 then Alcotest.failf "%s: fork did not quiesce" name;
      checkb (name ^ ": fork made progress") true (Kernel.now_ps a > 0);
      checki (name ^ ": root clock untouched") 0 (Kernel.now_ps root);
      checki (name ^ ": root RAM untouched") sum_before
        (Uldma_mem.Phys_mem.checksum root_ram ~addr:0 ~len:ram_len);
      checki (name ^ ": sibling clock untouched") 0 (Kernel.now_ps b);
      checkb (name ^ ": sibling RAM identical to root") true
        (Uldma_mem.Phys_mem.equal_range root_ram (Kernel.ram b) ~addr:0 ~len:ram_len);
      (* the untouched sibling must still be fully usable *)
      checkb (name ^ ": sibling still runnable") true (Kernel.runnable_pids b <> []))
    [ ("fig5", (fun () -> Scenario.fig5 ())); ("rep5", (fun () -> Scenario.rep5 ())) ]

let test_timeline_reproduces_fig5 () =
  let s = Scenario.fig5 () in
  Scenario.run_legs s Scenario.fig5_schedule;
  Scenario.finish s ();
  let rendered = List.map (fun (_, actor, access) -> (actor, access)) (Scenario.access_timeline s) in
  Alcotest.(check (list (pair string string)))
    "the Fig. 5 interleaving diagram"
    [
      ("victim", "LOAD FROM shadow(A)");
      ("attacker", "STORE 0x100 TO shadow(foo)");
      ("attacker", "LOAD FROM shadow(foo)");
      ("attacker", "LOAD FROM shadow(C)");
      ("victim", "STORE 0x100 TO shadow(B)");
      ("attacker", "LOAD FROM shadow(C)");
      ("victim", "LOAD FROM shadow(A)");
    ]
    rendered

let test_timeline_labels () =
  let s = Scenario.fig5 () in
  checkb "A labelled" true
    (List.exists (fun (_, name) -> name = "A") s.Scenario.labels);
  let a_paddr = (List.find (fun (_, name) -> name = "A") s.Scenario.labels) |> fst in
  Alcotest.(check string) "shadow naming" "shadow(A)"
    (Scenario.label_of_paddr s (Uldma_mmu.Shadow.encode a_paddr));
  Alcotest.(check string) "offset naming" "A+0x40" (Scenario.label_of_paddr s (a_paddr + 0x40))

(* ------------------------------------------------------------------ *)
(* Randomized campaigns *)

let test_campaign_rep5_random_schedules () =
  for seed = 1 to 25 do
    let s = Scenario.rep5_with_retry () in
    Scenario.run_random s ~seed ~switch_probability:0.3;
    let report = Scenario.report s in
    if not (Oracle.ok report) then
      Alcotest.failf "seed %d: %a" seed Oracle.pp_report report;
    checki
      (Printf.sprintf "seed %d: exactly one success" seed)
      1 (Scenario.victim_successes s)
  done

let test_campaign_rep3_eventually_broken () =
  (* random NI-access interleavings of victim and attacker: the
     three-access variant must break for some of them (the explorer
     says 9 of the 126 leg schedules are violating) *)
  let rng = Uldma_util.Rng.create ~seed:99 in
  let broken = ref false in
  for _ = 1 to 120 do
    if not !broken then begin
      let legs = Array.of_list (Scenario.[ V; V; V ] @ Scenario.[ M; M; M; M ]) in
      Uldma_util.Rng.shuffle rng legs;
      let s = Scenario.fig5 () in
      Scenario.run_legs s (Array.to_list legs);
      Scenario.finish s ();
      if not (Oracle.ok (Scenario.report s)) then broken := true
    end
  done;
  checkb "found a breaking schedule" true !broken

let test_campaign_key_based_two_users () =
  (* two key-based users under heavy preemption: private contexts keep
     them safe with an unmodified kernel *)
  let config =
    {
      Kernel.default_config with
      Kernel.mechanism = Engine.Key_based;
      ram_size = 64 * Uldma_mem.Layout.page_size;
      sched = Sched.Random_preempt { probability = 0.3; seed = 11 };
    }
  in
  let kernel = Kernel.create config in
  let intents = ref [] and reported = ref [] in
  let mech = Uldma.Api.find_exn "key-based" in
  let users =
    List.map
      (fun name ->
        let p = Kernel.spawn kernel ~name ~program:[||] () in
        let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
        let dst = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
        let result_va = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
        let prepared =
          mech.Uldma.Mech.prepare kernel p ~src:{ Uldma.Mech.vaddr = src; pages = 1 }
            ~dst:{ Uldma.Mech.vaddr = dst; pages = 1 }
        in
        Process.set_program p
          (Uldma_workload.Stub_loop.build_repeat ~n:20 ~vsrc:src ~vdst:dst ~size:128 ~result_va
             ~emit_dma:prepared.Uldma.Mech.emit_dma);
        intents :=
          Oracle.intent_of_regions kernel p ~vsrc:src ~vdst:dst ~size:128 ~requests:20 :: !intents;
        (p, result_va))
      [ "user1"; "user2" ]
  in
  ignore (Kernel.run kernel ~max_steps:2_000_000 () : Kernel.run_result);
  List.iter
    (fun ((p : Process.t), result_va) ->
      reported :=
        (p.Process.pid, Uldma_workload.Stub_loop.read_successes kernel p ~result_va) :: !reported)
    users;
  let report = Oracle.check ~kernel ~intents:!intents ~reported_successes:!reported in
  if not (Oracle.ok report) then Alcotest.failf "%a" Oracle.pp_report report;
  checki "40 transfers" 40 (List.length (Engine.transfers (Kernel.engine kernel)))

let test_campaign_ext_shadow_two_users () =
  let config =
    {
      Kernel.default_config with
      Kernel.mechanism = Engine.Ext_shadow;
      ram_size = 64 * Uldma_mem.Layout.page_size;
      sched = Sched.Random_preempt { probability = 0.3; seed = 5 };
    }
  in
  let kernel = Kernel.create config in
  let mech = Uldma.Api.find_exn "ext-shadow" in
  let finished = ref [] in
  List.iter
    (fun name ->
      let p = Kernel.spawn kernel ~name ~program:[||] () in
      let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
      let dst = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
      let result_va = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
      let prepared =
        mech.Uldma.Mech.prepare kernel p ~src:{ Uldma.Mech.vaddr = src; pages = 1 }
          ~dst:{ Uldma.Mech.vaddr = dst; pages = 1 }
      in
      Process.set_program p
        (Uldma_workload.Stub_loop.build_repeat ~n:20 ~vsrc:src ~vdst:dst ~size:128 ~result_va
           ~emit_dma:prepared.Uldma.Mech.emit_dma);
      finished := (p, result_va) :: !finished)
    [ "user1"; "user2"; "user3" ];
  ignore (Kernel.run kernel ~max_steps:2_000_000 () : Kernel.run_result);
  List.iter
    (fun ((p : Process.t), result_va) ->
      checki
        (p.Process.name ^ " all succeeded")
        20
        (Uldma_workload.Stub_loop.read_successes kernel p ~result_va))
    !finished;
  checki "60 transfers" 60 (List.length (Engine.transfers (Kernel.engine kernel)))

(* ------------------------------------------------------------------ *)
(* Campaign engine: cross-candidate shared memoization *)

module Synth = Uldma_workload.Synth
module Campaign = Uldma_verify.Campaign

let canon_result (r : _ Explorer.result) =
  (r.Explorer.paths, r.Explorer.truncated, canon_violations r)

(* Shared-memo exploration must be warmth-independent: explore a
   randomly mutated accomplice program against a memo pre-warmed by its
   sibling candidates and cold in a private table — identical path
   counts and violation lists. Programs are drawn from the raw (not
   canonicalised) grammar, so the memo also sees symmetric duplicates. *)
let campaign_shared_vs_cold =
  let gen_ops =
    QCheck2.Gen.(
      list_size (int_range 1 3)
        (map2
           (fun store page -> if store then Synth.S page else Synth.L page)
           bool (int_range 0 1)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"campaign: shared-memo vs cold equivalence" ~count:12
       ~print:(fun (a, b) -> Synth.mnemonic a ^ " / " ^ Synth.mnemonic b)
       (QCheck2.Gen.pair gen_ops gen_ops)
       (fun (warm_ops, ops) ->
         let base = Synth.make_base (Synth.Rep Seq_matcher.Five) in
         let s = Synth.base_scenario base in
         let pids = Scenario.explore_pids s in
         let check = Scenario.oracle_check s in
         let baseline = s.Scenario.kernel in
         (* candidates snapshot the base: build them sequentially *)
         let warm = Synth.candidate base warm_ops in
         let cand = Synth.candidate base ops in
         let cold =
           Explorer.explore ~root:cand.Campaign.c_root ~pids ~check ()
         in
         let sm = Explorer.create_shared ~locked:false () in
         Explorer.bump_generation sm;
         ignore
           (Explorer.explore ~root:warm.Campaign.c_root ~pids ~baseline ~shared:sm
              ?key_tag:warm.Campaign.c_key_tag ~check ()
             : _ Explorer.result);
         let shared =
           Explorer.explore ~root:cand.Campaign.c_root ~pids ~baseline ~shared:sm
             ?key_tag:cand.Campaign.c_key_tag ~check ()
         in
         canon_result shared = canon_result cold))

(* Campaign.run is deterministic in --jobs: the per-candidate results
   of the slots=2 family agree at jobs 1, 2 and 4, and warm-starting
   shows up as cross-candidate hits. *)
let test_campaign_jobs_determinism () =
  let run jobs =
    let cr = Synth.run_cell ~slots:2 ~jobs (Synth.Rep Seq_matcher.Five) in
    (Array.map canon_result cr.Synth.cr_results, cr.Synth.cr_stats, cr.Synth.cr_cell)
  in
  let r1, stats1, cell1 = run 1 in
  let r2, _, cell2 = run 2 in
  let r4, _, cell4 = run 4 in
  checki "family size" 10 (Array.length r1);
  checkb "jobs=2 identical to jobs=1" true (r1 = r2);
  checkb "jobs=4 identical to jobs=1" true (r1 = r4);
  Alcotest.(check string) "catalogue row identical at jobs 2" (Synth.catalogue_row cell1)
    (Synth.catalogue_row cell2);
  Alcotest.(check string) "catalogue row identical at jobs 4" (Synth.catalogue_row cell1)
    (Synth.catalogue_row cell4);
  checkb "cross-candidate memo hits recorded" true (stats1.Campaign.g_hits > 0);
  checkb "outer-level split engaged" true
    (let outer, inner = Campaign.split_jobs ~jobs:4 ~candidates:10 in
     outer = 4 && inner = 1)

(* Satellite: Memo.Persist.save must merge, not clobber. Two sections
   written through separate save calls both survive, and two domains
   saving different sections concurrently (the campaign shape: several
   scenarios finishing at once) lose neither. *)
let test_memo_persist_concurrent_save () =
  let module Persist = Uldma_verify.Memo.Persist in
  let file = Filename.temp_file "uldma_memo" ".bin" in
  Sys.remove file;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ file; file ^ ".lock" ])
    (fun () ->
      let entry n = [ (Printf.sprintf "k%d" n, { Persist.p_paths = n; p_stuck = 0 }) ] in
      (* sequential merge-on-save: section "b" must not clobber "a" *)
      Persist.save ~file ~scenario:"a" ~net:"null" ~root:1L (entry 1);
      Persist.save ~file ~scenario:"b" ~net:"null" ~root:2L (entry 2);
      checkb "first section survives a later save" true
        (Persist.load ~file ~scenario:"a" ~net:"null" ~root:1L <> None);
      checkb "second section present" true
        (Persist.load ~file ~scenario:"b" ~net:"null" ~root:2L <> None);
      (* concurrent saves of distinct sections: both must survive *)
      let domains =
        List.init 4 (fun i ->
            Domain.spawn (fun () ->
                let scenario = Printf.sprintf "conc%d" i in
                Persist.save ~file ~scenario ~net:"null" ~root:(Int64.of_int (10 + i))
                  (entry (10 + i))))
      in
      List.iter Domain.join domains;
      List.iteri
        (fun i () ->
          let scenario = Printf.sprintf "conc%d" i in
          match Persist.load ~file ~scenario ~net:"null" ~root:(Int64.of_int (10 + i)) with
          | None -> Alcotest.failf "concurrent section %s lost" scenario
          | Some tbl -> checki (scenario ^ " intact") 1 (Hashtbl.length tbl))
        [ (); (); (); () ];
      checkb "earlier sections still alive after the race" true
        (Persist.load ~file ~scenario:"a" ~net:"null" ~root:1L <> None
        && Persist.load ~file ~scenario:"b" ~net:"null" ~root:2L <> None))

let () =
  Alcotest.run "verify"
    [
      ( "oracle",
        [
          Alcotest.test_case "accepts clean run" `Quick test_oracle_accepts_clean_run;
          Alcotest.test_case "flags missing intent" `Quick test_oracle_flags_missing_intent;
          Alcotest.test_case "flags phantom success" `Quick test_oracle_flags_phantom;
          Alcotest.test_case "flags lost transfer" `Quick test_oracle_flags_lost;
          Alcotest.test_case "flags rights violation" `Quick test_oracle_flags_rights_violation;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "Fig. 5 on rep-args-3" `Quick test_fig5_attack_reproduces;
          Alcotest.test_case "Fig. 6 on rep-args-4" `Quick test_fig6_attack_reproduces;
          Alcotest.test_case "shrimp-2 race, unmodified kernel" `Quick
            test_shrimp2_race_unmodified_kernel;
          Alcotest.test_case "shrimp-2 race, hook installed" `Quick test_shrimp2_race_with_hook;
          Alcotest.test_case "flash race, unmodified kernel" `Quick
            test_flash_race_unmodified_kernel;
          Alcotest.test_case "flash race, hook installed" `Quick test_flash_race_with_hook;
          Alcotest.test_case "ext-stateless race safe, unmodified kernel" `Quick
            test_ext_stateless_race_safe;
          Alcotest.test_case "rep-args-5 resists Fig. 5 schedule" `Quick
            test_rep5_resists_fig5_schedule;
          Alcotest.test_case "timeline reproduces Fig. 5 diagram" `Quick
            test_timeline_reproduces_fig5;
          Alcotest.test_case "timeline labels" `Quick test_timeline_labels;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "rep-5 safe under all schedules" `Slow
            test_explorer_rep5_safe_all_schedules;
          Alcotest.test_case "rep-3: finds Fig. 5" `Quick test_explorer_rep3_finds_fig5;
          Alcotest.test_case "rep-4: finds Fig. 6" `Quick test_explorer_rep4_finds_fig6;
          Alcotest.test_case "rep-5 resists store splice" `Slow
            test_explorer_rep5_resists_store_splice;
          Alcotest.test_case "contested: ext-shadow/key/pal/iommu/capio safe" `Slow
            test_explorer_contested_mechanisms_safe;
          Alcotest.test_case "capio launder rejected (concrete run)" `Quick
            test_capio_launder_rejected_concrete;
          Alcotest.test_case "capio launder rejected after victim exit" `Quick
            test_capio_launder_rejected_after_victim_exit;
          Alcotest.test_case "capio launder safe under all schedules" `Quick
            test_explorer_capio_launder_safe;
          Alcotest.test_case "unmap revokes capabilities" `Quick test_kernel_unmap_revokes_caps;
          Alcotest.test_case "grant refuses bad ranges" `Quick test_kernel_grant_rejects_bad_ranges;
          Alcotest.test_case "violating schedule recorded" `Quick test_explorer_schedules_recorded;
          Alcotest.test_case "root untouched" `Quick test_explorer_root_untouched;
          Alcotest.test_case "max_paths truncates" `Quick test_explorer_max_paths_truncates;
          Alcotest.test_case "stuck leg prunes branch only" `Quick
            test_explorer_stuck_leg_prunes_branch_only;
          Alcotest.test_case "dedup on/off equivalence" `Slow test_explorer_dedup_equivalence;
          Alcotest.test_case "jobs determinism" `Slow test_explorer_jobs_determinism;
          Alcotest.test_case "dedup reduces states" `Slow test_explorer_dedup_reduces_states;
          Alcotest.test_case "jobs: stuck legs + violation order" `Slow
            test_explorer_jobs_stuck_and_violation_order;
          Alcotest.test_case "bounded memo equivalence" `Slow
            test_explorer_bounded_memo_equivalence;
          Alcotest.test_case "memo file warm start" `Slow test_explorer_memo_file_warm_start;
          Alcotest.test_case "3-process determinism" `Slow test_explorer_3proc_determinism;
          Alcotest.test_case "truncated parallel leases" `Slow
            test_explorer_truncated_parallel_leases;
          Alcotest.test_case "rep5 vs two colluders: victim safe" `Slow
            test_explorer_rep5_contested3_victim_safe;
          Alcotest.test_case "memo shard balance" `Quick test_memo_shard_balance;
          Alcotest.test_case "paranoid vs fingerprint keying" `Slow
            test_explorer_paranoid_equivalence;
          Alcotest.test_case "memo length counts distinct keys" `Quick test_memo_length_distinct;
          Alcotest.test_case "persist tmp file is pid-unique" `Quick test_memo_persist_unique_tmp;
          Alcotest.test_case "persist schema 3 rejected" `Quick test_memo_persist_schema_bump;
          explorer_fp_iff_encoding;
          Alcotest.test_case "kernel fingerprint stability" `Quick
            test_kernel_fingerprint_stability;
          Alcotest.test_case "advance_one_leg" `Quick test_advance_one_leg;
          Alcotest.test_case "kernel snapshot isolation" `Quick test_kernel_snapshot_isolation;
        ] );
      ( "campaign-engine",
        [
          campaign_shared_vs_cold;
          Alcotest.test_case "jobs determinism + catalogue stability" `Slow
            test_campaign_jobs_determinism;
          Alcotest.test_case "persist concurrent save merges" `Quick
            test_memo_persist_concurrent_save;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "rep-5 random schedules" `Slow test_campaign_rep5_random_schedules;
          Alcotest.test_case "rep-3 eventually broken" `Slow test_campaign_rep3_eventually_broken;
          Alcotest.test_case "key-based multi-user" `Quick test_campaign_key_based_two_users;
          Alcotest.test_case "ext-shadow multi-user" `Quick test_campaign_ext_shadow_two_users;
        ] );
    ]
