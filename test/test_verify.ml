(* Tests for the verification layer (oracle + interleaving explorer)
   and the attack scenarios: reproduces Figs. 5, 6, the SHRIMP/FLASH
   races, and machine-checks §3.3.1 exhaustively and by randomized
   campaign. *)

open Uldma_os
open Uldma_dma
module Oracle = Uldma_verify.Oracle
module Explorer = Uldma_verify.Explorer
module Scenario = Uldma_workload.Scenario
module Trace = Uldma_obs.Trace

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

let explore_with ?dedup ?paranoid_memo ?memo_cap ?max_paths scenario =
  let s = scenario () in
  Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s) ?dedup ?paranoid_memo
    ?memo_cap ?max_paths ~check:(Scenario.oracle_check s) ()

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
let launder_rejects sink ~pid:accomplice_pid reason =
  List.exists
    (fun (r : Trace.record) ->
      match r.Trace.kind with
      | Trace.Engine_reject { reason = name } ->
        name = Engine.reject_name reason && r.Trace.pid = accomplice_pid
      | _ -> false)
    (Trace.events sink)

(* the laundering scenario with a fresh sink on its engine, which
   records the engine's rejections *)
let capio_launder_traced () =
  let s = Scenario.capio_launder () in
  let sink = Trace.create () in
  Engine.set_sink (Kernel.engine s.Scenario.kernel) ~machine:0 sink;
  (s, sink)

let test_capio_launder_rejected_concrete () =
  (* accomplice fires first, while the victim (and its caps) are alive:
     the context binding rejects the replay as Bad_capability *)
  let s, sink = capio_launder_traced () in
  Scenario.run_legs s [ Scenario.M; Scenario.M; Scenario.M; Scenario.M ];
  Scenario.finish s ();
  let engine = Kernel.engine s.Scenario.kernel in
  let accomplice_pid = s.Scenario.attacker.Process.pid in
  checkb "laundering rejected Bad_capability" true
    (launder_rejects sink ~pid:accomplice_pid Engine.Bad_capability);
  checki "only the victim's transfer started" 1 (List.length (Engine.transfers engine));
  checkb "oracle clean" true (Oracle.ok (Scenario.report s))

let test_capio_launder_rejected_after_victim_exit () =
  (* the other phase: once the victim exits, its caps are revoked by
     pid, so a late replay is rejected Revoked_capability instead —
     still never fires *)
  let s, sink = capio_launder_traced () in
  Scenario.finish s ();
  let engine = Kernel.engine s.Scenario.kernel in
  let accomplice_pid = s.Scenario.attacker.Process.pid in
  checkb "late replay rejected Revoked_capability" true
    (launder_rejects sink ~pid:accomplice_pid Engine.Revoked_capability);
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

(* A verdict means what it says: rep5 clipped at 3 of its 462
   schedules has found nothing, which proves nothing. The full run is
   SAFE and Fig. 5 is VULNERABLE with its 9 violating schedules. *)
let test_explorer_verdict () =
  let verdict ?max_paths scenario = Explorer.verdict (explore_with ?max_paths scenario) in
  checkb "clipped rep5 inconclusive" true
    (verdict ~max_paths:3 (fun () -> Scenario.rep5 ()) = Explorer.Inconclusive);
  checkb "complete rep5 safe" true (verdict (fun () -> Scenario.rep5 ()) = Explorer.Safe);
  checkb "fig5 vulnerable" true
    (verdict (fun () -> Scenario.fig5 ()) = Explorer.Vulnerable 9)

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
  List.map (fun (v, schedule) -> (Oracle.kind_name v, schedule)) r.Explorer.violations

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

let test_explorer_dedup_reduces_states () =
  let on = explore (fun () -> Scenario.rep5 ()) in
  let off = explore_with ~dedup:false (fun () -> Scenario.rep5 ()) in
  checkb "fewer states than schedules" true (on.Explorer.states_visited < on.Explorer.paths);
  checkb "fewer states than brute force" true
    (on.Explorer.states_visited < off.Explorer.states_visited);
  checkb "dedup hits recorded" true (on.Explorer.dedup_hits > 0);
  checki "brute force visits every interior node at least once" off.Explorer.states_visited
    (off.Explorer.states_visited + off.Explorer.dedup_hits)

(* The two pieces of [Explorer.result] that dedup assembles from memo
   summaries rather than from the walk itself.

   (a) stuck-leg accounting: a deliberately spinning third pid makes
   stuck legs appear at every surviving node, and a memo hit must add
   its subtree's stuck legs exactly as the tree walk counts them. (A
   pid that never reaches an NI access also never exits, so no schedule
   completes — paths = 0 is the documented pruning semantics.)

   (b) violation re-emission order: rep5_contested3's ~1.4e3 collusion
   violations flow through memo re-emission; a table small enough to
   evict constantly re-derives many of them by fresh expansion instead,
   and must still deliver them in the same order. *)
let test_explorer_stuck_and_violation_order () =
  let run_spinner dedup =
    let s = Scenario.fig5 () in
    let spinner =
      Kernel.spawn s.Scenario.kernel ~name:"spinner" ~program:[| Uldma_cpu.Isa.Jmp 0 |] ()
    in
    Explorer.explore ~root:s.Scenario.kernel
      ~pids:(Scenario.explore_pids s @ [ spinner.Process.pid ])
      ~max_instructions_per_leg:100 ~dedup ~check:(Scenario.oracle_check s) ()
  in
  let on = run_spinner true and off = run_spinner false in
  checkb "spinner makes stuck legs" true (off.Explorer.stuck_legs > 0);
  checkb "spinner run reuses subtrees" true (on.Explorer.dedup_hits > 0);
  checki "spinner paths" off.Explorer.paths on.Explorer.paths;
  checki "spinner stuck legs" off.Explorer.stuck_legs on.Explorer.stuck_legs;
  let contested = explore (fun () -> Scenario.rep5_contested3 ()) in
  let evicting = explore_with ~memo_cap:512 (fun () -> Scenario.rep5_contested3 ()) in
  checkb "many violations to order" true (List.length contested.Explorer.violations > 100);
  checkb "small table evicts" true (evicting.Explorer.evictions > 0);
  checki "contested paths" contested.Explorer.paths evicting.Explorer.paths;
  checkb "contested violations identical, in order" true
    (canon_violations contested = canon_violations evicting)

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

(* A clipped run on a tiny memo: the 3-process key-based tree is far
   larger than 2000 schedules, so the budget clips it, and a 32-entry
   table must evict on the way there (the 88 states it visits fit in
   64). *)
let test_explorer_clipped_under_eviction () =
  let r = explore_with ~max_paths:2000 ~memo_cap:32 (fun () -> Scenario.key_contested3 ()) in
  checkb "truncated" true r.Explorer.truncated;
  checkb "evictions happened" true (r.Explorer.evictions > 0)

(* Three-process contested tree (1680 schedules): dedup on and off
   must agree exactly, paths and violation lists alike. *)
let test_explorer_3proc_determinism () =
  let small () = Scenario.ext_shadow_contested3 ~victim_repeat:1 ~tenant_repeat:1 () in
  let seq = explore small in
  checki "multinomial (3,3,3) schedule count" 1680 seq.Explorer.paths;
  checki "safe" 0 (List.length seq.Explorer.violations);
  let nodedup = explore_with ~dedup:false small in
  checki "no-dedup paths" seq.Explorer.paths nodedup.Explorer.paths;
  checkb "no-dedup violations identical" true
    (canon_violations seq = canon_violations nodedup);
  checkb "no-dedup complete" false nodedup.Explorer.truncated

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
  checki "promoted key counts once" 4 (Memo.length t)

(* Fingerprint keys and encoding strings must induce the same equality
   relation on states. Randomized: two kernels built from the same
   machine (rep5 at Null, or rep5 at atm155 with a transfer in flight),
   each mutated by a random script of RAM word stores, register writes
   and stores to the engine's shadow window, agree on their encodings
   iff they agree on their fingerprint keys, keyed with and without the
   machine's root as baseline; and replaying one script must reproduce
   its key exactly. A fingerprint collision between distinct encodings
   would need both 63-bit lanes to collide (~2^-126), far below what
   this test could ever draw. *)
let explorer_fp_iff_encoding =
  let build (timed, ops) =
    let s =
      if timed then begin
        let s = Scenario.rep5 ~net:(Uldma_net.Backend.linked Uldma_net.Link.atm155) () in
        Scenario.run_legs s Scenario.[ V; V; V; V; V ];
        s
      end
      else Scenario.rep5 ()
    in
    let root = s.Scenario.kernel in
    let k = Kernel.snapshot root in
    let ram = Kernel.ram k in
    let nslots = Uldma_mem.Phys_mem.size ram / 8 in
    let procs = Array.of_list (Kernel.processes k) in
    List.iter
      (fun (op, (a, b, v)) ->
        match op with
        | 0 -> Uldma_mem.Phys_mem.store_word ram (a mod nslots * 8) v
        | 1 ->
          let p = procs.(a mod Array.length procs) in
          Uldma_cpu.Regfile.set p.Process.ctx.Uldma_cpu.Cpu.regs (b mod 4) v
        | _ ->
          let paddr = Uldma_mmu.Shadow.encode_ctx ~context:(a land 3) ((b land 7) * 64) in
          ignore
            (Engine.device.Uldma_bus.Bus.handle (Kernel.engine k) Uldma_bus.Txn.Store ~paddr
               ~value:v ~pid:1
              : int))
      ops;
    (root, k)
  in
  let keys (root, k) =
    ( fst (Kernel.state_key ~paranoid:false k),
      fst (Kernel.state_key ~relative_to:root ~paranoid:false k) )
  in
  let encodings (root, k) = (Kernel.state_encoding k, Kernel.state_encoding ~relative_to:root k) in
  let gen_ops =
    QCheck2.Gen.(
      list_size (int_range 0 10)
        (pair (int_range 0 2) (triple (int_range 0 0xff) (int_range 0 7) (int_range 0 3))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"explorer: fingerprint equality iff encoding equality" ~count:60
       QCheck2.Gen.(pair bool (pair gen_ops gen_ops))
       (fun (timed, (ops_a, ops_b)) ->
         let a = build (timed, ops_a) and b = build (timed, ops_b) in
         let (ea, ra) = encodings a and (eb, rb) = encodings b in
         let (ka, kra) = keys a and (kb, krb) = keys b in
         (* determinism: replaying a script reproduces its keys *)
         keys (build (timed, ops_a)) = keys a
         && (ea = eb) = (ka = kb)
         && (ra = rb) = (kra = krb)))

(* [n] processes on an atm155 extended-shadow machine, each starting a
   DMA, blocking in sys_dma_wait until its wire time has elapsed,
   sleeping [sleep_ns] (2 us), then starting and awaiting a second DMA:
   explorer nodes hold processes blocked on a pending deadline, whose
   remaining time the state key carries. *)
let waiters ?(n = 2) ?(net = Uldma_net.Backend.linked Uldma_net.Link.atm155) ?(sleep_ns = 2_000)
    () =
  let module Asm = Uldma_cpu.Asm in
  let kernel = Scenario.make_kernel ~net Engine.Ext_shadow in
  let spawn i =
    let p = Kernel.spawn kernel ~name:(Printf.sprintf "waiter%d" i) ~program:[||] () in
    let page () = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
    let src = page () and dst = page () in
    (match Kernel.alloc_dma_context kernel p with
    | Some _ -> ()
    | None -> Alcotest.fail "no free register context");
    List.iter
      (fun va -> ignore (Kernel.map_shadow_alias kernel p ~vaddr:va ~n:1 ~window:`Dma : int))
      [ src; dst ];
    let asm = Asm.create () in
    let dma_and_wait () =
      Asm.li asm 1 src;
      Asm.li asm 2 dst;
      Asm.li asm 3 Scenario.transfer_size;
      Uldma.Ext_shadow.emit_dma asm;
      Asm.li asm 0 Sysno.sys_dma_wait;
      Asm.syscall asm
    in
    dma_and_wait ();
    Asm.li asm 0 Sysno.sys_sleep;
    Asm.li asm 1 sleep_ns;
    Asm.syscall asm;
    dma_and_wait ();
    Asm.halt asm;
    Process.set_program p (Asm.assemble asm);
    p
  in
  let procs = List.init n spawn in
  {
    Scenario.kernel;
    victim = List.hd procs;
    attacker = List.nth procs 1;
    intents = [];
    victim_result_va = 0;
    attacker_result_va = None;
    extras = List.map (fun p -> (p, None)) (List.filteri (fun i _ -> i >= 2) procs);
    transfer_size = Scenario.transfer_size;
    labels = [];
  }

(* Fingerprint and paranoid keying expand the same states and take the
   same memo hits on a tree whose nodes hold blocked processes. *)
let test_explorer_waiters_paranoid_equivalence () =
  let s = waiters () in
  let fork = Kernel.snapshot s.Scenario.kernel in
  let pid = s.Scenario.victim.Process.pid in
  let rec until_blocked n =
    if n > 0 then
      match Explorer.advance_one_leg fork pid ~max_instructions:2000 with
      | `Progress -> until_blocked (n - 1)
      | `Exited | `Stuck -> ()
  in
  until_blocked 10;
  (match (Option.get (Kernel.find_process fork pid)).Process.state with
  | Process.Blocked_until at -> checkb "blocked on a future deadline" true (at > Kernel.now_ps fork)
  | Process.Ready | Process.Exited _ -> Alcotest.fail "the waiter did not block");
  let explore ?paranoid_memo () =
    let s = waiters () in
    Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s) ?paranoid_memo
      ~check:(fun _ -> None) ()
  in
  let fp = explore () and par = explore ~paranoid_memo:true () in
  checkb "a tree to dedup" true (fp.Explorer.dedup_hits > 0);
  checki "states equal" par.Explorer.states_visited fp.Explorer.states_visited;
  checki "dedup hits equal" par.Explorer.dedup_hits fp.Explorer.dedup_hits;
  checki "paths equal" par.Explorer.paths fp.Explorer.paths;
  checkb "no violations" true (fp.Explorer.violations = [] && par.Explorer.violations = [])

(* The process table's digest (each process's pid-salted register-file
   digest, which also covers its state code, DMA context and key)
   against random schedules of legs, wait legs, scheduler steps (which
   idle the clock forward to wake sleepers), DMA-context frees and
   re-allocations, and forks: at every node the machine's maintained
   digest (the processes' lanes, folded, and the digest cell) equals
   the sum of the terms the machine enumerates. Programs exit, block in
   sys_dma_wait and sleep. *)
let process_table_digest_schedules =
  let table_ok k = Kernel.digest k = Uldma_util.Fp128.sum_terms Kernel.iter_terms k in
  let act k (choice, who) =
    let procs = Array.of_list (Kernel.processes k) in
    let p = procs.(who mod Array.length procs) in
    match choice with
    | 0 -> ignore (Explorer.advance_one_leg k p.Process.pid ~max_instructions:2000 : [> `Progress ])
    | 1 -> ignore (Kernel.advance_to_next_completion k : bool)
    | 2 -> ignore (Kernel.step k : [ `Stepped of int | `Idle ])
    | 3 -> Kernel.free_dma_context k p
    | _ -> (
      match p.Process.dma_context with
      | Some _ -> ()
      | None -> ignore (Kernel.alloc_dma_context k p : (int * int * int) option))
  in
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 40) (pair (int_range 0 4) (int_range 0 2)) |> pair (int_range 0 4))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"explorer: process-table digest over random schedules" ~count:100
       gen
       (fun (fork_every, actions) ->
         let s = waiters ~n:3 () in
         let k = ref (Kernel.snapshot s.Scenario.kernel) in
         let ok = ref (table_ok !k) in
         List.iteri
           (fun i a ->
             if fork_every > 0 && i mod fork_every = 0 then begin
               let parent = !k in
               k := Kernel.snapshot parent;
               act !k a;
               ok := !ok && table_ok parent
             end
             else act !k a;
             ok := !ok && table_ok !k)
           actions;
         !ok))

(* The DMA engine's digest against random leg schedules, on scenarios
   that between them drive every engine mechanism and register (and,
   at atm155, in-flight transfers, the wait leg and blocked waiters).
   Along a schedule every node is keyed both ways relative to the root,
   as the explorer keys it, and the property checks:
   - fingerprint keys are equal iff paranoid encodings are equal, over
     every pair of nodes of two schedules;
   - keying after every leg gives the same final key as replaying the
     schedule and keying once at the end (the process folds then move
     once), and the machine's maintained digest (digest cell and
     process digests) equals the sum of its enumerated terms at every
     node;
   - a child's legs after [snapshot] never move the parent's key. *)
let explorer_engine_digest_schedules =
  let atm155 = Uldma_net.Backend.linked Uldma_net.Link.atm155 in
  let scenarios =
    [|
      ("rep5", fun () -> Scenario.rep5 ());
      ("key", fun () -> Scenario.key_contested ());
      ("ext-shadow", Scenario.ext_shadow_contested);
      ("ext-stateless", Scenario.ext_stateless_race);
      ("shrimp2", fun () -> Scenario.shrimp2_race ~hook:false);
      ("shrimp2+hook", fun () -> Scenario.shrimp2_race ~hook:true);
      ("flash", fun () -> Scenario.flash_race ~hook:false);
      ("flash+hook", fun () -> Scenario.flash_race ~hook:true);
      ("pal", Scenario.pal_contested);
      ("iommu", fun () -> Scenario.iommu_contested ());
      ("capio", fun () -> Scenario.capio_contested ());
      ("capio-launder", fun () -> Scenario.capio_launder ());
      ("rep5@atm155", fun () -> Scenario.rep5 ~net:atm155 ());
      ("key@atm155", fun () -> Scenario.key_contested ~net:atm155 ());
      ("iommu@atm155", fun () -> Scenario.iommu_contested ~net:atm155 ());
      ("capio@atm155", fun () -> Scenario.capio_contested ~net:atm155 ());
      ("capio-launder@atm155", fun () -> Scenario.capio_launder ~net:atm155 ());
      ("waiters@atm155", fun () -> waiters ());
    |]
  in
  let legs s k =
    let live = Kernel.runnable_pids k in
    let runnable = List.filter (fun pid -> List.mem pid live) (Scenario.explore_pids s) in
    match Kernel.next_transfer_deadline k with
    | Some _ -> runnable @ [ Explorer.wait_leg ]
    | None -> runnable
  in
  let advance k leg =
    if leg = Explorer.wait_leg then ignore (Kernel.advance_to_next_completion k : bool)
    else ignore (Explorer.advance_one_leg k leg ~max_instructions:2000 : [> `Progress ])
  in
  let fp root k = fst (Kernel.state_key ~relative_to:root ~paranoid:false k) in
  let paranoid root k = fst (Kernel.state_key ~relative_to:root ~paranoid:true k) in
  (* Run [choices] from a fresh snapshot of [root]; with [~every] key
     each node (and fork a child to check the parent's key stays put),
     returning every node's (paranoid, fingerprint) pair. *)
  let run s root choices ~every =
    let k = Kernel.snapshot root in
    let nodes = ref [] and ok = ref true in
    let visit () =
      if every then begin
        let key = fp root k in
        ok :=
          !ok
          && Kernel.digest ~relative_to:root k
             = Uldma_util.Fp128.sum_terms (Kernel.iter_terms ~relative_to:root) k;
        (match legs s k with
        | leg :: _ ->
          let child = Kernel.snapshot k in
          advance child leg;
          ignore (fp root child : string);
          ok := !ok && String.equal key (fp root k)
        | [] -> ());
        nodes := (paranoid root k, key) :: !nodes
      end
    in
    visit ();
    List.iter
      (fun c ->
        match legs s k with
        | [] -> ()
        | ls ->
          advance k (List.nth ls (c mod List.length ls));
          visit ())
      choices;
    (fp root k, !nodes, !ok)
  in
  let gen =
    QCheck2.Gen.(
      triple
        (int_range 0 (Array.length scenarios - 1))
        (list_size (int_range 0 8) (int_range 0 3))
        (list_size (int_range 0 8) (int_range 0 3)))
  in
  let print (i, a, b) =
    let l xs = String.concat ";" (List.map string_of_int xs) in
    Printf.sprintf "%s [%s] [%s]" (fst scenarios.(i)) (l a) (l b)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"explorer: engine digest over random leg schedules" ~count:200
       ~print gen
       (fun (i, a, b) ->
         let s = (snd scenarios.(i)) () in
         let root = s.Scenario.kernel in
         let final_a, nodes_a, ok_a = run s root a ~every:true in
         let _, nodes_b, ok_b = run s root b ~every:true in
         let replayed_a, _, _ = run s root a ~every:false in
         let nodes = nodes_a @ nodes_b in
         ok_a && ok_b
         && String.equal final_a replayed_a
         && List.for_all
              (fun (p1, f1) ->
                List.for_all (fun (p2, f2) -> String.equal p1 p2 = String.equal f1 f2) nodes)
              nodes))

(* A machine for the maintained key's corner cases, on a write buffer
   that buffers uncached stores. Before the root: process 1's data page
   is written and unmapped (its frame goes back to the free list), and
   process 2's page holds 7 at word 0. Process 1 then allocates a page
   with sys_sbrk, which recycles that frame and zero-fills it whole (the
   zero page is re-shared over a page that differs from the
   baseline's), stores to it, prints, and runs a DMA; process 2 stores
   its page's own word back (the page diverges with equal content) and
   runs a DMA. [key_corners_apart] also returns a baseline that
   allocated and wrote the frame process 1's sys_sbrk will take, so
   there the re-shared zero page differs from the baseline's page. *)
let key_corners () =
  let module Asm = Uldma_cpu.Asm in
  let kernel =
    Kernel.create
      {
        Kernel.default_config with
        Kernel.ram_size = 64 * Uldma_mem.Layout.page_size;
        mechanism = Engine.Ext_shadow;
        write_buffer = Uldma_bus.Write_buffer.Bypass { forward = true; collapse = true };
      }
  in
  let spawn name body =
    let p = Kernel.spawn kernel ~name ~program:[||] () in
    let page () = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
    let src = page () and dst = page () in
    (match Kernel.alloc_dma_context kernel p with
    | Some _ -> ()
    | None -> Alcotest.fail "no free register context");
    List.iter
      (fun va -> ignore (Kernel.map_shadow_alias kernel p ~vaddr:va ~n:1 ~window:`Dma : int))
      [ src; dst ];
    let asm = Asm.create () in
    body p asm;
    Asm.li asm 1 src;
    Asm.li asm 2 dst;
    Asm.li asm 3 Scenario.transfer_size;
    Uldma.Ext_shadow.emit_dma asm;
    Asm.halt asm;
    Process.set_program p (Asm.assemble asm);
    p
  in
  let p1 =
    spawn "sbrk" (fun p asm ->
        let scratch = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
        Kernel.write_user kernel p scratch 0x5eed;
        Kernel.unmap_pages kernel p ~vaddr:scratch ~n:1;
        Asm.li asm 0 Sysno.sys_sbrk;
        Asm.li asm 1 1;
        Asm.syscall asm;
        Asm.li asm 4 9;
        Asm.store asm ~base:0 ~off:8 4;
        Asm.li asm 0 Sysno.sys_print;
        Asm.li asm 1 42;
        Asm.syscall asm)
  in
  let p2 =
    spawn "same" (fun p asm ->
        let own = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
        Kernel.write_user kernel p own 7;
        Asm.li asm 5 own;
        Asm.load asm 4 ~base:5 ~off:0;
        Asm.store asm ~base:5 ~off:0 4)
  in
  {
    Scenario.kernel;
    victim = p1;
    attacker = p2;
    intents = [];
    victim_result_va = 0;
    attacker_result_va = None;
    extras = [];
    transfer_size = Scenario.transfer_size;
    labels = [];
  }

(* The paranoid key is exact because of one property: a state's keyed
   words are written as (slot, word) pairs, each slot once and in slot
   order, and what enters as text is written whole. So on machines
   that between them fill every keyed component (fig5's Three matcher;
   the IOMMU's IOTLB; capio's capability table with transfers in flight
   at atm155; waiters' sleepers; key_corners' write buffer, console and
   free list), after random legs: the machine's enumeration ascends
   strictly by slot; replacing any one enumerated word by another value
   changes the term stream; and changing one table entry through the
   engine (a capability grant, a mapped-out entry, an outbound packet),
   one RAM word or one instruction of a live program changes the whole
   paranoid key. *)
let paranoid_key_injective =
  let atm155 = Uldma_net.Backend.linked Uldma_net.Link.atm155 in
  let machines =
    [|
      (fun () -> Scenario.fig5 ());
      (fun () -> Scenario.iommu_contested ());
      (fun () -> Scenario.capio_contested ~net:atm155 ());
      (fun () -> waiters ());
      key_corners;
    |]
  in
  let terms root k =
    let l = ref [] in
    Kernel.iter_terms ~relative_to:root (fun slot w -> l := (slot, w) :: !l) k;
    List.rev !l
  in
  let stream l =
    let b = Buffer.create 256 in
    Uldma_util.Enc.terms (Uldma_util.Enc.Buf b)
      (fun f l -> List.iter (fun (slot, w) -> f slot w) l)
      l;
    Buffer.contents b
  in
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
    | [ _ ] | [] -> true
  in
  (* one table entry, RAM word or instruction changed on [k]; the
     tables change through the engine, which keeps their terms *)
  let perturb k which v =
    let e = Kernel.engine k in
    let store paddr value =
      ignore (Engine.device.Uldma_bus.Bus.handle e Uldma_bus.Txn.Store ~paddr ~value ~pid:1 : int)
    in
    let control offset = Uldma_mem.Layout.kernel_control_page + offset in
    match which with
    | 0 ->
      (* grant value 0x5000 + v over [0, 64) to context 0 of pid 1, read-write *)
      store (control Regmap.k_cap_value) (0x5000 + v);
      store (control Regmap.k_cap_len) 64;
      store (control Regmap.k_cap_commit) (0x300 lor (1 lsl 16))
    | 1 -> Engine.map_out e ~src_page:(v land 15) ~dst_page:(16 + (v land 15))
    | 2 -> store (Uldma_mem.Layout.remote_base + (8 * (v land 63))) v
    | 3 ->
      let ram = Kernel.ram k in
      let a = 8 * (v land 0xfff) in
      Uldma_mem.Phys_mem.store_word ram a (Uldma_mem.Phys_mem.load_word ram a + 1)
    | _ -> (
      match List.filter Process.is_runnable (Kernel.processes k) with
      | p :: _ ->
        let program = Array.copy p.Process.ctx.Uldma_cpu.Cpu.program in
        let pc = max 0 (min p.Process.ctx.Uldma_cpu.Cpu.pc (Array.length program - 1)) in
        if Array.length program > 0 then begin
          program.(pc) <- Uldma_cpu.Isa.Li (30, v + 1);
          let saved = p.Process.ctx.Uldma_cpu.Cpu.pc in
          Process.set_program p program;
          p.Process.ctx.Uldma_cpu.Cpu.pc <- saved
        end
      | [] -> ())
  in
  let gen =
    QCheck2.Gen.(
      pair
        (pair (int_range 0 (Array.length machines - 1)) (list_size (int_range 0 8) (int_range 0 3)))
        (triple nat (int_range 0 4) (int_range 0 0xffff)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"paranoid key: one changed word or table entry changes the key"
       ~count:200 gen
       (fun ((i, choices), (pick, which, v)) ->
         let s = machines.(i) () in
         let root = s.Scenario.kernel in
         let k = Kernel.snapshot root in
         List.iter
           (fun c ->
             match Kernel.runnable_pids k with
             | [] -> ()
             | pids ->
               ignore
                 (Explorer.advance_one_leg k (List.nth pids (c mod List.length pids))
                    ~max_instructions:2000
                   : [> `Progress ]))
           choices;
         let l = terms root k in
         let j = pick mod List.length l in
         let changed =
           List.mapi
             (fun n (slot, w) -> if n = j then (slot, if w = v then w + 1 else v) else (slot, w))
             l
         in
         let before = Kernel.state_encoding ~relative_to:root k in
         let k' = Kernel.snapshot k in
         perturb k' which v;
         let runnable = Kernel.runnable_pids k <> [] in
         ascending l
         && stream changed <> stream l
         && (which = 4 && not runnable
            || not (String.equal before (Kernel.state_encoding ~relative_to:root k')))))

(* The engine's tables against their enumeration, on a CAPIO and an
   extended-shadow machine, over random sequences of: capability grants
   (control-page stores); the four revocations (by value, by a
   context's key rotation, on process exit, on unmap); map-outs,
   through the control page and directly; remote stores, remote DMA
   and remote atomics (the CAPIO engine rejects the atomics: it has no
   shadow window); and drains of the outbound queue. After every step
   the machine's maintained digest equals the sum of its enumerated
   terms. At random steps the step runs on a snapshot instead, and the
   parent's key and digest must not move. *)
let table_upkeep_schedules =
  let module Layout = Uldma_mem.Layout in
  let machine mechanism =
    let k = Scenario.make_kernel mechanism in
    let p = Kernel.spawn k ~name:"p" ~program:[||] () in
    let va = Kernel.alloc_pages k p ~n:4 ~perms:Uldma_mem.Perms.read_write in
    (match Kernel.alloc_dma_context k p with
    | Some _ -> ()
    | None -> Alcotest.fail "no free register context");
    (k, p.Process.pid, va)
  in
  let store k paddr value = Uldma_bus.Bus.store (Kernel.bus k) ~pid:1 ~cacheable:false paddr value in
  let control k offset value = store k (Layout.kernel_control_page + offset) value in
  let step (k, pid, va) (op, v) =
    let e = Kernel.engine k in
    let p = Option.get (Kernel.find_process k pid) in
    let ctx = Option.value p.Process.dma_context ~default:0 in
    let page = va + (Layout.page_size * (v land 3)) and remote = Layout.remote_base + (8 * (v land 63)) in
    match op with
    | 0 ->
      ignore
        (Kernel.grant_dma_cap k p ~vaddr:page ~len:(1 + (v land 0x1fff))
           ~rights:(if v land 1 = 0 then Uldma_mem.Perms.read_write else Uldma_mem.Perms.read_only)
          : int option)
    | 1 -> (
      match Engine.capabilities e with
      | [] -> control k Regmap.k_cap_revoke v
      | caps -> control k Regmap.k_cap_revoke (List.nth caps (v mod List.length caps)).Capability.value)
    | 2 -> control k (Regmap.k_key_base + (8 * ctx)) (v + 1)
    | 3 -> Engine.revoke_caps_pid e ~pid
    | 4 -> Kernel.unmap_pages k p ~vaddr:page ~n:1
    | 5 -> (
      try Kernel.map_out_page k p ~vaddr:page ~dst_paddr:(Layout.page_size * (8 + (v land 7)))
      with Failure _ -> (* the page was unmapped *) ())
    | 6 -> Engine.map_out e ~src_page:(Layout.page_size * (v land 7)) ~dst_page:(v land 0xfff0)
    | 7 -> store k remote v
    | 8 ->
      control k Regmap.k_source 0;
      control k Regmap.k_dest remote;
      control k Regmap.k_size (1 + (v land 31))
    | 9 ->
      control k (Regmap.k_mailbox_base + (8 * ctx)) 0x100;
      let alias = Uldma_mmu.Shadow.encode_atomic ~context:ctx remote in
      (match v mod 3 with
      | 0 -> store k alias (Atomic_op.encode_add v)
      | 1 -> store k alias (Atomic_op.encode_fetch_store v)
      | _ ->
        store k alias (Atomic_op.encode_cas_expected v);
        store k alias (Atomic_op.encode_cas_new (v + 1)));
      ignore (Uldma_bus.Bus.load (Kernel.bus k) ~pid:1 ~cacheable:false alias : int)
    | _ -> ignore (Engine.take_outbound e : Engine.outbound_packet list)
  in
  let consistent k = Kernel.digest k = Uldma_util.Fp128.sum_terms Kernel.iter_terms k in
  let gen =
    QCheck2.Gen.(
      pair bool (list_size (int_range 1 40) (triple (int_range 0 10) (int_range 0 0xffff) bool)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"engine tables: maintained terms over random table writes" ~count:200
       gen
       (fun (capio, steps) ->
         let k, pid, va = machine (if capio then Engine.Capio else Engine.Ext_shadow) in
         let k = ref k in
         List.for_all
           (fun (op, v, fork) ->
             if fork then begin
               let parent = !k in
               let before = Kernel.state_encoding parent and digest = Kernel.digest parent in
               k := Kernel.snapshot parent;
               step (!k, pid, va) (op, v);
               consistent !k
               && String.equal before (Kernel.state_encoding parent)
               && Kernel.digest parent = digest
             end
             else begin
               step (!k, pid, va) (op, v);
               consistent !k
             end)
           steps))

(* A pc and access count that do not both fit 31 bits fold as two
   values of their own; moving between the packed and the wide form,
   keying the text and replacing the program must keep the digest equal
   to the sum of the process's enumerated terms, and distinct positions
   must digest apart. *)
let test_process_fold_wide () =
  let open Uldma_cpu.Isa in
  let p = Process.make ~pid:3 ~name:"wide" ~program:[| Nop; Nop; Halt |] ~superuser:false in
  let acc = [| 0; 0 |] in
  let fold ?(text = false) pc access =
    p.Process.ctx.Uldma_cpu.Cpu.pc <- pc;
    Process.fold_key p ~access ~text acc;
    checkb (Printf.sprintf "pc %d, access %d" pc access) true
      (Process.digest p = Uldma_util.Fp128.sum_terms (Process.iter_terms ~access ~text) p);
    Process.digest p
  in
  let small = fold 1 2 in
  let wide = fold 1 (1 lsl 40) in
  let wide_pc = fold (-1) 2 in
  checkb "wide access digests apart" true (small <> wide && wide <> wide_pc && small <> wide_pc);
  checkb "back to the packed form" true (fold 1 2 = small);
  let keyed = fold ~text:true 1 2 in
  checkb "keyed text digests apart" true (keyed <> small);
  Process.set_program p [| Li (1, 5); Halt |];
  checkb "a new program's text" true (fold ~text:true 1 2 <> keyed);
  ignore (fold 0 0 : int * int)

let key_corners_apart () =
  let s = key_corners () in
  let a = s.Scenario.kernel in
  let baseline = Kernel.snapshot a in
  (match Kernel.find_process baseline s.Scenario.victim.Process.pid with
  | Some p ->
    let va = Kernel.alloc_pages baseline p ~n:1 ~perms:Uldma_mem.Perms.read_write in
    Kernel.write_user baseline p va 0x99
  | None -> Alcotest.fail "no victim");
  (Kernel.snapshot a, baseline, Scenario.explore_pids s)

(* The maintained key against the key rebuilt from scratch
   (Kernel.scratch_fingerprint: the sum of every enumerated term and a
   walk over the touched pages), at every node of random leg
   schedules, with a child snapshot taken and advanced at random nodes
   (it inherits every maintained sum). The machines cover every
   mechanism at Null and at atm155, including sleepers and in-flight
   transfers; campaign candidates whose baseline is not the root (an
   accomplice program, and RAM written on the root before the first
   key); and the corner cases of [key_corners], once with a baseline
   that is not the root's ancestor. *)
let state_key_maintained_equals_scratch =
  let atm155 = Uldma_net.Backend.linked Uldma_net.Link.atm155 in
  let of_scenario build () =
    let s = build () in
    (s.Scenario.kernel, s.Scenario.kernel, Scenario.explore_pids s)
  in
  let candidate ?net subject j () =
    let module Synth = Uldma_workload.Synth in
    let base = Synth.make_base ?net subject in
    let s = Synth.base_scenario base in
    let ops = Synth.enumerate ~slots:2 () in
    let c = Synth.candidate base ops.(j mod Array.length ops) in
    let root = c.Uldma_verify.Campaign.c_root in
    (* RAM diverged before the exploration starts *)
    (match Kernel.find_process root s.Scenario.victim.Process.pid with
    | Some p -> Kernel.write_user root p s.Scenario.victim_result_va 0x77
    | None -> ());
    (root, s.Scenario.kernel, Scenario.explore_pids s)
  in
  let subjects =
    Uldma_workload.Synth.[ Rep Seq_matcher.Three; Pal; Key; Ext; Iommu; Capio ]
  in
  let machines =
    Array.of_list
      ([
         of_scenario (fun () -> Scenario.rep5 ());
         of_scenario (fun () -> Scenario.key_contested ());
         of_scenario Scenario.ext_shadow_contested;
         of_scenario Scenario.ext_stateless_race;
         of_scenario (fun () -> Scenario.shrimp2_race ~hook:true);
         of_scenario (fun () -> Scenario.flash_race ~hook:true);
         of_scenario Scenario.pal_contested;
         of_scenario (fun () -> Scenario.iommu_contested ());
         of_scenario (fun () -> Scenario.capio_launder ());
         of_scenario (fun () -> Scenario.rep5 ~net:atm155 ());
         of_scenario (fun () -> Scenario.iommu_contested ~net:atm155 ());
         of_scenario (fun () -> Scenario.capio_contested ~net:atm155 ());
         of_scenario (fun () -> waiters ~n:3 ());
         of_scenario key_corners;
         key_corners_apart;
       ]
      @ List.concat_map
          (fun subject -> [ candidate subject 3; candidate ~net:atm155 subject 5 ])
          subjects)
  in
  let legs pids k =
    let live = Kernel.runnable_pids k in
    let runnable = List.filter (fun pid -> List.mem pid live) pids in
    match Kernel.next_transfer_deadline k with
    | Some _ -> runnable @ [ Explorer.wait_leg ]
    | None -> runnable
  in
  let advance k leg =
    if leg = Explorer.wait_leg then ignore (Kernel.advance_to_next_completion k : bool)
    else ignore (Explorer.advance_one_leg k leg ~max_instructions:2000 : [> `Progress ])
  in
  let agrees baseline k =
    Kernel.fingerprint ~relative_to:baseline k = Kernel.scratch_fingerprint ~relative_to:baseline k
  in
  let gen =
    QCheck2.Gen.(
      pair
        (int_range 0 (Array.length machines - 1))
        (list_size (int_range 0 10) (pair (int_range 0 3) bool)))
  in
  let print (i, steps) =
    let step (c, fork) = Printf.sprintf "%d%s" c (if fork then "f" else "") in
    Printf.sprintf "machine %d [%s]" i (String.concat ";" (List.map step steps))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"state key: maintained key equals the key rebuilt from scratch"
       ~count:300 ~print gen
       (fun (i, steps) ->
         let root, baseline, pids = machines.(i) () in
         let k = Kernel.snapshot root in
         let ok = ref (agrees baseline k) in
         List.iter
           (fun (c, fork) ->
             match legs pids k with
             | [] -> ()
             | ls ->
               let leg = List.nth ls (c mod List.length ls) in
               if fork then begin
                 let child = Kernel.snapshot k in
                 advance child leg;
                 ok := !ok && agrees baseline child
               end;
               advance k leg;
               ok := !ok && agrees baseline k)
           steps;
         !ok))

(* Key congruence: the memo may merge two arrivals only if every
   future is the same from both. A dedup walk over a small tree keys
   each arrival and records its outcome: at a terminal the oracle's
   verdict, else each leg's result and its child's key. An arrival
   whose key was seen is not expanded again, but its outcome must equal
   the first arrival's; by induction equal keys then root equal trees.
   The machines cover every mechanism with a scenario at Null and the
   timed ones at atm155, context-switch hooks, a write buffer that
   holds entries across legs ([key_corners]) and sleepers at Null and
   at atm155. Returns (states, repeated arrivals, incongruent ones). *)
let key_congruence ~root ~pids ~check =
  let key k =
    let a, b, _ = Kernel.fingerprint ~relative_to:root k in
    (a, b)
  in
  let legs k =
    let live = Kernel.runnable_pids k in
    let runnable = List.filter (fun pid -> List.mem pid live) pids in
    match Kernel.next_transfer_deadline k with
    | Some _ -> runnable @ [ Explorer.wait_leg ]
    | None -> runnable
  in
  let seen = Hashtbl.create 1024 and repeats = ref 0 and bad = ref 0 in
  let rec visit k =
    let kk = key k in
    let outcome () =
      match legs k with
      | [] -> (Option.map Oracle.kind_name (check k), [])
      | ls ->
        ( None,
          List.map
            (fun leg ->
              let child = Kernel.snapshot k in
              let r =
                if leg = Explorer.wait_leg then
                  if Kernel.advance_to_next_completion child then `Progress else `Stuck
                else Explorer.advance_one_leg child leg ~max_instructions:2000
              in
              (leg, r, key child, child))
            ls )
    in
    let strip (verdict, kids) = (verdict, List.map (fun (leg, r, ck, _) -> (leg, r, ck)) kids) in
    match Hashtbl.find_opt seen kk with
    | Some first ->
      incr repeats;
      if strip (outcome ()) <> first then incr bad
    | None ->
      let ((_, kids) as o) = outcome () in
      Hashtbl.add seen kk (strip o);
      List.iter
        (fun (_, r, _, child) -> match r with `Progress | `Exited -> visit child | `Stuck -> ())
        kids
  in
  visit (Kernel.snapshot root);
  (Hashtbl.length seen, !repeats, !bad)

let test_key_congruence () =
  let atm155 = Uldma_net.Backend.linked Uldma_net.Link.atm155 in
  let of_scenario ?(oracle = true) name build =
    ( name,
      fun () ->
        let s = build () in
        ( s.Scenario.kernel,
          Scenario.explore_pids s,
          if oracle then Scenario.oracle_check s else fun _ -> None ) )
  in
  let timed (name, build) =
    [
      of_scenario name (fun () -> build None);
      of_scenario (name ^ "@atm155") (fun () -> build (Some atm155));
    ]
  in
  let machines =
    [
      of_scenario "fig6" Scenario.fig6;
      of_scenario "shrimp2" (fun () -> Scenario.shrimp2_race ~hook:false);
      of_scenario "shrimp2+hook" (fun () -> Scenario.shrimp2_race ~hook:true);
      of_scenario "flash" (fun () -> Scenario.flash_race ~hook:false);
      of_scenario "flash+hook" (fun () -> Scenario.flash_race ~hook:true);
      of_scenario "ext-stateless" Scenario.ext_stateless_race;
      of_scenario "ext-shadow" Scenario.ext_shadow_contested;
      of_scenario "pal" Scenario.pal_contested;
      of_scenario "rep5-retry" Scenario.rep5_with_retry;
      of_scenario "rep5-splice" Scenario.rep5_splice;
      of_scenario "key-3" (Scenario.key_contested3 ~victim_repeat:1 ~tenant_repeat:1);
      of_scenario "ext-shadow-3" (Scenario.ext_shadow_contested3 ~victim_repeat:1 ~tenant_repeat:1);
      of_scenario "iommu-3" (Scenario.iommu_contested3 ~victim_repeat:1 ~tenant_repeat:1);
      of_scenario "capio-3" (Scenario.capio_contested3 ~victim_repeat:1 ~tenant_repeat:1);
      of_scenario ~oracle:false "bypass write buffer" key_corners;
      (* a sleep no tree outlasts, so each switch's charge stays in the
         remaining sleep instead of running out at zero *)
      of_scenario ~oracle:false "sleepers" (fun () ->
          waiters ~n:3 ~net:Uldma_net.Backend.null ~sleep_ns:1_000_000 ());
      of_scenario ~oracle:false "sleepers@atm155" (fun () -> waiters ());
      (* which transfer is newest decides what the waiter waits for *)
      of_scenario "newest-wait@atm155" (fun () -> Scenario.newest_wait ~net:atm155 ());
    ]
    @ List.concat_map timed
        [
          ("fig5", fun net -> Scenario.fig5 ?net ());
          ("rep5", fun net -> Scenario.rep5 ?net ());
          ("key", fun net -> Scenario.key_contested ?net ());
          ("iommu", fun net -> Scenario.iommu_contested ?net ());
          ("capio", fun net -> Scenario.capio_contested ?net ());
          ("iommu-fig5", fun net -> Scenario.iommu_fig5 ?net ());
          ("capio-fig5", fun net -> Scenario.capio_fig5 ?net ());
          ("capio-launder", fun net -> Scenario.capio_launder ?net ());
        ]
  in
  let repeats =
    List.fold_left
      (fun total (name, build) ->
        let root, pids, check = build () in
        let states, repeats, bad = key_congruence ~root ~pids ~check in
        if bad > 0 then
          Alcotest.failf "%s: %d of %d repeated arrivals (%d states) reach different futures" name
            bad repeats states;
        total + repeats)
      0 machines
  in
  checkb "arrivals repeat" true (repeats > 0)

(* The fingerprint key hashes only engine-visible state: two
   independently built copies of a scenario agree, and advancing one
   NI-access leg changes it while leaving the root's untouched. *)
let test_kernel_fingerprint_stability () =
  let a = (Scenario.rep5 ()).Scenario.kernel and b = (Scenario.rep5 ()).Scenario.kernel in
  let key k = fst (Kernel.state_key ~paranoid:false k) in
  Alcotest.(check string) "identical builds encode identically"
    (Kernel.state_encoding a) (Kernel.state_encoding b);
  Alcotest.(check string) "identical builds key identically" (key a) (key b);
  let before = key a in
  let fork = Kernel.snapshot a in
  Alcotest.(check string) "snapshot leaves the key alone" before (key a);
  (match Explorer.advance_one_leg fork 1 ~max_instructions:2000 with
  | `Progress | `Exited -> ()
  | `Stuck -> Alcotest.fail "unexpected stuck leg");
  checkb "a leg changes the fork's key" false (String.equal before (key fork));
  Alcotest.(check string) "...but not the root's" before (key a);
  (* the root-relative encoding starts empty on the RAM side and grows
     only with diverged pages, so it stays much shorter than the
     absolute one *)
  checkb "relative encoding is compact" true
    (String.length (Kernel.state_encoding ~relative_to:a fork)
    < String.length (Kernel.state_encoding fork))

(* Program text is part of the key, relative to the baseline. On one
   machine state (the pal cell's base, snapshotted) the accomplice gets
   programs that differ only in their first instruction: at pc 1 their
   straight-line suffixes are equal and so are the keys, at pc 0 they
   differ. A branch makes the whole program the residual text, so two
   branchy programs with equal suffixes from pc keep different keys,
   and either differs from the untouched snapshot. A program that is
   physically the baseline's feeds nothing: reinstalling the victim's
   own array leaves the key and its byte count as they were, while an
   equal copy of it costs bytes. Both key modes. *)
let test_state_key_program_text () =
  let module Synth = Uldma_workload.Synth in
  let base = Synth.make_base Synth.Pal in
  let s = Synth.base_scenario base in
  let baseline = s.Scenario.kernel in
  (* the base spawns the accomplice last *)
  let accomplice = (List.hd (List.rev (Kernel.processes baseline))).Process.pid in
  let victim = s.Scenario.victim.Process.pid in
  let open Uldma_cpu.Isa in
  let with_program pid program ~pc =
    let k = Kernel.snapshot baseline in
    (match Kernel.find_process k pid with
    | Some p ->
      Process.set_program p program;
      p.Process.ctx.Uldma_cpu.Cpu.pc <- pc
    | None -> Alcotest.fail "no such process");
    k
  in
  let straight first = [| Li (1, first); Nop; Halt |] in
  let branchy first = [| Li (1, first); Jmp 2; Halt |] in
  let victim_program =
    (Option.get (Kernel.find_process baseline victim)).Process.ctx.Uldma_cpu.Cpu.program
  in
  List.iter
    (fun paranoid ->
      let mode = if paranoid then "paranoid" else "fingerprint" in
      let key k = Kernel.state_key ~relative_to:baseline ~paranoid k in
      let same what a b = Alcotest.(check string) (mode ^ ": " ^ what) (fst (key a)) (fst (key b)) in
      let differ what a b = checkb (mode ^ ": " ^ what) false (String.equal (fst (key a)) (fst (key b))) in
      same "equal straight-line suffixes"
        (with_program accomplice (straight 5) ~pc:1)
        (with_program accomplice (straight 7) ~pc:1);
      differ "different straight-line suffixes"
        (with_program accomplice (straight 5) ~pc:0)
        (with_program accomplice (straight 7) ~pc:0);
      differ "branchy programs, equal suffixes"
        (with_program accomplice (branchy 5) ~pc:1)
        (with_program accomplice (branchy 7) ~pc:1);
      let untouched = Kernel.snapshot baseline in
      differ "a branchy program against the baseline's"
        (with_program accomplice (branchy 5) ~pc:1)
        untouched;
      let shared = with_program victim victim_program ~pc:0 in
      same "the baseline's own program" shared untouched;
      checki (mode ^ ": the baseline's own program adds 0 bytes") (snd (key untouched))
        (snd (key shared));
      (* a copy of the baseline's program is not the baseline's: the
         paranoid key streams its text, the fingerprint folds the text's
         digest into the process's *)
      let copied = with_program victim (Array.copy victim_program) ~pc:0 in
      if paranoid then
        checkb (mode ^ ": an equal copy of it adds bytes") true
          (snd (key copied) > snd (key untouched))
      else differ "an equal copy of it is keyed" copied untouched)
    [ false; true ]

let test_advance_one_leg () =
  let s = Scenario.rep5 () in
  let kernel = Kernel.copy s.Scenario.kernel in
  (* one leg = up to and including the process's next NI access *)
  (match Explorer.advance_one_leg kernel s.Scenario.victim.Process.pid ~max_instructions:500 with
  | `Progress -> ()
  | `Exited | `Stuck -> Alcotest.fail "expected progress");
  checkb "victim still mid-stub" true
    (List.mem s.Scenario.victim.Process.pid (Kernel.runnable_pids kernel))

(* The leg the explorer runs before legs were one kernel call: one
   [Kernel.step_pid] per instruction, with the budget tested before
   each step and progress (the pid's uncached-access count growing)
   after it. *)
let reference_leg kernel pid ~max_instructions =
  let accesses () = Uldma_bus.Bus.pid_access_count (Kernel.bus kernel) pid in
  let start = accesses () in
  let rec loop n =
    if n >= max_instructions then `Stuck
    else
      match Kernel.step_pid kernel pid with
      | `Not_runnable -> `Exited
      | `Ok -> if accesses () > start then `Progress else loop (n + 1)
  in
  loop 0

(* [s] plus two processes that fault: one loads a read-only page (a TLB
   miss, then a hit) and stores to it, one loads an unmapped address. *)
let with_faulters (s : Scenario.t) =
  let k = s.Scenario.kernel in
  let spawn name body =
    let p = Kernel.spawn k ~name ~program:[||] () in
    let va = Kernel.alloc_pages k p ~n:1 ~perms:Uldma_mem.Perms.read_only in
    Process.set_program p (Uldma_cpu.Asm.assemble_list (body va));
    p.Process.pid
  in
  let open Uldma_cpu.Isa in
  let a =
    spawn "protection" (fun va ->
        [ Li (1, va); Load (2, 1, 0); Load (3, 1, 8); Store (1, 0, 2); Halt ])
  in
  let b = spawn "unmapped" (fun _ -> [ Li (1, 0x3f00_0000); Nop; Load (2, 1, 0); Halt ]) in
  (s, Scenario.explore_pids s @ [ a; b ])

(* [Explorer.advance_one_leg] (one kernel call per leg) against
   [reference_leg] over random leg schedules: after every leg both
   copies agree on the leg's outcome, the clock, the full paranoid
   encoding and every counter (instructions, syscalls, context
   switches, per-pid bus counts), for budgets of 1, 2 and 2000
   instructions. Wait legs advance both copies alike. *)
let explorer_leg_equivalence =
  let atm155 = Uldma_net.Backend.linked Uldma_net.Link.atm155 in
  let plain build () =
    let s = build () in
    (s, Scenario.explore_pids s)
  in
  let scenarios =
    [|
      ("key-3", plain (fun () -> Scenario.key_contested3 ()));
      ("ext-shadow-3", plain (fun () -> Scenario.ext_shadow_contested3 ()));
      ("rep5-3", plain Scenario.rep5_contested3);
      ("fig5", plain (fun () -> Scenario.fig5 ()));
      ("pal", plain Scenario.pal_contested);
      ("iommu@atm155", plain (fun () -> Scenario.iommu_contested ~net:atm155 ()));
      ("capio@atm155", plain (fun () -> Scenario.capio_contested ~net:atm155 ()));
      ("faulters", fun () -> with_faulters (Scenario.rep5 ()));
    |]
  in
  let budgets = [| 1; 2; 2000 |] in
  let counters k =
    let c = Kernel.counter_snapshot k in
    List.map (fun n -> (n, Uldma_obs.Counters.value c n)) (Uldma_obs.Counters.counter_names c)
  in
  let same root a b =
    Kernel.now_ps a = Kernel.now_ps b
    && String.equal (Kernel.state_encoding ~relative_to:root a)
         (Kernel.state_encoding ~relative_to:root b)
    && counters a = counters b
  in
  let legs pids k =
    let live = Kernel.runnable_pids k in
    let runnable = List.filter (fun pid -> List.mem pid live) pids in
    match Kernel.next_transfer_deadline k with
    | Some _ -> runnable @ [ Explorer.wait_leg ]
    | None -> runnable
  in
  let gen =
    QCheck2.Gen.(
      triple
        (int_range 0 (Array.length scenarios - 1))
        (int_range 0 (Array.length budgets - 1))
        (int_range 0 1_000_000))
  in
  let print (i, b, seed) =
    Printf.sprintf "%s budget %d seed %d" (fst scenarios.(i)) budgets.(b) seed
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"explorer: one-call leg equals the step_pid reference" ~count:120
       ~print gen
       (fun (i, b, seed) ->
         let s, pids = (snd scenarios.(i)) () in
         let root = s.Scenario.kernel in
         let max_instructions = budgets.(b) in
         let rng = Uldma_util.Rng.create ~seed in
         let a = Kernel.snapshot root and r = Kernel.snapshot root in
         let rec walk n =
           n = 0
           ||
           match legs pids a with
           | [] -> true
           | choices ->
             let leg = List.nth choices (Uldma_util.Rng.int rng (List.length choices)) in
             let agree =
               if leg = Explorer.wait_leg then
                 Kernel.advance_to_next_completion a = Kernel.advance_to_next_completion r
               else
                 Explorer.advance_one_leg a leg ~max_instructions
                 = reference_leg r leg ~max_instructions
             in
             agree && same root a r && walk (n - 1)
         in
         walk 300))

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

let fig5_timeline () =
  let s = Scenario.traced Scenario.fig5 in
  Scenario.run_legs s Scenario.fig5_schedule;
  Scenario.finish s ();
  (s, Scenario.access_timeline s)

let test_timeline_reproduces_fig5 () =
  let _, timeline = fig5_timeline () in
  let rendered = List.map (fun (_, actor, access) -> (actor, access)) timeline in
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

(* a --trace run renders the diagram from the ambient sink, which
   already holds other kernels' accesses: the machine filter must keep
   exactly fig5's own *)
let test_timeline_shared_sink () =
  let _, private_timeline = fig5_timeline () in
  let ambient = Trace.create () in
  let s, shared_timeline =
    Trace.with_ambient ambient (fun () ->
        let other = Scenario.traced Scenario.fig6 in
        Scenario.finish other ();
        fig5_timeline ())
  in
  checkb "fig5 wrote into the ambient sink" true (Kernel.trace s.Scenario.kernel == ambient);
  checkb "another kernel's accesses precede it" true
    (List.exists
       (fun (r : Trace.record) ->
         r.Trace.machine <> Kernel.machine_id s.Scenario.kernel
         && match r.Trace.kind with Trace.Uncached_access _ -> r.Trace.pid >= 0 | _ -> false)
       (Trace.events ambient));
  checkb "same timeline as on a private sink" true (shared_timeline = private_timeline);
  let untraced = Scenario.fig5 () in
  Scenario.finish untraced ();
  Alcotest.check_raises "an untraced scenario has no timeline"
    (Invalid_argument "Scenario.access_timeline: the kernel's trace sink is disabled (see traced)")
    (fun () -> ignore (Scenario.access_timeline untraced))

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
          (Uldma.Session.Stub.build_repeat ~n:20 ~vsrc:src ~vdst:dst ~size:128 ~result_va
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
        (p.Process.pid, Uldma.Session.Stub.read_successes kernel p ~result_va) :: !reported)
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
        (Uldma.Session.Stub.build_repeat ~n:20 ~vsrc:src ~vdst:dst ~size:128 ~result_va
           ~emit_dma:prepared.Uldma.Mech.emit_dma);
      finished := (p, result_va) :: !finished)
    [ "user1"; "user2"; "user3" ];
  ignore (Kernel.run kernel ~max_steps:2_000_000 () : Kernel.run_result);
  List.iter
    (fun ((p : Process.t), result_va) ->
      checki
        (p.Process.name ^ " all succeeded")
        20
        (Uldma.Session.Stub.read_successes kernel p ~result_va))
    !finished;
  checki "60 transfers" 60 (List.length (Engine.transfers (Kernel.engine kernel)))

(* ------------------------------------------------------------------ *)
(* Campaign engine: cross-candidate shared memoization *)

module Synth = Uldma_workload.Synth
module Campaign = Uldma_verify.Campaign

(* Shared-memo exploration must be warmth-independent: accomplice
   programs of one base, explored in turn through one table (each
   warmed by the ones before it), each give their cold private result —
   identical path counts and violation lists — under one path budget
   or none. Results that are structurally equal came from the table's
   one store, so they are one list. The first failure is returned as a
   message. *)
let shared_vs_cold_case (subject, progs, max_paths) =
  let base = Synth.make_base subject in
  let s = Synth.base_scenario base in
  let pids = Scenario.explore_pids s in
  let check = Scenario.oracle_check s in
  let baseline = s.Scenario.kernel in
  (* candidates snapshot the base: build them sequentially *)
  let cands = List.map (Synth.candidate base) progs in
  let cold =
    List.map
      (fun (c : _ Campaign.candidate) ->
        Explorer.explore ~root:c.Campaign.c_root ~pids ?max_paths ~check ())
      cands
  in
  let sm = Explorer.create_shared () in
  let shared =
    List.map
      (fun (c : _ Campaign.candidate) ->
        Explorer.explore ~root:c.Campaign.c_root ~pids ~baseline ~shared:sm ?max_paths ~check ())
      cands
  in
  let failure = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !failure = None then failure := Some m) fmt in
  List.iteri
    (fun i ((r : _ Explorer.result), c) ->
      if Synth.result_facts r <> Synth.result_facts c then
        fail "candidate %d: shared differs from cold" i;
      List.iteri
        (fun j (r' : _ Explorer.result) ->
          if
            j < i
            && r.Explorer.violations != r'.Explorer.violations
            && r.Explorer.violations = r'.Explorer.violations
          then fail "candidates %d and %d: equal lists are two copies" j i)
        shared)
    (List.combine shared cold);
  !failure

let print_case (subject, progs, max_paths) =
  Printf.sprintf "%s: %s, max_paths %s" (Synth.subject_label subject)
    (String.concat " / " (List.map Synth.mnemonic progs))
    (match max_paths with Some b -> string_of_int b | None -> "default")

(* Random cases: programs are drawn from the raw (not canonicalised)
   grammar, so the memo also sees symmetric duplicates; the violating
   rep3, pal and ext-shadow bases make the store's nodes repeat within
   and across candidates, and a budget makes lists of equal length but
   different schedules likely. *)
let campaign_shared_vs_cold =
  let gen_ops =
    QCheck2.Gen.(
      list_size (int_range 1 3)
        (map2
           (fun store page -> if store then Synth.S page else Synth.L page)
           bool (int_range 0 1)))
  in
  let subjects =
    [ Synth.Rep Seq_matcher.Five; Synth.Rep Seq_matcher.Three; Synth.Pal; Synth.Ext ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"campaign: shared-memo vs cold equivalence" ~count:12 ~print:print_case
       QCheck2.Gen.(
         triple (oneofl subjects) (list_size (int_range 2 5) gen_ops) (opt (int_range 1 3000)))
       (fun case ->
         match shared_vs_cold_case case with
         | None -> true
         | Some m -> QCheck2.Test.fail_report m))

(* Fixed cases, each the shrunk counterexample of the random property
   against one wrong store: root lists reused by length (pal, budget
   1: equal lengths, different schedules), equal lists from one store
   made twice (ext-shadow: two equal lists, two copies), and a node
   taken for another content (rep3, clipped at 2362 paths). *)
let test_shared_vs_cold_cases () =
  List.iter
    (fun case ->
      match shared_vs_cold_case case with
      | None -> ()
      | Some m -> Alcotest.failf "%s: %s" (print_case case) m)
    Synth.
      [
        (Pal, [ [ L 0 ]; [ L 0; L 0 ]; [ L 0 ] ], Some 1);
        (Ext, [ [ L 0 ]; [ L 0 ]; [ L 0 ]; [ S 0 ] ], None);
        (Rep Seq_matcher.Three, [ [ L 0 ]; [ L 0 ] ], Some 2362);
      ]

(* The slots-2 family of [subject] through Campaign.run on table [sm]. *)
let slots2_on_table sm subject =
  let base = Synth.make_base subject in
  let s = Synth.base_scenario base in
  let candidates = Array.map (Synth.candidate base) (Synth.enumerate ~slots:2 ()) in
  Campaign.run ~candidates ~pids:(Scenario.explore_pids s) ~baseline:s.Scenario.kernel ~shared:sm
    ~check:(Scenario.oracle_check s) ()

(* A cell's results do not depend on what a reused table held before:
   the slots-2 rep5 cell gives the same results through Synth.run_cell's
   own table and through a table another cell (rep4) filled first —
   and, since the cell empties the table, the same states, hits and
   residency too. Warm-starting shows up as cross-candidate hits. The
   campaign runs on one domain: [jobs] other than 1 is refused. *)
let test_campaign_catalogue_stability () =
  let cr = Synth.run_cell ~slots:2 (Synth.Rep Seq_matcher.Five) in
  let fresh = Array.map Synth.result_facts cr.Synth.cr_results and stats = cr.Synth.cr_stats in
  let sm = Explorer.create_shared () in
  ignore (slots2_on_table sm (Synth.Rep Seq_matcher.Four) : _ * Campaign.stats);
  let reused, reused_stats = slots2_on_table sm (Synth.Rep Seq_matcher.Five) in
  let reused = Array.map Synth.result_facts reused in
  checki "family size" 10 (Array.length fresh);
  checkb "results identical on a reused table" true (fresh = reused);
  checki "states identical on a reused table" stats.Campaign.g_states
    reused_stats.Campaign.g_states;
  checki "hits identical on a reused table" stats.Campaign.g_hits reused_stats.Campaign.g_hits;
  checki "the cell's own entries only" stats.Campaign.g_memo_length
    (Explorer.shared_length sm);
  checkb "cross-candidate memo hits recorded" true (stats.Campaign.g_hits > 0);
  let base = Synth.make_base (Synth.Rep Seq_matcher.Five) in
  let baseline = (Synth.base_scenario base).Scenario.kernel in
  Alcotest.check_raises "jobs other than 1 rejected"
    (Invalid_argument "Campaign.run: jobs must be 1") (fun () ->
      ignore (Campaign.run ~candidates:[||] ~pids:[] ~baseline ~jobs:2 ~check:(fun _ -> None) ()))

(* The state key alone keeps candidates apart: the slots-2 pal family,
   explored in enumeration order through one table with only the
   baseline passed, gives every candidate its cold result. Keys that
   left program text out let S0.L0 hit S0's summaries (756 paths and
   660 violations instead of 2520 and 2310). *)
let test_campaign_pal_family_one_table () =
  let base = Synth.make_base Synth.Pal in
  let s = Synth.base_scenario base in
  let pids = Scenario.explore_pids s and check = Scenario.oracle_check s in
  let baseline = s.Scenario.kernel in
  let candidates = Array.map (Synth.candidate base) (Synth.enumerate ~slots:2 ()) in
  let sm = Explorer.create_shared () in
  Array.iter
    (fun (c : _ Campaign.candidate) ->
      let shared = Explorer.explore ~root:c.Campaign.c_root ~pids ~baseline ~shared:sm ~check () in
      let cold = Explorer.explore ~root:c.Campaign.c_root ~pids ~check () in
      checkb (c.Campaign.c_label ^ ": one table = cold") true
        (Synth.result_facts shared = Synth.result_facts cold);
      if c.Campaign.c_label = "S0.L0" then begin
        checki "S0.L0 paths" 2520 cold.Explorer.paths;
        checki "S0.L0 violations" 2310 (List.length cold.Explorer.violations)
      end)
    candidates

(* Clipping inside the violation region. At every budget a dedup run
   must equal the plain DFS clipped at the same budget: same [paths],
   same [truncated], same violations in the same order. Swept over every
   budget on the Fig. 5 tree (its hits reuse violating subtrees), and on
   a two-candidate campaign whose second candidate (pal, L1) reuses the
   first one's (L0) violating summaries. A hit is only taken when it
   fits the budget whole, so those sweeps check the re-expansion at the
   budget's edge. Two three-process shapes follow: the safe
   ext-shadow-3 tree (clipping only the count) and rep5-contested3 at
   the smallest budget that reaches its first violation. *)
let test_explorer_clipping_differential () =
  let same label b (on : _ Explorer.result) (off : _ Explorer.result) =
    let name what = Printf.sprintf "%s max_paths=%d %s" label b what in
    checki (name "paths") off.Explorer.paths on.Explorer.paths;
    checkb (name "truncated") off.Explorer.truncated on.Explorer.truncated;
    checkb (name "violations") true (canon_violations on = canon_violations off)
  in
  let fig5 () = Scenario.fig5 () in
  let full = explore fig5 in
  checkb "fig5 has violations to clip" true (full.Explorer.violations <> []);
  checkb "fig5 reuses subtrees" true (full.Explorer.dedup_hits > 0);
  for b = 1 to full.Explorer.paths do
    let off = explore_with ~dedup:false ~max_paths:b fig5 in
    same "fig5" b (explore_with ~max_paths:b fig5) off
  done;
  List.iter
    (fun (label, scenario, b, expect_viol) ->
      let on = explore_with ~max_paths:b scenario in
      checkb (label ^ " truncated") true on.Explorer.truncated;
      checki (label ^ " clipped exactly at budget") b on.Explorer.paths;
      checkb (label ^ " violation reached") expect_viol (on.Explorer.violations <> []);
      same label b on (explore_with ~dedup:false ~max_paths:b scenario))
    [
      ("ext-shadow-3", (fun () -> Scenario.ext_shadow_contested3 ()), 5_000, false);
      ("rep5-3", (fun () -> Scenario.rep5_contested3 ()), 20, true);
      ("rep5-3", (fun () -> Scenario.rep5_contested3 ()), 19, false);
    ];
  (* the campaign shape: L0 explored in full through a shared memo, then
     L1 at every budget through the same table; L1's earlier clipped
     runs warm it further, and warmth must never change a result *)
  let base = Synth.make_base Synth.Pal in
  let s = Synth.base_scenario base in
  let pids = Scenario.explore_pids s and check = Scenario.oracle_check s in
  let baseline = s.Scenario.kernel in
  let first = Synth.candidate base [ Synth.L 0 ] and second = Synth.candidate base [ Synth.L 1 ] in
  let sm = Explorer.create_shared () in
  let shared (c : _ Campaign.candidate) ?max_paths () =
    Explorer.explore ~root:c.Campaign.c_root ~pids ~baseline ~shared:sm ?max_paths ~check ()
  in
  ignore (shared first () : _ Explorer.result);
  let full = shared second () in
  let cold = Explorer.explore ~root:second.Campaign.c_root ~pids ~baseline ~check () in
  checkb "L1 reuses L0's summaries" true
    (full.Explorer.states_visited < cold.Explorer.states_visited);
  checkb "L1 has violations to clip" true (full.Explorer.violations <> []);
  for b = 1 to full.Explorer.paths do
    same "pal L1 after L0" b (shared second ~max_paths:b ())
      (Explorer.explore ~root:second.Campaign.c_root ~pids ~dedup:false ~max_paths:b ~check ())
  done

(* Clipping through a warm table and its store. The ext-shadow slots-1
   family (S0 and L0, 2,520 paths each, every path violating) is
   explored in full through one shared table; then both candidates run
   through that table at every budget, and each must equal the plain
   DFS clipped at the same budget. A [~dedup:false] run clipped at [b]
   meets exactly the first [b] terminals of the full one in the same
   order, so one full brute-force run per candidate, with each
   violation tagged by its terminal's index, gives the clipped answer
   at every budget; real clipped brute-force runs check that reading
   at a few budgets. *)
let test_clipping_warm_ext_slots1 () =
  let base = Synth.make_base Synth.Ext in
  let s = Synth.base_scenario base in
  let pids = Scenario.explore_pids s and check = Scenario.oracle_check s in
  let baseline = s.Scenario.kernel in
  let cands = Array.map (Synth.candidate base) (Synth.enumerate ~slots:1 ()) in
  let brute (c : _ Campaign.candidate) ?max_paths () =
    let terminal = ref 0 in
    let indexed k =
      let i = !terminal in
      incr terminal;
      Option.map (fun v -> (i, v)) (check k)
    in
    Explorer.explore ~root:c.Campaign.c_root ~pids ~dedup:false ?max_paths ~check:indexed ()
  in
  let canon vs = List.map (fun ((_, v), sched) -> (Oracle.kind_name v, sched)) vs in
  let full = Array.map (fun c -> brute c ()) cands in
  let prefix (r : _ Explorer.result) b =
    List.filter (fun ((i, _), _) -> i < b) r.Explorer.violations
  in
  let sm = Explorer.create_shared () in
  let shared (c : _ Campaign.candidate) ?max_paths () =
    Explorer.explore ~root:c.Campaign.c_root ~pids ~baseline ~shared:sm ?max_paths ~check ()
  in
  Array.iter (fun c -> ignore (shared c () : _ Explorer.result)) cands;
  checki "family size" 2 (Array.length cands);
  Array.iteri
    (fun j c ->
      let total = full.(j).Explorer.paths in
      checkb "every path violates" true (List.length full.(j).Explorer.violations = total);
      List.iter
        (fun b ->
          checkb
            (Printf.sprintf "%s max_paths=%d: the prefix reading" c.Campaign.c_label b)
            true
            (canon (brute c ~max_paths:b ()).Explorer.violations = canon (prefix full.(j) b)))
        [ 1; 2; total / 3; total - 1; total ])
    cands;
  for b = 1 to full.(0).Explorer.paths do
    Array.iteri
      (fun j c ->
        let r = shared c ~max_paths:b () and total = full.(j).Explorer.paths in
        let name what = Printf.sprintf "%s max_paths=%d %s" c.Campaign.c_label b what in
        checki (name "paths") (min b total) r.Explorer.paths;
        checkb (name "truncated") (b < total) r.Explorer.truncated;
        if canon_violations r <> canon (prefix full.(j) b) then
          Alcotest.failf "%s" (name "violations differ from the clipped plain DFS"))
      cands
  done

(* Violation storage is O(states) in the summaries: a summary
   references its violating children instead of copying their
   schedules. The table keeps its store until it is emptied, so what it
   holds beyond the results it returned is its summaries plus the
   store: the violation nodes, one per content, and the schedule trie
   with each node's kids and pairs, which grows with the distinct
   schedules. The ext-shadow slots-2 cell violates on every candidate
   (9240 violations for the longest, 11,760 distinct pairs); its 864
   summaries and their store hold 298.24 words per summary beyond the
   results. Summaries that copied every violating schedule below them
   cost over a thousand words per entry here. The bound is the measured
   value plus 10 %. *)
let test_memo_words_per_entry () =
  let sm = Explorer.create_shared () in
  let results, _ = slots2_on_table sm Synth.Ext in
  checkb "every candidate violates" true
    (Array.for_all (fun r -> r.Explorer.violations <> []) results);
  let entries = Explorer.shared_length sm in
  let words x = Obj.reachable_words (Obj.repr x) in
  let per_entry = float_of_int (words (sm, results) - words results) /. float_of_int entries in
  let limit = 328.1 in
  if per_entry > limit then
    Alcotest.failf
      "shared memo holds %.2f words per entry beyond its results over %d entries (limit %.1f)"
      per_entry entries limit

(* A private exploration interns into a store of its own, so its
   schedules share their tails through the store's trie whether or not
   it deduplicates. The rep5-3 tree's 1,407 violations retain 19.04
   words each with dedup on and 19.58 with it off (31.77 and 55.03
   when a private exploration copied its schedules). The bound is the
   measured value plus 10 %. *)
let test_private_schedule_tails () =
  List.iter
    (fun (dedup, limit) ->
      let r = explore_with ~dedup (fun () -> Scenario.rep5_contested3 ()) in
      let count = List.length r.Explorer.violations in
      let per_violation =
        float_of_int (Obj.reachable_words (Obj.repr r.Explorer.violations)) /. float_of_int count
      in
      if per_violation > limit then
        Alcotest.failf "dedup %b: %d violations retain %.2f words each (limit %.2f)" dedup count
          per_violation limit)
    [ (true, 20.94); (false, 21.54) ]

(* A shared table hash-conses what its explorations return: equal
   schedules, (violation, schedule) pairs and whole lists are one value
   across the cell. The ext-shadow slots-2 cell's 78,960 violations
   retain 2.03 words each (7.14 with only the suffix trie, 18.69 when
   every candidate copied its schedules): its 10 candidates return 2
   distinct lists over 11,760 distinct pairs. The bound is the measured
   value plus 10 %. Sharing the cells changes no result: each
   candidate's equals its cold standalone exploration. *)
let test_shared_schedule_words () =
  let sm = Explorer.create_shared () in
  let results, _ = slots2_on_table sm Synth.Ext in
  let violations = Array.map (fun r -> r.Explorer.violations) results in
  let count = Array.fold_left (fun n vs -> n + List.length vs) 0 violations in
  let per_violation =
    float_of_int (Obj.reachable_words (Obj.repr violations)) /. float_of_int count
  in
  let base = Synth.make_base Synth.Ext in
  let s = Synth.base_scenario base in
  let pids = Scenario.explore_pids s and check = Scenario.oracle_check s in
  let cold =
    Array.map
      (fun ops ->
        let c = Synth.candidate base ops in
        Explorer.explore ~root:c.Campaign.c_root ~pids ~check ())
      (Synth.enumerate ~slots:2 ())
  in
  Array.iteri
    (fun i r ->
      checkb (Printf.sprintf "candidate %d: shared = cold" i) true
        (Synth.result_facts r = Synth.result_facts cold.(i)))
    results;
  let limit = 2.23 in
  if per_violation > limit then
    Alcotest.failf "%d violations retain %.2f words each (limit %.2f)" count per_violation limit

(* Hash-consing across a cell, pair by pair: in the rep3 slots-2
   cell, every (violation, schedule) pair equal to an earlier
   one is that earlier pair, and every violation list equal to an
   earlier candidate's is that list — its 24,024 pairs hold 15,531
   distinct ones, and two of its candidates return equal lists. Each
   candidate still equals its cold explore. *)
let test_shared_pairs_physical () =
  let subject = Synth.Rep Seq_matcher.Three in
  let sm = Explorer.create_shared () in
  let results, _ = slots2_on_table sm subject in
  let pairs = Hashtbl.create 4096 and total = ref 0 and repeated_lists = ref 0 in
  Array.iteri
    (fun i (r : _ Explorer.result) ->
      List.iter
        (fun p ->
          incr total;
          match Hashtbl.find_opt pairs p with
          | Some q -> if q != p then Alcotest.failf "candidate %d: an equal pair is a copy" i
          | None -> Hashtbl.add pairs p p)
        r.Explorer.violations;
      for j = 0 to i - 1 do
        let earlier = results.(j).Explorer.violations in
        if r.Explorer.violations <> [] && earlier = r.Explorer.violations then begin
          incr repeated_lists;
          if earlier != r.Explorer.violations then
            Alcotest.failf "candidates %d and %d: equal lists are two copies" j i
        end
      done)
    results;
  checkb "pairs repeat across the cell" true (Hashtbl.length pairs < !total);
  checkb "a list repeats across the cell" true (!repeated_lists > 0);
  let base = Synth.make_base subject in
  let s = Synth.base_scenario base in
  let pids = Scenario.explore_pids s and check = Scenario.oracle_check s in
  Array.iteri
    (fun i ops ->
      let c = Synth.candidate base ops in
      let cold = Explorer.explore ~root:c.Campaign.c_root ~pids ~check () in
      checkb (Printf.sprintf "candidate %d: shared = cold" i) true
        (Synth.result_facts results.(i) = Synth.result_facts cold))
    (Synth.enumerate ~slots:2 ())

(* The started transfers are keyed as a multiset: starting the same
   completed transfers in two orders gives equal fingerprints and
   paranoid keys, and changing one field (source, destination, size,
   pid or register context) of one transfer changes both. Each transfer
   starts through the kernel control page or through an
   extended-shadow context's store/load pair, on snapshots of one Null
   machine; the first order is keyed after every start, so its keyed
   view is synced once per transfer, the second only at the end. *)
let start_order_unkeyed =
  let module Layout = Uldma_mem.Layout in
  let module Shadow = Uldma_mmu.Shadow in
  let start k (ctx, src, dst, size, pid) =
    let e = Kernel.engine k in
    let handle op paddr value = Engine.device.Uldma_bus.Bus.handle e op ~paddr ~value ~pid in
    let control offset value =
      ignore (handle Uldma_bus.Txn.Store (Layout.kernel_control_page + offset) value : int)
    in
    match ctx with
    | None ->
      control Regmap.k_source src;
      control Regmap.k_dest dst;
      control Regmap.k_size size;
      (* the argument registers keep the last arguments, keyed as they
         should be; zeroed, they leave only the transfer behind *)
      control Regmap.k_source 0;
      control Regmap.k_dest 0
    | Some c ->
      ignore (handle Uldma_bus.Txn.Store (Shadow.encode_ctx ~context:c dst) size : int);
      ignore (handle Uldma_bus.Txn.Load (Shadow.encode_ctx ~context:c src) 0 : int)
  in
  let gen_transfer =
    QCheck2.Gen.(
      map
        (fun ((ctx, src, dst), (size, pid)) -> (ctx, 64 * src, 64 * dst, size, pid))
        (pair
           (triple (opt (int_range 0 3)) (int_range 0 15) (int_range 16 31))
           (pair (int_range 1 64) (int_range 0 2))))
  in
  (* each transfer with a sort key for the second order, then which
     transfer and which field to change *)
  let gen =
    QCheck2.Gen.(
      pair (list_size (int_range 2 5) (pair gen_transfer nat)) (pair nat (int_range 0 4)))
  in
  (* field [f] of a transfer moved to another valid value *)
  let change (ctx, src, dst, size, pid) f =
    match f with
    | 0 -> (ctx, src + 8, dst, size, pid)
    | 1 -> (ctx, src, dst + 8, size, pid)
    | 2 -> (ctx, src, dst, size + 1, pid)
    | 3 -> (ctx, src, dst, size, pid + 1)
    | _ ->
      let ctx = match ctx with None -> Some 0 | Some 3 -> None | Some c -> Some (c + 1) in
      (ctx, src, dst, size, pid)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"state key: started transfers keyed as a multiset" ~count:200 gen
       (fun (transfers, (pick, field)) ->
         let root = Scenario.make_kernel Engine.Ext_shadow in
         let keys ~each order =
           let k = Kernel.snapshot root in
           List.iter
             (fun tr ->
               start k tr;
               if each then ignore (Kernel.fingerprint ~relative_to:root k : int * int * int))
             order;
           (Kernel.fingerprint ~relative_to:root k, Kernel.state_encoding ~relative_to:root k)
         in
         let order = List.map fst transfers in
         let shuffled = List.map fst (List.stable_sort (fun (_, a) (_, b) -> compare a b) transfers) in
         let j = pick mod List.length order in
         let changed = List.mapi (fun n tr -> if n = j then change tr field else tr) order in
         let fp, text = keys ~each:true order
         and fp', text' = keys ~each:false shuffled
         and cfp, ctext = keys ~each:false changed in
         fp = fp' && String.equal text text' && fp <> cfp && not (String.equal text ctext)))

(* Start order is not keyed, so the contested three-process trees
   collapse to their program-position grids: at 3/3 a key-3 process
   passes 14 positions and an ext-shadow-3 one 8, and the trees expand
   14^3 and 8^3 states. With the transfers keyed by start ordinal they
   expanded 101,728 and 41,984. *)
let test_contested3_states () =
  let states (build : ?victim_repeat:int -> ?tenant_repeat:int -> unit -> Scenario.t) =
    let s = build ~victim_repeat:3 ~tenant_repeat:3 () in
    (Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s)
       ~max_paths:max_int ~check:(Scenario.oracle_check s) ())
      .Explorer.states_visited
  in
  checki "key-3 at 3/3" 2744 (states Scenario.key_contested3);
  checki "ext-shadow-3 at 3/3" 512 (states Scenario.ext_shadow_contested3)

(* Path counts never wrap. Each contested3 tree interleaves three
   processes of [l] legs each, so it has (3l)!/(l!)^3 paths: exact at
   3/3, and past [max_int] for key-3 at 4/4 and ext-shadow-3 at 8/8
   (both 51!/(17!)^3). Past [max_int] the run spends a [max_int]
   budget and reads truncated, never SAFE. *)
let test_path_counts_never_wrap () =
  let choose n k =
    let c = ref 1 in
    for i = 0 to k - 1 do
      c := !c * (n - i) / (i + 1)
    done;
    !c
  in
  (* (3l)!/(l!)^3 = C(3l, l) * C(2l, l), or [None] past [max_int] *)
  let multinomial l =
    let a = choose (3 * l) l and b = choose (2 * l) l in
    if a > max_int / b then None else Some (a * b)
  in
  List.iter
    (fun ( label,
           (build : ?victim_repeat:int -> ?tenant_repeat:int -> unit -> Scenario.t),
           k,
           legs ) ->
      let s = build ~victim_repeat:k ~tenant_repeat:k () in
      let r =
        Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s)
          ~max_paths:max_int ~check:(Scenario.oracle_check s) ()
      in
      let name what = Printf.sprintf "%s at %d/%d %s" label k k what in
      match multinomial legs with
      | Some n ->
        checki (name "paths") n r.Explorer.paths;
        checkb (name "complete") false r.Explorer.truncated
      | None ->
        checki (name "paths clamp") max_int r.Explorer.paths;
        checkb (name "truncated") true r.Explorer.truncated;
        checkb (name "not SAFE") true (Explorer.verdict r = Explorer.Inconclusive))
    [
      ("key-3", Scenario.key_contested3, 3, 13);
      ("key-3", Scenario.key_contested3, 4, 17);
      ("ext-shadow-3", Scenario.ext_shadow_contested3, 3, 7);
      ("ext-shadow-3", Scenario.ext_shadow_contested3, 8, 17);
    ];
  checki "key-3 at 3/3 is 39!/(13!)^3" 84_478_098_072_866_400 (Option.get (multinomial 13));
  checkb "51!/(17!)^3 passes max_int" true (multinomial 17 = None)

(* A fork's first write copies a 512 B chunk and its page's chunk
   directory in the minor heap, not a whole 8 KB page straight into the
   major heap. What is left of direct-major allocation per state is the
   memo table's growth. *)
let test_explorer_direct_major_per_state () =
  let s = Scenario.ext_shadow_contested3 () in
  let r, a =
    Uldma_obs.Alloc.measure (fun () ->
        Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s)
          ~check:(Scenario.oracle_check s) ())
  in
  checki "states" 216 r.Explorer.states_visited;
  let words = a.Uldma_obs.Alloc.direct_major and states = r.Explorer.states_visited in
  if words > 16 * states then
    Alcotest.failf "%d direct-major words over %d states (limit 16 per state)" words states

(* A fork shares the tables its next leg rarely writes — the three
   processes' TLBs, the IOTLB, the PAL table and the engine's
   capability table — instead of copying them, and copies the machine's
   one digest cell once. One snapshot of the ext-shadow-3 root measured
   487 words (497 with a digest array per engine component); with
   eager table copies it took 794. One of the capio-3 root measured
   486; with its capability table deep-copied it took 553. Each bound
   is the measured value plus 10 %. *)
let test_snapshot_words () =
  let check name s limit =
    let _, a = Uldma_obs.Alloc.measure (fun () -> Kernel.snapshot s.Scenario.kernel) in
    let words = a.Uldma_obs.Alloc.minor + a.Uldma_obs.Alloc.direct_major in
    if words > limit then
      Alcotest.failf "one snapshot of %s allocated %d words (limit %d)" name words limit
  in
  check "ext-shadow-3" (Scenario.ext_shadow_contested3 ()) 536;
  check "capio-3" (Scenario.capio_contested3 ()) 535

(* The most words one fingerprint allocates, keyed relative to the
   root, over the nodes one leg past the root (one per pid). *)
let key_words s =
  let root = s.Scenario.kernel in
  List.fold_left
    (fun most pid ->
      let k = Kernel.snapshot root in
      ignore (Explorer.advance_one_leg k pid ~max_instructions:2000 : [> `Progress ]);
      let _, a = Uldma_obs.Alloc.measure (fun () -> Kernel.fingerprint ~relative_to:root k) in
      max most (a.Uldma_obs.Alloc.minor + a.Uldma_obs.Alloc.direct_major))
    0 (Scenario.explore_pids s)

(* A key of a machine with a capability table costs what any other
   key costs: the table is terms in the machine's digest cell, not
   text printed and hashed at every key. One fingerprint one leg past
   the capio-3 root measured 6 words, as on key-3; with the table
   hashed as text it took 235. *)
let test_capio_key_words () =
  let key3 = key_words (Scenario.key_contested3 ())
  and capio3 = key_words (Scenario.capio_contested3 ()) in
  if capio3 > key3 then
    Alcotest.failf "one capio-3 key allocated %d words, one key-3 key %d" capio3 key3

(* Words one leg allocates, averaged over a seeded random walk of
   key-3 at 3/3: from the root, fork and run one random leg at a time
   until none is left, [walks] times. Only [advance_one_leg] is
   measured; a wait leg (none under this Null backend) is not. *)
let key3_words_per_leg ~walks =
  let s = Scenario.key_contested3 ~victim_repeat:3 ~tenant_repeat:3 () in
  let pids = Scenario.explore_pids s in
  let rng = Uldma_util.Rng.create ~seed:3 in
  let words = ref 0 and legs = ref 0 in
  let rec walk k =
    let live = Kernel.runnable_pids k in
    let runnable = List.filter (fun pid -> List.mem pid live) pids in
    let choices =
      match Kernel.next_transfer_deadline k with
      | Some _ -> runnable @ [ Explorer.wait_leg ]
      | None -> runnable
    in
    if choices <> [] then begin
      let leg = List.nth choices (Uldma_util.Rng.int rng (List.length choices)) in
      let fork = Kernel.snapshot k in
      if leg = Explorer.wait_leg then (if Kernel.advance_to_next_completion fork then walk fork)
      else
        let outcome, a =
          Uldma_obs.Alloc.measure (fun () ->
              Explorer.advance_one_leg fork leg ~max_instructions:2000)
        in
        words := !words + a.Uldma_obs.Alloc.minor + a.Uldma_obs.Alloc.direct_major;
        incr legs;
        match outcome with `Progress | `Exited -> walk fork | `Stuck -> ()
    end
  in
  for _ = 1 to walks do
    walk (Kernel.snapshot s.Scenario.kernel)
  done;
  (float_of_int !words /. float_of_int !legs, !legs)

(* The CPU runs on one static host, translation returns an immediate
   word, the bus hands a device the access's fields, and the engine
   decodes a shadow address without allocating; the TLB's filled slots
   are a persistent map, so the first fill after a context-switch flush
   adds one map node. This walk (3,900 legs) measured 30.3 words per
   leg; with a host record and a translation record per access, a
   closure per instruction and per uncached store, and a transaction
   record and decode records per device access, it took 129.0. The
   bound is the measured value plus 10 %. *)
let test_leg_words () =
  let words, legs = key3_words_per_leg ~walks:100 in
  checkb "the walk ran legs" true (legs > 1000);
  let limit = 33.3 in
  if words > limit then
    Alcotest.failf "one leg allocated %.1f words on average over %d legs (limit %.1f)" words legs
      limit

(* Words one [Kernel.step] allocates, averaged over two processes that
   each loop 500 times over a store, a load, a subtract and a branch,
   round-robin with a quantum of 8, until both have exited. Within a
   quantum [step] runs the running process again without listing the
   runnable pids or asking [Sched.pick], and the CPU runs on one static
   host. These 4,008 steps measured 6.3 words per step; listing the
   pids and picking on every step, with a host built per leg, they
   took 27.9. The bound is the measured value plus 10 %. *)
let test_kernel_step_words () =
  let kernel =
    Kernel.create
      { Kernel.default_config with Kernel.sched = Sched.Round_robin { quantum = 8 } }
  in
  for _ = 1 to 2 do
    let p = Kernel.spawn kernel ~name:"loop" ~program:[||] () in
    let va = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
    Process.set_program p
      (Uldma_cpu.Asm.assemble_list
         Uldma_cpu.Isa.
           [
             Li (1, 500);
             Li (2, va);
             Li (4, 0);
             Store (2, 0, 1);
             Load (3, 2, 0);
             Sub (1, 1, Imm 1);
             Bne (1, 4, 3);
             Halt;
           ])
  done;
  let rec run n = match Kernel.step kernel with `Idle -> n | `Stepped _ -> run (n + 1) in
  let steps, a = Uldma_obs.Alloc.measure (fun () -> run 0) in
  checki "steps" 4008 steps;
  let words =
    float_of_int (a.Uldma_obs.Alloc.minor + a.Uldma_obs.Alloc.direct_major) /. float_of_int steps
  and limit = 6.9 in
  if words > limit then
    Alcotest.failf "one kernel step allocated %.1f words on average over %d steps (limit %.1f)"
      words steps limit

(* ------------------------------------------------------------------ *)
(* Memo *)

module Memo = Uldma_verify.Memo

(* A rotation discards only the cold keys that hot does not also hold:
   a cold hit's promoted copy lives on. *)
let test_memo_evictions_exclude_promoted () =
  let t = Memo.create ~shards:1 ~cap:4 ~locked:false in
  List.iter (fun k -> Memo.add t k k) [ "a"; "b"; "c"; "d" ];
  checkb "cold hit found" true (Memo.find t "a" = Some "a");
  List.iter (fun k -> Memo.add t k k) [ "e"; "f"; "g" ];
  checki "b, c and d evicted; promoted a survives" 3 (Memo.evictions t);
  checkb "a still resident" true (Memo.find t "a" = Some "a");
  checkb "b gone" true (Memo.find t "b" = None)

(* The reference: the two-generation [Hashtbl] memo the flat table
   replaced, with the same rotation and promotion rules, and evictions
   counted as cold keys absent from hot. *)
module Ref_memo = struct
  type 'a t = {
    mutable hot : (string, 'a) Hashtbl.t;
    mutable cold : (string, 'a) Hashtbl.t;
    cap : int;
    mutable evicted : int;
  }

  let create ~cap = { hot = Hashtbl.create 8; cold = Hashtbl.create 0; cap; evicted = 0 }
  let cold_only t = Hashtbl.fold (fun k _ n -> if Hashtbl.mem t.hot k then n else n + 1) t.cold 0

  let find t k =
    match Hashtbl.find_opt t.hot k with
    | Some _ as hit -> hit
    | None -> (
      match Hashtbl.find_opt t.cold k with
      | Some v as hit ->
        Hashtbl.replace t.hot k v;
        hit
      | None -> None)

  let add t k v =
    Hashtbl.replace t.hot k v;
    if Hashtbl.length t.hot >= t.cap then begin
      t.evicted <- t.evicted + cold_only t;
      t.cold <- t.hot;
      t.hot <- Hashtbl.create 8
    end

  let length t = Hashtbl.length t.hot + cold_only t
  let evictions t = t.evicted
end

(* Keys of three kinds: canonical fingerprints (small lanes too, which
   share lanes with the side table's first ids), pairs of 16-byte keys
   that differ only in bit 63 of one half, and strings of other
   lengths. *)
let gen_memo_keys =
  let open QCheck2.Gen in
  let lane = oneof [ int; int_range 0 3 ] in
  (* two 63-bit lanes as int64 halves, as [Fp128.key] packs them *)
  let key_of_lanes lo hi =
    let b = Bytes.create 16 in
    Bytes.set_int64_le b 0 (Int64.of_int lo);
    Bytes.set_int64_le b 8 (Int64.of_int hi);
    Bytes.to_string b
  in
  let canonical = map2 key_of_lanes lane lane in
  let flip_top key half =
    let b = Bytes.of_string key in
    let i = (8 * half) + 7 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x80));
    Bytes.to_string b
  in
  let kind =
    oneof
      [
        map (fun k -> [ k ]) canonical;
        map2 (fun k half -> [ k; flip_top k half ]) canonical (int_range 0 1);
        map (fun s -> [ s ])
          (string_size ~gen:(char_range 'a' 'd') (oneof [ int_range 0 15; int_range 17 40 ]));
      ]
  in
  map (fun ks -> Array.of_list (List.concat ks)) (list_size (int_range 1 12) kind)

(* [via_lanes]: a key that packs two lanes goes through [add_fp] or
   [find_fp] instead, which must agree with the string calls. *)
type memo_op = Add of int * int * bool | Find of int * bool

let gen_memo_run =
  let open QCheck2.Gen in
  let op =
    oneof
      [
        map3 (fun k v via -> Add (k, v, via)) nat small_nat bool;
        map2 (fun k via -> Find (k, via)) nat bool;
      ]
  in
  triple (int_range 1 64) gen_memo_keys (list_size (int_range 0 300) op)

(* the lanes of a key that [Fp128.pack] makes *)
let packed_lanes key =
  if String.length key <> 16 then None
  else
    let a = Int64.to_int (String.get_int64_le key 0) and b = Int64.to_int (String.get_int64_le key 8) in
    if String.equal (Uldma_util.Fp128.pack a b) key then Some (a, b) else None

let memo_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"memo matches a two-Hashtbl reference" ~count:300 gen_memo_run
       (fun (cap, keys, ops) ->
         let m = Memo.create ~shards:1 ~cap ~locked:false and r = Ref_memo.create ~cap in
         List.for_all
           (fun op ->
             let same_find =
               match op with
               | Add (k, v, via) ->
                 let key = keys.(k mod Array.length keys) in
                 (match packed_lanes key with
                 | Some (a, b) when via -> Memo.add_fp m a b v
                 | _ -> Memo.add m key v);
                 Ref_memo.add r key v;
                 true
               | Find (k, via) ->
                 let key = keys.(k mod Array.length keys) in
                 let found =
                   match packed_lanes key with
                   | Some (a, b) when via -> Memo.find_fp m a b
                   | _ -> Memo.find m key
                 in
                 found = Ref_memo.find r key
             in
             same_find
             && Memo.length m = Ref_memo.length r
             && Memo.evictions m = Ref_memo.evictions r)
           ops))

(* Words a memo holds per resident entry at its peak: both generations
   full (cold at its 4096-key cap, hot one key short of rotating),
   immediate values, random 16-byte keys. The two-Hashtbl memo this
   table replaced held 8.75 words per entry here (a bucket slot, a
   four-word cons cell and the four-word key string); the bound is
   half of that. The flat table needs about 4.2: two lanes, a value
   and a tag byte per slot, at a load of 3/4. *)
let test_memo_words_per_resident_entry () =
  let cap = 4096 in
  let t = Memo.create ~shards:1 ~cap ~locked:false in
  let rng = Uldma_util.Rng.create ~seed:5 in
  for i = 1 to (2 * cap) - 1 do
    Memo.add t (String.init 16 (fun _ -> Char.chr (Uldma_util.Rng.int rng 256))) i
  done;
  checki "both generations full" ((2 * cap) - 1) (Memo.length t);
  let per_entry =
    float_of_int (Obj.reachable_words (Obj.repr t)) /. float_of_int (Memo.length t)
  in
  let limit = 8.75 /. 2. in
  if per_entry > limit then
    Alcotest.failf "memo holds %.2f words per resident entry (limit %.3f)" per_entry limit

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
          Alcotest.test_case "timeline on a shared sink" `Quick test_timeline_shared_sink;
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
          Alcotest.test_case "verdict: clipped is inconclusive" `Quick test_explorer_verdict;
          Alcotest.test_case "stuck leg prunes branch only" `Quick
            test_explorer_stuck_leg_prunes_branch_only;
          Alcotest.test_case "dedup on/off equivalence" `Slow test_explorer_dedup_equivalence;
          Alcotest.test_case "dedup reduces states" `Slow test_explorer_dedup_reduces_states;
          Alcotest.test_case "stuck legs + violation order" `Slow
            test_explorer_stuck_and_violation_order;
          Alcotest.test_case "bounded memo equivalence" `Slow
            test_explorer_bounded_memo_equivalence;
          Alcotest.test_case "clipped under eviction" `Quick test_explorer_clipped_under_eviction;
          Alcotest.test_case "3-process determinism" `Slow test_explorer_3proc_determinism;
          Alcotest.test_case "rep5 vs two colluders: victim safe" `Slow
            test_explorer_rep5_contested3_victim_safe;
          Alcotest.test_case "paranoid vs fingerprint keying" `Slow
            test_explorer_paranoid_equivalence;
          Alcotest.test_case "memo length counts distinct keys" `Quick test_memo_length_distinct;
          explorer_fp_iff_encoding;
          explorer_engine_digest_schedules;
          state_key_maintained_equals_scratch;
          paranoid_key_injective;
          table_upkeep_schedules;
          Alcotest.test_case "process: wide pc and access fold exactly" `Quick
            test_process_fold_wide;
          Alcotest.test_case "key congruence: equal keys, equal futures" `Quick
            test_key_congruence;
          Alcotest.test_case "blocked waiters: paranoid vs fingerprint keying" `Quick
            test_explorer_waiters_paranoid_equivalence;
          process_table_digest_schedules;
          Alcotest.test_case "kernel fingerprint stability" `Quick
            test_kernel_fingerprint_stability;
          Alcotest.test_case "state key: program text relative to the baseline" `Quick
            test_state_key_program_text;
          Alcotest.test_case "advance_one_leg" `Quick test_advance_one_leg;
          explorer_leg_equivalence;
          Alcotest.test_case "kernel snapshot isolation" `Quick test_kernel_snapshot_isolation;
          start_order_unkeyed;
          Alcotest.test_case "contested3 states at 3/3" `Quick test_contested3_states;
          Alcotest.test_case "path counts never wrap" `Quick test_path_counts_never_wrap;
          Alcotest.test_case "direct-major words per state" `Quick
            test_explorer_direct_major_per_state;
          Alcotest.test_case "words per snapshot" `Quick test_snapshot_words;
          Alcotest.test_case "capio key words" `Quick test_capio_key_words;
          Alcotest.test_case "words per leg" `Quick test_leg_words;
          Alcotest.test_case "words per kernel step" `Quick test_kernel_step_words;
        ] );
      ( "memo",
        [
          Alcotest.test_case "evictions exclude promoted keys" `Quick
            test_memo_evictions_exclude_promoted;
          memo_matches_reference;
          Alcotest.test_case "words per resident entry" `Quick test_memo_words_per_resident_entry;
        ] );
      ( "campaign-engine",
        [
          campaign_shared_vs_cold;
          Alcotest.test_case "shared-memo vs cold, fixed cases" `Quick test_shared_vs_cold_cases;
          Alcotest.test_case "catalogue stability" `Slow test_campaign_catalogue_stability;
          Alcotest.test_case "pal slots-2 family through one table" `Slow
            test_campaign_pal_family_one_table;
          Alcotest.test_case "clipping differential, every budget" `Slow
            test_explorer_clipping_differential;
          Alcotest.test_case "clipping through a warm table, ext slots-1" `Slow
            test_clipping_warm_ext_slots1;
          Alcotest.test_case "violating memo words per entry" `Quick test_memo_words_per_entry;
          Alcotest.test_case "private schedules share tails" `Quick test_private_schedule_tails;
          Alcotest.test_case "shared pairs are one value" `Quick test_shared_pairs_physical;
          Alcotest.test_case "shared schedule words per violation" `Quick
            test_shared_schedule_words;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "rep-5 random schedules" `Slow test_campaign_rep5_random_schedules;
          Alcotest.test_case "rep-3 eventually broken" `Slow test_campaign_rep3_eventually_broken;
          Alcotest.test_case "key-based multi-user" `Quick test_campaign_key_based_two_users;
          Alcotest.test_case "ext-shadow multi-user" `Quick test_campaign_ext_shadow_two_users;
        ] );
    ]
