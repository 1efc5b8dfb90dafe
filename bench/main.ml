(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper from the
   simulator (simulated time; see EXPERIMENTS.md for paper-vs-measured).

   Part 2 runs Bechamel micro-benchmarks of the *simulator itself*
   (real wall-clock time per simulated initiation path) — one
   Test.make per Table 1 row plus the attack-reproduction machinery —
   so regressions in the implementation are visible independently of
   the simulated-clock results. *)

module Experiments = Uldma_sim.Experiments
module Sim_measure = Uldma_sim.Measure
module Api = Uldma.Api

let line = String.make 78 '='

let results_dir = "_results"

let write_csv id tbl =
  (try Unix.mkdir results_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out (Filename.concat results_dir (id ^ ".csv")) in
  output_string oc (Uldma_util.Tbl.to_csv tbl);
  close_out oc

let run_experiments () =
  Printf.printf "%s\nPart 1: paper reproduction (simulated time)\n%s\n\n" line line;
  List.iter
    (fun (e : Experiments.experiment) ->
      Printf.printf "--- %s [%s] ---\n%!" e.Experiments.id e.Experiments.paper_ref;
      let tbl = e.Experiments.run () in
      Uldma_util.Tbl.print tbl;
      write_csv e.Experiments.id tbl)
    Experiments.all;
  Printf.printf "(CSV copies of every table written to %s/)\n" results_dir

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

open Bechamel
open Toolkit

let initiation_test name =
  let mech = Api.find_exn name in
  Test.make ~name:("simulate 10x " ^ name)
    (Staged.stage (fun () -> ignore (Sim_measure.initiation ~iterations:10 mech : Sim_measure.result)))

let attack_test =
  Test.make ~name:"simulate fig5 attack"
    (Staged.stage (fun () ->
         let s = Uldma_workload.Scenario.fig5 () in
         Uldma_workload.Scenario.run_legs s Uldma_workload.Scenario.fig5_schedule;
         Uldma_workload.Scenario.finish s ()))

let explore_rep5 ?dedup ~max_paths () =
  let s = Uldma_workload.Scenario.rep5 () in
  let pids =
    [
      s.Uldma_workload.Scenario.victim.Uldma_os.Process.pid;
      s.Uldma_workload.Scenario.attacker.Uldma_os.Process.pid;
    ]
  in
  Uldma_verify.Explorer.explore ~root:s.Uldma_workload.Scenario.kernel ~pids ?dedup ~max_paths
    ~check:(fun _ -> None) ()

let explorer_test =
  Test.make ~name:"explore rep5 schedules"
    (Staged.stage (fun () -> ignore (explore_rep5 ~max_paths:50 ())))

let tests =
  Test.make_grouped ~name:"uldma"
    ([ initiation_test "kernel"; initiation_test "ext-shadow"; initiation_test "rep-args";
       initiation_test "key-based"; initiation_test "pal" ]
    @ [ attack_test; explorer_test ])

let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.8) ~kde:None () in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let print_bench_results results =
  Printf.printf "\n%s\nPart 2: simulator micro-benchmarks (real time, bechamel OLS)\n%s\n\n" line
    line;
  let tbl =
    Uldma_util.Tbl.create ~title:"wall-clock cost of the simulation paths"
      ~columns:[ ("benchmark", Uldma_util.Tbl.Left); ("time per run", Uldma_util.Tbl.Right) ]
  in
  Hashtbl.iter
    (fun _instance tbl_by_name ->
      Hashtbl.iter
        (fun name ols ->
          let cell =
            match Analyze.OLS.estimates ols with
            | Some (time :: _) -> Format.asprintf "%a" Uldma_util.Units.pp_time (int_of_float (time *. 1000.0))
            | Some [] | None -> "n/a"
          in
          Uldma_util.Tbl.add_row tbl [ name; cell ])
        tbl_by_name)
    results;
  Uldma_util.Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* Machine-readable perf trajectory *)

(* BENCH_explorer.json records the wall-clock throughput of the
   interleaving explorer (the repo's hottest verification path) and the
   simulated Table-1 initiation latency of each mechanism, so perf can
   be compared across PRs without parsing the human-readable tables.

   Schema v2 adds the state-dedup counters plus "no_dedup" and
   "parallel" sub-objects comparing the memoized sequential run
   against brute force and against an N-domain run.  All schema-v1
   keys are preserved; the headline "explorer" object is the default
   configuration (dedup on, jobs=1).

   Schema v3 adds the "scenarios3" object: the three-process contested
   workloads (~10^5..10^6 schedules each) explored at jobs = 1, 2 and
   4 with the work-stealing driver, recording per-jobs wall time,
   throughput and steal counts, the speedups vs jobs=1, the dedup
   ratio (schedules per expanded state — how much of the tree the memo
   collapses), and a bounded-memo run (small memo_cap) proving the
   exploration still completes exactly while evicting. All v2 keys are
   preserved unchanged.

   Schema v4 adds the "timed" object: rep5 re-explored under each
   latency-modelling net backend (atm155/atm622/hic at the default
   tick), recording the enlarged schedule tree (wait legs), the dedup
   ratio the relative-deadline state encoding achieves on it, wall
   time and throughput, and a per-backend differential check —
   brute-force (no-dedup) and jobs=4 runs must reproduce the memoized
   sequential result exactly. All v3 keys are preserved unchanged.

   Schema v5 changes three things (see EXPERIMENTS.md):
   - honest timing: every timed leg (sequential and parallel alike)
     runs one untimed warmup in the same configuration and then
     reports the *minimum* of its timed repetitions, and no leg uses a
     persistent memo cache — so speedups compare legs of identical
     warmth instead of folding cold-start noise into whichever leg ran
     first;
   - one dedup_ratio definition everywhere: hits / (hits +
     states_visited), the fraction of node arrivals answered by the
     memo (v4 mixed two unrelated formulas: the headline entry used
     states/brute-states = 0.1114 while scenarios3 used
     paths/states = 1085.7);
   - the work-stealing internals become visible: a top-level "cores"
     field, per-jobs "publications"/"steals", per-scenario "cutoff",
     "memo_merges" and "lease_splits" (from the jobs=4 run), a
     "domains" object with the per-domain Uldma_obs.Counters, and a
     "truncated_parallel" object checking that a max_paths-clipped run
     is identical at jobs 1/2/4 (the lease mechanism). All v4 keys
     are preserved.

   Schema v6 surfaces the fingerprint-keyed memo work (DESIGN.md 5g):
   the headline "explorer" object gains "snapshots"/"bytes_hashed"
   totals with per-node ratios (a node arrival = memo miss + memo hit
   = states_visited + dedup_hits) and "encode_ns_per_node" — a
   dedicated microbench timing one memo-key computation on a fixed
   mid-exploration state, in both the default fingerprint mode and the
   string-keyed paranoid mode ("encode_ns_per_node_paranoid") — and
   each scenarios3 entry gains "snapshots_per_node",
   "bytes_hashed_per_node" and a timed "paranoid" leg whose results
   must be identical to the fingerprint run (the in-bench version of
   tools/diff_explore's paranoid-vs-fingerprint check). The
   encode_ns_per_node number is CI-gated against this committed file.
   All v5 keys are preserved.

   Schema v7 adds the "campaign" object: the bounded adversary family
   of every exact-length-5 accomplice program on the rep5 scenario
   (512 canonical candidates — the family with maximal cross-candidate
   sharing, since memo hits across candidates need matching bus access
   counts) explored two ways. The cold baseline runs each candidate
   through its own private Explorer.explore, sequentially — exactly
   what a pre-campaign caller had to do. The shared legs run the same
   candidate array through Campaign.run at jobs 1, 2 and 4: one
   cross-candidate memo (generation-tagged, residual-program keyed)
   with outer-level candidate fan-out. Recorded per leg: wall seconds,
   aggregate candidates/sec, and results_identical_to_cold — the
   per-candidate (paths, truncated, violation kind + schedule) facts
   must match the cold run exactly (the soundness bit CI gates).
   "state_ratio" is cold/shared expanded states — the sharing itself,
   independent of core count; "speedup_vs_cold" is cold seconds over
   the best shared leg's seconds, so on a single-core runner it shows
   the jobs=1 sharing-only speedup and on multi-core runners the
   sharing multiplies with the outer fan-out. Campaign legs are single
   timed runs (each is tens of seconds, so noise amortizes within the
   leg; min-of-reps would triple an already long bench). All v6 keys
   are preserved.

   Schema v8 follows the explorer becoming one sequential search: the
   headline "parallel" object, the scenarios3 "jobs2"/"jobs4" legs and
   their speedups, "truncated_parallel", "domains", "cutoff",
   "memo_merges" and "lease_splits" are gone, and a scenarios3 entry's
   timing ("seconds", "paths_per_sec") moves up from its "jobs1"
   object. The campaign keeps its outer candidate fan-out, so it keeps
   its "jobs1" and "jobs2" legs; "jobs4" and "inner_domains" are gone.
   "cores" still records the machine the file was measured on.

   Still v8, with two additive keys: each scenarios3 entry records the
   fork cost of one exploration as "direct_major_words_per_state" and
   "minor_words_per_state" (Uldma_obs.Alloc around one timed run).
   Words allocated straight into the major heap are the ones a major
   collection has to sweep. *)
let time_explore ?dedup ~reps () =
  (* same-warmth discipline: one untimed warmup in this exact
     configuration, then min-of-reps *)
  ignore (explore_rep5 ?dedup ~max_paths:1_000_000 () : _ Uldma_verify.Explorer.result);
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = explore_rep5 ?dedup ~max_paths:1_000_000 () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    last := Some r
  done;
  (Option.get !last, !best)

let dedup_ratio (r : _ Uldma_verify.Explorer.result) =
  let h = r.Uldma_verify.Explorer.dedup_hits and v = r.Uldma_verify.Explorer.states_visited in
  float_of_int h /. float_of_int (max 1 (h + v))

(* a "node" is one arrival at a dedup decision point: memo miss
   (expanded) or memo hit *)
let nodes (r : _ Uldma_verify.Explorer.result) =
  max 1 (r.Uldma_verify.Explorer.states_visited + r.Uldma_verify.Explorer.dedup_hits)

let per_node (r : _ Uldma_verify.Explorer.result) total =
  float_of_int total /. float_of_int (nodes r)

(* Microbench: nanoseconds to compute one memo key on a fixed
   mid-exploration state (rep5, every pid advanced one leg past the
   root, so the state has live processes and diverged pages). The
   explorer's per-node encoding cost is too small for per-call
   gettimeofday, so it is timed here over a tight loop instead — and
   CI gates this number against the committed BENCH_explorer.json. *)
let encode_ns_per_node ~paranoid =
  let module Scenario = Uldma_workload.Scenario in
  let s = Scenario.rep5 () in
  let root = s.Scenario.kernel in
  let k = Uldma_os.Kernel.snapshot root in
  List.iter
    (fun pid -> ignore (Uldma_verify.Explorer.advance_one_leg k pid ~max_instructions:2000))
    (Scenario.explore_pids s);
  let iters = 20_000 in
  let run () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Uldma_os.Kernel.state_key ~relative_to:root ~paranoid k : string * int)
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (run () : float);
  let dt = Float.min (run ()) (run ()) in
  dt *. 1e9 /. float_of_int iters

(* The campaign experiment (see the schema comment above):
   cold-and-sequential per-candidate exploration vs the campaign
   engine's shared memo at jobs 1 and 2, on the exact-length-5 rep5
   accomplice family. Appends the "campaign" object to [buf]. *)
let bench_campaign buf =
  let module Scenario = Uldma_workload.Scenario in
  let module Synth = Uldma_workload.Synth in
  let module Campaign = Uldma_verify.Campaign in
  let module Explorer = Uldma_verify.Explorer in
  let slots = 5 and max_paths = 1_000_000 in
  let base = Synth.make_base (Synth.Rep Uldma_dma.Seq_matcher.Five) in
  let ops = Synth.enumerate ~exact:true ~slots () in
  (* sequential on purpose; see Synth.candidate *)
  let candidates = Array.map (Synth.candidate base) ops in
  let scenario = Synth.base_scenario base in
  let pids = Scenario.explore_pids scenario in
  let check = Scenario.oracle_check scenario in
  (* the warmth- and jobs-independent projection of a result: the facts
     every leg must agree on byte for byte *)
  let canon (r : _ Explorer.result) =
    ( r.Explorer.paths,
      r.Explorer.truncated,
      List.map (fun (v, sched) -> (Synth.kind_name v, sched)) r.Explorer.violations )
  in
  let n = Array.length candidates in
  Printf.printf "campaign: cold baseline over %d candidates...\n%!" n;
  let t0 = Unix.gettimeofday () in
  let cold_states = ref 0 in
  let cold =
    Array.map
      (fun (c : _ Campaign.candidate) ->
        let r = Explorer.explore ~root:c.Campaign.c_root ~pids ~max_paths ~check () in
        cold_states := !cold_states + r.Explorer.states_visited;
        canon r)
      candidates
  in
  let cold_secs = Unix.gettimeofday () -. t0 in
  let shared jobs =
    Printf.printf "campaign: shared memo, jobs=%d...\n%!" jobs;
    let t0 = Unix.gettimeofday () in
    let results, stats =
      Campaign.run ~candidates ~pids ~baseline:scenario.Scenario.kernel ~jobs ~max_paths
        ~check ()
    in
    (results, stats, Unix.gettimeofday () -. t0)
  in
  let legs = List.map (fun jobs -> (jobs, shared jobs)) [ 1; 2 ] in
  let _, stats1, _ = List.assoc 1 legs in
  let shared1_states = stats1.Campaign.g_states in
  let best = List.fold_left (fun b (_, (_, _, s)) -> Float.min b s) infinity legs in
  Printf.bprintf buf "  \"campaign\": {\n";
  Printf.bprintf buf "    \"family\": \"rep5 exact-length-%d accomplice programs\",\n" slots;
  Printf.bprintf buf "    \"candidates\": %d,\n" n;
  Printf.bprintf buf "    \"max_paths\": %d,\n" max_paths;
  Printf.bprintf buf "    \"cold\": {\n";
  Printf.bprintf buf "      \"seconds\": %.6f,\n" cold_secs;
  Printf.bprintf buf "      \"candidates_per_sec\": %.2f,\n" (float_of_int n /. cold_secs);
  Printf.bprintf buf "      \"states_visited\": %d\n" !cold_states;
  Printf.bprintf buf "    },\n";
  List.iter
    (fun (jobs, (results, stats, secs)) ->
      let identical = ref true in
      Array.iteri (fun i r -> if canon r <> cold.(i) then identical := false) results;
      Printf.bprintf buf "    \"jobs%d\": {\n" jobs;
      Printf.bprintf buf "      \"seconds\": %.6f,\n" secs;
      Printf.bprintf buf "      \"candidates_per_sec\": %.2f,\n" (float_of_int n /. secs);
      Printf.bprintf buf "      \"states_visited\": %d,\n" stats.Campaign.g_states;
      Printf.bprintf buf "      \"memo_hits\": %d,\n" stats.Campaign.g_hits;
      Printf.bprintf buf "      \"outer_domains\": %d,\n" stats.Campaign.g_outer;
      Printf.bprintf buf "      \"results_identical_to_cold\": %b\n" !identical;
      Printf.bprintf buf "    },\n")
    legs;
  Printf.bprintf buf "    \"state_ratio\": %.3f,\n"
    (float_of_int !cold_states /. float_of_int (max 1 shared1_states));
  Printf.bprintf buf "    \"speedup_vs_cold\": %.3f\n" (cold_secs /. best);
  Printf.bprintf buf "  },\n";
  Printf.printf
    "campaign: %d candidates, cold %.1fs (%d states), best shared %.1fs (state ratio %.2fx, \
     speedup %.2fx)\n%!"
    n cold_secs !cold_states best
    (float_of_int !cold_states /. float_of_int (max 1 shared1_states))
    (cold_secs /. best)

let write_bench_explorer_json () =
  (try Unix.mkdir results_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* settle the heap after bechamel so its garbage doesn't tax this
     measurement, then warm up the exploration path *)
  Gc.compact ();
  ignore (explore_rep5 ~max_paths:50 ());
  let reps = 5 in
  let r, secs = time_explore ~reps () in
  let r_nd, secs_nd = time_explore ~dedup:false ~reps () in
  let initiation =
    List.map
      (fun name ->
        let m = Sim_measure.initiation ~iterations:300 (Api.find_exn name) in
        (name, m.Sim_measure.us_per_initiation))
      [ "kernel"; "ext-shadow"; "rep-args"; "key-based"; "pal" ]
  in
  let pps (res : 'a Uldma_verify.Explorer.result) s =
    float_of_int res.Uldma_verify.Explorer.paths /. s
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"schema_version\": 8,\n";
  Printf.bprintf buf "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  Buffer.add_string buf "  \"timing\": \"min of repetitions after one untimed same-config warmup; no persistent memo cache\",\n";
  Buffer.add_string buf "  \"explorer\": {\n";
  Buffer.add_string buf "    \"scenario\": \"rep5\",\n";
  Buffer.add_string buf "    \"max_paths\": 1000000,\n";
  Printf.bprintf buf "    \"paths\": %d,\n" r.Uldma_verify.Explorer.paths;
  Printf.bprintf buf "    \"truncated\": %b,\n" r.Uldma_verify.Explorer.truncated;
  Printf.bprintf buf "    \"repetitions\": %d,\n" reps;
  Printf.bprintf buf "    \"seconds_per_exploration\": %.6f,\n" secs;
  Printf.bprintf buf "    \"paths_per_sec\": %.1f,\n" (pps r secs);
  Printf.bprintf buf "    \"states_visited\": %d,\n" r.Uldma_verify.Explorer.states_visited;
  Printf.bprintf buf "    \"dedup_hits\": %d,\n" r.Uldma_verify.Explorer.dedup_hits;
  Printf.bprintf buf "    \"dedup_ratio\": %.4f,\n" (dedup_ratio r);
  Printf.bprintf buf "    \"stuck_legs\": %d,\n" r.Uldma_verify.Explorer.stuck_legs;
  Printf.bprintf buf "    \"snapshots\": %d,\n" r.Uldma_verify.Explorer.snapshots;
  Printf.bprintf buf "    \"snapshots_per_node\": %.3f,\n"
    (per_node r r.Uldma_verify.Explorer.snapshots);
  Printf.bprintf buf "    \"bytes_hashed\": %d,\n" r.Uldma_verify.Explorer.bytes_hashed;
  Printf.bprintf buf "    \"bytes_hashed_per_node\": %.1f,\n"
    (per_node r r.Uldma_verify.Explorer.bytes_hashed);
  Printf.bprintf buf "    \"encode_ns_per_node\": %.1f,\n" (encode_ns_per_node ~paranoid:false);
  Printf.bprintf buf "    \"encode_ns_per_node_paranoid\": %.1f,\n"
    (encode_ns_per_node ~paranoid:true);
  Buffer.add_string buf "    \"no_dedup\": {\n";
  Printf.bprintf buf "      \"paths\": %d,\n" r_nd.Uldma_verify.Explorer.paths;
  Printf.bprintf buf "      \"states_visited\": %d,\n" r_nd.Uldma_verify.Explorer.states_visited;
  Printf.bprintf buf "      \"seconds_per_exploration\": %.6f,\n" secs_nd;
  Printf.bprintf buf "      \"paths_per_sec\": %.1f\n" (pps r_nd secs_nd);
  Buffer.add_string buf "    }\n";
  Buffer.add_string buf "  },\n  \"scenarios3\": {\n";
  let module Scenario = Uldma_workload.Scenario in
  let scenarios3 =
    [
      ("key-3", fun () -> Scenario.key_contested3 ());
      ("ext-shadow-3", fun () -> Scenario.ext_shadow_contested3 ());
      ("rep5-3", Scenario.rep5_contested3);
    ]
  in
  List.iteri
    (fun i (name, build) ->
      let explore_once ?paranoid_memo ?memo_cap () =
        let s = build () in
        let t0 = Unix.gettimeofday () in
        let r, alloc =
          Uldma_obs.Alloc.measure (fun () ->
              Uldma_verify.Explorer.explore ~root:s.Scenario.kernel
                ~pids:(Scenario.explore_pids s) ~max_paths:1_000_000 ?paranoid_memo ?memo_cap
                ~check:(Scenario.oracle_check s) ())
        in
        (r, Unix.gettimeofday () -. t0, alloc)
      in
      (* one untimed warmup + min-of-2 per leg: every leg gets
         identical warmth *)
      let explore ?paranoid_memo ?memo_cap () =
        ignore (explore_once ?paranoid_memo ?memo_cap () : _ * float * _);
        let ra, ta, alloc = explore_once ?paranoid_memo ?memo_cap () in
        let _, tb, _ = explore_once ?paranoid_memo ?memo_cap () in
        (ra, Float.min ta tb, alloc)
      in
      let r1, s1, alloc1 = explore () in
      let rb, sb, _ = explore ~memo_cap:512 () in
      let rp, sp, _ = explore ~paranoid_memo:true () in
      let per_state words =
        float_of_int words /. float_of_int (max 1 r1.Uldma_verify.Explorer.states_visited)
      in
      Printf.bprintf buf "    \"%s\": {\n" name;
      Printf.bprintf buf "      \"paths\": %d,\n" r1.Uldma_verify.Explorer.paths;
      Printf.bprintf buf "      \"violating_schedules\": %d,\n"
        (List.length r1.Uldma_verify.Explorer.violations);
      Printf.bprintf buf "      \"truncated\": %b,\n" r1.Uldma_verify.Explorer.truncated;
      Printf.bprintf buf "      \"states_visited\": %d,\n" r1.Uldma_verify.Explorer.states_visited;
      Printf.bprintf buf "      \"dedup_hits\": %d,\n" r1.Uldma_verify.Explorer.dedup_hits;
      Printf.bprintf buf "      \"dedup_ratio\": %.4f,\n" (dedup_ratio r1);
      Printf.bprintf buf "      \"stuck_legs\": %d,\n" r1.Uldma_verify.Explorer.stuck_legs;
      Printf.bprintf buf "      \"snapshots_per_node\": %.3f,\n"
        (per_node r1 r1.Uldma_verify.Explorer.snapshots);
      Printf.bprintf buf "      \"bytes_hashed_per_node\": %.1f,\n"
        (per_node r1 r1.Uldma_verify.Explorer.bytes_hashed);
      Printf.bprintf buf "      \"seconds\": %.6f,\n" s1;
      Printf.bprintf buf "      \"paths_per_sec\": %.1f,\n" (pps r1 s1);
      Printf.bprintf buf "      \"direct_major_words_per_state\": %.1f,\n"
        (per_state alloc1.Uldma_obs.Alloc.direct_major);
      Printf.bprintf buf "      \"minor_words_per_state\": %.1f,\n"
        (per_state alloc1.Uldma_obs.Alloc.minor);
      Printf.bprintf buf "      \"paranoid\": {\n";
      Printf.bprintf buf "        \"seconds\": %.6f,\n" sp;
      Printf.bprintf buf "        \"bytes_hashed_per_node\": %.1f,\n"
        (per_node rp rp.Uldma_verify.Explorer.bytes_hashed);
      Printf.bprintf buf "        \"speedup_fingerprint_vs_paranoid\": %.3f,\n" (sp /. s1);
      Printf.bprintf buf "        \"results_identical\": %b\n"
        (rp.Uldma_verify.Explorer.paths = r1.Uldma_verify.Explorer.paths
        && rp.Uldma_verify.Explorer.states_visited = r1.Uldma_verify.Explorer.states_visited
        && List.map snd rp.Uldma_verify.Explorer.violations
           = List.map snd r1.Uldma_verify.Explorer.violations);
      Printf.bprintf buf "      },\n";
      Printf.bprintf buf "      \"bounded_memo\": {\n";
      Printf.bprintf buf "        \"memo_cap\": 512,\n";
      Printf.bprintf buf "        \"evictions\": %d,\n" rb.Uldma_verify.Explorer.evictions;
      Printf.bprintf buf "        \"seconds\": %.6f,\n" sb;
      Printf.bprintf buf "        \"results_identical\": %b\n"
        (rb.Uldma_verify.Explorer.paths = r1.Uldma_verify.Explorer.paths
        && List.map snd rb.Uldma_verify.Explorer.violations
           = List.map snd r1.Uldma_verify.Explorer.violations);
      Printf.bprintf buf "      }\n";
      Printf.bprintf buf "    }%s\n" (if i = List.length scenarios3 - 1 then "" else ",")
    )
    scenarios3;
  Buffer.add_string buf "  },\n  \"timed\": {\n";
  (* rep5 under each timed net backend: the wait leg grows the tree,
     the relative-deadline encoding must still collapse it (dedup
     ratio > 1) and the brute-force run must agree exactly *)
  Printf.bprintf buf "    \"scenario\": \"rep5\",\n";
  Printf.bprintf buf "    \"tick_ps\": %d,\n" Uldma_net.Backend.default_tick_ps;
  let timed_backends =
    [
      ("atm155", Uldma_net.Link.atm155);
      ("atm622", Uldma_net.Link.atm622);
      ("hic", Uldma_net.Link.hic1355);
    ]
  in
  List.iteri
    (fun i (name, link) ->
      let net = Uldma_net.Backend.linked link in
      let explore ?dedup () =
        let s = Scenario.rep5 ~net () in
        let t0 = Unix.gettimeofday () in
        let r =
          Uldma_verify.Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s)
            ~max_paths:1_000_000 ?dedup ~check:(Scenario.oracle_check s) ()
        in
        (r, Unix.gettimeofday () -. t0)
      in
      (* only the sequential leg is reported timed; give it the same
         warmup + min-of-2 discipline as every other timed leg *)
      let r, s =
        ignore (explore () : _ * float);
        let ra, ta = explore () in
        let _, tb = explore () in
        (ra, Float.min ta tb)
      in
      let rb, _ = explore ~dedup:false () in
      let viols (x : _ Uldma_verify.Explorer.result) =
        List.map snd x.Uldma_verify.Explorer.violations
      in
      Printf.bprintf buf "    \"%s\": {\n" name;
      Printf.bprintf buf "      \"paths\": %d,\n" r.Uldma_verify.Explorer.paths;
      Printf.bprintf buf "      \"violating_schedules\": %d,\n"
        (List.length r.Uldma_verify.Explorer.violations);
      Printf.bprintf buf "      \"truncated\": %b,\n" r.Uldma_verify.Explorer.truncated;
      Printf.bprintf buf "      \"states_visited\": %d,\n" r.Uldma_verify.Explorer.states_visited;
      Printf.bprintf buf "      \"dedup_hits\": %d,\n" r.Uldma_verify.Explorer.dedup_hits;
      Printf.bprintf buf "      \"dedup_ratio\": %.4f,\n" (dedup_ratio r);
      Printf.bprintf buf "      \"seconds\": %.6f,\n" s;
      Printf.bprintf buf "      \"paths_per_sec\": %.1f,\n" (pps r s);
      Printf.bprintf buf "      \"differential_identical\": %b\n"
        (r.Uldma_verify.Explorer.paths = rb.Uldma_verify.Explorer.paths && viols r = viols rb);
      Printf.bprintf buf "    }%s\n" (if i = List.length timed_backends - 1 then "" else ",")
    )
    timed_backends;
  Buffer.add_string buf "  },\n";
  bench_campaign buf;
  Buffer.add_string buf "  \"initiation_us\": {\n";
  List.iteri
    (fun i (name, us) ->
      Printf.bprintf buf "    \"%s\": %.3f%s\n" name us
        (if i = List.length initiation - 1 then "" else ","))
    initiation;
  Buffer.add_string buf "  },\n  \"counters\": {\n";
  (* per-layer named counters (os, bus and dma sections) of a standard
     100-initiation session per mechanism: machine-readable per-PR
     visibility into *what* each mechanism did, not just how fast *)
  let mechs = [ "kernel"; "ext-shadow"; "rep-args"; "key-based"; "pal" ] in
  List.iteri
    (fun i name ->
      let s = Uldma.Session.create ~mech:name () in
      let p = Uldma.Session.process s ~name:"bench" () in
      Uldma.Session.dma_stub ~iterations:100 s p;
      Uldma.Session.run_exn s ~max_steps:2_000_000;
      let c = Uldma.Session.metrics s in
      let names = Uldma_obs.Counters.counter_names c in
      Printf.bprintf buf "    \"%s\": {\n" name;
      List.iteri
        (fun j n ->
          Printf.bprintf buf "      \"%s\": %d%s\n" n (Uldma_obs.Counters.value c n)
            (if j = List.length names - 1 then "" else ","))
        names;
      Printf.bprintf buf "    }%s\n" (if i = List.length mechs - 1 then "" else ",")
    )
    mechs;
  Buffer.add_string buf "  }\n}\n";
  let path = Filename.concat results_dir "BENCH_explorer.json" in
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "\nexplorer: %d rep5 paths in %.4fs (%.0f paths/s); wrote %s\n" r.Uldma_verify.Explorer.paths
    secs
    (float_of_int r.Uldma_verify.Explorer.paths /. secs)
    path

(* ------------------------------------------------------------------ *)
(* Cluster-service trajectory *)

(* BENCH_cluster.json (schema v1, written through Kv_load.Report — the
   same code path as `uldma_cli cluster`) records the KV-service tail
   latency per wire plus the doorbell-batching speedup at a reduced but
   statistically meaningful scale (10^5 transfers; the CLI default is
   10^6), so the cluster numbers travel with every PR next to
   BENCH_explorer.json. *)
let write_bench_cluster_json () =
  let module Kv = Uldma_workload.Kv_load in
  let params = { Kv.default_params with Kv.clients = 200; transfers = 100_000 } in
  let cal =
    match Kv.calibrate params.Kv.mech with Ok c -> c | Error e -> failwith e
  in
  let backends =
    List.map
      (fun name ->
        match Uldma_net.Backend.of_string name with
        | Ok b -> (name, b)
        | Error e -> failwith e)
      [ "atm155"; "atm622"; "gigabit"; "hic" ]
  in
  let cluster =
    Uldma.Session.cluster_exn ~net:"atm155" ~mech:params.Kv.mech ~nodes:params.Kv.nodes ()
  in
  let t0 = Unix.gettimeofday () in
  let cosim_bytes, cosim_packets = Kv.cosim_burst cluster ~words:64 in
  let sweep = Kv.sweep params ~cal backends in
  let gigabit = List.assoc "gigabit" backends in
  let batch1 = Kv.run { params with Kv.batch = 1 } ~cal ~net:gigabit in
  let batched = Kv.run params ~cal ~net:gigabit in
  let wall = Unix.gettimeofday () -. t0 in
  let report =
    {
      Kv.Report.params;
      cal;
      headline_net = "atm155";
      sweep;
      batching = { Kv.Report.bat_net = "gigabit"; batch1; batched };
      cosim_nodes = params.Kv.nodes;
      cosim_bytes;
      cosim_packets;
    }
  in
  let path = Filename.concat results_dir "BENCH_cluster.json" in
  Kv.Report.write ~path ~wall_seconds:wall report;
  let p99 name =
    float_of_int (Uldma_obs.Percentile.percentile (List.assoc name sweep).Kv.latency 0.99) /. 1e6
  in
  Printf.printf
    "cluster: %d nodes, %d clients, %d transfers; p99 atm155 %.1f us / gigabit %.1f us; batching \
     %.2fx; wrote %s\n"
    params.Kv.nodes params.Kv.clients params.Kv.transfers (p99 "atm155") (p99 "gigabit")
    (Kv.Report.speedup report.Kv.Report.batching)
    path

let () =
  run_experiments ();
  let results = benchmark () in
  print_bench_results results;
  write_bench_explorer_json ();
  write_bench_cluster_json ();
  print_endline "done."
