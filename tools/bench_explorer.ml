(* bench-explorer — writes _results/BENCH_explorer.json (schema v10),
   the machine-readable record of the interleaving explorer: the rep5
   headline with and without dedup and the memo-key cost, the
   3-process contested trees (with paranoid-keying and bounded-memo
   legs and words allocated per state), rep5 under each timed net
   backend, the campaign's cold-vs-shared object, the simulated
   Table-1 initiation latency and per-mechanism counters.
   EXPERIMENTS.md documents each key and the schema history; the CI
   gates compare a regenerated file against the committed one.

   Every timed leg runs one untimed warmup in its own configuration and
   reports the minimum of its timed repetitions. Counts (paths, states,
   hits, bytes hashed, words allocated) do not depend on timing. The
   same run also times a host-speed reference loop (reference_ns, see
   tools/reference_loop.ml), so the gates compare timings as multiples
   of it, not as raw nanoseconds from whichever host phase a file was
   written in.

   Run from the repository root: dune exec tools/bench_explorer.exe *)

module Explorer = Uldma_verify.Explorer
module Scenario = Uldma_workload.Scenario
module Sim_measure = Uldma_sim.Measure

let results_dir = "_results"

let explore_rep5 ?dedup ~max_paths () =
  let s = Scenario.rep5 () in
  Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s) ?dedup ~max_paths
    ~check:(fun _ -> None) ()

(* Seconds on the monotonic clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* One rep5 exploration takes about 1.5 ms, too short to time alone: a
   single timing read anywhere from 508 k to 1170 k paths/s over six
   regenerations on one 2-vCPU host. So the seconds per exploration are
   the minimum over [reps] batches, each of as many back-to-back
   explorations as fill [batch_s], after one untimed warmup. *)
let batch_s = 0.02

let time_explore ?dedup ~reps () =
  let explore () = explore_rep5 ?dedup ~max_paths:1_000_000 () in
  let r = explore () in
  let batch () =
    let t0 = now () in
    let rec go n =
      ignore (explore () : _ Explorer.result);
      let dt = now () -. t0 in
      if dt >= batch_s then dt /. float_of_int n else go (n + 1)
    in
    go 1
  in
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (batch ())
  done;
  (r, !best)

(* the fraction of node arrivals answered by the memo *)
let dedup_ratio (r : _ Explorer.result) =
  let h = r.Explorer.dedup_hits and v = r.Explorer.states_visited in
  float_of_int h /. float_of_int (max 1 (h + v))

(* a "node" is one arrival at a dedup decision point: memo miss
   (expanded) or memo hit *)
let per_node (r : _ Explorer.result) total =
  float_of_int total /. float_of_int (max 1 (r.Explorer.states_visited + r.Explorer.dedup_hits))

let pps (r : _ Explorer.result) secs = float_of_int r.Explorer.paths /. secs

(* Nanoseconds to compute one memo key on a fixed mid-exploration state
   (rep5, every pid advanced one leg past the root, so the state has
   live processes and diverged pages). The per-node encoding cost is
   too small for per-call gettimeofday, so it is timed over a tight
   loop, and reported as the minimum of [encode_loops] loops after one
   warmup loop: with only two, three regenerations on one 2-vCPU host read
   660, 881 and 837 ns. CI gates it against the committed file. *)
let encode_loops = 9

let encode_ns_per_node ~paranoid =
  let s = Scenario.rep5 () in
  let root = s.Scenario.kernel in
  let k = Uldma_os.Kernel.snapshot root in
  List.iter
    (fun pid -> ignore (Explorer.advance_one_leg k pid ~max_instructions:2000))
    (Scenario.explore_pids s);
  let iters = 20_000 in
  let run () =
    let t0 = now () in
    for _ = 1 to iters do
      ignore (Uldma_os.Kernel.state_key ~relative_to:root ~paranoid k : string * int)
    done;
    now () -. t0
  in
  ignore (run () : float);
  let best = ref infinity in
  for _ = 1 to encode_loops do
    best := Float.min !best (run ())
  done;
  !best *. 1e9 /. float_of_int iters

(* The campaign object: every exact-length-5 accomplice program on the
   rep5 scenario, explored cold (one private Explorer.explore per
   candidate) and through Campaign.run's shared memo. Each leg is one
   timed run. *)
let bench_campaign buf =
  let module Synth = Uldma_workload.Synth in
  let module Campaign = Uldma_verify.Campaign in
  let slots = 5 and max_paths = 1_000_000 in
  let base = Synth.make_base (Synth.Rep Uldma_dma.Seq_matcher.Five) in
  let ops = Synth.enumerate ~exact:true ~slots () in
  let candidates = Array.map (Synth.candidate base) ops in
  let scenario = Synth.base_scenario base in
  let pids = Scenario.explore_pids scenario in
  let check = Scenario.oracle_check scenario in
  let n = Array.length candidates in
  Printf.printf "campaign: cold baseline over %d candidates...\n%!" n;
  let t0 = Unix.gettimeofday () in
  let cold_states = ref 0 in
  let cold =
    Array.map
      (fun (c : _ Campaign.candidate) ->
        let r = Explorer.explore ~root:c.Campaign.c_root ~pids ~max_paths ~check () in
        cold_states := !cold_states + r.Explorer.states_visited;
        Synth.result_facts r)
      candidates
  in
  let cold_secs = Unix.gettimeofday () -. t0 in
  Printf.printf "campaign: shared memo...\n%!";
  let t0 = Unix.gettimeofday () in
  let results, stats =
    Campaign.run ~candidates ~pids ~baseline:scenario.Scenario.kernel ~max_paths ~check ()
  in
  let secs = Unix.gettimeofday () -. t0 in
  let state_ratio = float_of_int !cold_states /. float_of_int (max 1 stats.Campaign.g_states) in
  let identical = Array.for_all2 (fun r c -> Synth.result_facts r = c) results cold in
  Printf.bprintf buf "  \"campaign\": {\n";
  Printf.bprintf buf "    \"family\": \"rep5 exact-length-%d accomplice programs\",\n" slots;
  Printf.bprintf buf "    \"candidates\": %d,\n" n;
  Printf.bprintf buf "    \"max_paths\": %d,\n" max_paths;
  Printf.bprintf buf "    \"cold\": {\n";
  Printf.bprintf buf "      \"seconds\": %.6f,\n" cold_secs;
  Printf.bprintf buf "      \"candidates_per_sec\": %.2f,\n" (float_of_int n /. cold_secs);
  Printf.bprintf buf "      \"states_visited\": %d\n" !cold_states;
  Printf.bprintf buf "    },\n";
  Printf.bprintf buf "    \"shared\": {\n";
  Printf.bprintf buf "      \"seconds\": %.6f,\n" secs;
  Printf.bprintf buf "      \"candidates_per_sec\": %.2f,\n" (float_of_int n /. secs);
  Printf.bprintf buf "      \"states_visited\": %d,\n" stats.Campaign.g_states;
  Printf.bprintf buf "      \"memo_hits\": %d,\n" stats.Campaign.g_hits;
  Printf.bprintf buf "      \"results_identical_to_cold\": %b\n" identical;
  Printf.bprintf buf "    },\n";
  Printf.bprintf buf "    \"state_ratio\": %.3f,\n" state_ratio;
  Printf.bprintf buf "    \"speedup_vs_cold\": %.3f\n" (cold_secs /. secs);
  Printf.bprintf buf "  },\n";
  Printf.printf
    "campaign: %d candidates, cold %.1fs (%d states), shared %.1fs (state ratio %.2fx, \
     speedup %.2fx)\n%!"
    n cold_secs !cold_states secs state_ratio (cold_secs /. secs)

(* a JSON object member separator: no comma after the last of [n] *)
let sep i n = if i = n - 1 then "" else ","

let mechs = [ "kernel"; "ext-shadow"; "rep-args"; "key-based"; "pal" ]

let () =
  (try Unix.mkdir results_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  ignore (explore_rep5 ~max_paths:50 ());
  let reps = 9 in
  let r, secs = time_explore ~reps () in
  let r_nd, secs_nd = time_explore ~dedup:false ~reps () in
  let reference_ns = Reference_loop.ns_per_op ~now in
  let initiation =
    List.map
      (fun name ->
        let m = Sim_measure.initiation ~iterations:300 (Uldma.Api.find_exn name) in
        (name, m.Sim_measure.us_per_initiation))
      mechs
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"schema_version\": 10,\n";
  Printf.bprintf buf "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  Printf.bprintf buf "  \"reference_ns\": %.3f,\n" reference_ns;
  Buffer.add_string buf
    "  \"timing\": \"min of repetitions after one untimed same-config warmup (the rep5 headline: of batches of at least 20 ms on the monotonic clock); no persistent memo cache\",\n";
  Buffer.add_string buf "  \"explorer\": {\n";
  Buffer.add_string buf "    \"scenario\": \"rep5\",\n";
  Buffer.add_string buf "    \"max_paths\": 1000000,\n";
  Printf.bprintf buf "    \"paths\": %d,\n" r.Explorer.paths;
  Printf.bprintf buf "    \"truncated\": %b,\n" r.Explorer.truncated;
  Printf.bprintf buf "    \"repetitions\": %d,\n" reps;
  Printf.bprintf buf "    \"seconds_per_exploration\": %.6f,\n" secs;
  Printf.bprintf buf "    \"paths_per_sec\": %.1f,\n" (pps r secs);
  Printf.bprintf buf "    \"states_visited\": %d,\n" r.Explorer.states_visited;
  Printf.bprintf buf "    \"dedup_hits\": %d,\n" r.Explorer.dedup_hits;
  Printf.bprintf buf "    \"dedup_ratio\": %.4f,\n" (dedup_ratio r);
  Printf.bprintf buf "    \"stuck_legs\": %d,\n" r.Explorer.stuck_legs;
  Printf.bprintf buf "    \"snapshots\": %d,\n" r.Explorer.snapshots;
  Printf.bprintf buf "    \"snapshots_per_node\": %.3f,\n" (per_node r r.Explorer.snapshots);
  Printf.bprintf buf "    \"bytes_hashed\": %d,\n" r.Explorer.bytes_hashed;
  Printf.bprintf buf "    \"bytes_hashed_per_node\": %.1f,\n" (per_node r r.Explorer.bytes_hashed);
  Printf.bprintf buf "    \"encode_ns_per_node\": %.1f,\n" (encode_ns_per_node ~paranoid:false);
  Printf.bprintf buf "    \"encode_ns_per_node_paranoid\": %.1f,\n"
    (encode_ns_per_node ~paranoid:true);
  Buffer.add_string buf "    \"no_dedup\": {\n";
  Printf.bprintf buf "      \"paths\": %d,\n" r_nd.Explorer.paths;
  Printf.bprintf buf "      \"states_visited\": %d,\n" r_nd.Explorer.states_visited;
  Printf.bprintf buf "      \"seconds_per_exploration\": %.6f,\n" secs_nd;
  Printf.bprintf buf "      \"paths_per_sec\": %.1f\n" (pps r_nd secs_nd);
  Buffer.add_string buf "    }\n";
  Buffer.add_string buf "  },\n  \"scenarios3\": {\n";
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
              Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s)
                ~max_paths:1_000_000 ?paranoid_memo ?memo_cap ~check:(Scenario.oracle_check s) ())
        in
        (r, Unix.gettimeofday () -. t0, alloc)
      in
      (* one untimed warmup + min-of-2 per leg *)
      let explore ?paranoid_memo ?memo_cap () =
        ignore (explore_once ?paranoid_memo ?memo_cap () : _ * float * _);
        let ra, ta, alloc = explore_once ?paranoid_memo ?memo_cap () in
        let _, tb, _ = explore_once ?paranoid_memo ?memo_cap () in
        (ra, Float.min ta tb, alloc)
      in
      let r1, s1, alloc1 = explore () in
      let rb, sb, _ = explore ~memo_cap:512 () in
      let rp, sp, _ = explore ~paranoid_memo:true () in
      let per_state words = float_of_int words /. float_of_int (max 1 r1.Explorer.states_visited) in
      let viols (x : _ Explorer.result) = List.map snd x.Explorer.violations in
      Printf.bprintf buf "    \"%s\": {\n" name;
      Printf.bprintf buf "      \"paths\": %d,\n" r1.Explorer.paths;
      Printf.bprintf buf "      \"violating_schedules\": %d,\n"
        (List.length r1.Explorer.violations);
      Printf.bprintf buf "      \"truncated\": %b,\n" r1.Explorer.truncated;
      Printf.bprintf buf "      \"states_visited\": %d,\n" r1.Explorer.states_visited;
      Printf.bprintf buf "      \"dedup_hits\": %d,\n" r1.Explorer.dedup_hits;
      Printf.bprintf buf "      \"dedup_ratio\": %.4f,\n" (dedup_ratio r1);
      Printf.bprintf buf "      \"stuck_legs\": %d,\n" r1.Explorer.stuck_legs;
      Printf.bprintf buf "      \"snapshots_per_node\": %.3f,\n"
        (per_node r1 r1.Explorer.snapshots);
      Printf.bprintf buf "      \"bytes_hashed_per_node\": %.1f,\n"
        (per_node r1 r1.Explorer.bytes_hashed);
      Printf.bprintf buf "      \"seconds\": %.6f,\n" s1;
      Printf.bprintf buf "      \"paths_per_sec\": %.1f,\n" (pps r1 s1);
      Printf.bprintf buf "      \"direct_major_words_per_state\": %.1f,\n"
        (per_state alloc1.Uldma_obs.Alloc.direct_major);
      Printf.bprintf buf "      \"minor_words_per_state\": %.1f,\n"
        (per_state alloc1.Uldma_obs.Alloc.minor);
      Printf.bprintf buf "      \"paranoid\": {\n";
      Printf.bprintf buf "        \"seconds\": %.6f,\n" sp;
      Printf.bprintf buf "        \"bytes_hashed_per_node\": %.1f,\n"
        (per_node rp rp.Explorer.bytes_hashed);
      Printf.bprintf buf "        \"speedup_fingerprint_vs_paranoid\": %.3f,\n" (sp /. s1);
      Printf.bprintf buf "        \"results_identical\": %b\n"
        (rp.Explorer.paths = r1.Explorer.paths
        && rp.Explorer.states_visited = r1.Explorer.states_visited
        && viols rp = viols r1);
      Printf.bprintf buf "      },\n";
      Printf.bprintf buf "      \"bounded_memo\": {\n";
      Printf.bprintf buf "        \"memo_cap\": 512,\n";
      Printf.bprintf buf "        \"evictions\": %d,\n" rb.Explorer.evictions;
      Printf.bprintf buf "        \"seconds\": %.6f,\n" sb;
      Printf.bprintf buf "        \"results_identical\": %b\n"
        (rb.Explorer.paths = r1.Explorer.paths && viols rb = viols r1);
      Printf.bprintf buf "      }\n";
      Printf.bprintf buf "    }%s\n" (sep i (List.length scenarios3)))
    scenarios3;
  Buffer.add_string buf "  },\n  \"timed\": {\n";
  (* rep5 under each timed net backend: the wait leg grows the tree,
     the relative-deadline encoding must still collapse it and the
     brute-force run must agree exactly *)
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
          Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s)
            ~max_paths:1_000_000 ?dedup ~check:(Scenario.oracle_check s) ()
        in
        (r, Unix.gettimeofday () -. t0)
      in
      (* only the dedup leg is timed: warmup + min-of-2 *)
      let r, s =
        ignore (explore () : _ * float);
        let ra, ta = explore () in
        let _, tb = explore () in
        (ra, Float.min ta tb)
      in
      let rb, _ = explore ~dedup:false () in
      let viols (x : _ Explorer.result) = List.map snd x.Explorer.violations in
      Printf.bprintf buf "    \"%s\": {\n" name;
      Printf.bprintf buf "      \"paths\": %d,\n" r.Explorer.paths;
      Printf.bprintf buf "      \"violating_schedules\": %d,\n" (List.length r.Explorer.violations);
      Printf.bprintf buf "      \"truncated\": %b,\n" r.Explorer.truncated;
      Printf.bprintf buf "      \"states_visited\": %d,\n" r.Explorer.states_visited;
      Printf.bprintf buf "      \"dedup_hits\": %d,\n" r.Explorer.dedup_hits;
      Printf.bprintf buf "      \"dedup_ratio\": %.4f,\n" (dedup_ratio r);
      Printf.bprintf buf "      \"bytes_hashed_per_node\": %.1f,\n"
        (per_node r r.Explorer.bytes_hashed);
      Printf.bprintf buf "      \"seconds\": %.6f,\n" s;
      Printf.bprintf buf "      \"paths_per_sec\": %.1f,\n" (pps r s);
      Printf.bprintf buf "      \"differential_identical\": %b\n"
        (r.Explorer.paths = rb.Explorer.paths && viols r = viols rb);
      Printf.bprintf buf "    }%s\n" (sep i (List.length timed_backends)))
    timed_backends;
  Buffer.add_string buf "  },\n";
  bench_campaign buf;
  Buffer.add_string buf "  \"initiation_us\": {\n";
  List.iteri
    (fun i (name, us) ->
      Printf.bprintf buf "    \"%s\": %.3f%s\n" name us (sep i (List.length initiation)))
    initiation;
  Buffer.add_string buf "  },\n  \"counters\": {\n";
  (* per-layer named counters (os, bus and dma sections) of a standard
     100-initiation session per mechanism *)
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
            (sep j (List.length names)))
        names;
      Printf.bprintf buf "    }%s\n" (sep i (List.length mechs)))
    mechs;
  Buffer.add_string buf "  }\n}\n";
  let path = Filename.concat results_dir "BENCH_explorer.json" in
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "explorer: %d rep5 paths in %.4fs (%.0f paths/s); wrote %s\n" r.Explorer.paths
    secs (pps r secs) path
