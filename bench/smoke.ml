(* @bench-smoke — a seconds-scale exercise of the perf-critical paths,
   wired into `dune runtest` so they cannot bit-rot between full bench
   runs: one small exhaustive exploration (fig5, known 126 schedules),
   a 10-iteration initiation measurement, a clipped 3-process contested
   exploration under bounded-memo eviction, and a small complete
   3-process tree (known 1680 schedules). Exits non-zero on any
   deviation. *)

module Scenario = Uldma_workload.Scenario
module Explorer = Uldma_verify.Explorer

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench-smoke: " ^ s); exit 1) fmt

let explore ?max_paths ?memo_cap s =
  Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s) ?max_paths ?memo_cap
    ~check:(Scenario.oracle_check s) ()

let () =
  let r = explore (Scenario.fig5 ()) in
  if r.Explorer.truncated then fail "fig5 exploration truncated";
  if r.Explorer.paths <> 126 then
    fail "fig5 exploration found %d schedules, expected 126" r.Explorer.paths;
  let m = Uldma_sim.Measure.initiation ~iterations:10 (Uldma.Api.find_exn "ext-shadow") in
  if m.Uldma_sim.Measure.successes <> 10 then
    fail "ext-shadow initiation: %d/10 succeeded" m.Uldma_sim.Measure.successes;
  (* 3-process contested workload, clipped by max_paths: the bounded
     memo must evict under a tiny cap and still clip the run *)
  let big () = Scenario.key_contested3 () in
  let r_cap = explore ~max_paths:2000 ~memo_cap:64 (big ()) in
  if not r_cap.Explorer.truncated then fail "key-3 clipped exploration should truncate";
  if r_cap.Explorer.evictions = 0 then fail "key-3 with memo_cap 64 evicted nothing";
  let small = explore (Scenario.ext_shadow_contested3 ~victim_repeat:1 ~tenant_repeat:1 ()) in
  if small.Explorer.truncated then fail "ext-shadow-3 (small) truncated";
  if small.Explorer.paths <> 1680 then
    fail "ext-shadow-3 (small) found %d schedules, expected 1680" small.Explorer.paths;
  Printf.printf
    "bench-smoke ok: fig5 %d schedules, ext-shadow %.2f us/initiation, key-3 clipped with %d \
     evictions, ext-shadow-3 %d schedules\n"
    r.Explorer.paths m.Uldma_sim.Measure.us_per_initiation r_cap.Explorer.evictions
    small.Explorer.paths
