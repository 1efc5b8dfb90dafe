(* Timed net backends in the verified explorer.

   Covers the Backend abstraction (link wire times, tick quantisation),
   the relative-deadline state encoding, the transfer-completion wait
   leg, the differential soundness harness (brute-force vs dedup vs
   parallel on the timed scenarios), and the persistent-memo net-key
   regression. Everything here is deterministic; the randomized
   property tests draw from a fixed-seed Uldma_util.Rng. *)

open Uldma_util
module Link = Uldma_net.Link
module Backend = Uldma_net.Backend
module Kernel = Uldma_os.Kernel
module Explorer = Uldma_verify.Explorer
module Oracle = Uldma_verify.Oracle
module Scenario = Uldma_workload.Scenario

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let atm155 = Backend.linked Link.atm155

(* ------------------------------------------------------------------ *)
(* Property tests: link wire times and tick quantisation (fixed-seed
   randomized parameters) *)

let random_link rng =
  {
    Link.name = "random";
    bytes_per_s = float_of_int (Rng.int_in rng ~lo:1_000_000 ~hi:1_000_000_000);
    latency_ps = Rng.int_in rng ~lo:0 ~hi:(Units.us 20.0);
  }

let test_wire_time_monotone () =
  let rng = Rng.create ~seed:0x11ed in
  for _ = 1 to 500 do
    let link = random_link rng in
    let n1 = Rng.int_in rng ~lo:0 ~hi:65_536 in
    let n2 = n1 + Rng.int_in rng ~lo:0 ~hi:65_536 in
    let w1 = Link.wire_time_ps link n1 and w2 = Link.wire_time_ps link n2 in
    if w1 > w2 then
      Alcotest.failf "wire_time_ps not monotone: %d bytes -> %d ps but %d bytes -> %d ps" n1 w1
        n2 w2;
    if n1 > 0 && w1 < link.Link.latency_ps then
      Alcotest.failf "wire time %d ps below the link latency %d ps" w1 link.Link.latency_ps
  done

let test_quantise_properties () =
  let rng = Rng.create ~seed:0x7ac5 in
  for _ = 1 to 1000 do
    let tick_ps = Rng.int_in rng ~lo:1 ~hi:Units.(us 5.0) in
    let ps = Rng.int_in rng ~lo:0 ~hi:Units.(us 100.0) in
    let q = Backend.quantise ~tick_ps ps in
    if q mod tick_ps <> 0 then Alcotest.failf "quantise(%d, tick %d) = %d not a tick multiple" ps tick_ps q;
    if q < ps then Alcotest.failf "quantise rounded %d down to %d (tick %d)" ps q tick_ps;
    if q - ps >= tick_ps then
      Alcotest.failf "quantise overshot: %d -> %d with tick %d" ps q tick_ps;
    if ps > 0 && q = 0 then
      Alcotest.failf "nonzero duration %d quantised to zero ticks (tick %d)" ps tick_ps
  done;
  checki "zero stays zero" 0 (Backend.quantise ~tick_ps:1000 0)

let test_linked_duration_never_zero () =
  let rng = Rng.create ~seed:0xd00d in
  for _ = 1 to 500 do
    let link = random_link rng in
    let tick_ps = Rng.int_in rng ~lo:1 ~hi:Units.(us 5.0) in
    let b = Backend.linked ~tick_ps link in
    let n = Rng.int_in rng ~lo:1 ~hi:65_536 in
    let d = Backend.duration_ps b n in
    if d <= 0 then
      Alcotest.failf "%d-byte transfer got duration %d on a timed backend (tick %d)" n d tick_ps;
    if d mod tick_ps <> 0 then Alcotest.failf "duration %d not a multiple of tick %d" d tick_ps
  done

(* ------------------------------------------------------------------ *)
(* Backend basics *)

let test_backend_basics () =
  checki "null duration" 0 (Backend.duration_ps Backend.null 4096);
  checkb "null of_string" true (Backend.of_string "null" = Ok Backend.Null);
  (match Backend.of_string ~tick_ps:7 "atm155" with
  | Ok (Backend.Linked { link; tick_ps }) ->
    Alcotest.(check string) "link name" "ATM 155Mbps" link.Link.name;
    checki "tick carried" 7 tick_ps
  | Ok Backend.Null | Error _ -> Alcotest.fail "atm155 did not parse as a linked backend");
  checkb "unknown rejected" true (Result.is_error (Backend.of_string "token-ring"));
  Alcotest.(check string) "null cache key" "null" (Backend.cache_key Backend.null);
  checkb "tick is part of the cache key" true
    (Backend.cache_key (Backend.linked ~tick_ps:1000 Link.atm155)
    <> Backend.cache_key (Backend.linked ~tick_ps:2000 Link.atm155));
  checkb "tick <= 0 rejected" true
    (match Backend.linked ~tick_ps:0 Link.atm155 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Explorer plumbing shared below *)

let explore ?dedup build =
  let s = build () in
  Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s) ?dedup
    ~check:(Scenario.oracle_check s) ()

let canon (r : _ Explorer.result) =
  List.map (fun (v, schedule) -> (Oracle.kind_name v, schedule)) r.Explorer.violations

(* ------------------------------------------------------------------ *)
(* Null backend: explicitly passing it must be indistinguishable from
   the default, down to the fresh-kernel state encoding *)

let test_null_backend_is_the_default () =
  let plain = Scenario.rep5 () and explicit = Scenario.rep5 ~net:Backend.null () in
  Alcotest.(check string)
    "fresh-kernel encodings equal"
    (Kernel.state_encoding plain.Scenario.kernel)
    (Kernel.state_encoding explicit.Scenario.kernel);
  let r1 = explore (fun () -> Scenario.rep5 ()) in
  let r2 = explore (fun () -> Scenario.rep5 ~net:Backend.null ()) in
  checki "paths" r1.Explorer.paths r2.Explorer.paths;
  checki "states" r1.Explorer.states_visited r2.Explorer.states_visited;
  checki "dedup hits" r1.Explorer.dedup_hits r2.Explorer.dedup_hits;
  checkb "violations" true (canon r1 = canon r2)

(* Null baselines: the deadline fields in the encoding are constant
   under Null, so they leave the state partition, not just the result,
   unchanged; the pinned state count moves only when the key's
   partition does. *)
let test_null_baselines_pinned () =
  let r5 = explore (fun () -> Scenario.rep5 ()) in
  checki "rep5 schedules" 462 r5.Explorer.paths;
  checki "rep5 dedup states" 151 r5.Explorer.states_visited;
  checkb "rep5 complete" false r5.Explorer.truncated;
  let f5 = explore (fun () -> Scenario.fig5 ()) in
  checki "fig5 schedules" 126 f5.Explorer.paths;
  checki "fig5 violations" 9 (List.length f5.Explorer.violations);
  checkb "no wait legs under Null" true
    (List.for_all
       (fun (_, schedule) -> not (List.mem Explorer.wait_leg schedule))
       f5.Explorer.violations)

(* ------------------------------------------------------------------ *)
(* Timed exploration behaviour *)

let test_timed_rep5_safe_and_merged () =
  let null = explore (fun () -> Scenario.rep5 ()) in
  let timed = explore (fun () -> Scenario.rep5 ~net:atm155 ()) in
  checkb "complete" false timed.Explorer.truncated;
  checki "still safe" 0 (List.length timed.Explorer.violations);
  checkb "wait legs open extra schedules" true (timed.Explorer.paths > null.Explorer.paths);
  (* the relative-deadline encoding must still merge commuting
     prefixes: strictly fewer states than schedules = dedup_ratio > 1 *)
  checkb "dedup ratio > 1" true (timed.Explorer.states_visited < timed.Explorer.paths);
  checkb "dedup hits occur" true (timed.Explorer.dedup_hits > 0)

let test_timed_fig5_still_vulnerable () =
  checki "wait_leg is -2" (-2) Explorer.wait_leg;
  let timed = explore (fun () -> Scenario.fig5 ~net:atm155 ()) in
  checkb "complete" false timed.Explorer.truncated;
  checkb "attack found" true (timed.Explorer.violations <> []);
  checkb "some violating schedule waits on the wire" true
    (List.exists
       (fun (_, schedule) -> List.mem Explorer.wait_leg schedule)
       timed.Explorer.violations)

(* ------------------------------------------------------------------ *)
(* Differential soundness: brute-force (no dedup) vs dedup on all three
   timed scenarios — identical path counts and identical violation
   sets, or the relative-deadline encoding merged states it should not
   have *)

let test_timed_differential () =
  List.iter
    (fun (name, build) ->
      let brute = explore ~dedup:false build in
      checkb (name ^ " brute complete") false brute.Explorer.truncated;
      let dedup = explore build in
      checki (name ^ " dedup paths") brute.Explorer.paths dedup.Explorer.paths;
      checkb (name ^ " dedup violations") true (canon dedup = canon brute))
    [
      ("fig5", fun () -> Scenario.fig5 ~net:atm155 ());
      ("rep5", fun () -> Scenario.rep5 ~net:atm155 ());
      ("key-based", fun () -> Scenario.key_contested ~net:atm155 ());
    ]

(* ------------------------------------------------------------------ *)
(* Kernel-level wait mechanics *)

let test_advance_to_next_completion () =
  let s = Scenario.rep5 ~net:atm155 () in
  let kernel = s.Scenario.kernel in
  checkb "nothing in flight at the root" true (Kernel.next_transfer_deadline kernel = None);
  checkb "advance refuses with nothing in flight" false (Kernel.advance_to_next_completion kernel);
  (* the victim's five emit accesses start the transfer *)
  Scenario.run_legs s Scenario.[ V; V; V; V; V ];
  let tr =
    match Scenario.transfers s with
    | [ tr ] -> tr
    | l -> Alcotest.failf "expected exactly one transfer, got %d" (List.length l)
  in
  checkb "transfer has wire time" true (tr.Uldma_dma.Transfer.duration > 0);
  checki "duration is tick-quantised" 0 (tr.Uldma_dma.Transfer.duration mod Backend.default_tick_ps);
  let deadline =
    match Kernel.next_transfer_deadline kernel with
    | Some at -> at
    | None -> Alcotest.fail "no deadline while the transfer is in flight"
  in
  checkb "remaining time positive" true
    (Uldma_dma.Transfer.remaining_ps tr ~now:(Kernel.now_ps kernel) > 0);
  checkb "advance succeeds" true (Kernel.advance_to_next_completion kernel);
  checki "clock landed on the deadline" deadline (Kernel.now_ps kernel);
  checki "nothing remaining afterwards" 0
    (Uldma_dma.Transfer.remaining_ps tr ~now:(Kernel.now_ps kernel));
  checkb "no further deadline" true (Kernel.next_transfer_deadline kernel = None);
  checkb "second advance refuses" false (Kernel.advance_to_next_completion kernel)

(* The encoding is relative to now, never to the absolute clock: two
   states differing only in how much idle time they accumulated must
   merge, while a state whose in-flight transfer has less wire time
   left must not. *)
let test_encoding_relative_to_now () =
  (* Null backend, nothing in flight: absolute time is invisible *)
  let s = Scenario.rep5 () in
  Scenario.run_legs s Scenario.[ V; V ];
  let a = Kernel.snapshot s.Scenario.kernel and b = Kernel.snapshot s.Scenario.kernel in
  Uldma_bus.Clock.advance (Kernel.clock b) 12_345;
  Alcotest.(check string)
    "idle time alone does not split states" (Kernel.state_encoding a) (Kernel.state_encoding b);
  (* timed backend, transfer in flight: the remaining wire time IS part
     of the state, so the same idle time now separates them *)
  let st = Scenario.rep5 ~net:atm155 () in
  Scenario.run_legs st Scenario.[ V; V; V; V; V ];
  let c = Kernel.snapshot st.Scenario.kernel and d = Kernel.snapshot st.Scenario.kernel in
  Alcotest.(check string)
    "identical snapshots encode equally" (Kernel.state_encoding c) (Kernel.state_encoding d);
  Uldma_bus.Clock.advance (Kernel.clock d) 12_345;
  checkb "remaining wire time is visible" true
    (Kernel.state_encoding c <> Kernel.state_encoding d)

let () =
  Alcotest.run "timed"
    [
      ( "link-properties",
        [
          Alcotest.test_case "wire time monotone in bytes" `Quick test_wire_time_monotone;
          Alcotest.test_case "tick quantisation" `Quick test_quantise_properties;
          Alcotest.test_case "linked durations nonzero" `Quick test_linked_duration_never_zero;
        ] );
      ("backend", [ Alcotest.test_case "basics" `Quick test_backend_basics ]);
      ( "null-equivalence",
        [
          Alcotest.test_case "explicit null = default" `Quick test_null_backend_is_the_default;
          Alcotest.test_case "PR-3 baselines pinned" `Quick test_null_baselines_pinned;
        ] );
      ( "timed-exploration",
        [
          Alcotest.test_case "rep5 safe, states merge" `Quick test_timed_rep5_safe_and_merged;
          Alcotest.test_case "fig5 still vulnerable" `Quick test_timed_fig5_still_vulnerable;
          Alcotest.test_case "wait mechanics" `Quick test_advance_to_next_completion;
          Alcotest.test_case "encoding is clock-relative" `Quick test_encoding_relative_to_now;
        ] );
      ("differential", [ Alcotest.test_case "brute = dedup" `Slow test_timed_differential ]);
    ]
