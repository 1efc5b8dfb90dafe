(* Adversary demo: watch the paper's attacks happen — and fail.

   Reproduces, step by step:
   - Fig. 5: a malicious process splices its own source address into a
     victim's 3-access sequence, transferring ITS data into the
     victim's buffer;
   - Fig. 6: the attacker completes a victim's 4-access sequence, so
     the DMA starts but the victim is told it failed;
   - the same adversary against the paper's 5-access method, which an
     exhaustive search over every schedule shows to be unbreakable.

   Run with: dune exec examples/adversary_demo.exe *)

open Uldma_os
module Oracle = Uldma_verify.Oracle
module Explorer = Uldma_verify.Explorer
module Scenario = Uldma_workload.Scenario

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let leg_name (s : Scenario.t) = function
  | Scenario.V -> Printf.sprintf "victim(%d)" s.Scenario.victim.Process.pid
  | Scenario.M -> Printf.sprintf "attacker(%d)" s.Scenario.attacker.Process.pid

let show_outcome (s : Scenario.t) =
  let transfers = Scenario.transfers s in
  Printf.printf "  transfers started: %d\n" (List.length transfers);
  List.iter (fun tr -> Format.printf "    %a@." Uldma_dma.Transfer.pp tr) transfers;
  Printf.printf "  victim believes:   %s (status %d)\n"
    (if Scenario.victim_successes s > 0 then "SUCCESS" else "failure")
    (Scenario.victim_last_status s);
  let report = Scenario.report s in
  if Oracle.ok report then print_endline "  safety oracle:     clean"
  else Format.printf "  safety oracle:     @[%a@]@." Oracle.pp_report report

let scripted title scenario schedule =
  banner title;
  let s = scenario () in
  Printf.printf "  schedule (one NI access per leg): %s\n"
    (String.concat " " (List.map (leg_name s) schedule));
  Scenario.run_legs s schedule;
  Scenario.finish s ();
  show_outcome s;
  s

let () =
  print_endline "=== Attacking user-level DMA initiation ===";
  print_endline "Victim wants DMA(A -> B, 256 bytes); the attacker owns pages foo, C.";

  let _ =
    scripted "Fig. 5 - the 3-access variant is exploitable" Scenario.fig5 Scenario.fig5_schedule
  in
  print_endline "  => the attacker moved ITS data (C) into the victim's buffer (B).";

  let _ =
    scripted "Fig. 6 - the 4-access variant misreports" Scenario.fig6 Scenario.fig6_schedule
  in
  print_endline
    "  => the victim's transfer DID start, but the victim was told it failed\n\
    \     (it would retry and double-transfer, or give up on delivered data).";

  let _ =
    scripted "Fig. 7 - the 5-access method under the same attacker" Scenario.rep5
      Scenario.fig5_schedule
  in
  print_endline "  => the sequence recogniser rejects the splice; nothing illegitimate starts.";

  banner "Sec. 3.3.1, machine-checked: every schedule of victim vs attacker";
  let s = Scenario.rep5 () in
  let pids = [ s.Scenario.victim.Process.pid; s.Scenario.attacker.Process.pid ] in
  let check kernel =
    let successes =
      match Kernel.find_process kernel s.Scenario.victim.Process.pid with
      | Some p ->
        Uldma.Session.Stub.read_successes kernel p ~result_va:s.Scenario.victim_result_va
      | None -> 0
    in
    let report =
      Oracle.check ~kernel ~intents:s.Scenario.intents
        ~reported_successes:[ (s.Scenario.victim.Process.pid, successes) ]
    in
    match report.Oracle.violations with [] -> None | v :: _ -> Some v
  in
  let r = Explorer.explore ~root:s.Scenario.kernel ~pids ~check () in
  Printf.printf "  schedules explored: %d (complete: %b)\n" r.Explorer.paths
    (not r.Explorer.truncated);
  Printf.printf "  violating schedules: %d\n" (List.length r.Explorer.violations);
  print_endline
    (if r.Explorer.violations = [] then
       "  => the five-access repeated-passing method is SAFE under every interleaving."
     else "  => UNEXPECTED: violations found!")
