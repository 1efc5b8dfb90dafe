(* Differential soundness harness for the timed explorer.

   For each (scenario, net backend) pair, the brute-force exploration
   (dedup off) is the ground truth: it expands every schedule with no
   memoization. The dedup runs — fingerprint-keyed and paranoid
   string-keyed — must reproduce its path count, its violation set
   (oracle kind + schedule), and even the violation order. Any
   disagreement means the relative-deadline state encoding merged two
   states that were not actually equivalent, so this harness is the
   machine check behind DESIGN.md 5e's soundness argument.

   Exit 0 when every cell agrees, 1 on any mismatch. --quick runs a
   subset sized for `dune runtest`; the full matrix (all scenarios x
   all backends) is the CI leg. --paranoid-vs-fingerprint also requires
   the two keyings to expand the same states and take the same memo
   hits: they induce one equality relation on states, so any
   difference is a fingerprint collision.

   With --allow-truncated a brute-force run clipped at --max-paths is
   not a complaint but the point: a dedup run takes a memo hit only
   when it fits the remaining budget whole, so a clipped dedup run must
   reproduce the clipped brute-force result exactly. CI drives this
   harness with a deliberately small --max-paths to test exactly that.
   Equality stays exact either way. *)

module Scenario = Uldma_workload.Scenario
module Explorer = Uldma_verify.Explorer
module Oracle = Uldma_verify.Oracle
module Backend = Uldma_net.Backend
module Link = Uldma_net.Link

let failures = ref 0

let complain fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "diff-explore: MISMATCH: %s\n%!" msg)
    fmt

(* violation identity = oracle kind + full schedule (schedules are
   unique per terminal); payloads carry simulated timestamps that
   legitimately differ between merged prefixes *)
let canon (r : _ Explorer.result) =
  List.map (fun (v, schedule) -> (Oracle.kind_name v, schedule)) r.Explorer.violations

let explore ?dedup ?paranoid_memo ~max_paths build =
  let s = build () in
  Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s) ?dedup ?paranoid_memo
    ~max_paths ~check:(Scenario.oracle_check s) ()

let run_cell ~label ~max_paths ~same_states ~allow_truncated build =
  let brute = explore ~dedup:false ~max_paths build in
  if brute.Explorer.truncated && not allow_truncated then
    complain "%s: brute-force run truncated at %d paths; raise --max-paths" label
      brute.Explorer.paths;
  let brute_canon = canon brute in
  let check what (r : _ Explorer.result) =
    if r.Explorer.paths <> brute.Explorer.paths then
      complain "%s: %s counted %d paths, brute-force %d" label what r.Explorer.paths
        brute.Explorer.paths;
    if canon r <> brute_canon then
      complain "%s: %s violation set/order differs from brute-force (%d vs %d violations)" label
        what
        (List.length r.Explorer.violations)
        (List.length brute.Explorer.violations);
    if r.Explorer.truncated <> brute.Explorer.truncated then
      complain "%s: %s truncated=%b but brute-force truncated=%b" label what r.Explorer.truncated
        brute.Explorer.truncated
  in
  let dedup = explore ~max_paths build in
  check "dedup" dedup;
  (* paranoid leg: same dedup walk keyed on full encoding strings, under
     which key equality is exactly state equality. Both it and the
     fingerprint-keyed runs must match brute-force, so a fingerprint
     collision that merged two distinct states would surface here as a
     fingerprint-vs-brute (hence fingerprint-vs-paranoid) disagreement. *)
  let paranoid = explore ~paranoid_memo:true ~max_paths build in
  check "paranoid" paranoid;
  if
    same_states
    && (paranoid.Explorer.states_visited <> dedup.Explorer.states_visited
       || paranoid.Explorer.dedup_hits <> dedup.Explorer.dedup_hits)
  then
    complain "%s: paranoid keying expanded %d states with %d hits, fingerprint %d with %d" label
      paranoid.Explorer.states_visited paranoid.Explorer.dedup_hits dedup.Explorer.states_visited
      dedup.Explorer.dedup_hits;
  (* paths-per-expanded-state: the tree-collapse factor; distinct from
     the bench's dedup_ratio (hits / node arrivals) *)
  let paths_per_state =
    if dedup.Explorer.states_visited = 0 then 0.0
    else float_of_int dedup.Explorer.paths /. float_of_int dedup.Explorer.states_visited
  in
  Printf.printf
    "diff-explore: %-28s ok (%d paths%s, %d violations, %d dedup states, %.2f paths/state, brute \
     %d states)\n\
     %!"
    label brute.Explorer.paths
    (if brute.Explorer.truncated then " clipped" else "")
    (List.length brute.Explorer.violations)
    dedup.Explorer.states_visited paths_per_state brute.Explorer.states_visited

(* the catalogue's two-process machines, and the three-process
   newest-transfer race, the one machine here whose answers depend on
   the key marking the engine's newest transfer (a search over small
   two-process machines found none). Timed entries run under every
   backend; untimed ones have no wire-time variant and contribute only
   their null cell. *)
let scenarios =
  List.filter
    (fun (e : Scenario.entry) -> (Scenario.instance e).Scenario.extras = [])
    Scenario.catalogue
  @ [
      {
        Scenario.name = "newest-wait";
        title = "sys_dma_wait on the newest transfer";
        build = Scenario.Timed Scenario.newest_wait;
        schedule = None;
      };
    ]

(* the --quick sample: one cell per matrix mechanism (null backend),
   four timed cells (timed capio revokes capabilities mid-tree), the
   hook cells, the violating fig5 cell and the timed newest-transfer
   race, sized for `dune runtest` *)
let quick_cells =
  [
    ("fig5", "null");
    ("rep5", "null");
    ("rep5", "atm155");
    ("key-based", "null");
    ("pal", "null");
    ("ext-shadow", "null");
    ("iommu", "null");
    ("iommu", "atm155");
    ("capio", "null");
    ("capio-launder", "null");
    ("capio", "atm155");
    ("capio-launder", "atm155");
    ("shrimp2-race-hook", "null");
    ("flash-race-hook", "null");
    ("newest-wait", "atm155");
  ]

let backends ~tick_ps =
  [
    ("null", None);
    ("atm155", Some (Backend.linked ~tick_ps Link.atm155));
    ("atm622", Some (Backend.linked ~tick_ps Link.atm622));
    ("hic", Some (Backend.linked ~tick_ps Link.hic1355));
  ]

let usage () =
  Printf.eprintf
    "usage: diff_explore [--quick] [--scenario %s|all] [--net null|atm155|atm622|gigabit|hic|all] \
     [--tick-ps N] [--max-paths N] [--allow-truncated] [--paranoid-vs-fingerprint]\n"
    (String.concat "|" (List.map (fun (e : Scenario.entry) -> e.Scenario.name) scenarios));
  exit 2

let () =
  let quick = ref false in
  let scenario_filter = ref "all" in
  let net_filter = ref "all" in
  let tick_ps = ref Backend.default_tick_ps in
  let max_paths = ref 2_000_000 in
  let allow_truncated = ref false in
  let same_states = ref false in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--allow-truncated" :: rest ->
      allow_truncated := true;
      parse rest
    | "--paranoid-vs-fingerprint" :: rest ->
      same_states := true;
      parse rest
    | "--scenario" :: v :: rest ->
      scenario_filter := v;
      parse rest
    | "--net" :: v :: rest ->
      net_filter := v;
      parse rest
    | "--tick-ps" :: v :: rest ->
      tick_ps := int_of_string v;
      parse rest
    | "--max-paths" :: v :: rest ->
      max_paths := int_of_string v;
      parse rest
    | _ -> usage ()
  in
  (match parse (List.tl (Array.to_list Sys.argv)) with
  | () -> ()
  | exception Failure _ -> usage ());
  let scenarios =
    if !scenario_filter = "all" then scenarios
    else
      let chosen (e : Scenario.entry) = e.Scenario.name = !scenario_filter in
      match List.filter chosen scenarios with
      | [] -> usage ()
      | l -> l
  in
  let backends =
    let all = backends ~tick_ps:!tick_ps in
    if !net_filter = "all" then all
    else
      match Backend.of_string ~tick_ps:!tick_ps !net_filter with
      | Ok Backend.Null -> [ ("null", None) ]
      | Ok b -> [ (!net_filter, Some b) ]
      | Error msg ->
        prerr_endline msg;
        usage ()
  in
  (* one cell per (scenario, supported backend); untimed scenarios only
     have their null cell *)
  let cells =
    List.concat_map
      (fun (e : Scenario.entry) ->
        let cell (bname, net) = (e.Scenario.name, bname, fun () -> Scenario.instance ?net e) in
        match e.Scenario.build with
        | Scenario.Timed _ -> List.map cell backends
        | Scenario.Untimed _ -> List.map cell (List.filter (fun (b, _) -> b = "null") backends))
      scenarios
  in
  let cells =
    if !quick then
      List.filter (fun (sname, bname, _) -> List.mem (sname, bname) quick_cells) cells
    else cells
  in
  if cells = [] then begin
    prerr_endline "diff_explore: no cells match the scenario/net filters";
    usage ()
  end;
  List.iter
    (fun (sname, bname, build) ->
      run_cell
        ~label:(Printf.sprintf "%s --net %s" sname bname)
        ~max_paths:!max_paths ~same_states:!same_states ~allow_truncated:!allow_truncated build)
    cells;
  if !failures > 0 then begin
    Printf.printf "diff-explore: %d mismatching cell(s)\n" !failures;
    exit 1
  end;
  print_endline "diff-explore: all configurations agree"
