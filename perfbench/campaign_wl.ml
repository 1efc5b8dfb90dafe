(* Workload [campaign]: every slots-3 accomplice family of the eight
   mechanisms on the Null backend (8 x 42 = 336 candidates) through
   Campaign.run, one cell per mechanism, all cells chained through one
   shared memo the way `uldma_cli campaign` chains them. An op is one
   candidate. The seed permutes candidate order inside each cell; seed 0
   is enumeration order. *)

open Uldma_verify
module Synth = Uldma_workload.Synth
module Scenario = Uldma_workload.Scenario

let subjects =
  [
    ("rep3", Synth.Rep Uldma_dma.Seq_matcher.Three);
    ("rep4", Synth.Rep Uldma_dma.Seq_matcher.Four);
    ("rep5", Synth.Rep Uldma_dma.Seq_matcher.Five);
    ("pal", Synth.Pal);
    ("key", Synth.Key);
    ("ext", Synth.Ext);
    ("iommu", Synth.Iommu);
    ("capio", Synth.Capio);
  ]

let slots = function Pb.Full -> 3 | Pb.Tiny -> 1

type cell = {
  mech : string;
  subject : Synth.subject;
  scn : Scenario.t;
  labels : string array;  (** enumeration order *)
  order : int array;  (** run position -> enumeration index *)
  cands : Oracle.violation Campaign.candidate array;  (** run order *)
}

let setup ~size ~seed () =
  List.mapi
    (fun i (mech, subject) ->
      let base = Synth.make_base subject in
      let ops = Synth.enumerate ~slots:(slots size) () in
      let order = Pb.permutation ~seed ~salt:i (Array.length ops) in
      {
        mech;
        subject;
        scn = Synth.base_scenario base;
        labels = Array.map Synth.mnemonic ops;
        order;
        (* sequential on purpose: snapshotting mutates the base *)
        cands = Array.map (fun j -> Synth.candidate base ops.(j)) order;
      })
    subjects

type cell_out = {
  cell : cell;
  results : Oracle.violation Explorer.result array;  (** run order *)
  stats : Campaign.stats;
  cell_s : float;
  gc : Pb.gc_delta;
}

(* One pass over every cell. [call] runs each cell's Campaign.run (the
   untraced run meters it); [wrap] decorates the oracle (the traced run
   counts terminals with it). *)
let pass ?(wrap = Fun.id) ?(call = fun f -> f ()) cells =
  let shared = Explorer.create_shared ~cap:(1 lsl 20) () in
  let outs =
    List.map
      (fun cell ->
        let ((results, stats), gc), cell_s =
          Pb.time (fun () ->
              Pb.with_gc (fun () ->
                  call (fun () ->
                      Campaign.run ~candidates:cell.cands ~pids:(Scenario.explore_pids cell.scn)
                        ~baseline:cell.scn.Scenario.kernel ~jobs:1 ~max_paths:1_000_000 ~shared
                        ~check:(wrap (Scenario.oracle_check cell.scn))
                        ())))
        in
        { cell; results; stats; cell_s; gc })
      cells
  in
  (outs, shared)

(* ------------------------------------------------------------------ *)
(* Checks *)

type pins = {
  candidates : (string * string, Pb.facts) Hashtbl.t;  (** (mech, label) -> cold facts *)
  catalogue : (string, string) Hashtbl.t;  (** mech label -> the catalogue's Null row *)
}

(* The committed collusion catalogue, which `uldma_cli campaign` writes
   at slots 3. *)
let catalogue_path = "_results/collusion_catalogue.csv"

let load_pins () =
  let candidates = Hashtbl.create 512 and catalogue = Hashtbl.create 8 in
  List.iter
    (function
      | mech :: label :: rest -> Hashtbl.replace candidates (mech, label) (Pb.facts_of_row rest)
      | _ -> failwith "campaign.tsv: malformed row")
    (Pb.read_rows (Pb.ref_path "campaign.tsv"));
  In_channel.with_open_text catalogue_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun row ->
         match String.split_on_char ',' row with
         | mech :: "null" :: _ -> Hashtbl.replace catalogue mech row
         | _ -> ());
  { candidates; catalogue }

(* A cell's catalogue row from its enumeration-ordered results, built
   the way Synth.make_cell builds it (synth.mli exports the row type and
   printer, not the builder). Its results_fp digests every candidate's
   label, paths, truncation and violation schedules, so an equal row
   means the whole cell reproduced the catalogue. *)
let catalogue_row c (stats : Campaign.stats) (by_enum : Oracle.violation Explorer.result array) =
  let module F = Uldma_util.Fp128 in
  let fp = F.create () in
  Array.iteri
    (fun j (r : _ Explorer.result) ->
      F.add_string fp c.labels.(j);
      F.add_int fp r.Explorer.paths;
      F.add_int fp (if r.Explorer.truncated then 1 else 0);
      Pb.add_violations fp r)
    by_enum;
  let count p = Array.fold_left (fun a r -> if p r then a + 1 else a) 0 by_enum in
  let violating (r : _ Explorer.result) = r.Explorer.violations <> [] in
  (* enumeration order is shortest-first: the first violating candidate
     is the minimal witness *)
  let witness, witness_violations, witness_kinds =
    match Array.find_index violating by_enum with
    | None -> ("-", 0, "-")
    | Some j ->
      let vs = by_enum.(j).Explorer.violations in
      ( c.labels.(j),
        List.length vs,
        String.concat "+" (List.sort_uniq compare (List.map (fun (v, _) -> Synth.kind_name v) vs)) )
  in
  Synth.catalogue_row
    {
      Synth.cell_mech = Synth.subject_label c.subject;
      cell_net = Synth.net_label None;
      cell_slots = slots Pb.Full;
      cell_candidates = Array.length by_enum;
      cell_violating = count violating;
      cell_truncated = count (fun r -> r.Explorer.truncated);
      cell_paths = stats.Campaign.g_paths;
      cell_states = stats.Campaign.g_states;
      cell_hits = stats.Campaign.g_hits;
      cell_witness = witness;
      cell_witness_violations = witness_violations;
      cell_witness_kinds = witness_kinds;
      cell_results_fp = Pb.hex (F.key fp);
    }

(* Each candidate's facts must equal its pinned cold sequential run.
   With the full slots-3 family, each cell's catalogue row must also
   equal the committed catalogue's Null row, or every candidate of the
   cell counts as failed. Returns (ops, failed). *)
let check ~size pins outs =
  List.fold_left
    (fun (ops, bad) o ->
      let c = o.cell in
      let n = Array.length c.cands in
      let by_enum = Array.copy o.results in
      Array.iteri (fun pos r -> by_enum.(c.order.(pos)) <- r) o.results;
      let failed =
        Array.mapi
          (fun j r ->
            let label = c.labels.(j) and f = Pb.facts r in
            match Hashtbl.find_opt pins.candidates (c.mech, label) with
            | Some p when p = f -> false
            | Some p ->
              Pb.complain "campaign %s/%s: got %s, pinned %s" c.mech label (Pb.show_facts f)
                (Pb.show_facts p);
              true
            | None ->
              Pb.complain "campaign %s/%s: no pinned reference" c.mech label;
              true)
          by_enum
      in
      (if size = Pb.Full then
         let got = catalogue_row c o.stats by_enum in
         match Hashtbl.find_opt pins.catalogue (Synth.subject_label c.subject) with
         | Some want when want = got -> ()
         | want ->
           Pb.complain "campaign cell %s: row %s, catalogue %s" c.mech got
             (Option.value want ~default:"missing");
           Array.fill failed 0 n true);
      (ops + n, bad + Array.fold_left (fun a b -> if b then a + 1 else a) 0 failed))
    (0, 0) outs

(* ------------------------------------------------------------------ *)
(* Runs *)

let run ~seed ~size =
  let pins = load_pins () in
  Pb.one_pass ~setup:(setup ~size ~seed)
    ~pass:(fun call cells -> fst (pass ~call cells))
    ~check:(fun _ outs -> check ~size pins outs)

let sum outs f = List.fold_left (fun a o -> Array.fold_left (fun a r -> a + f r) a o.results) 0 outs

let traced ~seed ~size =
  let pins = load_pins () in
  let cells = setup ~size ~seed () in
  Gc.full_major ();
  let m = Pb.meter () in
  let plain, _ = pass ~call:(Pb.metered m) cells in
  let ops1, bad1 = check ~size pins plain in
  let cells = setup ~size ~seed () in
  Gc.full_major ();
  let terminals = ref 0 in
  let wrap check k =
    incr terminals;
    check k
  in
  let (outs, shared), wall = Pb.time (fun () -> pass ~wrap cells) in
  let ops2, bad2 = check ~size pins outs in
  let states = sum outs (fun r -> r.Explorer.states_visited) in
  let hits = sum outs (fun r -> r.Explorer.dedup_hits) in
  let nodes = float_of_int (states + hits) in
  let minor = List.fold_left (fun a o -> a +. o.gc.Pb.minor_words) 0.0 outs in
  let major = List.fold_left (fun a o -> a +. o.gc.Pb.major_words) 0.0 outs in
  let resident = Explorer.shared_length shared in
  let counts =
    {
      Walk.roots = ops2;
      states;
      hits;
      snapshots = sum outs (fun r -> r.Explorer.snapshots);
      terminals = !terminals;
    }
  in
  let layer =
    [
      ("verify.states", float_of_int states);
      ("verify.memo_hits", float_of_int hits);
      ("verify.hit_ratio", Pb.ratio (float_of_int hits) nodes);
      ("verify.paths", float_of_int (sum outs (fun r -> r.Explorer.paths)));
      ("verify.snapshots_per_node", Pb.ratio (float_of_int counts.snapshots) nodes);
      ( "verify.bytes_hashed_per_node",
        Pb.ratio (float_of_int (sum outs (fun r -> r.Explorer.bytes_hashed))) nodes );
      ("verify.violations", float_of_int (sum outs (fun r -> List.length r.Explorer.violations)));
      ("verify.memo_resident", float_of_int resident);
      ("verify.memo_evictions", float_of_int (Explorer.shared_evictions shared));
      ("gc.minor_words_per_state", Pb.ratio minor (float_of_int states));
      ("gc.major_words_per_state", Pb.ratio major (float_of_int states));
      ("gc.top_heap_mb", Pb.top_heap_mb ());
    ]
    @ List.map (fun o -> ("verify.cell_s." ^ o.cell.mech, o.cell_s)) outs
  in
  let roots =
    List.concat_map
      (fun c ->
        Array.to_list
          (Array.map
             (fun cand ->
               {
                 Walk.root = cand.Campaign.c_root;
                 baseline = c.scn.Scenario.kernel;
                 pids = Scenario.explore_pids c.scn;
                 check = Scenario.oracle_check c.scn;
               })
             c.cands))
      cells
  in
  ignore (Sys.opaque_identity outs);
  Gc.full_major ();
  let w, walk_s =
    Pb.time (fun () ->
        let w =
          Walk.create ~seed
            ~memo:(Memo.create ~shards:64 ~cap:(1 lsl 20) ~locked:true)
            ~resident
        in
        List.iter (Walk.walk w) roots;
        w)
  in
  {
    Pb.attempted = ops1 + ops2;
    failed = bad1 + bad2;
    correct = true;
    metrics =
      layer
      @ Walk.attribute w counts ~wall
          ~wait_legs:(Float.round (float_of_int (Walk.legs counts) *. Walk.wait_share w))
      @ [ ("trace.overhead", (wall +. walk_s) /. m.Pb.raw) ]
      @ Pb.host_metrics m;
  }

(* ------------------------------------------------------------------ *)
(* Pinning: each candidate explored cold (its own memo, no sharing) in
   enumeration order, at slots 3 — the slots-1 candidates are a prefix
   of that family. The shared-memo pass is then checked against the new
   pins before they are written. *)

let pin () =
  let cells = setup ~size:Pb.Full ~seed:0 () in
  let rows =
    List.concat_map
      (fun c ->
        Array.to_list
          (Array.mapi
             (fun j cand ->
               let r =
                 Explorer.explore ~root:cand.Campaign.c_root ~pids:(Scenario.explore_pids c.scn)
                   ~baseline:c.scn.Scenario.kernel ~max_paths:1_000_000
                   ~check:(Scenario.oracle_check c.scn) ()
               in
               c.mech :: c.labels.(c.order.(j)) :: Pb.facts_row (Pb.facts r))
             c.cands))
      cells
  in
  Pb.write_rows (Pb.ref_path "campaign.tsv")
    ~header:"mech label paths truncated violations first_violating_schedule violations_digest"
    rows;
  let pins = load_pins () in
  let outs, _ = pass (setup ~size:Pb.Full ~seed:0 ()) in
  let ops, bad = check ~size:Pb.Full pins outs in
  Printf.printf "campaign: %d candidates pinned; shared-memo pass: %d of %d differ\n%!" ops bad ops
