(* Workload [trees]: standalone Explorer.explore calls, each with its
   own memo and a path budget nothing reaches. An op is one tree. The
   seed permutes tree order. *)

open Uldma_verify
open Uldma_os
module Scenario = Uldma_workload.Scenario
module Backend = Uldma_net.Backend

(* How a tree's result is checked: a SAFE Null tree's path count is the
   multinomial of its processes' leg counts; every other tree must
   reproduce its pinned brute-force (~dedup:false) facts. *)
type kind = Multinomial | Pinned

(* [span] names the verify.tree_s metric the tree's time adds to: the
   three big trees have one each, the ten small timed trees share one. *)
type tree = { name : string; build : unit -> Scenario.t; kind : kind; span : string }

let nets =
  [
    ("atm155", Backend.linked Uldma_net.Link.atm155);
    ("gigabit", Backend.linked Uldma_net.Link.gigabit);
  ]

let trees size =
  let key3, ext3 =
    match size with
    | Pb.Full ->
      ( (fun () -> Scenario.key_contested3 ~victim_repeat:3 ~tenant_repeat:3 ()),
        fun () -> Scenario.ext_shadow_contested3 ~victim_repeat:3 ~tenant_repeat:3 () )
    | Pb.Tiny ->
      ((fun () -> Scenario.key_contested3 ()), fun () -> Scenario.ext_shadow_contested3 ())
  in
  [
    { name = "key3"; build = key3; kind = Multinomial; span = "key3" };
    { name = "ext3"; build = ext3; kind = Multinomial; span = "ext3" };
    { name = "rep5-3"; build = Scenario.rep5_contested3; kind = Pinned; span = "rep5-3" };
  ]
  @ List.concat_map
      (fun (label, net) ->
        List.map
          (fun (name, build) ->
            { name = name ^ "-" ^ label; build; kind = Pinned; span = "timed" })
          [
            ("rep5", fun () -> Scenario.rep5 ~net ());
            ("key", fun () -> Scenario.key_contested ~net ());
            ("iommu", fun () -> Scenario.iommu_contested ~net ());
            ("capio", fun () -> Scenario.capio_contested ~net ());
            ("fig5", fun () -> Scenario.fig5 ~net ());
          ])
      nets

let setup ~size ~seed () =
  let ts = Array.of_list (trees size) in
  Pb.permutation ~seed ~salt:0 (Array.length ts)
  |> Array.map (fun i -> (ts.(i), ts.(i).build ()))
  |> Array.to_list

let explore ?(dedup = true) ?(wrap = Fun.id) (s : Scenario.t) =
  Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s) ~max_paths:max_int ~dedup
    ~check:(wrap (Scenario.oracle_check s))
    ()

type tree_out = {
  tree : tree;
  scn : Scenario.t;
  result : Oracle.violation Explorer.result;
  tree_s : float;
  gc : Pb.gc_delta;
}

(* [call] runs each tree's exploration (the untraced run meters it). *)
let pass ?wrap ?(call = fun f -> f ()) env =
  List.map
    (fun (tree, scn) ->
      let (result, gc), tree_s =
        Pb.time (fun () -> Pb.with_gc (fun () -> call (fun () -> explore ?wrap scn)))
      in
      { tree; scn; result; tree_s; gc })
    env

(* ------------------------------------------------------------------ *)
(* Checks *)

(* Legs a process takes when it runs alone: one per NI access, plus the
   leg that runs it to its exit. *)
let legs_alone (s : Scenario.t) pid =
  let k = Kernel.snapshot s.Scenario.kernel in
  let rec go n =
    match Explorer.advance_one_leg k pid ~max_instructions:2000 with
    | `Progress -> go (n + 1)
    | `Exited -> n + 1
    | `Stuck -> failwith "process stuck when run alone"
  in
  go 0

(* Exact multinomial, failing rather than wrapping on overflow. *)
let multinomial counts =
  let mul a b = if a <> 0 && b > max_int / a then failwith "multinomial overflows int" else a * b in
  let binom n k =
    let c = ref 1 in
    for i = 1 to k do
      c := mul !c (n - k + i) / i
    done;
    !c
  in
  snd (List.fold_left (fun (n, acc) k -> (n + k, mul acc (binom (n + k) k))) (0, 1) counts)

let load_pins () =
  let pins = Hashtbl.create 16 in
  List.iter
    (function
      | name :: rest -> Hashtbl.replace pins name (Pb.facts_of_row rest)
      | [] -> ())
    (Pb.read_rows (Pb.ref_path "trees.tsv"));
  pins

let check pins outs =
  let bad =
    List.fold_left
      (fun bad o ->
        let f = Pb.facts o.result in
        let ok =
          match o.tree.kind with
          | Multinomial -> (
            match multinomial (List.map (legs_alone o.scn) (Scenario.explore_pids o.scn)) with
            | want ->
              let ok = f.nviol = 0 && (not f.truncated) && f.paths = want in
              if not ok then
                Pb.complain "tree %s: %s, expected SAFE with %d paths" o.tree.name (Pb.show_facts f)
                  want;
              ok
            | exception Failure e ->
              Pb.complain "tree %s: %s" o.tree.name e;
              false)
          | Pinned -> (
            match Hashtbl.find_opt pins o.tree.name with
            | Some p when p = f -> true
            | Some p ->
              Pb.complain "tree %s: got %s, brute force pinned %s" o.tree.name (Pb.show_facts f)
                (Pb.show_facts p);
              false
            | None ->
              Pb.complain "tree %s: no pinned reference" o.tree.name;
              false)
        in
        if ok then bad else bad + 1)
      0 outs
  in
  (List.length outs, bad)

(* ------------------------------------------------------------------ *)
(* Runs *)

let run ~seed ~size =
  let pins = load_pins () in
  Pb.one_pass ~setup:(setup ~size ~seed)
    ~pass:(fun call env -> pass ~call env)
    ~check:(fun _ outs -> check pins outs)

let walks_per_tree = 40

let traced ~seed ~size =
  let pins = load_pins () in
  let env = setup ~size ~seed () in
  Gc.full_major ();
  let m = Pb.meter () in
  let plain = pass ~call:(Pb.metered m) env in
  let ops1, bad1 = check pins plain in
  let env = setup ~size ~seed () in
  Gc.full_major ();
  let terminals = ref 0 in
  let wrap check k =
    incr terminals;
    check k
  in
  let outs, wall = Pb.time (fun () -> pass ~wrap env) in
  let ops2, bad2 = check pins outs in
  let sum f = List.fold_left (fun a o -> a + f o.result) 0 outs in
  let states = sum (fun r -> r.Explorer.states_visited) in
  let hits = sum (fun r -> r.Explorer.dedup_hits) in
  let nodes = float_of_int (states + hits) in
  let minor = List.fold_left (fun a o -> a +. o.gc.Pb.minor_words) 0.0 outs in
  let major = List.fold_left (fun a o -> a +. o.gc.Pb.major_words) 0.0 outs in
  let span_s span =
    List.fold_left (fun a o -> if o.tree.span = span then a +. o.tree_s else a) 0.0 outs
  in
  (* a private memo keeps every visited state it has not evicted *)
  let resident r = r.Explorer.states_visited - r.Explorer.evictions in
  let counts =
    {
      Walk.roots = List.length outs;
      states;
      hits;
      snapshots = sum (fun r -> r.Explorer.snapshots);
      terminals = !terminals;
    }
  in
  let layer =
    [
      ("verify.states", float_of_int states);
      ("verify.memo_hits", float_of_int hits);
      ("verify.hit_ratio", Pb.ratio (float_of_int hits) nodes);
      ("verify.paths", float_of_int (sum (fun r -> r.Explorer.paths)));
      ("verify.snapshots_per_node", Pb.ratio (float_of_int counts.snapshots) nodes);
      ( "verify.bytes_hashed_per_node",
        Pb.ratio (float_of_int (sum (fun r -> r.Explorer.bytes_hashed))) nodes );
      ("verify.violations", float_of_int (sum (fun r -> List.length r.Explorer.violations)));
      ("verify.memo_resident", float_of_int (sum resident));
      ("verify.memo_evictions", float_of_int (sum (fun r -> r.Explorer.evictions)));
      ("verify.tree_s.key3", span_s "key3");
      ("verify.tree_s.ext3", span_s "ext3");
      ("verify.tree_s.rep5-3", span_s "rep5-3");
      ("verify.tree_s.timed", span_s "timed");
      ("gc.minor_words_per_state", Pb.ratio minor (float_of_int states));
      ("gc.major_words_per_state", Pb.ratio major (float_of_int states));
      ("gc.top_heap_mb", Pb.top_heap_mb ());
    ]
  in
  let largest = List.fold_left (fun a o -> max a (resident o.result)) 0 outs in
  (* per-tree legs and wait shares: only the timed trees have wait legs *)
  let tree_legs =
    List.map
      (fun o -> (o.scn, o.result.Explorer.states_visited + o.result.Explorer.dedup_hits - 1))
      outs
  in
  Gc.full_major ();
  let (w, wait_legs), walk_s =
    Pb.time (fun () ->
        let w =
          Walk.create ~seed
            ~memo:(Memo.create ~shards:1 ~cap:(1 lsl 18) ~locked:false)
            ~resident:largest
        in
        let wait_legs =
          List.fold_left
            (fun acc ((scn : Scenario.t), legs) ->
              let l0 = w.Walk.legs and w0 = w.Walk.wait_legs in
              let root =
                {
                  Walk.root = scn.Scenario.kernel;
                  baseline = scn.Scenario.kernel;
                  pids = Scenario.explore_pids scn;
                  check = Scenario.oracle_check scn;
                }
              in
              for _ = 1 to walks_per_tree do
                Walk.walk w root
              done;
              let real = w.Walk.legs - l0 and waits = w.Walk.wait_legs - w0 in
              let share = Pb.ratio (float_of_int waits) (float_of_int (real + waits)) in
              acc +. Float.round (float_of_int legs *. share))
            0.0 tree_legs
        in
        (w, wait_legs))
  in
  {
    Pb.attempted = ops1 + ops2;
    failed = bad1 + bad2;
    correct = true;
    metrics =
      layer
      @ Walk.attribute w counts ~wall ~wait_legs
      @ [ ("trace.overhead", (wall +. walk_s) /. m.Pb.raw) ]
      @ Pb.host_metrics m;
  }

(* ------------------------------------------------------------------ *)
(* Pinning: brute force (no dedup) for every Pinned tree. *)

let pin () =
  let rows =
    List.filter_map
      (fun t ->
        match t.kind with
        | Multinomial -> None
        | Pinned ->
          let (r : _ Explorer.result), dt = Pb.time (fun () -> explore ~dedup:false (t.build ())) in
          let f = Pb.facts r in
          Printf.printf "tree %s: %s (brute force, %.2fs)\n%!" t.name (Pb.show_facts f) dt;
          Some (t.name :: Pb.facts_row f))
      (trees Pb.Full)
  in
  Pb.write_rows (Pb.ref_path "trees.tsv")
    ~header:"tree paths truncated violations first_violating_schedule violations_digest" rows
