(* The traced run's seeded sampling walk. From each root it follows one
   random schedule to a terminal state, the way the explorer descends
   one branch, and times one call into each public function the
   explorer makes at a node: Kernel.state_key, Kernel.snapshot, one leg
   (Explorer.advance_one_leg, or Kernel.advance_to_next_completion for
   the wait leg), and the oracle at the terminal. Those calls take a
   microsecond or more; each sample has the clock's own cost taken off.
   Memo.find and Memo.add take tens of nanoseconds, so they are timed
   once per walk over all its keys, on a table of the workload's
   resident size. Medians of these per-call costs, times the explorer's
   exact call counts, attribute a pass's wall time to layers. *)

open Uldma_os
module Explorer = Uldma_verify.Explorer
module Memo = Uldma_verify.Memo
module Counters = Uldma_obs.Counters
module Rng = Uldma_util.Rng

type root = {
  root : Kernel.t;
  baseline : Kernel.t;
  pids : int list;
  check : Kernel.t -> Uldma_verify.Oracle.violation option;
}

type t = {
  rng : Rng.t;
  memo : int Memo.t;
  clock_ns : float;  (** cost of one Pb.time_ns around nothing *)
  mutable snapshot_ns : float list;
  mutable key_ns : float list;
  mutable find_ns : float list;
  mutable add_ns : float list;
  mutable leg_ns : float list;
  mutable wait_ns : float list;
  mutable oracle_ns : float list;
  mutable legs : int;
  mutable wait_legs : int;
  mutable instructions : int;
  mutable uncached : int;
}

let random_key rng = String.init 16 (fun _ -> Char.unsafe_chr (Rng.int rng 256))

(* [memo] mirrors the workload's table layout; it is filled with
   [resident] random 16-byte keys (the explorer's fingerprint width)
   before any probe is timed. *)
let create ~seed ~memo ~resident =
  let rng = Rng.create ~seed:(seed + 0x5eed) in
  for i = 1 to resident do
    Memo.add memo (random_key rng) i
  done;
  let clock_ns = Pb.median (List.init 1001 (fun _ -> snd (Pb.time_ns ignore))) in
  {
    rng;
    memo;
    clock_ns;
    snapshot_ns = [];
    key_ns = [];
    find_ns = [];
    add_ns = [];
    leg_ns = [];
    wait_ns = [];
    oracle_ns = [];
    legs = 0;
    wait_legs = 0;
    instructions = 0;
    uncached = 0;
  }

let instructions k = Counters.value (Kernel.counter_snapshot k) "os.instructions"

let uncached k =
  let c = Kernel.counter_snapshot k in
  List.fold_left
    (fun acc name ->
      if String.starts_with ~prefix:"bus.uncached." name then acc + Counters.value c name else acc)
    0 (Counters.counter_names c)

(* One call, in nanoseconds, net of the clock. *)
let time_ns t f =
  let r, ns = Pb.time_ns f in
  (r, Float.max 0.0 (ns -. t.clock_ns))

(* Per-call cost of [f] over every key, from one timing of the loop. *)
let per_key_ns t keys f =
  let (), ns = time_ns t (fun () -> List.iter f keys) in
  ns /. float_of_int (List.length keys)

let walk t r =
  let rec node keys kernel =
    let (key, _), ns =
      time_ns t (fun () -> Kernel.state_key ~relative_to:r.baseline ~paranoid:false kernel)
    in
    t.key_ns <- ns :: t.key_ns;
    let keys = key :: keys in
    let live = Kernel.runnable_pids kernel in
    let runnable = List.filter (fun pid -> List.mem pid live) r.pids in
    let legs =
      match Kernel.next_transfer_deadline kernel with
      | Some _ -> runnable @ [ Explorer.wait_leg ]
      | None -> runnable
    in
    match legs with
    | [] ->
      let _, ns = time_ns t (fun () -> r.check kernel) in
      t.oracle_ns <- ns :: t.oracle_ns;
      keys
    | _ -> (
      let leg = List.nth legs (Rng.int t.rng (List.length legs)) in
      let fork, ns = time_ns t (fun () -> Kernel.snapshot kernel) in
      t.snapshot_ns <- ns :: t.snapshot_ns;
      let outcome =
        if leg = Explorer.wait_leg then begin
          let moved, ns = time_ns t (fun () -> Kernel.advance_to_next_completion fork) in
          t.wait_ns <- ns :: t.wait_ns;
          t.wait_legs <- t.wait_legs + 1;
          if moved then `Progress else `Stuck
        end
        else begin
          let i0 = instructions fork and u0 = uncached fork in
          let outcome, ns =
            time_ns t (fun () -> Explorer.advance_one_leg fork leg ~max_instructions:2000)
          in
          t.leg_ns <- ns :: t.leg_ns;
          t.legs <- t.legs + 1;
          t.instructions <- t.instructions + instructions fork - i0;
          t.uncached <- t.uncached + uncached fork - u0;
          outcome
        end
      in
      match outcome with `Progress | `Exited -> node keys fork | `Stuck -> keys)
  in
  let keys = List.rev (node [] (Kernel.snapshot r.root)) in
  (* every probe, then every store: at a new state the explorer probes,
     misses and stores *)
  t.find_ns <-
    per_key_ns t keys (fun k -> ignore (Sys.opaque_identity (Memo.find t.memo k))) :: t.find_ns;
  t.add_ns <- per_key_ns t keys (fun k -> Memo.add t.memo k 0) :: t.add_ns

let wait_share t = Pb.ratio (float_of_int t.wait_legs) (float_of_int (t.legs + t.wait_legs))

(* Exact explorer counts for one pass; see [attribute]. *)
type counts = {
  roots : int;  (** explore calls *)
  states : int;
  hits : int;
  snapshots : int;
  terminals : int;
}

(* Attribute [wall] seconds. Every explore_state call computes one key
   and probes the memo once (nodes = states + hits); every visited
   state stores one summary; every node but a root was reached by one
   leg, [wait_legs] of them wait legs (estimated by the caller from
   the walk's wait share); every visited terminal ran the oracle once.
   What the sampled costs do not explain is the explorer's own
   bookkeeping: attr.self_s. *)
let legs c = c.states + c.hits - c.roots

let attribute t c ~wall ~wait_legs =
  let nodes = float_of_int (c.states + c.hits) in
  let n_legs = float_of_int (legs c) in
  let m = Pb.median in
  let s ns = ns *. 1e-9 in
  let os = s ((float_of_int c.snapshots *. m t.snapshot_ns) +. (nodes *. m t.key_ns)) in
  let machine = s ((n_legs -. wait_legs) *. m t.leg_ns) in
  let net = s (wait_legs *. m t.wait_ns) in
  let memo = s ((nodes *. m t.find_ns) +. (float_of_int c.states *. m t.add_ns)) in
  let oracle = s (float_of_int c.terminals *. m t.oracle_ns) in
  [
    ("verify.memo_find_ns", m t.find_ns);
    ("verify.memo_add_ns", m t.add_ns);
    ("verify.oracle_ns", m t.oracle_ns);
    ("os.snapshot_ns", m t.snapshot_ns);
    ("os.state_key_ns", m t.key_ns);
    ("machine.leg_ns", m t.leg_ns);
    ("cpu.instr_per_leg", Pb.ratio (float_of_int t.instructions) (float_of_int t.legs));
    ("bus.uncached_per_leg", Pb.ratio (float_of_int t.uncached) (float_of_int t.legs));
    ("net.wait_legs", wait_legs);
    ("net.wait_leg_ns", m t.wait_ns);
    ("attr.wall_s", wall);
    ("attr.os_s", os);
    ("attr.machine_s", machine);
    ("attr.net_s", net);
    ("attr.verify_memo_s", memo);
    ("attr.verify_oracle_s", oracle);
    ("attr.self_s", wall -. (os +. machine +. net +. memo +. oracle));
  ]
