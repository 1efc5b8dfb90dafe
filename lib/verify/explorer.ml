open Uldma_os

type 'v result = {
  paths : int;
  violations : ('v * int list) list;
  truncated : bool;
  states_visited : int;
  dedup_hits : int;
  stuck_legs : int;
  evictions : int;
  snapshots : int;
  bytes_hashed : int;
}

type verdict = Safe | Vulnerable of int | Inconclusive

(* A found violation is a witness whatever the budget did; no violation
   proves safety only when nothing was clipped. *)
let verdict r =
  match r.violations with
  | [] -> if r.truncated then Inconclusive else Safe
  | vs -> Vulnerable (List.length vs)

(* A leg is one kernel call. Progress is measured on the bus's O(1)
   per-pid counter, so kernel accesses (context-switch hooks, pid -1)
   and other processes' drained stores never count as the leg's NI
   access. *)
let advance_one_leg kernel pid ~max_instructions = Kernel.run_leg kernel pid ~max_instructions

(* The pseudo-pid of the "let the wire drain" leg: instead of running a
   process to its next NI access, the machine idles forward to the next
   in-flight transfer completion. Only offered when a timed backend has
   a transfer in flight (Kernel.next_transfer_deadline = Some), so the
   Null backend's schedule trees — and goldens — are untouched. Chosen
   outside any real pid range (real pids start at 0; -1 is the kernel). *)
let wait_leg = -2

(* One scheduling leg: a real pid runs to its next NI access, the wait
   leg idles to the next completion. *)
let advance_leg kernel leg ~max_instructions =
  if leg = wait_leg then
    if Kernel.advance_to_next_completion kernel then `Progress else `Stuck
  else advance_one_leg kernel leg ~max_instructions

(* ------------------------------------------------------------------ *)
(* State-deduplicated depth-first search over one bounded memo table.

   The memo maps a state's key ([Kernel.state_key] over the canonical
   encoding walk — the engine-visible state; the live-pid set, which is
   the only schedule-relevant remainder, is part of it) to the
   *summary* of its fully-explored subtree. The default key is a
   streaming 16-byte/126-bit fingerprint (no encoding string is ever
   built; pages, register files, the IOTLB and the DMA engine's
   registers enter as write-maintained digests), under which a false merge requires both 63-bit lanes to
   collide — ~2^-126, checked differentially by tools/diff_explore
   against [paranoid_memo] runs, whose keys are the full encoding
   strings and can never falsely merge.

   Violations are recorded in DFS (pid-rank lexicographic) order as the
   search meets them. A summary holds its violations as a DAG over its
   violating children's summaries, never as copied schedules; a memo
   hit materialises them under the current prefix, in their original
   discovery order — so dedup on/off produce the identical [paths]
   count, the identical violation list, and even the identical order.

   [max_paths] counts terminals, memo-hit subtrees included. A hit is
   taken only when its whole path count still fits the budget;
   otherwise the state is re-expanded, so a clipped run stops exactly
   where the plain DFS would. Summaries are stored only for subtrees
   explored before the budget ran out. The table is bounded (see
   Memo): an evicted summary only means its state re-expands on the
   next encounter. *)

type 'v summary = { s_paths : int; s_violations : 'v viols; s_stuck : int }

(* Combining a node costs O(width), and a memoised summary costs O(1)
   words beyond children that already exist. *)
and 'v viols =
  | V_none
  | V_here of 'v (* this terminal violates *)
  | V_kids of int * (int * 'v summary) list
      (* node id (the suffix-cache key), then the violating children in
         leg order with the pid of the leg leading to each *)

(* Ids only need to be unique among the nodes one exploration can reach,
   but shared campaign tables outlive explorations, so they come from
   one process-wide counter. *)
let next_node_id = ref 0

type 'v ctx = {
  baseline : Kernel.t; (* encoding baseline: pages and programs shared with it are skipped *)
  pids : int list;
  max_instructions : int;
  max_paths : int;
  paranoid : bool; (* memo keys are full encoding strings, not fingerprints *)
  check : Kernel.t -> 'v option;
  memo : 'v summary Memo.t option; (* [None]: dedup off *)
  sink : Uldma_obs.Trace.t;
  machine : int;
  mutable used : int; (* terminals counted against [max_paths] *)
  mutable truncated : bool;
  mutable visited : int;
  mutable hits : int;
  mutable stuck : int;
  mutable snapshots : int; (* Kernel.snapshot calls (elided last legs don't count) *)
  mutable hash_bytes : int; (* bytes streamed into memo keys *)
  mutable rev_violations : ('v * int list) list;
  suffixes : (int, ('v * int list) list) Hashtbl.t; (* V_kids id -> its schedules *)
}

let note cx kernel depth kind =
  if Uldma_obs.Trace.enabled cx.sink then
    Uldma_obs.Trace.emit cx.sink ~at:(Kernel.now_ps kernel) ~machine:cx.machine ~pid:(-1)
      (match kind with
      | `Fork -> Uldma_obs.Trace.Explorer_fork { depth }
      | `Prune reason -> Uldma_obs.Trace.Explorer_prune { depth; reason }
      | `Dedup -> Uldma_obs.Trace.Explorer_dedup { depth }
      | `Violation detail -> Uldma_obs.Trace.Oracle_violation { detail })

(* The budget check before any further work: once the budget is spent,
   the first refused node marks the run truncated. *)
let out_of_budget cx kernel depth =
  if cx.used < cx.max_paths then false
  else begin
    if not cx.truncated then begin
      cx.truncated <- true;
      note cx kernel depth (`Prune "max_paths")
    end;
    true
  end

(* A summary's violations as (violation, schedule suffix) pairs. Each
   node's list is built at most once per exploration, so schedules
   emitted through a node reached twice share their tails. *)
let rec suffixes cx s =
  match s.s_violations with
  | V_none -> []
  | V_here v -> [ (v, []) ]
  | V_kids (id, kids) -> (
    match Hashtbl.find_opt cx.suffixes id with
    | Some l -> l
    | None ->
      let l =
        List.concat_map
          (fun (pid, c) -> List.map (fun (v, sfx) -> (v, pid :: sfx)) (suffixes cx c))
          kids
      in
      Hashtbl.add cx.suffixes id l;
      l)

let state_key cx kernel =
  let key, bytes = Kernel.state_key ~relative_to:cx.baseline ~paranoid:cx.paranoid kernel in
  cx.hash_bytes <- cx.hash_bytes + bytes;
  key

let store cx key s =
  match (cx.memo, key) with
  | Some memo, Some k when not cx.truncated -> Memo.add memo k s
  | _ -> ()

(* A node's legs in one pass: its runnable pids in [cx.pids] order,
   then, with a transfer in flight, "wait for it" as one more explorable
   leg — so a node is terminal only when nothing can run *and* nothing
   is draining. *)
let rec pid_runnable pid = function
  | [] -> false
  | (p : Process.t) :: rest ->
    if p.Process.pid = pid then Process.is_runnable p else pid_runnable pid rest

let rec runnable_legs procs tail = function
  | [] -> tail
  | pid :: rest ->
    if pid_runnable pid procs then pid :: runnable_legs procs tail rest
    else runnable_legs procs tail rest

let node_legs cx kernel =
  let tail = match Kernel.next_transfer_deadline kernel with Some _ -> [ wait_leg ] | None -> [] in
  runnable_legs (Kernel.processes kernel) tail cx.pids

(* Explore [kernel]'s subtree and return its summary, which is complete
   (and memoised) unless the budget ran out inside it. *)
let rec explore_state cx kernel schedule_rev depth =
  if out_of_budget cx kernel depth then { s_paths = 0; s_violations = V_none; s_stuck = 0 }
  else
    let key = match cx.memo with Some _ -> Some (state_key cx kernel) | None -> None in
    let hit = match (cx.memo, key) with Some m, Some k -> Memo.find m k | _ -> None in
    match hit with
    | Some s when cx.used + s.s_paths <= cx.max_paths ->
      cx.used <- cx.used + s.s_paths;
      cx.stuck <- cx.stuck + s.s_stuck;
      cx.hits <- cx.hits + 1;
      note cx kernel depth `Dedup;
      (match s.s_violations with
      | V_none -> ()
      | V_here _ | V_kids _ ->
        let prefix = List.rev schedule_rev in
        List.iter
          (fun (v, sfx) -> cx.rev_violations <- (v, prefix @ sfx) :: cx.rev_violations)
          (suffixes cx s));
      s
    | Some _ | None -> (
      cx.visited <- cx.visited + 1;
      let legs = node_legs cx kernel in
      match legs with
      | [] ->
        cx.used <- cx.used + 1;
        let viols =
          match cx.check kernel with
          | Some v ->
            note cx kernel depth (`Violation "oracle check failed on a completed schedule");
            cx.rev_violations <- (v, List.rev schedule_rev) :: cx.rev_violations;
            V_here v
          | None -> V_none
        in
        let s = { s_paths = 1; s_violations = viols; s_stuck = 0 } in
        store cx key s;
        s
      | _ :: _ ->
        let paths = ref 0 and kids = ref [] and stuck = ref 0 in
        let rec expand = function
          | [] -> ()
          | leg :: tail ->
            if not (out_of_budget cx kernel depth) then begin
              (* Last-leg snapshot elision: after this loop the parent
                 kernel is dead (its memo key was captured above), so the
                 final leg advances the parent in place — a node of width
                 w pays w-1 copies, and a chain of width-1 nodes pays
                 none. *)
              let fork =
                if tail = [] then kernel
                else begin
                  cx.snapshots <- cx.snapshots + 1;
                  Kernel.snapshot kernel
                end
              in
              note cx fork depth `Fork;
              (match advance_leg fork leg ~max_instructions:cx.max_instructions with
              | `Progress | `Exited ->
                let s = explore_state cx fork (leg :: schedule_rev) (depth + 1) in
                (match s.s_violations with
                | V_none -> ()
                | V_here _ | V_kids _ -> kids := (leg, s) :: !kids);
                paths := !paths + s.s_paths;
                stuck := !stuck + s.s_stuck
              | `Stuck ->
                (* prune just this leg: the pid spun past the instruction
                   budget without an NI access — its siblings'
                   interleavings are still explored *)
                cx.stuck <- cx.stuck + 1;
                incr stuck;
                note cx fork depth (`Prune "stuck leg"));
              expand tail
            end
        in
        expand legs;
        let viols =
          match !kids with
          | [] -> V_none
          | kids ->
            let id = !next_node_id in
            next_node_id := id + 1;
            V_kids (id, List.rev kids)
        in
        let s = { s_paths = !paths; s_violations = viols; s_stuck = !stuck } in
        store cx key s;
        s)

(* ------------------------------------------------------------------ *)

let default_memo_cap = 1 lsl 18

(* ------------------------------------------------------------------ *)
(* Cross-exploration shared memo (campaign mode). One table outlives
   many [explore] calls in one process, so candidate N's exploration
   warm-starts from the union of what candidates 1..N-1 memoized. The
   key covers program text relative to the baseline, so sharing needs
   no decoration; a table is emptied when the baseline changes. *)

type 'v shared_memo = 'v summary Memo.t

let create_shared ?(cap = default_memo_cap) () = Memo.create ~shards:1 ~cap ~locked:false
let clear_shared = Memo.clear
let shared_length = Memo.length
let shared_evictions = Memo.evictions

let explore ~root ~pids ?baseline ?(max_instructions_per_leg = 2000) ?(max_paths = 1_000_000)
    ?(dedup = true) ?(paranoid_memo = false) ?(memo_cap = default_memo_cap) ?shared
    ~check () =
  let memo =
    match shared with Some sm -> sm | None -> create_shared ~cap:memo_cap ()
  in
  (* a pre-warmed shared table carries eviction history from earlier
     candidates; report only this run's evictions *)
  let evictions0 = Memo.evictions memo in
  let cx =
    {
      baseline = (match baseline with Some b -> b | None -> root);
      pids;
      max_instructions = max_instructions_per_leg;
      max_paths;
      paranoid = paranoid_memo;
      check;
      memo = (if dedup then Some memo else None);
      sink = Kernel.trace root;
      machine = Kernel.machine_id root;
      used = 0;
      truncated = false;
      visited = 0;
      hits = 0;
      stuck = 0;
      (* the seed snapshot of [root], which is never advanced in place
         because it is the dedup baseline *)
      snapshots = 1;
      hash_bytes = 0;
      rev_violations = [];
      suffixes = Hashtbl.create 64;
    }
  in
  ignore (explore_state cx (Kernel.snapshot root) [] 0 : _ summary);
  {
    paths = cx.used;
    violations = List.rev cx.rev_violations;
    truncated = cx.truncated;
    states_visited = cx.visited;
    dedup_hits = cx.hits;
    stuck_legs = cx.stuck;
    evictions = Memo.evictions memo - evictions0;
    snapshots = cx.snapshots;
    bytes_hashed = cx.hash_bytes;
  }
