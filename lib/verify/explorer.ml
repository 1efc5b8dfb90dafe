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

   The memo maps a state's key (of the engine-visible state; the
   live-pid set, which is the only schedule-relevant remainder, is part
   of it) to the *summary* of its fully-explored subtree. The default
   key is [Kernel.fingerprint], the machine's maintained digest: two
   126-bit lanes read from sums the writes keep current (RAM relative
   to the baseline, the process table, the DMA engine), plus the few
   clock-relative values, handed to the memo as two ints
   ([Memo.find_fp]/[Memo.add_fp]) with no key string built. A false
   merge requires both 63-bit lanes to collide — ~2^-126, checked
   differentially by tools/diff_explore against [paranoid_memo] runs,
   whose keys are the full encoding strings ([Kernel.state_key
   ~paranoid:true]) and can never falsely merge.

   Violations are recorded in DFS (pid-rank lexicographic) order as the
   search meets them. A summary holds its violations as a DAG over its
   violating children's summaries, never as copied schedules; a memo
   hit materialises them under the current prefix, in their original
   discovery order — so dedup on/off produce the identical [paths]
   count, the identical violation list, and even the identical order.
   Through a shared table the materialised schedules are interned in
   the table's suffix trie, so they share their cells across the
   explorations that use the table.

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

(* A node of a suffix trie is one distinct schedule suffix, and
   [child n pid] is the node of [pid :: n.sched], made once; a node has
   at most one kid per leg. Schedules read from the trie share every
   common tail. *)
type tnode = { sched : int list; mutable kids : tnode list }

let rec find_kid n pid = function
  | [] ->
    let c = { sched = pid :: n.sched; kids = [] } in
    n.kids <- c :: n.kids;
    c
  | c :: rest -> ( match c.sched with p :: _ when p = pid -> c | _ -> find_kid n pid rest)

let child n pid = find_kid n pid n.kids

(* The schedule store a shared table owns: the trie of every schedule
   emitted through the table, and each [V_kids] node's violations with
   their suffix nodes, built once per table. *)
type 'v store = {
  root : tnode; (* the empty schedule *)
  interned : (int, 'v array * tnode array) Hashtbl.t; (* V_kids id -> violations, suffixes *)
}

let new_store () = { root = { sched = []; kids = [] }; interned = Hashtbl.create 64 }

(* Where emitted schedules come from. A private exploration copies each
   hit's prefix onto suffix lists it caches for itself; an exploration
   through a shared table interns into the table's store, so the
   schedules of every exploration through the table share their cells.
   Interning costs a trie step per prefix leg of every emitted
   schedule, which pays only when other explorations emit the same
   suffixes. *)
type 'v schedules =
  | Copied of (int, ('v * int list) list) Hashtbl.t (* V_kids id -> its schedule suffixes *)
  | Interned of 'v store

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
  schedules : 'v schedules;
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

(* A summary's violations as (violation, schedule suffix) pairs, in
   discovery order. Each node's list is built at most once per cache,
   so schedules emitted through a node reached twice share their
   tails. *)
let rec copied cache s =
  match s.s_violations with
  | V_none -> []
  | V_here v -> [ (v, []) ]
  | V_kids (id, kids) -> (
    match Hashtbl.find_opt cache id with
    | Some l -> l
    | None ->
      let l =
        List.concat_map
          (fun (pid, c) -> List.map (fun (v, sfx) -> (v, pid :: sfx)) (copied cache c))
          kids
      in
      Hashtbl.add cache id l;
      l)

(* The same pairs with each suffix a trie node, as two arrays, which
   hold a cached node's violations in 2 words each instead of a list's
   6. *)
let rec interned st s =
  match s.s_violations with
  | V_none -> ([||], [||])
  | V_here v -> ([| v |], [| st.root |])
  | V_kids (id, kids) -> (
    match Hashtbl.find_opt st.interned id with
    | Some l -> l
    | None ->
      let parts = List.map (fun (pid, c) -> (pid, interned st c)) kids in
      let vs = Array.concat (List.map (fun (_, (vs, _)) -> vs) parts) in
      let ns = Array.make (Array.length vs) st.root in
      ignore
        (List.fold_left
           (fun at (pid, (_, kid_ns)) ->
             Array.iteri (fun i n -> ns.(at + i) <- child n pid) kid_ns;
             at + Array.length kid_ns)
           0 parts
          : int);
      Hashtbl.add st.interned id (vs, ns);
      (vs, ns))

(* Record [s]'s violations under the prefix [schedule_rev] (most recent
   leg first): the one emission path, for a violating terminal and for
   a memo hit alike. *)
let emit cx s schedule_rev =
  match (s.s_violations, cx.schedules) with
  | V_none, _ -> ()
  | (V_here _ | V_kids _), Copied cache ->
    List.iter
      (fun (v, sfx) ->
        cx.rev_violations <- (v, List.rev_append schedule_rev sfx) :: cx.rev_violations)
      (copied cache s)
  | (V_here _ | V_kids _), Interned st ->
    let vs, ns = interned st s in
    for i = 0 to Array.length vs - 1 do
      cx.rev_violations <-
        (vs.(i), (List.fold_left child ns.(i) schedule_rev).sched) :: cx.rev_violations
    done

(* A node's memo key is a fingerprint, [(a, b, bytes)] from
   [Kernel.fingerprint], or in paranoid mode the encoding string. A
   node computes the one its mode uses; the other stays [no_fp] or
   [""]. *)
let no_fp = (0, 0, 0)

let fp_key cx kernel =
  if cx.paranoid || Option.is_none cx.memo then no_fp
  else begin
    let (_, _, fed) as key = Kernel.fingerprint ~relative_to:cx.baseline kernel in
    cx.hash_bytes <- cx.hash_bytes + fed;
    key
  end

let string_key cx kernel =
  if (not cx.paranoid) || Option.is_none cx.memo then ""
  else begin
    let s, bytes = Kernel.state_key ~relative_to:cx.baseline ~paranoid:true kernel in
    cx.hash_bytes <- cx.hash_bytes + bytes;
    s
  end

let find cx memo (a, b, _) s = if cx.paranoid then Memo.find memo s else Memo.find_fp memo a b

let store cx (a, b, _) key s =
  match cx.memo with
  | Some memo when not cx.truncated ->
    if cx.paranoid then Memo.add memo key s else Memo.add_fp memo a b s
  | Some _ | None -> ()

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
    let fp = fp_key cx kernel and key = string_key cx kernel in
    let hit = match cx.memo with Some m -> find cx m fp key | None -> None in
    match hit with
    | Some s when cx.used + s.s_paths <= cx.max_paths ->
      cx.used <- cx.used + s.s_paths;
      cx.stuck <- cx.stuck + s.s_stuck;
      cx.hits <- cx.hits + 1;
      note cx kernel depth `Dedup;
      emit cx s schedule_rev;
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
            V_here v
          | None -> V_none
        in
        let s = { s_paths = 1; s_violations = viols; s_stuck = 0 } in
        emit cx s schedule_rev;
        store cx fp key s;
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
        store cx fp key s;
        s)

(* ------------------------------------------------------------------ *)

let default_memo_cap = 1 lsl 18

(* ------------------------------------------------------------------ *)
(* Cross-exploration shared memo (campaign mode). One table outlives
   many [explore] calls in one process, so candidate N's exploration
   warm-starts from the union of what candidates 1..N-1 memoized. The
   key covers program text relative to the baseline, so sharing needs
   no decoration; a table is emptied when the baseline changes. *)

type 'v shared_memo = { memo : 'v summary Memo.t; mutable store : 'v store }

let create_shared ?(cap = default_memo_cap) () =
  { memo = Memo.create ~shards:1 ~cap ~locked:false; store = new_store () }

let drop_schedules sm = sm.store <- new_store ()

let clear_shared sm =
  Memo.clear sm.memo;
  drop_schedules sm

let shared_length sm = Memo.length sm.memo
let shared_evictions sm = Memo.evictions sm.memo

let explore ~root ~pids ?baseline ?(max_instructions_per_leg = 2000) ?(max_paths = 1_000_000)
    ?(dedup = true) ?(paranoid_memo = false) ?(memo_cap = default_memo_cap) ?shared
    ~check () =
  (* only explorations that share a table intern their schedules *)
  let memo, schedules =
    match shared with
    | Some sm -> (sm.memo, Interned sm.store)
    | None -> (Memo.create ~shards:1 ~cap:memo_cap ~locked:false, Copied (Hashtbl.create 64))
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
      schedules;
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
