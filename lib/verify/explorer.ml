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

   A summary holds its violations as a DAG over its violating
   children's summaries, never as copied schedules. The search emits
   nothing: the root's summary holds every violation the DFS met, a
   memo hit's subtree included, so the result is one flatten of that
   DAG after the search, in DFS (pid-rank lexicographic) order — and
   dedup on/off produce the identical [paths] count, the identical
   violation list, and even the identical order. The search makes each
   violation node once per content in its table's store, so the
   flatten builds each distinct subtree once per exploration and a
   root whose content an earlier exploration through the table
   flattened returns that exploration's list; the flattened pairs are
   hash-consed in the store too, so equal schedules, pairs and whole
   lists are one value across the explorations that use the table.

   [max_paths] counts terminals, memo-hit subtrees included. A hit is
   taken only when its whole path count still fits the budget;
   otherwise the state is re-expanded, so a clipped run stops exactly
   where the plain DFS would, and its root holds exactly what that DFS
   met. Summaries are stored only for subtrees explored before the
   budget ran out. The table is bounded (see Memo): an evicted summary
   only means its state re-expands on the next encounter.

   No path count wraps. The hit test subtracts ([s_paths <= max_paths
   - used]), so no count passes the budget, and every add saturates at
   [max_int] besides: a tree of more than [max_int] paths spends a
   [max_int] budget and reads truncated, never SAFE with a wrapped
   count. *)

type 'v summary = { s_paths : int; s_violations : 'v viols; s_stuck : int }

(* Combining a node costs O(width), and a memoised summary costs O(1)
   words beyond children that already exist. *)
and 'v viols =
  | V_none
  | V_here of int * 'v (* this terminal violates: its store id, then the violation *)
  | V_kids of int * (int * 'v summary) list
      (* store id, then the violating children in leg order with the
         pid of the leg leading to each *)

let id_of = function V_none -> -1 | V_here (id, _) | V_kids (id, _) -> id

(* Path counts never wrap: a sum of two counts clamps at [max_int]. *)
let add_paths a b =
  let s = a + b in
  if s < a then max_int else s

(* A node of a suffix trie is one distinct schedule suffix, and
   [child n pid] is the node of [pid :: n.sched], made once; a node has
   at most one kid per leg. Schedules read from the trie share every
   common tail. [pairs] holds the node's distinct (violation, schedule)
   pairs, one per interned violation. *)
type 'v tnode = {
  sched : int list;
  mutable kids : 'v tnode list;
  mutable pairs : ('v * int list) list;
}

let rec find_kid n pid = function
  | [] ->
    let c = { sched = pid :: n.sched; kids = []; pairs = [] } in
    n.kids <- c :: n.kids;
    c
  | c :: rest -> ( match c.sched with p :: _ when p = pid -> c | _ -> find_kid n pid rest)

let child n pid = find_kid n pid n.kids

(* The pair of [n]'s schedule and the interned violation [v], made once:
   violations are matched physically, because each is interned. *)
let rec find_pair n v = function
  | [] ->
    let p = (v, n.sched) in
    n.pairs <- p :: n.pairs;
    p
  | ((w, _) as p) :: rest -> if w == v then p else find_pair n v rest

let pair n v = find_pair n v n.pairs

(* The store that hash-conses what a memo table's explorations build
   and return: each distinct violation value once, as its one [V_here];
   each distinct [V_kids] content once, keyed by its (pid, kid id)
   pairs; each schedule as a trie node; each (violation, schedule) pair
   on its node; and each root's flattened list once. A store lives and
   dies with its table's summaries, so every id a summary holds names
   one content of the table's store, and equal lists come from one
   root id. *)
type 'v store = {
  root : 'v tnode; (* the empty schedule *)
  values : ('v, 'v viols) Hashtbl.t; (* structural: a violation -> its one [V_here] *)
  content : (int, 'v viols) Hashtbl.t; (* content hash -> the [V_kids] nodes with it *)
  lists : (int, ('v * int list) list) Hashtbl.t; (* root id -> the list it flattened to *)
  mutable next_id : int;
}

let new_store () =
  {
    root = { sched = []; kids = []; pairs = [] };
    values = Hashtbl.create 64;
    content = Hashtbl.create 64;
    lists = Hashtbl.create 64;
    next_id = 0;
  }

let fresh_id st =
  let id = st.next_id in
  st.next_id <- id + 1;
  id

let intern_value st v =
  match Hashtbl.find_opt st.values v with
  | Some h -> h
  | None ->
    let h = V_here (fresh_id st, v) in
    Hashtbl.add st.values v h;
    h

let content_hash kids =
  List.fold_left (fun h (pid, s) -> (((h * 65599) + pid) * 65599) + id_of s.s_violations) 0 kids

let rec same_kids a b =
  match (a, b) with
  | [], [] -> true
  | (p, s) :: a, (q, t) :: b ->
    p = q && id_of s.s_violations = id_of t.s_violations && same_kids a b
  | _ -> false

(* The [V_kids] node of [kids], made once per content. *)
let intern_node st kids =
  let h = content_hash kids in
  let equal = function V_kids (_, ks) -> same_kids kids ks | V_none | V_here _ -> false in
  match List.find_opt equal (Hashtbl.find_all st.content h) with
  | Some n -> n
  | None ->
    let n = V_kids (fresh_id st, kids) in
    Hashtbl.add st.content h n;
    n

type 'v ctx = {
  baseline : Kernel.t; (* encoding baseline: pages and programs shared with it are skipped *)
  pids : int list;
  max_instructions : int;
  max_paths : int;
  paranoid : bool; (* memo keys are full encoding strings, not fingerprints *)
  check : Kernel.t -> 'v option;
  memo : 'v summary Memo.t option; (* [None]: dedup off *)
  store : 'v store; (* the table's, which its summaries' ids name; used with dedup off too *)
  sink : Uldma_obs.Trace.t;
  machine : int;
  mutable used : int; (* terminals counted against [max_paths] *)
  mutable truncated : bool;
  mutable visited : int;
  mutable hits : int;
  mutable stuck : int;
  mutable snapshots : int; (* Kernel.snapshot calls (elided last legs don't count) *)
  mutable hash_bytes : int; (* bytes streamed into memo keys *)
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

(* The flatten, bottom-up: a summary's violations in discovery order as
   (violation, schedule suffix) pairs with each suffix a trie node, as
   two arrays, which hold a node's violations in 2 words each instead
   of a list's 6. Each distinct [V_kids] content is built once per
   exploration (its [cache]); the arrays die with the exploration. *)
let rec nodes st cache s =
  match s.s_violations with
  | V_none -> ([||], [||])
  | V_here (_, v) -> ([| v |], [| st.root |])
  | V_kids (id, kids) -> (
    match Hashtbl.find_opt cache id with
    | Some l -> l
    | None ->
      let parts = List.map (fun (pid, c) -> (pid, nodes st cache c)) kids in
      let vs = Array.concat (List.map (fun (_, (vs, _)) -> vs) parts) in
      let ns = Array.make (Array.length vs) st.root in
      ignore
        (List.fold_left
           (fun at (pid, (_, kid_ns)) ->
             Array.iteri (fun i n -> ns.(at + i) <- child n pid) kid_ns;
             at + Array.length kid_ns)
           0 parts
          : int);
      Hashtbl.add cache id (vs, ns);
      (vs, ns))

(* The result's violations: the root summary flattened once, or the
   list an earlier root of equal content returned. *)
let violations st root =
  match root.s_violations with
  | V_none -> []
  | V_here (id, _) | V_kids (id, _) -> (
    match Hashtbl.find_opt st.lists id with
    | Some l -> l
    | None ->
      let vs, ns = nodes st (Hashtbl.create 64) root in
      let l = List.init (Array.length vs) (fun i -> pair ns.(i) vs.(i)) in
      Hashtbl.add st.lists id l;
      l)

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
let rec explore_state cx kernel depth =
  if out_of_budget cx kernel depth then { s_paths = 0; s_violations = V_none; s_stuck = 0 }
  else
    let fp = fp_key cx kernel and key = string_key cx kernel in
    let hit = match cx.memo with Some m -> find cx m fp key | None -> None in
    match hit with
    | Some s when s.s_paths <= cx.max_paths - cx.used ->
      cx.used <- add_paths cx.used s.s_paths;
      cx.stuck <- cx.stuck + s.s_stuck;
      cx.hits <- cx.hits + 1;
      note cx kernel depth `Dedup;
      s
    | Some _ | None -> (
      cx.visited <- cx.visited + 1;
      let legs = node_legs cx kernel in
      match legs with
      | [] ->
        cx.used <- add_paths cx.used 1;
        let viols =
          match cx.check kernel with
          | Some v ->
            note cx kernel depth (`Violation "oracle check failed on a completed schedule");
            intern_value cx.store v
          | None -> V_none
        in
        let s = { s_paths = 1; s_violations = viols; s_stuck = 0 } in
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
                let s = explore_state cx fork (depth + 1) in
                (match s.s_violations with
                | V_none -> ()
                | V_here _ | V_kids _ -> kids := (leg, s) :: !kids);
                paths := add_paths !paths s.s_paths;
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
        let viols = match !kids with [] -> V_none | kids -> intern_node cx.store (List.rev kids) in
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

(* The table owns its store: [clear_shared] empties both, so no
   summary outlives the store its ids name. *)
type 'v shared_memo = { memo : 'v summary Memo.t; mutable store : 'v store }

let create_shared ?(cap = default_memo_cap) () =
  { memo = Memo.create ~shards:1 ~cap ~locked:false; store = new_store () }

let clear_shared sm =
  Memo.clear sm.memo;
  sm.store <- new_store ()

let shared_length sm = Memo.length sm.memo
let shared_evictions sm = Memo.evictions sm.memo

let explore ~root ~pids ?baseline ?(max_instructions_per_leg = 2000) ?(max_paths = 1_000_000)
    ?(dedup = true) ?(paranoid_memo = false) ?(memo_cap = default_memo_cap) ?shared
    ~check () =
  (* a private exploration gets a table and a store of its own *)
  let sm = match shared with Some sm -> sm | None -> create_shared ~cap:memo_cap () in
  let memo = sm.memo in
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
      store = sm.store;
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
    }
  in
  let summary = explore_state cx (Kernel.snapshot root) 0 in
  {
    paths = cx.used;
    violations = violations cx.store summary;
    truncated = cx.truncated;
    states_visited = cx.visited;
    dedup_hits = cx.hits;
    stuck_legs = cx.stuck;
    evictions = Memo.evictions memo - evictions0;
    snapshots = cx.snapshots;
    bytes_hashed = cx.hash_bytes;
  }
