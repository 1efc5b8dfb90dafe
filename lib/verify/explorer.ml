open Uldma_bus
open Uldma_os

type 'v result = {
  paths : int;
  violations : ('v * int list) list;
  truncated : bool;
  states_visited : int;
  dedup_hits : int;
  stuck_legs : int;
  evictions : int;
  steals : int;
  publications : int;
  lease_splits : int;
  memo_merges : int;
  cutoff : int;
  snapshots : int;
  bytes_hashed : int;
  counters : Uldma_obs.Counters.t;
}

(* Engine-visible transactions issued by [pid] so far, from the bus's
   O(1) per-pid counter. Kernel accesses (context-switch hooks, pid -1)
   and other processes' drained stores live in other slots and so never
   count as the leg's NI access. Only deltas within one leg matter, so
   the counter's absolute value (which spans the snapshot lineage) is
   irrelevant. *)
let ni_accesses kernel pid = Bus.pid_access_count (Kernel.bus kernel) pid

let advance_one_leg kernel pid ~max_instructions =
  let start = ni_accesses kernel pid in
  let rec loop n =
    if n >= max_instructions then `Stuck
    else
      match Kernel.step_pid kernel pid with
      | `Not_runnable -> `Exited
      | `Ok -> if ni_accesses kernel pid > start then `Progress else loop (n + 1)
  in
  loop 0

(* The pseudo-pid of the "let the wire drain" leg: instead of running a
   process to its next NI access, the machine idles forward to the next
   in-flight transfer completion. Only offered when a timed backend has
   a transfer in flight (Kernel.next_transfer_deadline = Some), so the
   Null backend's schedule trees — and goldens — are untouched. Chosen
   outside any real pid range (real pids start at 0; -1 is the kernel). *)
let wait_leg = -2

(* One scheduling leg: a real pid runs to its next NI access, the wait
   leg idles to the next completion. Every call site (sequential DFS,
   the expansion loop, and the work-stealing publish path) must go
   through here so stolen wait legs behave identically. *)
let advance_leg kernel leg ~max_instructions =
  if leg = wait_leg then
    if Kernel.advance_to_next_completion kernel then `Progress else `Stuck
  else advance_one_leg kernel leg ~max_instructions

(* ------------------------------------------------------------------ *)
(* State-deduplicated, optionally multi-domain search.

   The memo table maps a state's key ([Kernel.state_key] over the
   canonical encoding walk — the engine-visible state; the live-pid
   set, which is the only schedule-relevant remainder, is part of it)
   to the *summary* of its fully-explored subtree. The default key is
   a streaming 16-byte/126-bit fingerprint (no encoding string is ever
   built; pages, register files and the IOTLB enter as write-maintained
   digests), under which a false merge requires both 63-bit lanes to
   collide — ~2^-126, checked differentially by tools/diff_explore
   against [paranoid_memo] runs, whose keys are the full encoding
   strings and can never falsely merge. A summary stores violation
   schedules as suffixes relative to its state, each tagged with the
   index of its terminal within the subtree's DFS enumeration; a memo
   hit re-emits them under the current prefix, in their original
   discovery order — so dedup on/off (and any job count) produce the
   identical [paths] count, the identical violation list, and even the
   identical order. Summaries are only stored for subtrees explored
   without hitting the lease ("clean"), and a memo hit is only taken
   when its whole path count still fits the lease; otherwise the state
   is re-expanded so truncated runs count exactly like the plain DFS.

   The memo is *bounded* (Memo: two generations per shard, rotate on
   full): an evicted summary only means its state re-expands on the
   next encounter, so peak memory is capped without changing any
   answer. An optional persistent cache (?memo_file) seeds lookups
   with safe summaries from earlier runs of the same scenario build.

   Truncation works through *leases* and a *settlement* pass instead
   of a shared atomic path counter. Every task carries a lease — an
   upper bound on how many terminals the sequential DFS would still
   have had in budget when it reached the task's root — and counts
   terminals against it privately. What a task finds goes into a
   per-task log whose items sit in DFS (lexicographic) order:
   coalesced violation-free stretches, individual violations,
   violation-carrying memo hits, child-task markers (spliced where the
   published subtree sits in the parent's leg order), and a cap marker
   where the lease ran out. After all domains join, a single settlement
   walk replays the root log against the real [max_paths] budget,
   clipping exactly where the sequential DFS would have stopped — so
   paths, the violation list and its order, and [truncated] are
   identical at every [jobs] value even when the run truncates.
   [stuck_legs] is exact whenever nothing is clipped; in a *truncated
   parallel* run it is best-effort (stuck legs aren't individually
   positioned in the log). *)

type 'v summary = {
  s_paths : int;
  (* suffix schedule (forward) + index of the violating terminal within
     the subtree's DFS enumeration, so settlement can clip a partially
     fitting hit exactly where the sequential DFS would have stopped *)
  s_violations : ('v * int list * int) list;
  s_stuck : int;
}

(* Per-task result log, newest item first. Settlement (below) walks it
   oldest-first; the pushing discipline keeps items in DFS order. *)
type 'v item =
  | I_count of int * int (* violation-free terminals, stuck legs *)
  | I_viol of 'v * int list (* violation + full forward schedule *)
  | I_hit of 'v summary * int list (* violating memo hit + forward prefix *)
  | I_child of 'v tlog (* published subtree, in its leg position *)
  | I_capped (* the task's lease ran out here *)

and 'v tlog = { mutable rev_items : 'v item list }

type 'v shared = {
  baseline : Kernel.t; (* encoding baseline: pages still shared with it are skipped *)
  pids : int list;
  max_instructions : int;
  max_paths : int;
  dedup : bool;
  paranoid : bool; (* memo keys are full encoding strings, not fingerprints *)
  check : Kernel.t -> 'v option;
  machine : int;
  visited : int Atomic.t;
  hits : int Atomic.t;
  cutoff : int Atomic.t; (* adaptive publication threshold, see sp_want *)
  depth_max : int Atomic.t; (* deepest node seen so far, feeds the size estimate *)
  memo : 'v summary Memo.t;
  persist : (string, Memo.Persist.entry) Hashtbl.t option;
  key_prefix : string; (* campaign generation tag; "" outside a campaign *)
  key_tag : (Kernel.t -> string) option; (* per-state candidate-residual tag *)
  merge_forced : int; (* merge mid-task when the local generation grows past this *)
  merge_min : int; (* skip trivial merges at task/steal/publish boundaries *)
}

(* A subtree-root task: everything a domain needs to continue the DFS
   from an interior node it took over, plus its lease and the log slot
   the parent spliced into its own log at publication time. *)
type 'v task = {
  t_kernel : Kernel.t;
  t_schedule_rev : int list;
  t_depth : int;
  t_lease : int;
  t_log : 'v tlog;
}

(* Work-stealing hooks threaded through the recursion. [sp_want]
   answers "is anyone hungry and is this node's subtree big enough to
   be worth shipping?"; [sp_publish] pushes a ready subtree root onto
   the worker's own deque, where idle domains steal it from the top.
   Sequential exploration passes [None] and is bit-for-bit the old
   DFS. *)
type 'v split = { sp_want : depth:int -> width:int -> bool; sp_publish : 'v task -> unit }

(* Per-worker plain-int statistics; read by the driver after join. *)
type wstats = {
  mutable st_steals : int;
  mutable st_pubs : int;
  mutable st_splits : int;
  mutable st_merges : int;
  mutable st_snapshots : int; (* Kernel.snapshot calls (elided last legs don't count) *)
  mutable st_hash_bytes : int; (* bytes streamed into memo keys *)
}

(* Per-worker context: the private memo generation (jobs > 1 only; the
   sequential path writes straight to the single unlocked shard), the
   preferred steal victim, and the stats slot. *)
type 'v wctx = {
  w_id : int;
  w_local : (string, 'v summary) Hashtbl.t option;
  mutable w_pref : int;
  w_stats : wstats;
}

(* Per-task execution state. [x_used] counts terminals consumed against
   the lease (including memo-hit subtree counts); [x_pp]/[x_ps] batch
   violation-free terminals and stuck legs between log items. *)
type 'v texec = {
  x_lease : int;
  mutable x_used : int;
  mutable x_pp : int;
  mutable x_ps : int;
  mutable x_capped : bool;
  x_log : 'v tlog;
}

let note sh sink kernel depth kind =
  if Uldma_obs.Trace.enabled sink then
    Uldma_obs.Trace.emit sink ~at:(Kernel.now_ps kernel) ~machine:sh.machine ~pid:(-1)
      (match kind with
      | `Fork -> Uldma_obs.Trace.Explorer_fork { depth }
      | `Prune reason -> Uldma_obs.Trace.Explorer_prune { depth; reason }
      | `Dedup -> Uldma_obs.Trace.Explorer_dedup { depth }
      | `Steal -> Uldma_obs.Trace.Explorer_steal { depth }
      | `Violation detail -> Uldma_obs.Trace.Oracle_violation { detail })

let empty_summary = { s_paths = 0; s_violations = []; s_stuck = 0 }

let push_item x item = x.x_log.rev_items <- item :: x.x_log.rev_items

let flush_pending x =
  if x.x_pp <> 0 || x.x_ps <> 0 then begin
    push_item x (I_count (x.x_pp, x.x_ps));
    x.x_pp <- 0;
    x.x_ps <- 0
  end

let cap sh x sink kernel depth =
  if not x.x_capped then begin
    x.x_capped <- true;
    note sh sink kernel depth (`Prune "max_paths");
    flush_pending x;
    push_item x I_capped
  end

let bump_depth_max sh depth =
  let rec go () =
    let d = Atomic.get sh.depth_max in
    if depth > d && not (Atomic.compare_and_set sh.depth_max d depth) then go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Domain-local memo generations. With jobs > 1 every worker writes
   summaries into a private unsynchronised Hashtbl and merges it into
   the shared 64-shard table in batches — at task boundaries and when
   the generation grows past a threshold — so the shard locks are taken
   once per batch instead of once per node. Lookups go local first,
   then shared (one lock), then the read-only persistent cache. A miss
   on a summary another domain holds un-merged merely re-expands that
   subtree; the racy duplicate computes the identical summary. *)

(* Defaults for the batch-merge thresholds; a run can override the
   forced threshold via [?merge_batch] (the boundary minimum scales
   down with it so a tiny batch setting still merges at boundaries). *)
let local_merge_forced = 256
let local_merge_min = 32

let merge_local sh w =
  match w.w_local with
  | Some local when Hashtbl.length local > 0 ->
    ignore (Memo.merge_batch sh.memo ~domain:w.w_id local : int);
    Hashtbl.reset local;
    w.w_stats.st_merges <- w.w_stats.st_merges + 1
  | _ -> ()

let persist_probe sh w e =
  match sh.persist with
  | None -> None
  | Some tbl -> (
    match Hashtbl.find_opt tbl e with
    | Some { Memo.Persist.p_paths; p_stuck } ->
      (* persisted summaries are always violation-free (only safe
         subtrees are saved); promote into the bounded table so
         repeats stay cheap *)
      let s = { s_paths = p_paths; s_violations = []; s_stuck = p_stuck } in
      (match w.w_local with
      | None -> Memo.add sh.memo e s
      | Some local -> Hashtbl.replace local e s);
      Some s
    | None -> None)

let memo_find sh w e =
  match w.w_local with
  | None -> (
    match Memo.find sh.memo e with Some _ as hit -> hit | None -> persist_probe sh w e)
  | Some local -> (
    match Hashtbl.find_opt local e with
    | Some _ as hit -> hit
    | None -> (
      match Memo.find_with_shard sh.memo e with
      | (Some _ as hit), shard ->
        (* hash-near steal preference: remember the domain whose
           generations feed the shards we read from *)
        let owner = Memo.shard_owner sh.memo shard in
        if owner >= 0 && owner <> w.w_id then w.w_pref <- owner;
        hit
      | None, _ -> persist_probe sh w e))

(* Parallel writes are opportunistic write-through: a summary another
   domain cannot see is a subtree it will re-expand, which costs far
   more than a shard lock — but *blocking* on a contended lock at every
   node is the overhead PR 4 paid. So take the shard lock only when it
   is free ([Memo.try_add]); when another domain holds it, the entry
   goes to the private generation instead and reaches the shared table
   in the next boundary [merge_batch]. Under zero contention this is
   immediate visibility with an uncontended lock; under contention the
   write path never stalls and the batch merge amortises the wait. *)
let memo_store sh w e s =
  match w.w_local with
  | None -> Memo.add sh.memo e s
  | Some local ->
    if not (Memo.try_add sh.memo e s) then begin
      Hashtbl.replace local e s;
      if Hashtbl.length local >= sh.merge_forced then merge_local sh w
    end

(* ------------------------------------------------------------------ *)

(* Publish every sibling leg except the first as a fresh subtree-root
   task. The published legs are advanced here (one NI access each) so a
   stolen task is immediately expandable; ownership of each fork
   transfers wholesale to whichever domain pops or steals it. The lease
   handed to each child, [x_lease - x_used], is an upper bound on the
   budget the sequential DFS would still have at the child's root:
   every terminal this task has counted so far lies lexicographically
   before the published subtree. Settlement clips any optimism away. *)
let merge_at_boundary sh w =
  match w.w_local with
  | Some l when Hashtbl.length l >= sh.merge_min -> merge_local sh w
  | _ -> ()

let publish_siblings sh sp w x sink kernel schedule_rev depth rest =
  (* a thief is about to continue next to the subtree we just finished:
     make our summaries visible to it before it starts *)
  merge_at_boundary sh w;
  let children = ref [] in
  List.iter
    (fun pid ->
      let fork = Kernel.snapshot kernel in
      w.w_stats.st_snapshots <- w.w_stats.st_snapshots + 1;
      note sh sink fork depth `Fork;
      match advance_leg fork pid ~max_instructions:sh.max_instructions with
      | `Progress | `Exited ->
        let lease = x.x_lease - x.x_used in
        let lg = { rev_items = [] } in
        w.w_stats.st_pubs <- w.w_stats.st_pubs + 1;
        if lease < sh.max_paths then w.w_stats.st_splits <- w.w_stats.st_splits + 1;
        sp.sp_publish
          {
            t_kernel = fork;
            t_schedule_rev = pid :: schedule_rev;
            t_depth = depth + 1;
            t_lease = lease;
            t_log = lg;
          };
        children := lg :: !children
      | `Stuck ->
        x.x_ps <- x.x_ps + 1;
        note sh sink fork depth (`Prune "stuck leg"))
    rest;
  List.rev !children

(* Explore [kernel]'s subtree; returns its summary and whether it is
   complete ("clean": no lease prune and no re-split inside, safe to
   memoize). Results are pushed onto the task's log in DFS order. With
   [split = Some _], a node whose siblings are published to thieves
   returns unclean — its summary no longer covers the whole subtree —
   but the spliced [I_child] markers keep the global log exact. *)
let rec explore_state sh split w x sink kernel schedule_rev depth =
  if x.x_used >= x.x_lease then begin
    cap sh x sink kernel depth;
    (empty_summary, false)
  end
  else begin
    bump_depth_max sh depth;
    let encoding =
      if sh.dedup then begin
        (* Campaign decoration: a fixed-width generation prefix keeps
           key spaces of different campaign cells (different baselines /
           backends) disjoint inside one shared table, and the
           candidate tag folds in the part of the future the engine
           state cannot see — the accomplice's residual program text
           (programs live in Cpu.ctx, not RAM, so two candidates in the
           same machine state are distinguished only by this tag).
           Both decorations are fixed-width and lead the key: the
           paranoid key is the exact concatenation prefix ^ tag ^
           encoding (injective), and the fingerprint key streams them
           through the same per-node hash as the state walk, so a
           decorated key is 16 bytes like an undecorated one. *)
        let prefix =
          match sh.key_tag with
          | None -> if sh.key_prefix = "" then None else Some sh.key_prefix
          | Some tag -> Some (sh.key_prefix ^ tag kernel)
        in
        let key, bytes =
          Kernel.state_key ?prefix ~relative_to:sh.baseline ~paranoid:sh.paranoid kernel
        in
        w.w_stats.st_hash_bytes <- w.w_stats.st_hash_bytes + bytes;
        Some key
      end
      else None
    in
    let hit = match encoding with Some e -> memo_find sh w e | None -> None in
    match hit with
    | Some s when x.x_used + s.s_paths <= x.x_lease ->
      x.x_used <- x.x_used + s.s_paths;
      Atomic.incr sh.hits;
      note sh sink kernel depth `Dedup;
      (if s.s_violations = [] then begin
         (* the common case folds into the pending stretch — no log
            growth for safe subtrees *)
         x.x_pp <- x.x_pp + s.s_paths;
         x.x_ps <- x.x_ps + s.s_stuck
       end
       else begin
         flush_pending x;
         push_item x (I_hit (s, List.rev schedule_rev))
       end);
      (s, true)
    | Some _ | None -> (
      Atomic.incr sh.visited;
      (* the runnable set is computed once per node (it was previously
         recomputed inside a List.mem per candidate pid) *)
      let live = Kernel.runnable_pids kernel in
      let runnable = List.filter (fun pid -> List.mem pid live) sh.pids in
      (* with a transfer in flight, "wait for it" is one more explorable
         leg, ordered after every real pid; a node is terminal only when
         nothing can run *and* nothing is draining *)
      let legs =
        match Kernel.next_transfer_deadline kernel with
        | Some _ -> runnable @ [ wait_leg ]
        | None -> runnable
      in
      match legs with
      | [] ->
        x.x_used <- x.x_used + 1;
        let s =
          match sh.check kernel with
          | Some v ->
            note sh sink kernel depth (`Violation "oracle check failed on a completed schedule");
            flush_pending x;
            push_item x (I_viol (v, List.rev schedule_rev));
            { s_paths = 1; s_violations = [ (v, [], 0) ]; s_stuck = 0 }
          | None ->
            x.x_pp <- x.x_pp + 1;
            { s_paths = 1; s_violations = []; s_stuck = 0 }
        in
        (match encoding with Some e -> memo_store sh w e s | None -> ());
        (s, true)
      | first :: rest ->
        let published, children =
          match split with
          | Some sp when rest <> [] && sp.sp_want ~depth ~width:(List.length legs) ->
            (true, publish_siblings sh sp w x sink kernel schedule_rev depth rest)
          | _ -> (false, [])
        in
        let to_expand = if published then [ first ] else legs in
        let acc_paths = ref 0 and acc_viol = ref [] and acc_stuck = ref 0 in
        let clean = ref (not published) in
        let rec expand = function
          | [] -> ()
          | pid :: tail ->
            (if x.x_used >= x.x_lease then begin
               cap sh x sink kernel depth;
               clean := false
             end
             else begin
               (* Last-leg snapshot elision: after this loop the parent
                  kernel is dead (its memo key was captured above;
                  published siblings forked their own snapshots before
                  the first leg ran), so the final leg advances the
                  parent in place — a node of width w pays w-1 copies,
                  and a chain of width-1 nodes pays none. *)
               let last = tail = [] in
               let fork = if last then kernel else Kernel.snapshot kernel in
               if not last then w.w_stats.st_snapshots <- w.w_stats.st_snapshots + 1;
               note sh sink fork depth `Fork;
               match advance_leg fork pid ~max_instructions:sh.max_instructions with
               | `Progress | `Exited ->
                 let s, c = explore_state sh split w x sink fork (pid :: schedule_rev) (depth + 1) in
                 List.iter
                   (fun (v, sfx, i) -> acc_viol := (v, pid :: sfx, !acc_paths + i) :: !acc_viol)
                   s.s_violations;
                 acc_paths := !acc_paths + s.s_paths;
                 acc_stuck := !acc_stuck + s.s_stuck;
                 if not c then clean := false
               | `Stuck ->
                 (* prune just this leg: the pid spun past the
                    instruction budget without an NI access — its
                    siblings' interleavings are still explored *)
                 x.x_ps <- x.x_ps + 1;
                 incr acc_stuck;
                 note sh sink fork depth (`Prune "stuck leg")
             end);
            expand tail
        in
        expand to_expand;
        if published then begin
          (* splice the published subtrees where they sit in leg order:
             everything found so far (the first leg's subtree) is
             lexicographically before them *)
          flush_pending x;
          List.iter (fun lg -> push_item x (I_child lg)) children
        end;
        let s = { s_paths = !acc_paths; s_violations = List.rev !acc_viol; s_stuck = !acc_stuck } in
        if !clean then (match encoding with Some e -> memo_store sh w e s | None -> ());
        (s, !clean))
  end

(* ------------------------------------------------------------------ *)
(* Settlement. The root log (with every child log spliced at its leg
   position) lists everything the run found in DFS order. Replaying it
   against [max_paths] reproduces the sequential clipped frontier: take
   terminals until the budget runs out, emit exactly the violations
   whose terminal index falls inside it, and flag truncation if
   anything — a stretch, a hit, an unentered child, a cap marker — was
   cut. Runs on the main domain after every worker has joined. *)
let settle ~max_paths root_log =
  let remaining = ref max_paths in
  let truncated = ref false in
  let paths = ref 0 and stuck = ref 0 in
  let out = ref [] in
  let rec walk log =
    List.iter
      (fun item ->
        if !remaining <= 0 then truncated := true
        else
          match item with
          | I_count (p, s) ->
            let take = min p !remaining in
            if take < p then truncated := true;
            paths := !paths + take;
            stuck := !stuck + s;
            remaining := !remaining - take
          | I_viol (v, schedule) ->
            paths := !paths + 1;
            remaining := !remaining - 1;
            out := (v, schedule) :: !out
          | I_hit (s, prefix) ->
            if s.s_paths <= !remaining then begin
              paths := !paths + s.s_paths;
              stuck := !stuck + s.s_stuck;
              remaining := !remaining - s.s_paths;
              List.iter (fun (v, sfx, _) -> out := (v, prefix @ sfx) :: !out) s.s_violations
            end
            else begin
              truncated := true;
              let take = !remaining in
              paths := !paths + take;
              remaining := 0;
              List.iter
                (fun (v, sfx, idx) -> if idx < take then out := (v, prefix @ sfx) :: !out)
                s.s_violations
            end
          | I_child lg -> walk lg
          | I_capped -> truncated := true)
      (List.rev log.rev_items)
  in
  walk root_log;
  (!paths, !stuck, !truncated, List.rev !out)

(* ------------------------------------------------------------------ *)
(* Adaptive publication cutoff. A node is published only when its
   estimated subtree size — (deepest depth seen − depth + 1) ×
   (width − 1), a height-times-branching proxy — clears the cutoff.
   Hungry domains that sweep every deque and find nothing lower it
   (down to 1, which lets any 2-wide node through and bootstraps an
   empty system); a worker that keeps popping its own publications back
   (nobody stole them, so publishing was pure overhead) raises it. The
   final value is reported in the result so the bench can watch the
   equilibrium move. *)

let default_cutoff = 8
let cutoff_min = 1
let cutoff_max = 1 lsl 20

let raise_cutoff sh =
  let c = Atomic.get sh.cutoff in
  if c < cutoff_max then ignore (Atomic.compare_and_set sh.cutoff c (c + 1) : bool)

let lower_cutoff sh =
  let c = Atomic.get sh.cutoff in
  if c > cutoff_min then ignore (Atomic.compare_and_set sh.cutoff c (c - 1) : bool)

(* ------------------------------------------------------------------ *)
(* Work-stealing parallel driver. Every domain owns a private
   Chase–Lev deque (Ws_deque: atomics only, no mutex on the hot path).
   The root task seeds domain 0; from then on load balance is dynamic:
   a worker expanding a node while some domain is hungry publishes the
   node's unexpanded sibling legs onto its own deque (bottom), keeps
   descending into the first leg, and thieves steal from the top — so
   a thief always takes the *largest* (shallowest) subtree the victim
   has published. The sequential cutoff (above) keeps small subtrees
   inline: they never touch the deque, the shard locks, or a fork a
   thief could take.

   Hungry domains hunt starting from their preferred victim (the last
   domain stolen from, nudged by memo shard ownership), briefly
   cpu_relax, then sleep with exponential backoff up to 1ms — so on a
   machine with fewer cores than domains the thieves yield the core to
   whoever has work instead of burning their timeslices spinning.

   Termination: an atomic in-flight counter is incremented *before*
   every publish and decremented after the popped/stolen task's
   subtree completes; a worker finding its deque empty hunts until it
   steals or the counter reaches zero, which cannot happen while any
   task is queued or running.

   Domain-safety is unchanged from PR 3: a task's snapshot lineage is
   owned by exactly one domain at a time (the publisher finishes the
   leg before the push, and the deque's CAS hands the fork to exactly
   one thief); cross-lineage pages are only read. The shared pieces
   are the atomic counters, the sharded bounded memo (batch merges of
   immutable summary values — a racy duplicate expansion computes the
   same summary, costing only time), the per-task logs (each written by
   exactly one domain, read by the settlement walk after join), and
   per-worker trace sinks merged under a lock at the end. *)

let run_parallel sh root_sink root root_log ~jobs stats =
  let deques = Array.init jobs (fun _ -> Uldma_util.Ws_deque.create ()) in
  let in_flight = Atomic.make 0 in
  let hungry = Atomic.make 0 in
  let merge_mutex = Mutex.create () in
  let tracing = Uldma_obs.Trace.enabled root_sink in
  let publish_to dq t =
    Atomic.incr in_flight;
    Uldma_util.Ws_deque.push dq t
  in
  publish_to deques.(0)
    {
      t_kernel = Kernel.snapshot root;
      t_schedule_rev = [];
      t_depth = 0;
      t_lease = sh.max_paths;
      t_log = root_log;
    };
  let worker i () =
    let sink = if tracing then Uldma_obs.Trace.create () else Uldma_obs.Trace.null in
    let own = deques.(i) in
    let w =
      { w_id = i; w_local = Some (Hashtbl.create 512); w_pref = (i + 1) mod jobs; w_stats = stats.(i) }
    in
    let split =
      Some
        {
          (* split while someone is idle, the estimated subtree clears
             the adaptive cutoff, and our own deque has no healthy
             backlog already (publishing more would only shred the
             memo's subtree locality) *)
          sp_want =
            (fun ~depth ~width ->
              Atomic.get hungry > 0
              && Uldma_util.Ws_deque.size own < 16
              && (Atomic.get sh.depth_max - depth + 1) * (width - 1) >= Atomic.get sh.cutoff);
          sp_publish = (fun t -> publish_to own t);
        }
    in
    let own_pops = ref 0 in
    let run_task ~stolen t =
      if tracing then Kernel.attach_trace t.t_kernel sink ~machine:sh.machine;
      if stolen then begin
        w.w_stats.st_steals <- w.w_stats.st_steals + 1;
        (* a stolen task usually borders subtrees we just explored:
           publish our generation before diving into foreign territory *)
        merge_at_boundary sh w;
        note sh sink t.t_kernel t.t_depth `Steal
      end;
      let x =
        { x_lease = t.t_lease; x_used = 0; x_pp = 0; x_ps = 0; x_capped = false; x_log = t.t_log }
      in
      ignore (explore_state sh split w x sink t.t_kernel t.t_schedule_rev t.t_depth : _ summary * bool);
      flush_pending x;
      (* task boundary = merge boundary, unless the generation is trivial *)
      merge_at_boundary sh w;
      Atomic.decr in_flight
    in
    let steal_once () =
      let rec go k =
        if k >= jobs then None
        else
          let j = (w.w_pref + k) mod jobs in
          if j = i then go (k + 1)
          else
            match Uldma_util.Ws_deque.steal deques.(j) with
            | Some _ as t ->
              w.w_pref <- j;
              t
            | None -> go (k + 1)
      in
      go 0
    in
    let rec drain () =
      match Uldma_util.Ws_deque.pop own with
      | Some t ->
        incr own_pops;
        (* our own publications keep coming back to us: nobody is
           stealing, so publishing at this size is pure overhead *)
        if !own_pops land 7 = 0 then raise_cutoff sh;
        run_task ~stolen:false t;
        drain ()
      | None ->
        (* own deque stays empty until we run something (only the owner
           pushes to it), so go hungry and hunt *)
        if Atomic.get in_flight > 0 then begin
          Atomic.incr hungry;
          hunt 0
        end
    and hunt tries =
      match steal_once () with
      | Some t ->
        Atomic.decr hungry;
        own_pops := 0;
        run_task ~stolen:true t;
        drain ()
      | None ->
        if Atomic.get in_flight = 0 then Atomic.decr hungry
        else begin
          if tries land 3 = 3 then lower_cutoff sh;
          if tries < 8 then Domain.cpu_relax ()
          else Unix.sleepf (Float.min 0.001 (0.00001 *. float_of_int (tries - 7)));
          hunt (tries + 1)
        end
    in
    drain ();
    merge_local sh w;
    if tracing then Mutex.protect merge_mutex (fun () -> Uldma_obs.Trace.absorb root_sink sink)
  in
  let domains = List.init jobs (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join domains

(* ------------------------------------------------------------------ *)

let default_memo_cap = 1 lsl 18

(* ------------------------------------------------------------------ *)
(* Cross-exploration shared memo (campaign mode). One table outlives
   many [explore] calls in one process, so candidate N's exploration
   warm-starts from the union of what candidates 1..N-1 memoized —
   in memory, without a disk round-trip. Soundness needs two
   decorations on every key (see the key-composition comment in
   [explore_state]): a per-cell generation prefix and a per-candidate
   residual tag. The generation is bumped by the campaign driver
   whenever the baseline or backend changes, making stale keys
   unreachable without clearing the table. *)

type 'v shared_memo = { sm_memo : 'v summary Memo.t; mutable sm_generation : int }

let create_shared ?(cap = default_memo_cap) ?(locked = true) () =
  { sm_memo = Memo.create ~shards:64 ~cap ~locked; sm_generation = 0 }

let bump_generation sm = sm.sm_generation <- sm.sm_generation + 1
let shared_generation sm = sm.sm_generation
let shared_length sm = Memo.length sm.sm_memo
let shared_evictions sm = Memo.evictions sm.sm_memo

let generation_prefix gen =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int gen);
  Bytes.unsafe_to_string b

let explore ~root ~pids ?baseline ?(max_instructions_per_leg = 2000) ?(max_paths = 1_000_000)
    ?(dedup = true) ?(paranoid_memo = false) ?(jobs = 1) ?(memo_cap = default_memo_cap) ?memo_file
    ?(memo_key = "default") ?(memo_net = "null") ?shared ?key_tag ?(cutoff = default_cutoff)
    ?(merge_batch = local_merge_forced) ~check () =
  let jobs = max 1 jobs in
  let root_fp = Kernel.fingerprint root in
  (* The persistent cache stores undecorated fingerprint keys (Persist
     schema 4); paranoid string keys live in a different key space, and
     a campaign's decorated keys are only meaningful inside its own
     shared table — so neither loads nor saves the disk cache. *)
  let persist_on = dedup && (not paranoid_memo) && Option.is_none shared in
  let persist_base =
    match memo_file with
    | Some file when persist_on ->
      Memo.Persist.load ~file ~scenario:memo_key ~net:memo_net ~root:root_fp
    | Some _ | None -> None
  in
  let memo =
    match shared with
    | Some sm -> sm.sm_memo
    | None -> Memo.create ~shards:(if jobs = 1 then 1 else 64) ~cap:memo_cap ~locked:(jobs > 1)
  in
  (* a pre-warmed shared table carries eviction history from earlier
     candidates; report only this run's evictions *)
  let evictions0 = Memo.evictions memo in
  let merge_forced = max 1 merge_batch in
  let sh =
    {
      baseline = (match baseline with Some b -> b | None -> root);
      pids;
      max_instructions = max_instructions_per_leg;
      max_paths;
      dedup;
      paranoid = paranoid_memo;
      check;
      machine = Kernel.machine_id root;
      visited = Atomic.make 0;
      hits = Atomic.make 0;
      cutoff = Atomic.make (max cutoff_min (min cutoff_max cutoff));
      depth_max = Atomic.make 0;
      memo;
      persist = persist_base;
      key_prefix =
        (match shared with Some sm -> generation_prefix sm.sm_generation | None -> "");
      key_tag;
      merge_forced;
      merge_min = min local_merge_min merge_forced;
    }
  in
  let sink = Kernel.trace root in
  let root_log = { rev_items = [] } in
  let stats =
    Array.init jobs (fun _ ->
        {
          st_steals = 0;
          st_pubs = 0;
          st_splits = 0;
          st_merges = 0;
          st_snapshots = 0;
          st_hash_bytes = 0;
        })
  in
  if jobs = 1 then begin
    (* Against a locked shared (campaign) table the sequential path
       still batches its writes through a private generation: the table
       may be contended by other candidates' outer workers, and
       [Memo.try_add]'s non-blocking write-through plus boundary merges
       is exactly the discipline the parallel path already uses. An
       unlocked shared table means no other worker exists, so write
       through directly and skip the double lookup. *)
    let w_local =
      match shared with
      | Some sm when Memo.locked sm.sm_memo -> Some (Hashtbl.create 512)
      | Some _ | None -> None
    in
    let w = { w_id = 0; w_local; w_pref = 0; w_stats = stats.(0) } in
    let x =
      { x_lease = max_paths; x_used = 0; x_pp = 0; x_ps = 0; x_capped = false; x_log = root_log }
    in
    ignore (explore_state sh None w x sink (Kernel.snapshot root) [] 0 : _ summary * bool);
    flush_pending x;
    merge_local sh w
  end
  else run_parallel sh sink root root_log ~jobs stats;
  let paths, stuck_legs, truncated, violations = settle ~max_paths root_log in
  (match memo_file with
  | Some file when persist_on ->
    (* persist only safe summaries: a warm cache can skip subtrees but
       never silence a violation *)
    let safe = ref [] in
    Memo.iter memo (fun e s ->
        if s.s_violations = [] then
          safe := (e, { Memo.Persist.p_paths = s.s_paths; p_stuck = s.s_stuck }) :: !safe);
    Memo.Persist.save ~file ~scenario:memo_key ~net:memo_net ~root:root_fp !safe
  | Some _ | None -> ());
  let counters = Uldma_obs.Counters.create () in
  Array.iteri
    (fun i st ->
      let p = Printf.sprintf "explorer.d%d." i in
      Uldma_obs.Counters.add counters (p ^ "steals") st.st_steals;
      Uldma_obs.Counters.add counters (p ^ "publications") st.st_pubs;
      Uldma_obs.Counters.add counters (p ^ "lease_splits") st.st_splits;
      Uldma_obs.Counters.add counters (p ^ "memo_merges") st.st_merges)
    stats;
  let total f = Array.fold_left (fun n st -> n + f st) 0 stats in
  {
    paths;
    violations;
    truncated;
    states_visited = Atomic.get sh.visited;
    dedup_hits = Atomic.get sh.hits;
    stuck_legs;
    evictions = Memo.evictions memo - evictions0;
    steals = total (fun s -> s.st_steals);
    publications = total (fun s -> s.st_pubs);
    lease_splits = total (fun s -> s.st_splits);
    memo_merges = total (fun s -> s.st_merges);
    cutoff = Atomic.get sh.cutoff;
    (* +1 for the seed snapshot of [root], which is never advanced in
       place because it is the dedup baseline *)
    snapshots = total (fun s -> s.st_snapshots) + 1;
    bytes_hashed = total (fun s -> s.st_hash_bytes);
    counters;
  }
