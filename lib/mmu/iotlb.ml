(* The IOMMU's I/O TLB: a bounded set-associative translation cache in
   front of a process page table. Unlike the CPU's [Tlb] (direct-mapped,
   private to one address space, consulted on every access), the IOTLB
   lives on the DMA engine, is filled by hardware table walks charged on
   the machine timing model, and is flushed by the OS on context switch
   and invalidated on unmap — the classic untagged-IOTLB discipline.

   Replacement is per-set round robin: a mutable victim cursor per set,
   advanced on every fill. Both the slot contents and the cursors are
   part of the canonical encoding — the cursor decides which entry the
   *next* fill evicts, so two caches with equal slots but different
   cursors can diverge observably (a future hit vs miss changes charged
   walk time), and merging them would be unsound.

   [fill], [invalidate] and [flush] keep an additive digest of that
   same state current (Fp128.int_term): an entry in slot k contributes
   its vpage, frame and permission bits at digest slots 3k, 3k+1 and
   3k+2 (the permission word carries a valid bit, so a present entry
   never digests like an empty slot), and set s's victim cursor at
   slot 3 * (sets * ways) + s. The empty cache digests to (0, 0). *)

type entry = { vpage : int; pte : Pte.t }

type stats = { hits : int; misses : int }

(* The slot, cursor and digest arrays are copy-on-write, together:
   [shared] means another instance may still read [tab], so the first
   write through [own] copies all three. [blank] is the empty cache's
   tables, shared by every copy of one IOTLB and never written, so
   pointing [tab] at it (with [shared] set) is an allocation-free
   flush. *)
type tables = {
  slots : entry option array; (* set s occupies [s*ways, (s+1)*ways) *)
  victim : int array; (* per-set round-robin refill cursor *)
  dg : int array; (* the two additive digest lanes of slots + cursors *)
}

type t = {
  sets : int;
  ways : int;
  mutable tab : tables;
  mutable shared : bool;
  blank : tables;
  mutable hits : int;
  mutable misses : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let default_sets = 16
let default_ways = 4

let create ?(sets = default_sets) ?(ways = default_ways) () =
  if not (is_power_of_two sets) then invalid_arg "Iotlb.create: sets must be a power of two";
  if ways < 1 then invalid_arg "Iotlb.create: ways must be positive";
  let blank =
    { slots = Array.make (sets * ways) None; victim = Array.make sets 0; dg = [| 0; 0 |] }
  in
  { sets; ways; tab = blank; shared = true; blank; hits = 0; misses = 0 }

(* Both sides are flagged: the explorer keeps writing the parent after
   forking it, and the child still reads the same tables. *)
let copy t =
  t.shared <- true;
  { t with shared = true }

let own t =
  if t.shared then begin
    let tab = t.tab in
    t.tab <-
      { slots = Array.copy tab.slots; victim = Array.copy tab.victim; dg = Array.copy tab.dg };
    t.shared <- false
  end

let set_of t vpage = vpage land (t.sets - 1)

let lookup t ~vpage =
  let base = set_of t vpage * t.ways in
  let rec probe w =
    if w >= t.ways then None
    else
      match t.tab.slots.(base + w) with
      | Some e when e.vpage = vpage -> Some e.pte
      | Some _ | None -> probe (w + 1)
  in
  probe 0

let perm_bits (pte : Pte.t) =
  (if pte.Pte.perms.Uldma_mem.Perms.read then 1 else 0)
  lor (if pte.Pte.perms.Uldma_mem.Perms.write then 2 else 0)
  lor if pte.Pte.cacheable then 4 else 0

(* Field [f] of a slot as the digest sees it; an empty slot is all 0. *)
let field e f =
  match e with
  | None -> 0
  | Some e -> (
    match f with 0 -> e.vpage | 1 -> e.pte.Pte.frame | _ -> perm_bits e.pte lor 8)

let set_slot t k e =
  own t;
  let tab = t.tab in
  for f = 0 to 2 do
    Uldma_util.Fp128.replace_int tab.dg 0 ((3 * k) + f) (field tab.slots.(k) f) (field e f)
  done;
  tab.slots.(k) <- e

let set_victim t set w =
  own t;
  let tab = t.tab in
  Uldma_util.Fp128.replace_int tab.dg 0 ((3 * Array.length tab.slots) + set) tab.victim.(set) w;
  tab.victim.(set) <- w

let fill t ~vpage pte =
  let set = set_of t vpage in
  let base = set * t.ways in
  (* refill an existing entry for the page in place; otherwise take the
     set's round-robin victim way *)
  let rec existing w = if w >= t.ways then None
    else match t.tab.slots.(base + w) with
      | Some e when e.vpage = vpage -> Some w
      | Some _ | None -> existing (w + 1)
  in
  let way =
    match existing 0 with
    | Some w -> w
    | None ->
      let w = t.tab.victim.(set) in
      set_victim t set ((w + 1) mod t.ways);
      w
  in
  set_slot t (base + way) (Some { vpage; pte })

let translate t table ~vpage =
  match lookup t ~vpage with
  | Some pte ->
    t.hits <- t.hits + 1;
    `Hit pte
  | None -> (
    t.misses <- t.misses + 1;
    match Page_table.find table ~vpage with
    | Some pte ->
      fill t ~vpage pte;
      `Miss pte
    | None -> `Fault)

let invalidate t ~vpage =
  let base = set_of t vpage * t.ways in
  for w = 0 to t.ways - 1 do
    match t.tab.slots.(base + w) with
    | Some e when e.vpage = vpage -> set_slot t (base + w) None
    | Some _ | None -> ()
  done

let flush t =
  if t.tab != t.blank then begin
    t.tab <- t.blank;
    t.shared <- true
  end

let stats t : stats = { hits = t.hits; misses = t.misses }

let entries t =
  Array.to_list t.tab.slots
  |> List.filter_map (fun e -> Option.map (fun e -> (e.vpage, e.pte)) e)

let digest t = (t.tab.dg.(0), t.tab.dg.(1))

(* Canonical encoding: slot layout plus the victim cursors. Replacement
   is deterministic, so equal encodings evolve identically; hit/miss
   counters are diagnostics and are excluded. A fingerprint encoder
   gets the two digest lanes of the same state instead. *)
let encode enc t =
  let module E = Uldma_util.Enc in
  match enc with
  | E.Fp fp ->
    Uldma_util.Fp128.add_int fp t.tab.dg.(0);
    Uldma_util.Fp128.add_int fp t.tab.dg.(1)
  | E.Buf _ ->
    let i v = E.int enc v in
    Array.iter
      (fun slot ->
        match slot with
        | None -> i min_int
        | Some e ->
          i e.vpage;
          i e.pte.Pte.frame;
          i (perm_bits e.pte))
      t.tab.slots;
    Array.iter i t.tab.victim
