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

type t = {
  sets : int;
  ways : int;
  slots : entry option array; (* set s occupies [s*ways, (s+1)*ways) *)
  victim : int array; (* per-set round-robin refill cursor *)
  mutable hits : int;
  mutable misses : int;
  dg : int array; (* the two additive digest lanes of slots + cursors *)
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let default_sets = 16
let default_ways = 4

let create ?(sets = default_sets) ?(ways = default_ways) () =
  if not (is_power_of_two sets) then invalid_arg "Iotlb.create: sets must be a power of two";
  if ways < 1 then invalid_arg "Iotlb.create: ways must be positive";
  {
    sets;
    ways;
    slots = Array.make (sets * ways) None;
    victim = Array.make sets 0;
    hits = 0;
    misses = 0;
    dg = [| 0; 0 |];
  }

let copy t =
  { t with slots = Array.copy t.slots; victim = Array.copy t.victim; dg = Array.copy t.dg }

let set_of t vpage = vpage land (t.sets - 1)

let lookup t ~vpage =
  let base = set_of t vpage * t.ways in
  let rec probe w =
    if w >= t.ways then None
    else
      match t.slots.(base + w) with
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
  for f = 0 to 2 do
    Uldma_util.Fp128.replace_int t.dg 0 ((3 * k) + f) (field t.slots.(k) f) (field e f)
  done;
  t.slots.(k) <- e

let set_victim t set w =
  Uldma_util.Fp128.replace_int t.dg 0 ((3 * Array.length t.slots) + set) t.victim.(set) w;
  t.victim.(set) <- w

let fill t ~vpage pte =
  let set = set_of t vpage in
  let base = set * t.ways in
  (* refill an existing entry for the page in place; otherwise take the
     set's round-robin victim way *)
  let rec existing w = if w >= t.ways then None
    else match t.slots.(base + w) with
      | Some e when e.vpage = vpage -> Some w
      | Some _ | None -> existing (w + 1)
  in
  let way =
    match existing 0 with
    | Some w -> w
    | None ->
      let w = t.victim.(set) in
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
    match t.slots.(base + w) with
    | Some e when e.vpage = vpage -> set_slot t (base + w) None
    | Some _ | None -> ()
  done

let flush t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  Array.fill t.victim 0 (Array.length t.victim) 0;
  Array.fill t.dg 0 2 0

let stats t : stats = { hits = t.hits; misses = t.misses }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let entries t =
  Array.to_list t.slots
  |> List.filter_map (fun e -> Option.map (fun e -> (e.vpage, e.pte)) e)

let digest t = (t.dg.(0), t.dg.(1))

(* Canonical encoding: slot layout plus the victim cursors. Replacement
   is deterministic, so equal encodings evolve identically; hit/miss
   counters are diagnostics and are excluded. A fingerprint encoder
   gets the two digest lanes of the same state instead. *)
let encode enc t =
  let module E = Uldma_util.Enc in
  match enc with
  | E.Fp fp ->
    Uldma_util.Fp128.add_int fp t.dg.(0);
    Uldma_util.Fp128.add_int fp t.dg.(1)
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
      t.slots;
    Array.iter i t.victim
