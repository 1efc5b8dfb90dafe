type entry = { vpage : int; pte : Pte.t }

type stats = { hits : int; misses : int }

(* The slot array is copy-on-write: [shared] means another instance may
   still read [slots], so the first write through [own] copies it.
   [blank] is the all-[None] array every copy of one TLB shares; it is
   never written, so pointing [slots] at it (with [shared] set) is an
   allocation-free flush. *)
type t = {
  mutable slots : entry option array;
  mutable shared : bool;
  blank : entry option array;
  mask : int;
  mutable hits : int;
  mutable misses : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(slots = 64) () =
  if not (is_power_of_two slots) then invalid_arg "Tlb.create: slots must be a power of two";
  let blank = Array.make slots None in
  { slots = blank; shared = true; blank; mask = slots - 1; hits = 0; misses = 0 }

(* Both sides are flagged: the explorer keeps writing the parent after
   forking it, and the child still reads the same array. *)
let copy t =
  t.shared <- true;
  { t with shared = true }

let own t =
  if t.shared then begin
    t.slots <- Array.copy t.slots;
    t.shared <- false
  end

let slot_of t vpage = vpage land t.mask

let lookup t ~vpage =
  match t.slots.(slot_of t vpage) with
  | Some e when e.vpage = vpage -> Some e.pte
  | Some _ | None -> None

let fill t ~vpage pte =
  own t;
  t.slots.(slot_of t vpage) <- Some { vpage; pte }

let translate t page_table ~vpage =
  match lookup t ~vpage with
  | Some pte ->
    t.hits <- t.hits + 1;
    Some (pte, `Hit)
  | None -> (
    t.misses <- t.misses + 1;
    match Page_table.find page_table ~vpage with
    | Some pte ->
      fill t ~vpage pte;
      Some (pte, `Miss)
    | None -> None)

let invalidate t ~vpage =
  match t.slots.(slot_of t vpage) with
  | Some e when e.vpage = vpage ->
    own t;
    t.slots.(slot_of t vpage) <- None
  | Some _ | None -> ()

let flush t =
  if t.slots != t.blank then begin
    t.slots <- t.blank;
    t.shared <- true
  end

let stats t : stats = { hits = t.hits; misses = t.misses }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
