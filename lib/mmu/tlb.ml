type entry = { vpage : int; pte : Pte.t }

type stats = { hits : int; misses : int }

module Slots = Map.Make (Int)

(* The filled slots, as a persistent map from slot index to entry: a
   copy shares it, a fill or an invalidation rebuilds only the path to
   one slot, and a flush is the empty map. *)
type t = {
  mutable slots : entry Slots.t;
  mask : int;
  mutable hits : int;
  mutable misses : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(slots = 64) () =
  if not (is_power_of_two slots) then invalid_arg "Tlb.create: slots must be a power of two";
  { slots = Slots.empty; mask = slots - 1; hits = 0; misses = 0 }

let copy t = { t with slots = t.slots }

let slot_of t vpage = vpage land t.mask

(* The cached entry for [vpage]; raises [Not_found], allocating
   nothing either way. *)
let find t ~vpage =
  let e = Slots.find (slot_of t vpage) t.slots in
  if e.vpage = vpage then e.pte else raise_notrace Not_found

let lookup t ~vpage = match find t ~vpage with pte -> Some pte | exception Not_found -> None

let fill t ~vpage pte = t.slots <- Slots.add (slot_of t vpage) { vpage; pte } t.slots

let hit t ~vpage =
  let pte = find t ~vpage in
  t.hits <- t.hits + 1;
  pte

let refill t page_table ~vpage =
  t.misses <- t.misses + 1;
  let pte = Page_table.find_exn page_table ~vpage in
  fill t ~vpage pte;
  pte

let translate t page_table ~vpage =
  match hit t ~vpage with
  | pte -> Some (pte, `Hit)
  | exception Not_found -> (
    match refill t page_table ~vpage with
    | pte -> Some (pte, `Miss)
    | exception Not_found -> None)

let invalidate t ~vpage =
  match find t ~vpage with
  | _ -> t.slots <- Slots.remove (slot_of t vpage) t.slots
  | exception Not_found -> ()

let flush t = t.slots <- Slots.empty

let stats t : stats = { hits = t.hits; misses = t.misses }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
