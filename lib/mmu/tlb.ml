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

let lookup t ~vpage =
  match Slots.find (slot_of t vpage) t.slots with
  | e when e.vpage = vpage -> Some e.pte
  | _ -> None
  | exception Not_found -> None

let fill t ~vpage pte = t.slots <- Slots.add (slot_of t vpage) { vpage; pte } t.slots

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
  match lookup t ~vpage with
  | Some _ -> t.slots <- Slots.remove (slot_of t vpage) t.slots
  | None -> ()

let flush t = t.slots <- Slots.empty

let stats t : stats = { hits = t.hits; misses = t.misses }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
