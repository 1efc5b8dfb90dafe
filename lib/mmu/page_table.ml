open Uldma_mem

(* Backed by a persistent map so [copy] is O(1) structural sharing —
   kernel snapshots fork page tables on every explorer branch point.
   PTEs are immutable, so sharing them between snapshots is safe;
   map/unmap on one side rebuilds only the touched spine. *)

module Int_map = Map.Make (Int)

type t = { mutable entries : Pte.t Int_map.t }

let create () = { entries = Int_map.empty }

let copy t = { entries = t.entries }

let map t ~vpage pte = t.entries <- Int_map.add vpage pte t.entries

let unmap t ~vpage = t.entries <- Int_map.remove vpage t.entries

let find t ~vpage = Int_map.find_opt vpage t.entries

let find_exn t ~vpage = Int_map.find vpage t.entries

let mem t ~vpage = Int_map.mem vpage t.entries

let iter t f = Int_map.iter f t.entries

let cardinal t = Int_map.cardinal t.entries

let mapped_range t ~vaddr ~len ~perms =
  if len <= 0 then true
  else
    let first = Layout.page_of vaddr and last = Layout.page_of (vaddr + len - 1) in
    let rec check page =
      if page > last then true
      else
        match find t ~vpage:page with
        | Some pte when Perms.subsumes pte.Pte.perms perms -> check (page + 1)
        | Some _ | None -> false
    in
    check first
