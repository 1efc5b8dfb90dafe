open Uldma_mem

type access = Read | Write

type fault = No_mapping of int | Protection of int * access

type translation = { paddr : int; cacheable : bool; hit : [ `Hit | `Miss ] }

exception Page_fault of fault

type t = { table : Page_table.t; tlb : Tlb.t }

let create () = { table = Page_table.create (); tlb = Tlb.create () }

let copy t = { table = Page_table.copy t.table; tlb = Tlb.copy t.tlb }

let map_page t ~vpage pte =
  Page_table.map t.table ~vpage pte;
  Tlb.invalidate t.tlb ~vpage

let unmap_page t ~vpage =
  Page_table.unmap t.table ~vpage;
  Tlb.invalidate t.tlb ~vpage

let find_page t ~vpage = Page_table.find t.table ~vpage

let page_table t = t.table

let permitted access (perms : Perms.t) =
  match access with Read -> perms.read | Write -> perms.write

let translate t access vaddr =
  let vpage = Layout.page_of vaddr in
  match Tlb.translate t.tlb t.table ~vpage with
  | None -> Error (No_mapping vaddr)
  | Some (pte, hit) ->
    if not (permitted access pte.Pte.perms) then Error (Protection (vaddr, access))
    else
      Ok
        {
          paddr = (pte.Pte.frame lsl Layout.page_shift) lor Layout.page_offset vaddr;
          cacheable = pte.Pte.cacheable;
          hit;
        }

let translate_exn t access vaddr =
  match translate t access vaddr with
  | Ok tr -> tr
  | Error f -> raise (Page_fault f)

let peek_paddr t vaddr =
  match Page_table.find t.table ~vpage:(Layout.page_of vaddr) with
  | None -> None
  | Some pte -> Some ((pte.Pte.frame lsl Layout.page_shift) lor Layout.page_offset vaddr)

let check_range t ~vaddr ~len ~perms = Page_table.mapped_range t.table ~vaddr ~len ~perms

let flush_tlb t = Tlb.flush t.tlb

let pp_fault ppf = function
  | No_mapping v -> Format.fprintf ppf "no mapping for %#x" v
  | Protection (v, Read) -> Format.fprintf ppf "read protection fault at %#x" v
  | Protection (v, Write) -> Format.fprintf ppf "write protection fault at %#x" v
