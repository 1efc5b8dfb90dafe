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

(* A translation word: the physical address, which stays below 2^42,
   with the PTE's cacheable bit and the TLB outcome in two high bits;
   a fault is a negative code. *)
let cacheable_bit = 1 lsl 61
let miss_bit = 1 lsl 60
let no_mapping_code = -1
let protection_code = -2

let word ~paddr ~cacheable ~missed =
  paddr lor (if cacheable then cacheable_bit else 0) lor if missed then miss_bit else 0

let fault_word = function No_mapping _ -> no_mapping_code | Protection _ -> protection_code

let word_of_pte access vaddr (pte : Pte.t) ~missed =
  if not (permitted access pte.Pte.perms) then protection_code
  else
    word
      ~paddr:((pte.Pte.frame lsl Layout.page_shift) lor Layout.page_offset vaddr)
      ~cacheable:pte.Pte.cacheable ~missed

let translate_word t access vaddr =
  let vpage = Layout.page_of vaddr in
  match Tlb.hit t.tlb ~vpage with
  | pte -> word_of_pte access vaddr pte ~missed:false
  | exception Not_found -> (
    match Tlb.refill t.tlb t.table ~vpage with
    | pte -> word_of_pte access vaddr pte ~missed:true
    | exception Not_found -> no_mapping_code)

let word_paddr w = w land (miss_bit - 1)
let word_cacheable w = w land cacheable_bit <> 0
let word_missed w = w land miss_bit <> 0

let word_fault w access vaddr =
  if w = protection_code then Protection (vaddr, access) else No_mapping vaddr

let translate t access vaddr =
  let w = translate_word t access vaddr in
  if w < 0 then Error (word_fault w access vaddr)
  else
    Ok
      {
        paddr = word_paddr w;
        cacheable = word_cacheable w;
        hit = (if word_missed w then `Miss else `Hit);
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
