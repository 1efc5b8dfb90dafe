(** A per-process page table: virtual page number -> PTE. *)

type t

val create : unit -> t

val copy : t -> t
(** O(1): the underlying map is persistent, so the copy shares
    structure with the original until either side remaps. *)

val iter : t -> (int -> Pte.t -> unit) -> unit
(** Visits mappings in increasing virtual-page order. *)

val map : t -> vpage:int -> Pte.t -> unit
(** Install or replace a mapping. *)

val unmap : t -> vpage:int -> unit
val find : t -> vpage:int -> Pte.t option

val find_exn : t -> vpage:int -> Pte.t
(** Raises [Not_found]; allocates nothing. *)

val mem : t -> vpage:int -> bool
val cardinal : t -> int

val mapped_range : t -> vaddr:int -> len:int -> perms:Uldma_mem.Perms.t -> bool
(** True iff every page of [\[vaddr, vaddr+len)] is mapped with at least
    the given permissions — the kernel's [check_size] from Fig. 1. *)
