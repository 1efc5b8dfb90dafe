(** A process's virtual address space: page table + TLB + translation.

    Translation is where user-level DMA gets its protection for free:
    the only way a user process can emit a shadow *physical* address on
    the bus is by touching a shadow *virtual* page the OS mapped for
    it, and the OS only creates shadow mappings aliasing pages the
    process already owns with the same permissions. *)

type t

type access = Read | Write

type fault =
  | No_mapping of int (** unmapped virtual address *)
  | Protection of int * access (** mapped but access not permitted *)

type translation = {
  paddr : int;
  cacheable : bool;
  hit : [ `Hit | `Miss ]; (** TLB outcome, for the timing model *)
}

exception Page_fault of fault

val create : unit -> t

val copy : t -> t

val map_page : t -> vpage:int -> Pte.t -> unit
val unmap_page : t -> vpage:int -> unit
val find_page : t -> vpage:int -> Pte.t option
val page_table : t -> Page_table.t

val translate_word : t -> access -> int -> int
(** Translate one virtual address for the given access kind, with the
    TLB effects of an access, allocating nothing. The result is a
    translation word: non-negative on success (read it with
    {!word_paddr}, {!word_cacheable} and {!word_missed}), negative on a
    fault (decode it with {!word_fault}). *)

val word_paddr : int -> int
val word_cacheable : int -> bool
val word_missed : int -> bool
(** The TLB missed (the page table was walked and the entry filled). *)

val word_fault : int -> access -> int -> fault
(** [word_fault w access vaddr]: the fault of a negative word [w]
    returned for [access] at [vaddr]. *)

val word : paddr:int -> cacheable:bool -> missed:bool -> int
(** The word of a successful translation ([0 <= paddr < 2^60]), for a
    host that translates by other means. *)

val fault_word : fault -> int
(** The word of a failed translation. *)

val translate : t -> access -> int -> (translation, fault) result
(** {!translate_word}, decoded. *)

val translate_exn : t -> access -> int -> translation

val peek_paddr : t -> int -> int option
(** Translation without permission check, TLB effects, or stats —
    used by the test oracle and by the kernel (Fig. 1's
    [virtual_to_physical]). *)

val check_range : t -> vaddr:int -> len:int -> perms:Uldma_mem.Perms.t -> bool
(** Fig. 1's [check_size]: the whole range mapped with the perms. *)

val flush_tlb : t -> unit

val pp_fault : Format.formatter -> fault -> unit
