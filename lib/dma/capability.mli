(** CAPIO-style DMA capability table.

    The OS mints a 64-bit unforgeable value per granted region
    (via [Os.grant_dma_cap]) and installs it here through the kernel
    control page; the engine checks every [Capio]-mechanism initiation
    against this table. Revoked entries are retained (flagged) so a
    once-valid capability replayed after revocation is distinguishable
    from a value that was never minted. *)

type cap = {
  value : int;
  ctx : int; (** register context the capability was granted to *)
  pid : int; (** granting process, for revoke-on-exit *)
  base : int; (** physical base of the granted range *)
  len : int;
  rights : Uldma_mem.Perms.t;
  mutable revoked : bool;
}

type t = private { mutable caps : cap list (** newest first *) }

val create : unit -> t
val copy : t -> t

val install : t -> cap -> unit
(** Add an entry (a re-minted value supersedes the old entry). *)

val find : t -> value:int -> cap option

val revoke_value : t -> value:int -> unit
val revoke_ctx : t -> ctx:int -> unit
val revoke_pid : t -> pid:int -> unit

val revoke_range : t -> base:int -> len:int -> unit
(** Revoke every capability whose physical range overlaps
    [[base, base+len)] — the unmap hook. *)

val live : t -> cap list
(** Unrevoked entries, newest first. *)
