(** CAPIO-style DMA capability table.

    The OS mints a 64-bit unforgeable value per granted region
    (via [Os.grant_dma_cap]) and installs it here through the kernel
    control page; the engine checks every [Capio]-mechanism initiation
    against this table. Revoked entries are retained (flagged) so a
    once-valid capability replayed after revocation is distinguishable
    from a value that was never minted. A table is an immutable list,
    newest first: every change returns a new one. *)

type cap = {
  value : int;
  ctx : int; (** register context the capability was granted to *)
  pid : int; (** granting process, for revoke-on-exit *)
  base : int; (** physical base of the granted range *)
  len : int;
  rights : Uldma_mem.Perms.t;
  revoked : bool;
}

val install : cap list -> cap -> cap list
(** Add an entry (a re-minted value supersedes the old entry). *)

val find : cap list -> value:int -> cap option

(** The revocations flag every matching live entry; with none, they
    return the table itself. *)

val revoke_value : cap list -> value:int -> cap list
val revoke_ctx : cap list -> ctx:int -> cap list
val revoke_pid : cap list -> pid:int -> cap list

val revoke_range : cap list -> base:int -> len:int -> cap list
(** Revoke every capability whose physical range overlaps
    [[base, base+len)] — the unmap hook. *)

val live : cap list -> cap list
(** Unrevoked entries, newest first. *)
