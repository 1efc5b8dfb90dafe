open Uldma_mem

(* CAPIO-style DMA capabilities: each initiation request names a 64-bit
   unforgeable value minted by the OS. The engine's table maps values to
   (owning context, owning pid, physical range, rights). Revoked entries
   are *kept* (flagged) rather than removed so the engine can tell a
   once-valid capability used after revocation ([Revoked_capability])
   from a value that was never minted ([Bad_capability]) — the two
   failures mean different things to the oracle and to the tests.
   Entries are immutable: every change builds a new table, so forks
   share it. *)

type cap = {
  value : int;
  ctx : int;
  pid : int;
  base : int; (* physical *)
  len : int;
  rights : Perms.t;
  revoked : bool;
}

let install caps cap =
  (* re-minting an existing value supersedes the old entry *)
  cap :: List.filter (fun c -> c.value <> cap.value) caps

let find caps ~value = List.find_opt (fun c -> c.value = value) caps

(* the table itself when no live entry matches, so an idle revocation
   leaves it physically unchanged *)
let revoke_if p caps =
  let dies c = p c && not c.revoked in
  if List.exists dies caps then
    List.map (fun c -> if dies c then { c with revoked = true } else c) caps
  else caps

let revoke_value caps ~value = revoke_if (fun c -> c.value = value) caps
let revoke_ctx caps ~ctx = revoke_if (fun c -> c.ctx = ctx) caps
let revoke_pid caps ~pid = revoke_if (fun c -> c.pid = pid) caps

let revoke_range caps ~base ~len =
  revoke_if (fun c -> c.base < base + len && base < c.base + c.len) caps

let live caps = List.filter (fun c -> not c.revoked) caps
