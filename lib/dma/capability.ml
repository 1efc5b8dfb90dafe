open Uldma_mem

(* CAPIO-style DMA capabilities: each initiation request names a 64-bit
   unforgeable value minted by the OS. The engine's table maps values to
   (owning context, owning pid, physical range, rights). Revoked entries
   are *kept* (flagged) rather than removed so the engine can tell a
   once-valid capability used after revocation ([Revoked_capability])
   from a value that was never minted ([Bad_capability]) — the two
   failures mean different things to the oracle and to the tests. *)

type cap = {
  value : int;
  ctx : int;
  pid : int;
  base : int; (* physical *)
  len : int;
  rights : Perms.t;
  mutable revoked : bool;
}

type t = { mutable caps : cap list (* newest first *) }

let create () = { caps = [] }

(* entries carry a mutable [revoked] flag, so forks deep-copy them *)
let copy t = { caps = List.map (fun c -> { c with value = c.value }) t.caps }

let install t cap =
  (* re-minting an existing value supersedes the old entry *)
  t.caps <- cap :: List.filter (fun c -> c.value <> cap.value) t.caps

let find t ~value = List.find_opt (fun c -> c.value = value) t.caps

let revoke_value t ~value =
  match find t ~value with Some c -> c.revoked <- true | None -> ()

let revoke_ctx t ~ctx =
  List.iter (fun c -> if c.ctx = ctx then c.revoked <- true) t.caps

let revoke_pid t ~pid =
  List.iter (fun c -> if c.pid = pid then c.revoked <- true) t.caps

let revoke_range t ~base ~len =
  List.iter
    (fun c -> if c.base < base + len && base < c.base + c.len then c.revoked <- true)
    t.caps

let live t = List.filter (fun c -> not c.revoked) t.caps
