(* Bounded two-generation sharded memo + persistent cache; see the mli
   for the design contract. *)

(* FNV-1a, 64-bit, over every byte of the string. Int64 arithmetic
   keeps the full avalanche of the high bits (a native-int variant
   would lose bit 63 and, on 32-bit, nearly everything). *)
let fnv1a64 (s : string) : int64 =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) prime
  done;
  !h

let shard_of_string ~shards s =
  (* fold the high half in so the mask sees all 64 bits *)
  let h = fnv1a64 s in
  let folded = Int64.logxor h (Int64.shift_right_logical h 32) in
  Int64.to_int folded land (shards - 1)

type 'a shard = {
  lock : Mutex.t;
  mutable hot : (string, 'a) Hashtbl.t;
  mutable cold : (string, 'a) Hashtbl.t;
}

type 'a t = {
  shards : 'a shard array;
  cap : int; (* per-shard hot capacity *)
  locked : bool;
  evicted : int Atomic.t;
  owners : int Atomic.t array; (* domain that first merged into the shard, -1 *)
}

let create ~shards ~cap ~locked =
  if shards <= 0 || shards land (shards - 1) <> 0 then
    invalid_arg "Memo.create: shards must be a positive power of two";
  if cap < 1 then invalid_arg "Memo.create: cap must be positive";
  let per_shard = max 1 (cap / shards) in
  {
    shards =
      Array.init shards (fun _ ->
          { lock = Mutex.create (); hot = Hashtbl.create 64; cold = Hashtbl.create 0 });
    cap = per_shard;
    locked;
    evicted = Atomic.make 0;
    owners = Array.init shards (fun _ -> Atomic.make (-1));
  }

let shard_index t key = shard_of_string ~shards:(Array.length t.shards) key

let with_shard_at t idx f =
  let sh = t.shards.(idx) in
  if t.locked then Mutex.protect sh.lock (fun () -> f sh) else f sh

let with_shard t key f = with_shard_at t (shard_index t key) f

let find_in_shard sh key =
  match Hashtbl.find_opt sh.hot key with
  | Some _ as hit -> hit
  | None -> (
    match Hashtbl.find_opt sh.cold key with
    | Some v as hit ->
      (* promotion: a touched entry survives the next rotation *)
      Hashtbl.replace sh.hot key v;
      hit
    | None -> None)

let find t key = with_shard t key (fun sh -> find_in_shard sh key)

let find_with_shard t key =
  let idx = shard_index t key in
  (with_shard_at t idx (fun sh -> find_in_shard sh key), idx)

(* caller holds the shard lock (or the table is unlocked) *)
let add_in_shard t sh key v =
  Hashtbl.replace sh.hot key v;
  if Hashtbl.length sh.hot >= t.cap then begin
    (* rotate: cold's entries (minus any promoted duplicates, which
       live on in hot) are gone for good *)
    ignore (Atomic.fetch_and_add t.evicted (Hashtbl.length sh.cold) : int);
    sh.cold <- sh.hot;
    sh.hot <- Hashtbl.create t.cap
  end

let add t key v = with_shard t key (fun sh -> add_in_shard t sh key v)

let try_add t key v =
  let sh = t.shards.(shard_index t key) in
  if not t.locked then begin
    add_in_shard t sh key v;
    true
  end
  else if Mutex.try_lock sh.lock then begin
    Fun.protect ~finally:(fun () -> Mutex.unlock sh.lock) (fun () -> add_in_shard t sh key v);
    true
  end
  else false

let shard_owner t idx = Atomic.get t.owners.(idx)

let merge_batch t ~domain tbl =
  let nshards = Array.length t.shards in
  (* bucket the batch by shard first so each shard's lock is taken at
     most once per merge, however many entries land in it *)
  let per = Array.make nshards [] in
  Hashtbl.iter (fun k v -> let i = shard_of_string ~shards:nshards k in per.(i) <- (k, v) :: per.(i)) tbl;
  let n = ref 0 in
  Array.iteri
    (fun i kvs ->
      if kvs <> [] then begin
        (* pin ownership to the first domain that populates the shard;
           later merges leave it, so thieves can steer toward the
           domain whose generations feed the shards they read *)
        ignore (Atomic.compare_and_set t.owners.(i) (-1) domain : bool);
        with_shard_at t i (fun sh ->
            List.iter
              (fun (k, v) ->
                incr n;
                add_in_shard t sh k v)
              kvs)
      end)
    per;
  !n

let evictions t = Atomic.get t.evicted
let locked t = t.locked

(* Distinct keys: a cold entry promoted back into hot (find_in_shard)
   is alive in both generations and must not count twice. *)
let length t =
  Array.fold_left
    (fun n sh ->
      let cold_only = ref 0 in
      Hashtbl.iter (fun k _ -> if not (Hashtbl.mem sh.hot k) then incr cold_only) sh.cold;
      n + Hashtbl.length sh.hot + !cold_only)
    0 t.shards

let iter t f =
  Array.iter
    (fun sh ->
      Hashtbl.iter f sh.hot;
      Hashtbl.iter (fun k v -> if not (Hashtbl.mem sh.hot k) then f k v) sh.cold)
    t.shards

(* ------------------------------------------------------------------ *)

module Persist = struct
  type entry = { p_paths : int; p_stuck : int }

  (* v2: sections are keyed by (scenario, net backend) and the state
     encoding carries in-flight transfer deadlines. A v1 file keyed by
     scenario alone would alias a timed run onto a cached Null summary
     (the root state has no transfers in flight, so the root
     fingerprint guard cannot tell the backends apart) — and its
     summaries were computed against the pre-deadline encoding anyway,
     so v1 files are rejected wholesale by the schema check.

     v3: entries are keyed by the 16-byte Fp128 fingerprint key instead
     of the full encoding string — files shrink by the sum of all
     encoding strings and warm loads stop unmarshalling megabytes. A v2
     file's string keys would never match a fingerprint lookup (silent
     cold start at best, and mixing key spaces in one table is wrong),
     so v2 files are rejected wholesale too.

     v4: the fingerprint key function changed — page contents, register
     files and the IOTLB enter the key as write-maintained additive
     digests instead of streamed tokens — so a v3 key no longer names
     the state it was computed for, and v3 files are rejected
     wholesale. *)
  let schema = 4

  let magic = "uldma-explorer-memo"

  (* The per-section key. NUL cannot appear in a CLI scenario name or a
     backend cache key, so the concatenation is unambiguous. *)
  let section ~scenario ~net = scenario ^ "\x00" ^ net

  (* the whole file is one marshalled value:
     (magic, schema, section -> (root fingerprint, encoding -> entry)) *)
  type file_body = (string, int64 * (string, entry) Hashtbl.t) Hashtbl.t

  let read_file file : file_body option =
    match open_in_bin file with
    | exception Sys_error _ -> None
    | ic ->
      let body =
        match (Marshal.from_channel ic : string * int * file_body) with
        | m, v, body when m = magic && v = schema -> Some body
        | _ -> None
        | exception _ -> None
      in
      close_in_noerr ic;
      body

  let load ~file ~scenario ~net ~root =
    match read_file file with
    | None -> None
    | Some body -> (
      match Hashtbl.find_opt body (section ~scenario ~net) with
      | Some (stored_root, tbl) when Int64.equal stored_root root -> Some tbl
      | Some _ | None -> None)

  (* Serialise the read-merge-write against other savers (threads,
     domains or processes). Without it, two concurrent saves both read
     the same pre-existing body and the loser of the rename race
     silently clobbers the winner's freshly written section — exactly
     the campaign workload, where many (scenario, net) cells share one
     cache file. Cross-process: an exclusive advisory lock on a
     sidecar ([file] itself is replaced by rename, which would orphan
     a lock taken on the old inode). Same-process domains: POSIX
     record locks are per-process (a second lockf in the same process
     succeeds immediately), so a process-local mutex does that half. *)
  let save_mutex = Mutex.create ()

  let with_file_lock file f =
    Mutex.protect save_mutex @@ fun () ->
    match Unix.openfile (file ^ ".lock") Unix.[ O_CREAT; O_RDWR; O_CLOEXEC ] 0o644 with
    | exception Unix.Unix_error _ -> f () (* degrade to unlocked rather than lose the save *)
    | fd ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (try Unix.lockf fd Unix.F_LOCK 0 with Unix.Unix_error _ -> ());
          f ())

  let save ~file ~scenario ~net ~root entries =
    with_file_lock file @@ fun () ->
    (* re-read under the lock: merge-on-save — sections written by
       other scenarios since our last load survive this save *)
    let body = match read_file file with Some b -> b | None -> Hashtbl.create 4 in
    let key = section ~scenario ~net in
    let tbl =
      match Hashtbl.find_opt body key with
      | Some (stored_root, tbl) when Int64.equal stored_root root -> tbl
      | Some _ | None -> Hashtbl.create (List.length entries)
    in
    List.iter (fun (k, e) -> Hashtbl.replace tbl k e) entries;
    Hashtbl.replace body key (root, tbl);
    (* Unique tmp name: a fixed [file ^ ".tmp"] lets two concurrent
       runs interleave their in-flight writes and rename a torn file
       into place. The pid suffix keeps the write private until the
       atomic rename; a stale tmp from a crashed run is just garbage
       with that run's pid, never a corrupted [file]. *)
    let tmp = Printf.sprintf "%s.%d.tmp" file (Unix.getpid ()) in
    match open_out_bin tmp with
    | exception Sys_error _ -> ()
    | oc -> (
      match
        Marshal.to_channel oc (magic, schema, body) [];
        close_out oc;
        Sys.rename tmp file
      with
      | () -> ()
      | exception Sys_error _ ->
        close_out_noerr oc;
        (try Sys.remove tmp with Sys_error _ -> ()))
end
