(* Bounded two-generation sharded memo; see the mli for the design
   contract. *)

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
  }

(* A one-shard table (a standalone exploration's) skips the hash: its
   answer is always 0. *)
let with_shard t key f =
  let n = Array.length t.shards in
  let sh = if n = 1 then t.shards.(0) else t.shards.(shard_of_string ~shards:n key) in
  if t.locked then Mutex.protect sh.lock (fun () -> f sh) else f sh

let find t key =
  with_shard t key (fun sh ->
      match Hashtbl.find_opt sh.hot key with
      | Some _ as hit -> hit
      | None -> (
        match Hashtbl.find_opt sh.cold key with
        | Some v as hit ->
          (* promotion: a touched entry survives the next rotation *)
          Hashtbl.replace sh.hot key v;
          hit
        | None -> None))

let add t key v =
  with_shard t key (fun sh ->
      Hashtbl.replace sh.hot key v;
      if Hashtbl.length sh.hot >= t.cap then begin
        (* rotate: cold's entries (minus any promoted duplicates, which
           live on in hot) are gone for good *)
        ignore (Atomic.fetch_and_add t.evicted (Hashtbl.length sh.cold) : int);
        sh.cold <- sh.hot;
        sh.hot <- Hashtbl.create t.cap
      end)

let evictions t = Atomic.get t.evicted

(* Distinct keys: a cold entry promoted back into hot (by [find])
   is alive in both generations and must not count twice. *)
let length t =
  Array.fold_left
    (fun n sh ->
      let cold_only = ref 0 in
      Hashtbl.iter (fun k _ -> if not (Hashtbl.mem sh.hot k) then incr cold_only) sh.cold;
      n + Hashtbl.length sh.hot + !cold_only)
    0 t.shards
