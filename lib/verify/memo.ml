(* Bounded two-generation sharded memo over flat open-addressed
   tables; see the mli for the design contract. *)

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

(* One generation: an open-addressed table with linear probing. Slot
   [i] holds lanes a and b at [lanes.(2i)] and [lanes.(2i+1)], its tag
   at byte [i] of [tags] (0: empty) and its value at [vals.(i)]. *)
type 'a table = {
  mutable size : int;
  mutable count : int;
  mutable lanes : int array;
  mutable tags : Bytes.t;
  mutable vals : 'a array;
}

(* The value array's filler for empty slots. Empty slots are never
   read as values, and an immediate makes [Array.make] build an
   ordinary (never a flat float) array. *)
let empty_val () : 'a = Obj.magic 0

let table size =
  {
    size;
    count = 0;
    lanes = Array.make (2 * size) 0;
    tags = Bytes.make size '\000';
    vals = Array.make size (empty_val ());
  }

(* Tag bits: 0 occupied; 1 and 2 the top bits of a 16-byte key's two
   int64 halves, which its 63-bit lanes cannot hold; 3 set for an
   interned key of another length; 4-7 a copy of lane b's low bits,
   which let a probe pass most occupied slots without reading their
   lanes. With bits 1-3, (tag, a, b) determines the key. *)
let long_tag = 0b1001

let[@inline] filter_bits b = (b land 15) lsl 4

external get64u : string -> int -> int64 = "%caml_string_get64u"

let[@inline] lane s off = Int64.to_int (get64u s off)
let[@inline] top s off = Int64.to_int (Int64.shift_right_logical (get64u s off) 63)

(* Call only on a 16-byte key. *)
let[@inline] tag16 s = 1 lor (top s 0 lsl 1) lor (top s 8 lsl 2) lor filter_bits (lane s 8)

(* Home slot: a multiplicative mix of lane a, whose bits 32-61 scale
   onto [0, size) (size < 2^32). *)
let[@inline] home a size = ((((a * 0x1e3779b97f4a7c15) lsr 32) land 0x3fff_ffff) * size) lsr 30

(* Slot [i]'s lanes are (a, b). The slot's value is loaded first and
   dropped: a hit reads it next, and the load then overlaps the lanes'
   cache miss instead of following it. *)
let[@inline] matches tb a b i =
  ignore (Sys.opaque_identity (Array.unsafe_get tb.vals i));
  Array.unsafe_get tb.lanes (2 * i) = a && Array.unsafe_get tb.lanes ((2 * i) + 1) = b

(* The slot holding (tag, a, b), or [lnot i] for the empty slot [i]
   ending its probe run. The load bound leaves an empty slot. *)
let rec scan tb tag a b i =
  let t = Char.code (Bytes.unsafe_get tb.tags i) in
  if t = 0 then lnot i
  else if t = tag && matches tb a b i then i
  else scan tb tag a b (if i + 1 = tb.size then 0 else i + 1)

let[@inline] probe tb tag a b = scan tb tag a b (home a tb.size)

let set_slot tb i tag a b v =
  Bytes.unsafe_set tb.tags i (Char.unsafe_chr tag);
  Array.unsafe_set tb.lanes (2 * i) a;
  Array.unsafe_set tb.lanes ((2 * i) + 1) b;
  Array.unsafe_set tb.vals i v

(* Load factor at most 3/4. *)
let[@inline] fits size n = n * 4 <= size * 3

(* Double, but stop at [max_size] (the size that holds the shard's
   cap) when that is enough. Cold-hit promotions can push a generation
   past its cap, so doubling goes on beyond [max_size] if needed. *)
let grow tb ~max_size =
  let need = tb.count + 1 in
  let capped = min (2 * tb.size) max_size in
  let size = if fits capped need then capped else 2 * tb.size in
  let old_tags = tb.tags and old_lanes = tb.lanes and old_vals = tb.vals in
  let old_size = tb.size in
  tb.size <- size;
  tb.lanes <- Array.make (2 * size) 0;
  tb.tags <- Bytes.make size '\000';
  tb.vals <- Array.make size (empty_val ());
  for i = 0 to old_size - 1 do
    let tag = Char.code (Bytes.unsafe_get old_tags i) in
    if tag <> 0 then begin
      let a = old_lanes.(2 * i) and b = old_lanes.((2 * i) + 1) in
      set_slot tb (lnot (scan tb tag a b (home a size))) tag a b old_vals.(i)
    end
  done

(* Insert, or replace the value of a present key. *)
let put tb ~max_size tag a b v =
  let i = probe tb tag a b in
  if i >= 0 then Array.unsafe_set tb.vals i v
  else begin
    let i =
      if fits tb.size (tb.count + 1) then lnot i
      else begin
        grow tb ~max_size;
        lnot (scan tb tag a b (home a tb.size))
      end
    in
    set_slot tb i tag a b v;
    tb.count <- tb.count + 1
  end

let clear tb =
  Bytes.fill tb.tags 0 tb.size '\000';
  Array.fill tb.vals 0 tb.size (empty_val ());
  tb.count <- 0

(* Apply [f tag a b] to every slot of [tb] whose key is absent from
   [other]. *)
let iter_absent tb other f =
  for i = 0 to tb.size - 1 do
    let tag = Char.code (Bytes.unsafe_get tb.tags i) in
    if tag <> 0 then begin
      let a = tb.lanes.(2 * i) and b = tb.lanes.((2 * i) + 1) in
      if probe other tag a b < 0 then f tag a b
    end
  done

type 'a shard = {
  lock : Mutex.t;
  mutable hot : 'a table;
  mutable cold : 'a table;
  (* keys that are not 16 bytes long, interned to lane a; an id lives
     as long as its key is resident in either generation *)
  ids : (string, int) Hashtbl.t;
  names : (int, string) Hashtbl.t;
  mutable next_id : int;
}

type 'a t = {
  shards : 'a shard array;
  cap : int; (* per-shard hot capacity *)
  max_size : int; (* slots that hold [cap] keys at load 3/4 *)
  locked : bool;
  evicted : int Atomic.t;
}

let initial_size = 16

let create ~shards ~cap ~locked =
  if shards <= 0 || shards land (shards - 1) <> 0 then
    invalid_arg "Memo.create: shards must be a positive power of two";
  if cap < 1 then invalid_arg "Memo.create: cap must be positive";
  let per_shard = max 1 (cap / shards) in
  let max_size = ((4 * per_shard) + 2) / 3 in
  {
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            hot = table (min initial_size max_size);
            cold = table (min initial_size max_size);
            ids = Hashtbl.create 0;
            names = Hashtbl.create 0;
            next_id = 0;
          });
    cap = per_shard;
    max_size;
    locked;
    evicted = Atomic.make 0;
  }

(* A one-shard table (a standalone exploration's) skips the hash: its
   answer is always 0. *)
let[@inline] shard t key =
  let n = Array.length t.shards in
  if n = 1 then t.shards.(0) else t.shards.(shard_of_string ~shards:n key)

let find_lanes t sh tag a b =
  let i = probe sh.hot tag a b in
  if i >= 0 then Some (Array.unsafe_get sh.hot.vals i)
  else
    (* a table that never rotated has an empty cold generation *)
    let j = if sh.cold.count = 0 then -1 else probe sh.cold tag a b in
    if j >= 0 then begin
      let v = Array.unsafe_get sh.cold.vals j in
      (* promotion: a touched entry survives the next rotation *)
      put sh.hot ~max_size:t.max_size tag a b v;
      Some v
    end
    else None

let find_in t sh key =
  if String.length key = 16 then find_lanes t sh (tag16 key) (lane key 0) (lane key 8)
  else
    match Hashtbl.find sh.ids key with
    | id -> find_lanes t sh long_tag id 0
    | exception Not_found -> None

let find t key =
  let sh = shard t key in
  if t.locked then Mutex.lock sh.lock;
  let r = find_in t sh key in
  if t.locked then Mutex.unlock sh.lock;
  r

let intern sh key =
  match Hashtbl.find sh.ids key with
  | id -> id
  | exception Not_found ->
    let id = sh.next_id in
    sh.next_id <- id + 1;
    Hashtbl.replace sh.ids key id;
    Hashtbl.replace sh.names id key;
    id

(* Cold's keys that hot does not also hold are gone for good: count
   them and release their interned ids. Cold's arrays, cleared, are
   the next hot generation's. *)
let rotate t sh =
  let gone = ref 0 in
  iter_absent sh.cold sh.hot (fun tag a _ ->
      incr gone;
      if tag = long_tag then begin
        Hashtbl.remove sh.ids (Hashtbl.find sh.names a);
        Hashtbl.remove sh.names a
      end);
  ignore (Atomic.fetch_and_add t.evicted !gone : int);
  let recycled = sh.cold in
  clear recycled;
  sh.cold <- sh.hot;
  sh.hot <- recycled

let add_in t sh key v =
  if String.length key = 16 then
    put sh.hot ~max_size:t.max_size (tag16 key) (lane key 0) (lane key 8) v
  else put sh.hot ~max_size:t.max_size long_tag (intern sh key) 0 v;
  if sh.hot.count >= t.cap then rotate t sh

let add t key v =
  let sh = shard t key in
  if t.locked then Mutex.lock sh.lock;
  add_in t sh key v;
  if t.locked then Mutex.unlock sh.lock

let evictions t = Atomic.get t.evicted

(* Distinct keys: a cold entry promoted back into hot (by [find])
   is alive in both generations and must not count twice. *)
let length t =
  Array.fold_left
    (fun n sh ->
      let cold_only = ref 0 in
      iter_absent sh.cold sh.hot (fun _ _ _ -> incr cold_only);
      n + sh.hot.count + !cold_only)
    0 t.shards
