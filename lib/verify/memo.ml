(* Bounded two-generation memo over flat open-addressed tables; see
   the mli for the design contract. *)

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

(* The tag of the 16-byte key [Fp128.pack a b]: a lane's int64 half has
   bit 63 set exactly when the lane is negative. *)
let[@inline] tag_fp a b =
  1 lor (Bool.to_int (a < 0) lsl 1) lor (Bool.to_int (b < 0) lsl 2) lor filter_bits b

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

(* Double, but stop at [max_size] (the size that holds the table's
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

type 'a t = {
  mutable hot : 'a table;
  mutable cold : 'a table;
  (* keys that are not 16 bytes long, interned to lane a; an id lives
     as long as its key is resident in either generation *)
  ids : (string, int) Hashtbl.t;
  names : (int, string) Hashtbl.t;
  mutable next_id : int;
  cap : int; (* hot capacity *)
  max_size : int; (* slots that hold [cap] keys at load 3/4 *)
  mutable evicted : int;
}

let initial_size = 16

(* [shards] and [locked] are ignored; see the mli. *)
let create ~shards:_ ~cap ~locked:_ =
  if cap < 1 then invalid_arg "Memo.create: cap must be positive";
  let max_size = ((4 * cap) + 2) / 3 in
  {
    hot = table (min initial_size max_size);
    cold = table (min initial_size max_size);
    ids = Hashtbl.create 0;
    names = Hashtbl.create 0;
    next_id = 0;
    cap;
    max_size;
    evicted = 0;
  }

let find_lanes t tag a b =
  let i = probe t.hot tag a b in
  if i >= 0 then Some (Array.unsafe_get t.hot.vals i)
  else
    (* a table that never rotated has an empty cold generation *)
    let j = if t.cold.count = 0 then -1 else probe t.cold tag a b in
    if j >= 0 then begin
      let v = Array.unsafe_get t.cold.vals j in
      (* promotion: a touched entry survives the next rotation *)
      put t.hot ~max_size:t.max_size tag a b v;
      Some v
    end
    else None

let find_fp t a b = find_lanes t (tag_fp a b) a b

let find t key =
  if String.length key = 16 then find_lanes t (tag16 key) (lane key 0) (lane key 8)
  else
    match Hashtbl.find t.ids key with
    | id -> find_lanes t long_tag id 0
    | exception Not_found -> None

let intern t key =
  match Hashtbl.find t.ids key with
  | id -> id
  | exception Not_found ->
    let id = t.next_id in
    t.next_id <- id + 1;
    Hashtbl.replace t.ids key id;
    Hashtbl.replace t.names id key;
    id

(* Cold's keys that hot does not also hold are gone for good: count
   them and release their interned ids. Cold's arrays, cleared, are
   the next hot generation's. *)
let rotate t =
  iter_absent t.cold t.hot (fun tag a _ ->
      t.evicted <- t.evicted + 1;
      if tag = long_tag then begin
        Hashtbl.remove t.ids (Hashtbl.find t.names a);
        Hashtbl.remove t.names a
      end);
  let recycled = t.cold in
  clear recycled;
  t.cold <- t.hot;
  t.hot <- recycled

let add t key v =
  if String.length key = 16 then
    put t.hot ~max_size:t.max_size (tag16 key) (lane key 0) (lane key 8) v
  else put t.hot ~max_size:t.max_size long_tag (intern t key) 0 v;
  if t.hot.count >= t.cap then rotate t

let add_fp t a b v =
  put t.hot ~max_size:t.max_size (tag_fp a b) a b v;
  if t.hot.count >= t.cap then rotate t

let evictions t = t.evicted

let clear t =
  t.hot <- table (min initial_size t.max_size);
  t.cold <- table (min initial_size t.max_size);
  Hashtbl.reset t.ids;
  Hashtbl.reset t.names

(* Distinct keys: a cold entry promoted back into hot (by [find])
   is alive in both generations and must not count twice. *)
let length t =
  let cold_only = ref 0 in
  iter_absent t.cold t.hot (fun _ _ _ -> incr cold_only);
  t.hot.count + !cold_only
