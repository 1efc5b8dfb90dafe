(* The 64-bit splitmix64 state is kept as two 32-bit halves in
   mutable [int] fields rather than in one mutable [int64] field: every
   store to an [int64] field boxes a fresh value, so a draw used to
   allocate, where the halves are plain ints and the arithmetic stays
   unboxed. A copy is still one small inline allocation (kernel
   snapshots take one per fork). The stream is unchanged. *)
type t = { mutable hi : int; mutable lo : int }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] set t z =
  t.hi <- Int64.to_int (Int64.shift_right_logical z 32);
  t.lo <- Int64.to_int (Int64.logand z 0xFFFF_FFFFL)

let create ~seed =
  let t = { hi = 0; lo = 0 } in
  set t (Int64.of_int seed);
  t

let copy t = { hi = t.hi; lo = t.lo }

let[@inline] int64 t =
  let state = Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo) in
  let z = Int64.add state golden_gamma in
  set t z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let child_seed = Int64.to_int (int64 t) in
  create ~seed:child_seed

(* Non-negative 62-bit value, safe to use as an OCaml [int]. *)
let[@inline] positive_int t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

let int t bound =
  assert (bound > 0);
  positive_int t mod bound

let int_in t ~lo ~hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (int64 t) 1L = 1L

let[@inline] float t x =
  let mantissa = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  x *. (mantissa /. 9007199254740992.0)

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> assert false
  | _ :: _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let dma_key t = Int64.to_int (Int64.shift_right_logical (int64 t) 6)
