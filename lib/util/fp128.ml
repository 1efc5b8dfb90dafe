(* Streaming two-lane 126-bit fingerprint.

   Each lane is a native 63-bit OCaml int updated with an independent
   multiply-xor mix (FNV/xxhash-style), so the streaming hot path never
   allocates: no Int64 boxing, no intermediate buffer.  The two lanes use
   different primes and different injection functions, so a collision
   requires both 63-bit lanes to collide simultaneously (~2^-126 for
   adversary-free inputs; see DESIGN.md for the collision argument and
   the paranoid mode that removes even that risk).

   Byte feeding is lossless: bytes are packed three-uint16-per-word into
   48-bit words (6-byte strides), because [Int64.to_int] of a raw 64-bit
   load would silently drop bit 63 on a tagged-int target.

   The second half of the file is the additive digest primitive that
   [Phys_mem], [Regfile] and [Iotlb] maintain on every write. *)

type t = {
  mutable a : int;
  mutable b : int;
  mutable fed : int; (* bytes/words accounted so far, for bytes-hashed stats *)
}

(* Lane seeds: FNV-1a 64-bit offset basis truncated to 62 bits, and a
   splitmix64 increment truncated likewise.  Any odd constants work; we
   just need the lanes decorrelated. *)
let seed_a = 0xbf29ce484222325
let seed_b = 0x1e3779b97f4a7c15

let prime_a = 0x100000001b3 (* FNV 64-bit prime *)
let prime_b = 0x2545f4914f6cdd1d (* splitmix64 mix constant, < 2^62 *)
let prime_c = 0x369dea0f31a53f85 (* xorshift1024* constant, < 2^62 *)

let[@inline] mix_a h v = (h lxor v) * prime_a

let[@inline] mix_b h v = ((h + (v * 0x9e3779b97f4a7c1)) * prime_b) lxor (h lsr 31)

let create () = { a = seed_a; b = seed_b; fed = 0 }

let reset t =
  t.a <- seed_a;
  t.b <- seed_b;
  t.fed <- 0

let fed t = t.fed

let start t v w x =
  t.a <- mix_a (mix_a (mix_a seed_a v) w) x;
  t.b <- mix_b (mix_b (mix_b seed_b v) w) x;
  t.fed <- 24

let[@inline] add_int t v =
  t.a <- mix_a t.a v;
  t.b <- mix_b t.b v;
  t.fed <- t.fed + 8

(* Tag characters (section markers in the canonical state walk) are fed
   with the sign bit set so they can never alias a small non-negative
   value fed through [add_int]. *)
let[@inline] add_tag t c =
  let v = Char.code c lor min_int in
  t.a <- mix_a t.a v;
  t.b <- mix_b t.b v;
  t.fed <- t.fed + 1

(* Feed [len] raw bytes of [b] starting at [off], packed losslessly into
   48-bit words.  The caller is responsible for length-prefixing when the
   byte run has variable length. *)
let feed_raw t b off len =
  let a = ref t.a and bb = ref t.b in
  let i = ref off in
  let stop = off + len in
  while !i + 6 <= stop do
    let w =
      Bytes.get_uint16_le b !i
      lor (Bytes.get_uint16_le b (!i + 2) lsl 16)
      lor (Bytes.get_uint16_le b (!i + 4) lsl 32)
    in
    a := mix_a !a w;
    bb := mix_b !bb w;
    i := !i + 6
  done;
  while !i < stop do
    let w = Char.code (Bytes.unsafe_get b !i) in
    a := mix_a !a w;
    bb := mix_b !bb w;
    incr i
  done;
  t.a <- !a;
  t.b <- !bb;
  t.fed <- t.fed + len

let add_bytes t b =
  let len = Bytes.length b in
  add_int t len;
  feed_raw t b 0 len

let add_string t s =
  add_bytes t (Bytes.unsafe_of_string s)

(* Murmur3-style finalizer: avalanche each lane so that low-entropy
   tails (e.g. a single differing register) spread across all bits. *)
let[@inline] fmix h =
  let h = h lxor (h lsr 33) in
  let h = h * prime_b in
  let h = h lxor (h lsr 29) in
  let h = h * prime_c in
  h lxor (h lsr 32)

let lane t k = if k = 0 then fmix (t.a lxor t.fed) else fmix (t.b + (t.fed * prime_a))
let lanes t = (lane t 0, lane t 1)

(* pack two already-finalised lanes into a 16-byte key *)
let pack lo hi =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int lo);
  Bytes.set_int64_le b 8 (Int64.of_int hi);
  Bytes.unsafe_to_string b

let key t =
  let lo, hi = lanes t in
  pack lo hi

(* Additive digests (Zobrist / AdHash style).

   A component whose state is a fixed array of slots keeps, per lane,
   the sum mod 2^63 of one term per slot. A term is a fully mixed,
   nonlinear function of (slot, value): the slot and the value's low
   32 bits are packed without loss and avalanched, the high bits are
   added through an odd multiplier (injective for a fixed slot and low
   half) and the result is avalanched again. A write retires the old
   value's term and adds the new one in O(1), so the digest is always
   current and reading it costs nothing. The zero value's term is 0 in
   both lanes, so an all-zero component (a never-written page, a fresh
   register file, an empty IOTLB) has digest (0, 0) without any special
   case.

   Lane b uses its own finalizer constants, seed and multiplier, so
   the lanes are independent functions of the same input. *)

let sum_seed_a = 0x2d358dccaa6c78a5
let sum_seed_b = 0x0a0761d6478bd642
let fmix_b1 = 0x3f58476d1ce4e5b9
let fmix_b2 = 0x14d049bb133111eb

let[@inline] fmix' h =
  let h = h lxor (h lsr 30) in
  let h = h * fmix_b1 in
  let h = h lxor (h lsr 27) in
  let h = h * fmix_b2 in
  h lxor (h lsr 31)

let[@inline] word_term_a slot lo hi =
  if lo lor hi = 0 then 0
  else fmix (fmix (((slot lsl 32) lor lo) + sum_seed_a) + (hi * 0x9e3779b97f4a7c1))

let[@inline] word_term_b slot lo hi =
  if lo lor hi = 0 then 0 else fmix' (fmix' (((slot lsl 32) lor lo) + sum_seed_b) + (hi * prime_c))

let[@inline] opt_value = function None -> 0 | Some v -> v lxor min_int

(* Slot domains: bits 24-29 of a slot name the component that owns it,
   so the digests of different components sum into one digest of their
   union without two components' slots ever meeting. *)
let domain d =
  if d < 1 || d > 63 then invalid_arg "Fp128.domain";
  d lsl 24

let[@inline] int_term_a slot v = word_term_a slot (v land 0xffff_ffff) (v asr 32)
let[@inline] int_term_b slot v = word_term_b slot (v land 0xffff_ffff) (v asr 32)

let sum_terms iter x =
  let a = ref 0 and b = ref 0 in
  iter
    (fun slot v ->
      a := !a + int_term_a slot v;
      b := !b + int_term_b slot v)
    x;
  (!a, !b)

let iter_seq base f l =
  f base (List.length l);
  List.iteri (fun k v -> f (base + 1 + k) v) l

(* The upkeep entry points take the digest as two adjacent cells of an
   int array, so that one call updates both lanes: the four (or, per
   word, two) term computations are independent and overlap. *)
let replace_int d i slot old v =
  if old <> v then begin
    d.(i) <- d.(i) - int_term_a slot old + int_term_a slot v;
    d.(i + 1) <- d.(i + 1) - int_term_b slot old + int_term_b slot v
  end

(* [sign] times the terms of the sequence [l] at [base] *)
let add_seq d i sign base l =
  iter_seq base
    (fun slot v ->
      d.(i) <- d.(i) + (sign * int_term_a slot v);
      d.(i + 1) <- d.(i + 1) + (sign * int_term_b slot v))
    l

let replace_seq d i base old l =
  add_seq d i (-1) base old;
  add_seq d i 1 base l

let extend_seq d i base n l =
  List.iteri (fun k v -> replace_int d i (base + 1 + n + k) 0 v) l;
  replace_int d i base n (n + List.length l)

let[@inline] lo32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffff_ffff

let sum_words d i sign b ~base ~first ~last =
  let a = ref 0 and bb = ref 0 in
  for w = first to last do
    let lo = lo32 b (8 * w) and hi = lo32 b ((8 * w) + 4) in
    a := !a + word_term_a (base + w) lo hi;
    bb := !bb + word_term_b (base + w) lo hi
  done;
  d.(i) <- d.(i) + (sign * !a);
  d.(i + 1) <- d.(i + 1) + (sign * !bb)

(* A page's term in a diverged-page sum: page [i] with content digest
   (a, b), whose lanes are already fully mixed, so one avalanche per
   lane suffices. The page's salt is odd, and [fmix]/[fmix'] are
   bijections that fix only 0, so an all-zero page's term is nonzero
   in both lanes. *)
let[@inline] page_term_a i a b = fmix ((a lxor (b * prime_a)) + (((i lsl 1) lor 1) * prime_b))
let[@inline] page_term_b i a b = fmix' ((b lxor (a * prime_a)) + (((i lsl 1) lor 1) * prime_c))

let block_digest b =
  let d = [| 0; 0 |] in
  sum_words d 0 1 b ~base:0 ~first:0 ~last:((Bytes.length b / 8) - 1);
  (d.(0), d.(1))
