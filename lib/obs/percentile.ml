(* Sub-bucketed logarithmic histogram. Bucket index of a value v with
   m = sub_bits, base = 2^m:

     v < base            -> v                      (width-1, exact)
     v >= base, p = msb v -> (p-m)*base + (v >> (p-m))

   i.e. each octave [2^p, 2^(p+1)) splits into [base] linear buckets of
   width 2^(p-m); the two cases agree on [base, 2*base). Indices are
   dense, so the whole structure is one flat int array. *)

type t = {
  sub_bits : int;
  base : int;
  buckets : int array;
  mutable count : int;
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create ?(sub_bits = 5) () =
  if sub_bits < 0 || sub_bits > 16 then invalid_arg "Percentile.create: sub_bits must be in 0..16";
  let base = 1 lsl sub_bits in
  {
    sub_bits;
    base;
    buckets = Array.make ((64 - sub_bits) * base) 0;
    count = 0;
    total = 0;
    min_v = 0;
    max_v = 0;
  }

let sub_bits t = t.sub_bits
let max_relative_error t = 1.0 /. float_of_int t.base

let index_of t v =
  if v < t.base then v
  else
    let k = Uldma_util.Bits.msb v - t.sub_bits in
    (k * t.base) + (v lsr k)

let bounds_of_index t i =
  if i < t.base then (i, i)
  else begin
    let k = (i / t.base) - 1 in
    let lower = (i - (k * t.base)) lsl k in
    (lower, lower + (1 lsl k) - 1)
  end

let bucket_bounds t v = bounds_of_index t (index_of t (max v 0))

let record t v =
  let v = if v < 0 then 0 else v in
  let i = index_of t v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  if t.count = 0 then begin
    t.min_v <- v;
    t.max_v <- v
  end
  else begin
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end;
  t.count <- t.count + 1;
  t.total <- t.total + v

let count t = t.count
let total t = t.total
let min_value t = t.min_v
let max_value t = t.max_v
let mean t = if t.count = 0 then 0.0 else float_of_int t.total /. float_of_int t.count

let percentile t q =
  if t.count = 0 then 0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
    let rank = min rank t.count in
    let cum = ref 0 in
    let result = ref t.max_v in
    (try
       for i = 0 to Array.length t.buckets - 1 do
         cum := !cum + t.buckets.(i);
         if !cum >= rank then begin
           result := snd (bounds_of_index t i);
           raise Exit
         end
       done
     with Exit -> ());
    min !result t.max_v
  end

let merge_into ~dst src =
  if dst.sub_bits <> src.sub_bits then
    invalid_arg "Percentile.merge_into: sub_bits mismatch";
  if src.count > 0 then begin
    Array.iteri (fun i n -> if n > 0 then dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
    if dst.count = 0 then begin
      dst.min_v <- src.min_v;
      dst.max_v <- src.max_v
    end
    else begin
      dst.min_v <- min dst.min_v src.min_v;
      dst.max_v <- max dst.max_v src.max_v
    end;
    dst.count <- dst.count + src.count;
    dst.total <- dst.total + src.total
  end
