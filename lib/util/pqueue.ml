(* A binary heap whose entry i occupies cells 3i (key), 3i+1 (seq) and
   3i+2 (value) of one int array. Sifts move a hole instead of swapping,
   so each level costs one three-cell copy. The order is lexicographic
   on (key, seq). *)

module Int = struct
  type t = { mutable cells : int array; mutable size : int }

  let create () = { cells = Array.make 48 0; size = 0 }
  let length t = t.size
  let is_empty t = t.size = 0

  let[@inline] before (k1 : int) (s1 : int) k2 s2 = k1 < k2 || (k1 = k2 && s1 < s2)

  let[@inline] set (c : int array) i key seq v =
    let j = 3 * i in
    Array.unsafe_set c j key;
    Array.unsafe_set c (j + 1) seq;
    Array.unsafe_set c (j + 2) v

  let[@inline] move (c : int array) ~dst ~src =
    let d = 3 * dst and s = 3 * src in
    Array.unsafe_set c d (Array.unsafe_get c s);
    Array.unsafe_set c (d + 1) (Array.unsafe_get c (s + 1));
    Array.unsafe_set c (d + 2) (Array.unsafe_get c (s + 2))

  (* Place (key, seq, v) at the hole [i] or above it. *)
  let sift_up c i key seq v =
    let i = ref i in
    while
      !i > 0
      &&
      let p = 3 * ((!i - 1) / 2) in
      before key seq (Array.unsafe_get c p) (Array.unsafe_get c (p + 1))
    do
      let p = (!i - 1) / 2 in
      move c ~dst:!i ~src:p;
      i := p
    done;
    set c !i key seq v

  (* Place (key, seq, v) at the hole [i] or below it, in a heap of
     [size] entries. *)
  let sift_down c size i key seq v =
    let i = ref i and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= size then continue := false
      else begin
        let r = l + 1 in
        let child =
          if
            r < size
            && before
                 (Array.unsafe_get c (3 * r))
                 (Array.unsafe_get c ((3 * r) + 1))
                 (Array.unsafe_get c (3 * l))
                 (Array.unsafe_get c ((3 * l) + 1))
          then r
          else l
        in
        if before (Array.unsafe_get c (3 * child)) (Array.unsafe_get c ((3 * child) + 1)) key seq
        then begin
          move c ~dst:!i ~src:child;
          i := child
        end
        else continue := false
      end
    done;
    set c !i key seq v

  let push t ~key ~seq v =
    if 3 * t.size = Array.length t.cells then begin
      let fresh = Array.make (2 * Array.length t.cells) 0 in
      Array.blit t.cells 0 fresh 0 (3 * t.size);
      t.cells <- fresh
    end;
    t.size <- t.size + 1;
    sift_up t.cells (t.size - 1) key seq v

  let check_nonempty t what = if t.size = 0 then invalid_arg ("Pqueue.Int." ^ what ^ ": empty heap")

  let min_key t =
    check_nonempty t "min_key";
    Array.unsafe_get t.cells 0

  let min_value t =
    check_nonempty t "min_value";
    Array.unsafe_get t.cells 2

  let remove_min t =
    check_nonempty t "remove_min";
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      let c = t.cells and j = 3 * n in
      sift_down c n 0 (Array.unsafe_get c j)
        (Array.unsafe_get c (j + 1))
        (Array.unsafe_get c (j + 2))
    end

  let replace_min t ~key ~seq v =
    check_nonempty t "replace_min";
    sift_down t.cells t.size 0 key seq v
end

(* Values live in [values] at a fixed slot for their whole stay; the
   heap carries slot numbers. [free] stacks the vacated slots. *)
type 'a t = {
  heap : Int.t;
  mutable values : 'a array;
  mutable free : int array;
  mutable n_free : int;
  mutable next_seq : int;
}

let create () = { heap = Int.create (); values = [||]; free = [||]; n_free = 0; next_seq = 0 }
let length t = Int.length t.heap
let is_empty t = Int.is_empty t.heap

let push t ~key value =
  let slot =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
    else begin
      (* every slot is occupied, so the next one is the heap's size *)
      let slot = Int.length t.heap in
      if slot = Array.length t.values then begin
        let fresh = Array.make (max 16 (2 * slot)) value in
        Array.blit t.values 0 fresh 0 slot;
        t.values <- fresh;
        t.free <- Array.make (Array.length fresh) 0
      end;
      slot
    end
  in
  t.values.(slot) <- value;
  Int.push t.heap ~key ~seq:t.next_seq slot;
  t.next_seq <- t.next_seq + 1

let pop t =
  if Int.is_empty t.heap then None
  else begin
    let key = Int.min_key t.heap and slot = Int.min_value t.heap in
    Int.remove_min t.heap;
    t.free.(t.n_free) <- slot;
    t.n_free <- t.n_free + 1;
    Some (key, t.values.(slot))
  end

let peek_key t = if Int.is_empty t.heap then None else Some (Int.min_key t.heap)
