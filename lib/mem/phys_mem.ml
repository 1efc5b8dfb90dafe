(* Sub-page copy-on-write physical memory.

   RAM is an array of page records. A page holds its bytes as a
   directory of [chunks_per_page] fixed-size chunks, together with its
   write-maintained content digest, the stamp of the one instance that
   may mutate the record in place, and a bitmask of the chunks that
   record holds privately. [copy] shares every page record between the
   two instances (O(#pages) pointer copies, no byte is moved). The
   first store into a shared page copies that page's chunk directory
   (17 words); the first store into a shared chunk copies that chunk
   (65 words). Both stay below OCaml's young-object limit, so a fork's
   cost is minor-heap allocation proportional to the bytes it writes.
   Pages that were never written since [create] all alias one immutable
   all-zero page record, so a fresh machine costs one page of backing
   store regardless of its RAM size.

   The ownership protocol: every instance carries a stamp that no other
   instance has ever carried. A page record is mutable in place only by
   the instance whose stamp it bears, and only that instance references
   it: [copy] gives both sides fresh stamps, so every record they now
   share is owned by neither and is re-copied on the next write. Within
   an owned record, bit [c] of [own_chunks] says [chunks.(c)] is
   referenced by that record alone. A directory copy shares every chunk
   with the record it came from, so it starts with no private chunk.
   This over-copies in the rare case where every other sharer has
   already faulted the page in, but it never aliases a mutation. *)

module Iset = Set.Make (Int)
module Fp128 = Uldma_util.Fp128

(* 512 B chunks: one chunk copy is 64 words plus a header, and a chunk
   directory 16 words plus a header — both minor-heap allocations. *)
let chunk_shift = 9
let chunk_size = 1 lsl chunk_shift
let chunk_mask = chunk_size - 1
let chunks_per_page = Layout.page_size lsr chunk_shift
let words_per_chunk = chunk_size / Layout.word_size
let page_mask = Layout.page_size - 1
let () = assert (chunks_per_page >= 1 && chunks_per_page <= Sys.int_size - 1)

type page = {
  chunks : Bytes.t array; (* length chunks_per_page *)
  dg : int array;
      (* dg.(0), dg.(1): the two lanes of the page's additive content
         digest (Fp128.word_term over its words, slot = word index in
         the page), kept current by every write path below. The
         all-zero page digests to (0, 0), so a fresh RAM needs no
         hashing at all. *)
  owner : int; (* stamp of the only instance that may mutate this record *)
  mutable own_chunks : int; (* bit c: chunks.(c) is private to this record *)
}

type t = {
  size : int;
  pages : page array; (* length size / Layout.page_size *)
  mutable stamp : int; (* pages.(i).owner = stamp: page i is private *)
  mutable touched : Iset.t;
      (* indices of pages ever written since [create], inherited across
         [copy]. A page outside this set still aliases [zero_page], so
         state hashing only needs to visit [touched] — O(dirtied), not
         O(RAM). Persistent set: sharing it with a copy is safe because
         each side grows its own version. *)
}

exception Fault of int

(* The next unused stamp: stamps are never reused. 0 is no instance's
   stamp, so a record stamped 0 is never mutated. *)
let stamps = ref 1

(* The distinguished all-zero page. Shared by every never-written page
   of every instance; it is owned by no instance and has no private
   chunk, so it stays zero forever. *)
let zero_page =
  {
    chunks = Array.make chunks_per_page (Bytes.make chunk_size '\000');
    dg = [| 0; 0 |];
    owner = 0;
    own_chunks = 0;
  }

(* The first of [n] fresh stamps. *)
let fresh_stamps n =
  let s = !stamps in
  stamps := s + n;
  s

let create ~size =
  if size <= 0 || not (Layout.is_page_aligned size) then
    invalid_arg (Printf.sprintf "Phys_mem.create: size %d not page-aligned" size);
  if size > Layout.max_ram_size then
    invalid_arg "Phys_mem.create: size exceeds Layout.max_ram_size";
  {
    size;
    pages = Array.make (size lsr Layout.page_shift) zero_page;
    stamp = fresh_stamps 1;
    touched = Iset.empty;
  }

let size t = t.size

let copy t =
  let s = fresh_stamps 2 in
  t.stamp <- s;
  { size = t.size; pages = Array.copy t.pages; stamp = s + 1; touched = t.touched }

let owned_pages t =
  Array.fold_left (fun n p -> if p.owner = t.stamp then n + 1 else n) 0 t.pages

(* A writable page record for page [i]: copy the chunk directory first
   if the record is (possibly) shared. Owned implies touched (a record
   is only stamped below, right after the [Iset.add]), so an owned page
   skips the persistent-set insertion entirely. *)
let page_rw t i =
  let p = t.pages.(i) in
  if p.owner = t.stamp then p
  else begin
    t.touched <- Iset.add i t.touched;
    let fresh =
      { chunks = Array.copy p.chunks; dg = Array.copy p.dg; owner = t.stamp; own_chunks = 0 }
    in
    t.pages.(i) <- fresh;
    fresh
  end

(* A writable view of chunk [c] of the writable page record [p]. *)
let chunk_rw p c =
  if p.own_chunks land (1 lsl c) <> 0 then p.chunks.(c)
  else begin
    let fresh = Bytes.copy p.chunks.(c) in
    p.chunks.(c) <- fresh;
    p.own_chunks <- p.own_chunks lor (1 lsl c);
    fresh
  end

let check t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then raise (Fault addr)

let check_word t addr =
  check t addr Layout.word_size;
  if not (Layout.is_word_aligned addr) then raise (Fault addr)

(* Words never straddle a chunk: the chunk size is a multiple of the
   word size and word accesses are aligned. *)
let load_word t addr =
  check_word t addr;
  let off = addr land page_mask in
  Int64.to_int
    (Bytes.get_int64_le
       t.pages.(addr lsr Layout.page_shift).chunks.(off lsr chunk_shift)
       (off land chunk_mask))

(* Digest upkeep: every write goes through [writable], which returns a
   private chunk [c] of page [i] with the terms of the words that bytes
   [off, off+len) of the chunk overlap retired (-1) from the page
   digest, and is followed by [reseal], which adds them back (+1). *)
let writable t i c off len =
  let p = page_rw t i in
  let chunk = chunk_rw p c in
  Fp128.sum_words p.dg 0 (-1) chunk ~base:(c * words_per_chunk) ~first:(off lsr 3)
    ~last:((off + len - 1) lsr 3);
  chunk

let reseal t i c off len =
  let p = t.pages.(i) in
  Fp128.sum_words p.dg 0 1 p.chunks.(c) ~base:(c * words_per_chunk) ~first:(off lsr 3)
    ~last:((off + len - 1) lsr 3)

let store_word t addr value =
  check_word t addr;
  let i = addr lsr Layout.page_shift and c = (addr land page_mask) lsr chunk_shift in
  let off = addr land chunk_mask in
  Bytes.set_int64_le (writable t i c off 8) off (Int64.of_int value);
  reseal t i c off 8

let load_byte t addr =
  check t addr 1;
  let off = addr land page_mask in
  Char.code
    (Bytes.get
       t.pages.(addr lsr Layout.page_shift).chunks.(off lsr chunk_shift)
       (off land chunk_mask))

let store_byte t addr value =
  check t addr 1;
  let i = addr lsr Layout.page_shift and c = (addr land page_mask) lsr chunk_shift in
  let off = addr land chunk_mask in
  Bytes.set (writable t i c off 1) off (Char.chr (value land 0xff));
  reseal t i c off 1

(* Apply [f page_index chunk_index offset_in_chunk position_in_range
   span_len] to each maximal single-chunk span of [addr, addr+len).
   Bounds must have been checked already. *)
let iter_spans addr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land chunk_mask in
    let span = min (len - !pos) (chunk_size - off) in
    f (a lsr Layout.page_shift) ((a land page_mask) lsr chunk_shift) off !pos span;
    pos := !pos + span
  done

let blit t ~src ~dst ~len =
  check t src len;
  check t dst len;
  if len > 0 && src <> dst then begin
    (* Stage through a scratch buffer: overlapping ranges then behave
       like memmove, and chunk boundaries of src and dst need not line
       up. *)
    let tmp = Bytes.create len in
    iter_spans src len (fun i c off pos span ->
        Bytes.blit t.pages.(i).chunks.(c) off tmp pos span);
    iter_spans dst len (fun i c off pos span ->
        Bytes.blit tmp pos (writable t i c off span) off span;
        reseal t i c off span)
  end

let fill t ~addr ~len ~byte =
  check t addr len;
  let ch = Char.chr (byte land 0xff) in
  let write addr len =
    iter_spans addr len (fun i c off _pos span ->
        Bytes.fill (writable t i c off span) off span ch;
        reseal t i c off span)
  in
  (* the whole pages of the range: from the first page boundary at or
     after [addr] to the last one at or before its end *)
  let first = (addr + page_mask) land lnot page_mask and last = (addr + len) land lnot page_mask in
  if ch <> '\000' || first >= last then write addr len
  else begin
    (* Zeroing a whole page re-shares the canonical zero page instead
       of dirtying a private one (frame recycling stays cheap under
       copy-on-write). *)
    write addr (first - addr);
    for i = first lsr Layout.page_shift to (last lsr Layout.page_shift) - 1 do
      t.pages.(i) <- zero_page;
      t.touched <- Iset.add i t.touched
    done;
    write last (addr + len - last)
  end

let checksum t ~addr ~len =
  check t addr len;
  let acc = ref 0 in
  iter_spans addr len (fun i c off _pos span ->
      let chunk = t.pages.(i).chunks.(c) in
      for j = off to off + span - 1 do
        acc := ((!acc * 131) + Char.code (Bytes.get chunk j)) land max_int
      done);
  !acc

let page_digest t i =
  let dg = t.pages.(i).dg in
  (dg.(0), dg.(1))

let encode_page enc t i =
  let p = t.pages.(i) in
  match enc with
  | Uldma_util.Enc.Buf b ->
    (* the page's exact bytes, chunk after chunk *)
    Array.iter (Buffer.add_bytes b) p.chunks
  | Uldma_util.Enc.Fp fp ->
    Fp128.add_int fp p.dg.(0);
    Fp128.add_int fp p.dg.(1)

let touched_count t = Iset.cardinal t.touched

let iter_touched t f = Iset.iter f t.touched

let iter_diverged t ~baseline f =
  if baseline.size <> t.size then invalid_arg "Phys_mem.iter_diverged: size mismatch";
  Iset.iter (fun i -> if t.pages.(i) != baseline.pages.(i) then f i) t.touched

let equal_range a b ~addr ~len =
  check a addr len;
  check b addr len;
  let equal = ref true in
  iter_spans addr len (fun i c off _pos span ->
      let ca = a.pages.(i).chunks.(c) and cb = b.pages.(i).chunks.(c) in
      (* physically shared chunks are equal for free *)
      if !equal && ca != cb then begin
        let j = ref off in
        while !equal && !j < off + span do
          if Bytes.get ca !j <> Bytes.get cb !j then equal := false;
          incr j
        done
      end);
  !equal
