(* Tests for the mem library: layout, perms, phys_mem. *)

open Uldma_mem

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest ?(count = 300) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen prop)

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout_page_math () =
  checki "page size" 8192 Layout.page_size;
  checki "page of 0" 0 (Layout.page_of 0);
  checki "page of 8191" 0 (Layout.page_of 8191);
  checki "page of 8192" 1 (Layout.page_of 8192);
  checki "page base" 8192 (Layout.page_base 8200);
  checki "page offset" 8 (Layout.page_offset 8200);
  checkb "aligned" true (Layout.is_page_aligned 16384);
  checkb "unaligned" false (Layout.is_page_aligned 16385);
  checkb "word aligned" true (Layout.is_word_aligned 16);
  checkb "word unaligned" false (Layout.is_word_aligned 17)

let test_layout_mmio () =
  checkb "mmio base above ram limit" true (Layout.mmio_base >= Layout.max_ram_size / 4);
  checkb "kernel page is first" true (Layout.kernel_control_page = Layout.mmio_base);
  checkb "context 0 after kernel page" true
    (Layout.context_page 0 = Layout.mmio_base + Layout.page_size);
  checkb "in_mmio base" true (Layout.in_mmio Layout.mmio_base);
  checkb "in_mmio limit" false (Layout.in_mmio Layout.mmio_limit);
  checkb "ram not mmio" false (Layout.in_mmio 0)

let test_layout_context_pages () =
  for i = 0 to Layout.max_contexts - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "inverse of context_page %d" i)
      (Some i)
      (Layout.context_of_mmio (Layout.context_page i + 64))
  done;
  Alcotest.(check (option int)) "kernel page has no context" None
    (Layout.context_of_mmio Layout.kernel_control_page);
  Alcotest.check_raises "context page out of range" (Invalid_argument "Layout.context_page: 8")
    (fun () -> ignore (Layout.context_page 8 : int))

let test_layout_shadow_bit () =
  checkb "shadow tagged" true (Layout.is_shadow (1 lsl Layout.shadow_bit_index));
  checkb "plain not shadow" false (Layout.is_shadow 0x1234);
  checkb "mmio not shadow" false (Layout.is_shadow Layout.mmio_base)

let test_layout_remote_window () =
  checkb "base in remote" true (Layout.in_remote Layout.remote_base);
  checkb "limit not in remote" false (Layout.in_remote Layout.remote_limit);
  checkb "mmio not remote" false (Layout.in_remote Layout.mmio_base);
  checki "offset roundtrip" 0x1234 (Layout.remote_offset (Layout.remote_base + 0x1234));
  checkb "disjoint from mmio" true (Layout.remote_base >= Layout.mmio_limit);
  checkb "below the shadow context field" true
    (Layout.remote_limit <= 1 lsl Layout.context_field_shift)

let test_layout_in_ram () =
  checkb "0 in ram" true (Layout.in_ram ~ram_size:8192 0);
  checkb "8191 in ram" true (Layout.in_ram ~ram_size:8192 8191);
  checkb "8192 not" false (Layout.in_ram ~ram_size:8192 8192);
  checkb "negative not" false (Layout.in_ram ~ram_size:8192 (-1))

(* ------------------------------------------------------------------ *)
(* Perms *)

let all_perms = [ Perms.none; Perms.read_only; Perms.write_only; Perms.read_write ]

let test_perms_basic () =
  checkb "rw allows read" true (Perms.allows_read Perms.read_write);
  checkb "rw allows write" true (Perms.allows_write Perms.read_write);
  checkb "ro denies write" false (Perms.allows_write Perms.read_only);
  checkb "wo denies read" false (Perms.allows_read Perms.write_only);
  checkb "none denies all" false
    (Perms.allows_read Perms.none || Perms.allows_write Perms.none)

let test_perms_subsumes () =
  List.iter
    (fun p -> checkb "rw subsumes all" true (Perms.subsumes Perms.read_write p))
    all_perms;
  List.iter (fun p -> checkb "all subsume none" true (Perms.subsumes p Perms.none)) all_perms;
  checkb "ro does not subsume rw" false (Perms.subsumes Perms.read_only Perms.read_write);
  checkb "reflexive" true (List.for_all (fun p -> Perms.subsumes p p) all_perms)

let test_perms_lattice () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          checkb "union subsumes both" true
            (Perms.subsumes (Perms.union a b) a && Perms.subsumes (Perms.union a b) b);
          checkb "both subsume inter" true
            (Perms.subsumes a (Perms.inter a b) && Perms.subsumes b (Perms.inter a b)))
        all_perms)
    all_perms

let test_perms_to_string () =
  Alcotest.(check string) "rw" "rw" (Perms.to_string Perms.read_write);
  Alcotest.(check string) "ro" "r-" (Perms.to_string Perms.read_only);
  Alcotest.(check string) "none" "--" (Perms.to_string Perms.none)

(* ------------------------------------------------------------------ *)
(* Phys_mem *)

let mem () = Phys_mem.create ~size:(8 * Layout.page_size)

let test_mem_create_checks () =
  Alcotest.check_raises "unaligned size"
    (Invalid_argument "Phys_mem.create: size 100 not page-aligned") (fun () ->
      ignore (Phys_mem.create ~size:100 : Phys_mem.t))

let test_mem_zero_initialised () =
  let m = mem () in
  checki "word 0" 0 (Phys_mem.load_word m 0);
  checki "last word" 0 (Phys_mem.load_word m (Phys_mem.size m - 8))

let test_mem_word_roundtrip () =
  let m = mem () in
  Phys_mem.store_word m 64 0x1234_5678_9abc;
  checki "roundtrip" 0x1234_5678_9abc (Phys_mem.load_word m 64);
  Phys_mem.store_word m 72 (-42);
  checki "negative value" (-42) (Phys_mem.load_word m 72)

let test_mem_byte_roundtrip () =
  let m = mem () in
  Phys_mem.store_byte m 3 0xab;
  checki "byte" 0xab (Phys_mem.load_byte m 3);
  Phys_mem.store_byte m 4 0x1ff;
  checki "byte truncated" 0xff (Phys_mem.load_byte m 4)

let test_mem_faults () =
  let m = mem () in
  let size = Phys_mem.size m in
  Alcotest.check_raises "oob load" (Phys_mem.Fault size) (fun () ->
      ignore (Phys_mem.load_word m size : int));
  Alcotest.check_raises "misaligned" (Phys_mem.Fault 3) (fun () ->
      ignore (Phys_mem.load_word m 3 : int));
  Alcotest.check_raises "negative" (Phys_mem.Fault (-8)) (fun () ->
      ignore (Phys_mem.load_word m (-8) : int));
  Alcotest.check_raises "oob blit" (Phys_mem.Fault (size - 4)) (fun () ->
      Phys_mem.blit m ~src:(size - 4) ~dst:0 ~len:8)

let test_mem_blit () =
  let m = mem () in
  Phys_mem.fill m ~addr:0 ~len:16 ~byte:0x5a;
  Phys_mem.blit m ~src:0 ~dst:100 ~len:16;
  checki "copied byte" 0x5a (Phys_mem.load_byte m 100);
  checki "copied byte 15" 0x5a (Phys_mem.load_byte m 115);
  checki "beyond untouched" 0 (Phys_mem.load_byte m 116)

let test_mem_blit_overlap () =
  let m = mem () in
  for i = 0 to 15 do
    Phys_mem.store_byte m i i
  done;
  Phys_mem.blit m ~src:0 ~dst:4 ~len:12;
  (* forward overlap must behave like memmove *)
  for i = 0 to 11 do
    checki (Printf.sprintf "dst[%d]" i) i (Phys_mem.load_byte m (4 + i))
  done

let test_mem_checksum_equal () =
  let m = mem () in
  Phys_mem.fill m ~addr:0 ~len:64 ~byte:7;
  Phys_mem.fill m ~addr:64 ~len:64 ~byte:7;
  checki "equal ranges checksum" (Phys_mem.checksum m ~addr:0 ~len:64)
    (Phys_mem.checksum m ~addr:64 ~len:64);
  Phys_mem.store_byte m 65 8;
  checkb "different checksum" true
    (Phys_mem.checksum m ~addr:0 ~len:64 <> Phys_mem.checksum m ~addr:64 ~len:64)

let test_mem_copy_independent () =
  let m = mem () in
  Phys_mem.store_word m 0 111;
  let m2 = Phys_mem.copy m in
  Phys_mem.store_word m2 0 222;
  checki "original untouched" 111 (Phys_mem.load_word m 0);
  checki "copy updated" 222 (Phys_mem.load_word m2 0)

let test_mem_equal_range () =
  let a = mem () and b = mem () in
  Phys_mem.fill a ~addr:8 ~len:32 ~byte:1;
  Phys_mem.fill b ~addr:8 ~len:32 ~byte:1;
  checkb "equal" true (Phys_mem.equal_range a b ~addr:8 ~len:32);
  Phys_mem.store_byte b 9 2;
  checkb "unequal" false (Phys_mem.equal_range a b ~addr:8 ~len:32)

(* --- copy-on-write semantics --- *)

let test_mem_cow_sharing () =
  let m = mem () in
  checki "fresh RAM owns no pages" 0 (Phys_mem.owned_pages m);
  Phys_mem.store_word m 0 1;
  checki "first write faults in one page" 1 (Phys_mem.owned_pages m);
  let child = Phys_mem.copy m in
  checki "snapshot un-owns the parent" 0 (Phys_mem.owned_pages m);
  checki "child owns nothing yet" 0 (Phys_mem.owned_pages child);
  Phys_mem.store_word child 0 2;
  checki "child write faults in its own page" 1 (Phys_mem.owned_pages child);
  checki "parent still un-owned" 0 (Phys_mem.owned_pages m);
  checki "parent value intact" 1 (Phys_mem.load_word m 0);
  checki "child value" 2 (Phys_mem.load_word child 0)

let test_mem_cow_siblings () =
  let parent = mem () in
  Phys_mem.store_word parent 64 10;
  let a = Phys_mem.copy parent and b = Phys_mem.copy parent in
  Phys_mem.store_word a 64 20;
  Phys_mem.store_word b (2 * Layout.page_size) 30;
  checki "parent untouched by a" 10 (Phys_mem.load_word parent 64);
  checki "parent untouched by b" 0 (Phys_mem.load_word parent (2 * Layout.page_size));
  checki "a sees own write" 20 (Phys_mem.load_word a 64);
  checki "a blind to b's write" 0 (Phys_mem.load_word a (2 * Layout.page_size));
  checki "b inherits parent page" 10 (Phys_mem.load_word b 64);
  checkb "shared pages equal for free" true
    (Phys_mem.equal_range parent b ~addr:0 ~len:Layout.page_size)

let test_mem_touched_tracking () =
  let m = mem () in
  checki "fresh RAM touched nothing" 0 (Phys_mem.touched_count m);
  Phys_mem.store_word m 0 1;
  Phys_mem.store_word m 8 2;
  checki "two writes to one page touch one page" 1 (Phys_mem.touched_count m);
  Phys_mem.store_word m (2 * Layout.page_size) 3;
  checki "write to another page" 2 (Phys_mem.touched_count m);
  let seen = ref [] in
  Phys_mem.iter_touched m (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "touched indices" [ 0; 2 ] (List.sort compare !seen);
  (* copies inherit the touched set: the pages that may differ from an
     all-zero RAM are the same for parent and child *)
  let child = Phys_mem.copy m in
  checki "child inherits touched" 2 (Phys_mem.touched_count child);
  Phys_mem.store_word child (3 * Layout.page_size) 4;
  checki "child write adds" 3 (Phys_mem.touched_count child);
  checki "parent unaffected" 2 (Phys_mem.touched_count m)

let test_mem_iter_diverged () =
  let root = mem () in
  Phys_mem.store_word root 0 1;
  let a = Phys_mem.copy root in
  (* a fork that has written nothing shares every page with the root *)
  let n = ref 0 in
  Phys_mem.iter_diverged a ~baseline:root (fun _ -> incr n);
  checki "fresh fork diverges nowhere" 0 !n;
  (* one write diverges exactly that page, even though the touched set
     also holds the root's page 0 *)
  Phys_mem.store_word a (2 * Layout.page_size) 42;
  let seen = ref [] in
  Phys_mem.iter_diverged a ~baseline:root (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "diverged pages" [ 2 ] !seen;
  (* rewriting a root-touched page diverges it too (CoW gives the fork
     its own Bytes even when the content ends up identical) *)
  Phys_mem.store_word a 0 1;
  let seen = ref [] in
  Phys_mem.iter_diverged a ~baseline:root (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "after page-0 write" [ 0; 2 ] (List.sort compare !seen);
  checkb "size mismatch rejected" true
    (try
       Phys_mem.iter_diverged a ~baseline:(Phys_mem.create ~size:Layout.page_size) (fun _ -> ());
       false
     with Invalid_argument _ -> true)

let test_mem_cow_blit_fill_across_pages () =
  let m = mem () in
  (* pattern crossing the page 0/1 boundary *)
  let src = Layout.page_size - 100 in
  for i = 0 to 199 do
    Phys_mem.store_byte m (src + i) (i land 0xff)
  done;
  let snap = Phys_mem.copy m in
  (* blit in the child across the page 2/3 boundary, from a range that
     is still shared with the parent *)
  let dst = (3 * Layout.page_size) - 77 in
  Phys_mem.blit snap ~src ~dst ~len:200;
  for i = 0 to 199 do
    checki (Printf.sprintf "blitted[%d]" i) (i land 0xff) (Phys_mem.load_byte snap (dst + i))
  done;
  checki "parent dst range untouched" 0 (Phys_mem.load_byte m dst);
  checkb "source range still equal" true (Phys_mem.equal_range m snap ~addr:src ~len:200);
  (* whole-page zero fill re-shares the zero page instead of dirtying *)
  let before = Phys_mem.owned_pages snap in
  Phys_mem.fill snap ~addr:(2 * Layout.page_size) ~len:(2 * Layout.page_size) ~byte:0;
  checkb "zero fill releases private pages" true (Phys_mem.owned_pages snap < before);
  checki "zeroed" 0 (Phys_mem.load_byte snap dst);
  checki "parent still untouched" 0 (Phys_mem.load_byte m dst)

(* --- allocation: a fork pays for the bytes it writes --- *)

let alloc f = snd (Uldma_obs.Alloc.measure f)

(* [copy] copies the page-pointer array and nothing else, whether that
   array lands in the minor heap (64 pages) or the major heap (512) *)
let test_mem_copy_alloc () =
  List.iter
    (fun pages ->
      let m = Phys_mem.create ~size:(pages * Layout.page_size) in
      Phys_mem.store_word m 0 1;
      let a = alloc (fun () -> ignore (Sys.opaque_identity (Phys_mem.copy m))) in
      let words = a.Uldma_obs.Alloc.minor + a.Uldma_obs.Alloc.direct_major in
      if words > pages + 16 then
        Alcotest.failf "copy of %d pages allocated %d words (limit %d)" pages words (pages + 16))
    [ 64; 512 ]

(* the explorer's pattern: fork, then write one word of a shared page.
   The fault copies a chunk directory and one 512 B chunk, both small
   enough for the minor heap, so nothing is allocated in the major
   heap directly *)
let test_mem_fork_store_no_major () =
  let m = Phys_mem.create ~size:(64 * Layout.page_size) in
  Phys_mem.fill m ~addr:0 ~len:(64 * Layout.page_size) ~byte:1;
  let cur = ref m in
  let a =
    alloc (fun () ->
        for k = 1 to 1000 do
          cur := Phys_mem.copy !cur;
          Phys_mem.store_word !cur (k * 8 mod (64 * Layout.page_size)) k
        done)
  in
  checki "direct-major words" 0 a.Uldma_obs.Alloc.direct_major;
  checki "last store landed" 1000 (Phys_mem.load_word !cur 8000)

(* --- write-maintained per-page digests --- *)

let test_mem_digest_cache () =
  let m = mem () in
  (* untouched pages all digest to the zero-page digest *)
  let z0 = Phys_mem.page_digest m 0 in
  checkb "all zero pages digest equal" true (Phys_mem.page_digest m 1 = z0);
  checkb "the zero digest is (0, 0)" true (z0 = (0, 0));
  (* a write updates the digest *)
  Phys_mem.store_word m 0 0x1234;
  let d1 = Phys_mem.page_digest m 0 in
  checkb "digest changed by write" true (d1 <> z0);
  checkb "a read returns the same digest" true (Phys_mem.page_digest m 0 = d1);
  (* writing a page again updates its digest even when already owned *)
  Phys_mem.store_word m 8 0x9abc;
  let d1' = Phys_mem.page_digest m 0 in
  checkb "second write changes the digest" true (d1' <> d1);
  (* undoing the write restores the earlier digest exactly *)
  Phys_mem.store_word m 8 0;
  checkb "undone write restores the digest" true (Phys_mem.page_digest m 0 = d1)

let test_mem_digest_cache_survives_copy () =
  let m = mem () in
  Phys_mem.store_word m 0 0x1234;
  let d1 = Phys_mem.page_digest m 0 in
  (* a COW child carries the shared page's digest *)
  let child = Phys_mem.copy m in
  checkb "child carries parent's digest" true (Phys_mem.page_digest child 0 = d1);
  (* writing the child updates only the child's digest *)
  Phys_mem.store_word child 0 0x5678;
  let d2 = Phys_mem.page_digest child 0 in
  checkb "child digest diverged" true (d2 <> d1);
  checkb "parent digest untouched" true (Phys_mem.page_digest m 0 = d1);
  (* digests are content digests: an independent instance with the same
     bytes agrees *)
  let other = mem () in
  Phys_mem.store_word other 0 0x1234;
  checkb "content-equal pages digest equal" true (Phys_mem.page_digest other 0 = d1);
  (* a whole-page zero fill re-shares the zero page and its digest *)
  let z0 = Phys_mem.page_digest other 1 in
  Phys_mem.fill child ~addr:0 ~len:Layout.page_size ~byte:0;
  checkb "zero-filled page back to the zero digest" true (Phys_mem.page_digest child 0 = z0)

(* Digest upkeep against a from-scratch recomputation: a random script
   of every write path (word and byte stores, fills including
   whole-page zero fills, overlapping and page-straddling blits) runs on
   a parent, then on both the parent and a COW child; afterwards each
   page's maintained digest must equal [Fp128.block_digest] of the
   page's bytes, read back through [load_byte]. *)
let mem_digest_matches_recomputed =
  let pages = 3 in
  let size = pages * Layout.page_size in
  let apply m (kind, a, b, len) =
    let addr = a mod size in
    match kind with
    | 0 -> Phys_mem.store_word m (addr land lnot 7) b
    | 1 -> Phys_mem.store_byte m addr (b land 0xff)
    | 2 ->
      (* straddles a page boundary whenever addr is near one *)
      let len = min (1 + (len mod 700)) (size - addr) in
      Phys_mem.fill m ~addr ~len ~byte:(if b land 3 = 0 then 0 else b land 0xff)
    | 3 ->
      let page = a mod pages in
      Phys_mem.fill m ~addr:(page * Layout.page_size) ~len:Layout.page_size ~byte:0
    | _ ->
      let len = 1 + (len mod 700) in
      let src = addr mod (size - len) and dst = (b land max_int) mod (size - len) in
      (* half the blits overlap their source *)
      let dst = if b land 1 = 0 then min (size - len) (src + (len / 3)) else dst in
      Phys_mem.blit m ~src ~dst ~len
  in
  let recomputed m i =
    Uldma_util.Fp128.block_digest
      (Bytes.init Layout.page_size (fun j ->
           Char.chr (Phys_mem.load_byte m ((i * Layout.page_size) + j))))
  in
  let consistent m =
    List.for_all (fun i -> Phys_mem.page_digest m i = recomputed m i) (List.init pages Fun.id)
  in
  let gen_op =
    QCheck2.Gen.(quad (int_range 0 4) (int_range 0 (size - 1)) (int_range min_int max_int) nat)
  in
  qtest ~count:60 "phys_mem: maintained digests equal recomputed digests"
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 25) gen_op)
        (list_size (int_range 0 25) gen_op)
        (list_size (int_range 0 25) gen_op))
    (fun (before, parent_after, child_after) ->
      let m = Phys_mem.create ~size in
      List.iter (apply m) before;
      let child = Phys_mem.copy m in
      List.iter (apply child) child_after;
      List.iter (apply m) parent_after;
      consistent m && consistent child)

(* The diverged-page sum a keyed instance maintains, against the sum
   recomputed from scratch ([scratch_diverged]), over every write path
   of [mem_digest_matches_recomputed]. A baseline and a root are cut
   from one instance; the baseline may then be written before the root
   is keyed (so it is not the root's ancestor: a root page can diverge
   to zeros where the baseline holds data), the root runs a script,
   forking now and then and going on in the fork, and the baseline may
   be written after the sum was set, after which a read must set it
   again. *)
let mem_diverged_sum_matches_recomputed =
  let pages = 4 in
  let size = pages * Layout.page_size in
  (* the ops of mem_digest_matches_recomputed, and a store of the value
     already there *)
  let apply m (kind, a, b, len) =
    let addr = a mod size in
    match kind with
    | 0 -> Phys_mem.store_word m (addr land lnot 7) b
    | 1 -> Phys_mem.store_byte m addr (b land 0xff)
    | 2 ->
      let len = min (1 + (len mod 700)) (size - addr) in
      Phys_mem.fill m ~addr ~len ~byte:(if b land 3 = 0 then 0 else b land 0xff)
    | 3 ->
      let page = a mod pages in
      Phys_mem.fill m ~addr:(page * Layout.page_size) ~len:Layout.page_size ~byte:0
    | 4 ->
      let w = addr land lnot 7 in
      Phys_mem.store_word m w (Phys_mem.load_word m w)
    | _ ->
      let len = 1 + (len mod 700) in
      let src = addr mod (size - len) and dst = (b land max_int) mod (size - len) in
      Phys_mem.blit m ~src ~dst ~len
  in
  let agrees m baseline =
    let acc = [| 0; 0 |] in
    Phys_mem.add_diverged m ~baseline acc;
    (acc.(0), acc.(1)) = Phys_mem.scratch_diverged m ~baseline:(Some baseline)
  in
  let gen_op =
    QCheck2.Gen.(quad (int_range 0 5) (int_range 0 (size - 1)) (int_range min_int max_int) nat)
  in
  let ops n = QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 n) gen_op in
  qtest ~count:200 "phys_mem: maintained diverged sum equals recomputed"
    QCheck2.Gen.(
      pair
        (triple (ops 12) (ops 6) (list_size (int_range 0 20) (pair gen_op bool)))
        (option gen_op))
    (fun ((setup, base_ops, script), late) ->
      let m = Phys_mem.create ~size in
      List.iter (apply m) setup;
      let baseline = Phys_mem.copy m in
      let root = Phys_mem.copy m in
      List.iter (apply baseline) base_ops;
      let cur = ref root and ok = ref (agrees root baseline) in
      List.iter
        (fun (op, fork) ->
          if fork then cur := Phys_mem.copy !cur;
          apply !cur op;
          ok := !ok && agrees !cur baseline)
        script;
      (match late with
      | Some op ->
        apply baseline op;
        ok := !ok && agrees !cur baseline && agrees root baseline
      | None -> ());
      !ok)

(* A random fork tree of up to four live instances, each mirrored by
   its own eager Bytes oracle. An op picks an instance and copies it
   (into a free slot, or over another instance once four are live),
   stores a word or a byte, fills, blits, or zero-fills a whole page.
   Addresses are biased toward 512 B chunk and 8 KB page boundaries,
   and some fill and blit lengths are within 16 bytes of a page. A
   fixed prelude makes sure every script has the risky cases: the
   parent writing after a fork, copies of copies, writes after a
   whole-page zero fill re-shares the zero page, a zero fill that
   covers all of a page but its last word, and one that covers a whole
   page plus a word on each side. Afterwards every instance
   must match its oracle byte for byte, under checksum and pairwise
   equal_range, and every page digest must equal [Fp128.block_digest]
   of the oracle's page. *)
type cow_op =
  | Copy of int * int (* source, destination slot *)
  | Store_word of int * int * int
  | Store_byte of int * int * int
  | Fill of int * int * int * int (* instance, addr, len, byte *)
  | Blit of int * int * int * int (* instance, src, dst, len *)
  | Zero_page of int * int

let mem_cow_matches_eager_oracle =
  let pages = 4 and chunk = 512 and max_live = 4 and page = Layout.page_size in
  let size = pages * page in
  let oracle_checksum oracle =
    let acc = ref 0 in
    Bytes.iter (fun c -> acc := ((!acc * 131) + Char.code c) land max_int) oracle;
    !acc
  in
  (* uniform, or within 16 bytes of a chunk or a page boundary *)
  let addr_of a =
    let x = a lsr 2 in
    let base =
      match a land 3 with
      | 0 -> x mod size
      | 1 | 2 -> x mod (size / chunk) * chunk
      | _ -> x mod pages * page
    in
    let jitter = if a land 3 = 0 then 0 else ((x lsr 20) mod 33) - 16 in
    max 0 (min (size - 1) (base + jitter))
  in
  let len_of b = if b land 7 = 0 then page + ((b lsr 3) mod 33) - 16 else 1 + (b mod 1100) in
  let op_of (kind, k, a, b) =
    let addr = addr_of a in
    let len = min (len_of (b lsr 8)) (size - addr) in
    match kind with
    | 0 -> Copy (k, (k + 1 + (a mod (max_live - 1))) mod max_live)
    | 1 -> Store_word (k, addr land lnot 7, b)
    | 2 -> Store_byte (k, addr, b land 0xff)
    | 3 -> Fill (k, addr, len, if b land 3 = 0 then 0 else (b lsr 2) land 0xff)
    | 4 ->
      let dst = addr_of b in
      Blit (k, addr, dst, min len (size - dst))
    | _ -> Zero_page (k, a mod pages)
  in
  (* [live.(k)] is [Some (mem, oracle)] for a live instance *)
  let apply live op =
    let k =
      match op with
      | Copy (k, _)
      | Store_word (k, _, _)
      | Store_byte (k, _, _)
      | Fill (k, _, _, _)
      | Blit (k, _, _, _)
      | Zero_page (k, _) -> k
    in
    match live.(k) with
    | None -> ()
    | Some (m, o) -> (
      match op with
      | Copy (_, dst) -> live.(dst) <- Some (Phys_mem.copy m, Bytes.copy o)
      | Store_word (_, addr, v) ->
        Phys_mem.store_word m addr v;
        Bytes.set_int64_le o addr (Int64.of_int v)
      | Store_byte (_, addr, v) ->
        Phys_mem.store_byte m addr v;
        Bytes.set o addr (Char.chr v)
      | Fill (_, addr, len, byte) ->
        Phys_mem.fill m ~addr ~len ~byte;
        Bytes.fill o addr len (Char.chr byte)
      | Blit (_, src, dst, len) ->
        Phys_mem.blit m ~src ~dst ~len;
        Bytes.blit (Bytes.sub o src len) 0 o dst len
      | Zero_page (_, i) ->
        Phys_mem.fill m ~addr:(i * page) ~len:page ~byte:0;
        Bytes.fill o (i * page) page '\000')
  in
  let prelude =
    [
      Store_word (0, 8, 11);
      Copy (0, 1);
      Store_word (0, 8, 12) (* the parent writes after the fork *);
      Store_byte (1, page + 3, 13);
      Copy (1, 2) (* a copy of a copy *);
      Zero_page (2, 0) (* re-shares the zero page *);
      Store_word (2, 16, 14) (* ... and writes into it *);
      Store_word (1, 16, 15);
      Store_word (0, 520, 16);
      Store_word (2, (2 * page) - 8, 17);
      Fill (2, page, page - 8, 0) (* all of page 1 but its last word *);
      Store_word (1, page - 8, 18);
      Store_word (1, 2 * page, 19);
      Fill (1, page - 8, page + 16, 0) (* a head word, page 1 whole, a tail word *);
    ]
  in
  let consistent live =
    let ok = ref true in
    Array.iter
      (function
        | None -> ()
        | Some (m, o) ->
          for j = 0 to size - 1 do
            if Phys_mem.load_byte m j <> Char.code (Bytes.get o j) then ok := false
          done;
          if Phys_mem.checksum m ~addr:0 ~len:size <> oracle_checksum o then ok := false;
          for i = 0 to pages - 1 do
            if
              Phys_mem.page_digest m i
              <> Uldma_util.Fp128.block_digest (Bytes.sub o (i * page) page)
            then ok := false
          done)
      live;
    Array.iter
      (function
        | None -> ()
        | Some (m1, o1) ->
          Array.iter
            (function
              | None -> ()
              | Some (m2, o2) ->
                if Phys_mem.equal_range m1 m2 ~addr:0 ~len:size <> Bytes.equal o1 o2 then
                  ok := false)
            live)
      live;
    !ok
  in
  let gen_op =
    QCheck2.Gen.(
      map op_of
        (quad
           (frequency [ (2, return 0); (3, int_range 1 4); (1, return 5) ])
           (int_range 0 (max_live - 1))
           (int_range 0 max_int) (int_range 0 max_int)))
  in
  let print_op = function
    | Copy (k, d) -> Printf.sprintf "Copy (%d, %d)" k d
    | Store_word (k, a, v) -> Printf.sprintf "Store_word (%d, %d, %d)" k a v
    | Store_byte (k, a, v) -> Printf.sprintf "Store_byte (%d, %d, %d)" k a v
    | Fill (k, a, l, v) -> Printf.sprintf "Fill (%d, %d, %d, %d)" k a l v
    | Blit (k, s, d, l) -> Printf.sprintf "Blit (%d, %d, %d, %d)" k s d l
    | Zero_page (k, i) -> Printf.sprintf "Zero_page (%d, %d)" k i
  in
  qtest ~count:50 "phys_mem: COW snapshot matches eager-copy oracle"
    ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_range 0 60) gen_op)
    (fun ops ->
      let live = Array.make max_live None in
      live.(0) <- Some (Phys_mem.create ~size, Bytes.make size '\000');
      List.iter (apply live) prelude;
      List.iter (apply live) ops;
      consistent live)

let mem_word_roundtrip_prop =
  qtest "phys_mem: word store/load roundtrip"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range (-1000000) 1000000))
    (fun (slot, v) ->
      let m = Phys_mem.create ~size:Layout.page_size in
      let addr = slot mod (Layout.page_size / 8) * 8 in
      Phys_mem.store_word m addr v;
      Phys_mem.load_word m addr = v)

let mem_blit_preserves_content =
  qtest "phys_mem: blit copies exactly len bytes"
    QCheck2.Gen.(triple (int_range 0 255) (int_range 1 256) (int_range 0 256))
    (fun (byte, len, gap) ->
      let m = Phys_mem.create ~size:Layout.page_size in
      Phys_mem.fill m ~addr:0 ~len ~byte;
      let dst = len + gap in
      if dst + len > Layout.page_size then true
      else begin
        Phys_mem.blit m ~src:0 ~dst ~len;
        Phys_mem.equal_range m m ~addr:0 ~len
        && Phys_mem.checksum m ~addr:0 ~len = Phys_mem.checksum m ~addr:dst ~len
      end)

let () =
  Alcotest.run "mem"
    [
      ( "layout",
        [
          Alcotest.test_case "page math" `Quick test_layout_page_math;
          Alcotest.test_case "mmio window" `Quick test_layout_mmio;
          Alcotest.test_case "context pages" `Quick test_layout_context_pages;
          Alcotest.test_case "shadow bit" `Quick test_layout_shadow_bit;
          Alcotest.test_case "remote window" `Quick test_layout_remote_window;
          Alcotest.test_case "in_ram" `Quick test_layout_in_ram;
        ] );
      ( "perms",
        [
          Alcotest.test_case "basic" `Quick test_perms_basic;
          Alcotest.test_case "subsumes" `Quick test_perms_subsumes;
          Alcotest.test_case "lattice" `Quick test_perms_lattice;
          Alcotest.test_case "to_string" `Quick test_perms_to_string;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "create checks" `Quick test_mem_create_checks;
          Alcotest.test_case "zero initialised" `Quick test_mem_zero_initialised;
          Alcotest.test_case "word roundtrip" `Quick test_mem_word_roundtrip;
          Alcotest.test_case "byte roundtrip" `Quick test_mem_byte_roundtrip;
          Alcotest.test_case "faults" `Quick test_mem_faults;
          Alcotest.test_case "blit" `Quick test_mem_blit;
          Alcotest.test_case "blit overlap" `Quick test_mem_blit_overlap;
          Alcotest.test_case "checksum" `Quick test_mem_checksum_equal;
          Alcotest.test_case "copy independent" `Quick test_mem_copy_independent;
          Alcotest.test_case "equal_range" `Quick test_mem_equal_range;
          Alcotest.test_case "cow page sharing" `Quick test_mem_cow_sharing;
          Alcotest.test_case "cow sibling isolation" `Quick test_mem_cow_siblings;
          Alcotest.test_case "cow blit/fill across pages" `Quick
            test_mem_cow_blit_fill_across_pages;
          Alcotest.test_case "digest cache invalidation" `Quick test_mem_digest_cache;
          Alcotest.test_case "digest cache survives copy" `Quick
            test_mem_digest_cache_survives_copy;
          mem_digest_matches_recomputed;
          mem_diverged_sum_matches_recomputed;
          Alcotest.test_case "touched-page tracking" `Quick test_mem_touched_tracking;
          Alcotest.test_case "iter_diverged" `Quick test_mem_iter_diverged;
          Alcotest.test_case "copy allocation" `Quick test_mem_copy_alloc;
          Alcotest.test_case "fork + store: no direct-major" `Quick test_mem_fork_store_no_major;
          mem_cow_matches_eager_oracle;
          mem_word_roundtrip_prop;
          mem_blit_preserves_content;
        ] );
    ]
