(* Tests for the mem library: layout, perms, phys_mem. *)

open Uldma_mem

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

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
  Phys_mem.iter_touched m (fun i _ -> seen := i :: !seen);
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
  Phys_mem.iter_diverged a ~baseline:root (fun _ _ -> incr n);
  checki "fresh fork diverges nowhere" 0 !n;
  (* one write diverges exactly that page, even though the touched set
     also holds the root's page 0 *)
  Phys_mem.store_word a (2 * Layout.page_size) 42;
  let seen = ref [] in
  Phys_mem.iter_diverged a ~baseline:root (fun i _ -> seen := i :: !seen);
  Alcotest.(check (list int)) "diverged pages" [ 2 ] !seen;
  (* rewriting a root-touched page diverges it too (CoW gives the fork
     its own Bytes even when the content ends up identical) *)
  Phys_mem.store_word a 0 1;
  let seen = ref [] in
  Phys_mem.iter_diverged a ~baseline:root (fun i _ -> seen := i :: !seen);
  Alcotest.(check (list int)) "after page-0 write" [ 0; 2 ] (List.sort compare !seen);
  checkb "size mismatch rejected" true
    (try
       Phys_mem.iter_diverged a ~baseline:(Phys_mem.create ~size:Layout.page_size) (fun _ _ -> ());
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

(* A random op script applied identically to a COW Phys_mem and to an
   eager Bytes oracle, with a snapshot taken mid-script: afterwards the
   parent must match the oracle state at the snapshot point and the
   child the final oracle state, under load/checksum/equal_range. *)
let mem_cow_matches_eager_oracle =
  let size = 4 * Layout.page_size in
  let oracle_checksum oracle =
    let acc = ref 0 in
    Bytes.iter (fun c -> acc := ((!acc * 131) + Char.code c) land max_int) oracle;
    !acc
  in
  let apply_op mem oracle (kind, a, b, len) =
    let addr = a mod (size - 512) in
    let len = 1 + (len mod 500) in
    match kind mod 4 with
    | 0 ->
      Phys_mem.store_byte mem addr (b land 0xff);
      Bytes.set oracle addr (Char.chr (b land 0xff))
    | 1 ->
      let addr = addr land lnot 7 in
      Phys_mem.store_word mem addr b;
      Bytes.set_int64_le oracle addr (Int64.of_int b)
    | 2 ->
      Phys_mem.fill mem ~addr ~len ~byte:(b land 0xff);
      Bytes.fill oracle addr len (Char.chr (b land 0xff))
    | _ ->
      let dst = b mod (size - 512) in
      Phys_mem.blit mem ~src:addr ~dst ~len;
      let tmp = Bytes.sub oracle addr len in
      Bytes.blit tmp 0 oracle dst len
  in
  let gen_op =
    QCheck2.Gen.(quad (int_range 0 3) (int_range 0 (size - 1)) (int_range 0 max_int) nat)
  in
  qtest ~count:50 "phys_mem: COW snapshot matches eager-copy oracle"
    QCheck2.Gen.(pair (list_size (int_range 0 30) gen_op) (list_size (int_range 0 30) gen_op))
    (fun (ops_before, ops_after) ->
      let m = Phys_mem.create ~size in
      let oracle = Bytes.make size '\000' in
      List.iter (apply_op m oracle) ops_before;
      let child = Phys_mem.copy m in
      let oracle_at_snap = Bytes.copy oracle in
      (* diverge: child follows the script, parent stays put *)
      List.iter (apply_op child oracle) ops_after;
      Phys_mem.checksum m ~addr:0 ~len:size = oracle_checksum oracle_at_snap
      && Phys_mem.checksum child ~addr:0 ~len:size = oracle_checksum oracle
      && Phys_mem.equal_range m child ~addr:0 ~len:size = Bytes.equal oracle_at_snap oracle)

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
          Alcotest.test_case "touched-page tracking" `Quick test_mem_touched_tracking;
          Alcotest.test_case "iter_diverged" `Quick test_mem_iter_diverged;
          mem_cow_matches_eager_oracle;
          mem_word_roundtrip_prop;
          mem_blit_preserves_content;
        ] );
    ]
