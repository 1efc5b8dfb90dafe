(* Tests for the mmu library: shadow algebra, PTEs, page tables, TLB,
   address spaces. *)

open Uldma_mem
open Uldma_mmu

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Shadow *)

let test_shadow_roundtrip () =
  let paddr = 0x12_3458 in
  let s = Shadow.encode paddr in
  checkb "tagged" true (Shadow.is_shadow s);
  let d = Shadow.decode_exn s in
  checki "paddr back" paddr d.Shadow.paddr;
  checki "context 0" 0 d.Shadow.context;
  checkb "not atomic" false d.Shadow.atomic

let test_shadow_context () =
  let s = Shadow.encode_ctx ~context:3 0x4000 in
  let d = Shadow.decode_exn s in
  checki "context" 3 d.Shadow.context;
  checki "paddr" 0x4000 d.Shadow.paddr

let test_shadow_atomic_window () =
  let s = Shadow.encode_atomic ~context:2 0x8000 in
  let d = Shadow.decode_exn s in
  checkb "atomic" true d.Shadow.atomic;
  checki "context" 2 d.Shadow.context;
  checki "paddr" 0x8000 d.Shadow.paddr;
  checkb "dma window not atomic" false (Shadow.decode_exn (Shadow.encode 0x8000)).Shadow.atomic

let test_shadow_rejects () =
  checkb "negative paddr" true
    (try
       ignore (Shadow.encode (-8) : int);
       false
     with Invalid_argument _ -> true);
  checkb "context too large" true
    (try
       ignore (Shadow.encode_ctx ~context:(Shadow.max_context + 1) 0 : int);
       false
     with Invalid_argument _ -> true);
  checkb "paddr too large" true
    (try
       ignore (Shadow.encode (1 lsl Layout.context_field_shift) : int);
       false
     with Invalid_argument _ -> true)

let test_shadow_decode_plain () =
  Alcotest.(check bool) "plain decodes to None" true (Shadow.decode 0x1234 = None);
  Alcotest.check_raises "decode_exn on plain"
    (Invalid_argument "Shadow.decode_exn: 0x1234 is not a shadow address") (fun () ->
      ignore (Shadow.decode_exn 0x1234 : Shadow.decoded))

let test_shadow_frame () =
  let frame = 5 in
  let sframe = Shadow.shadow_frame_of_frame ~context:1 frame in
  let paddr_via_frame = (sframe lsl Layout.page_shift) lor 64 in
  let d = Shadow.decode_exn paddr_via_frame in
  checki "context survives paging" 1 d.Shadow.context;
  checki "address reassembles" ((frame lsl Layout.page_shift) lor 64) d.Shadow.paddr

let shadow_roundtrip_prop =
  qtest "shadow: decode . encode = id"
    QCheck2.Gen.(pair (int_range 0 Shadow.max_context) (int_range 0 ((1 lsl 30) - 1)))
    (fun (context, paddr) ->
      let d = Shadow.decode_exn (Shadow.encode_ctx ~context paddr) in
      d.Shadow.context = context && d.Shadow.paddr = paddr && not d.Shadow.atomic)

let shadow_atomic_roundtrip_prop =
  qtest "shadow: atomic decode . encode = id"
    QCheck2.Gen.(pair (int_range 0 Shadow.max_context) (int_range 0 ((1 lsl 30) - 1)))
    (fun (context, paddr) ->
      let d = Shadow.decode_exn (Shadow.encode_atomic ~context paddr) in
      d.Shadow.context = context && d.Shadow.paddr = paddr && d.Shadow.atomic)

(* ------------------------------------------------------------------ *)
(* Page_table *)

let pte frame perms = Pte.make ~frame ~perms ()

let test_pt_map_find () =
  let t = Page_table.create () in
  Page_table.map t ~vpage:4 (pte 10 Perms.read_write);
  checkb "found" true (Page_table.find t ~vpage:4 <> None);
  checkb "absent" true (Page_table.find t ~vpage:5 = None);
  checki "cardinal" 1 (Page_table.cardinal t)

let test_pt_remap () =
  let t = Page_table.create () in
  Page_table.map t ~vpage:4 (pte 10 Perms.read_write);
  Page_table.map t ~vpage:4 (pte 11 Perms.read_only);
  (match Page_table.find t ~vpage:4 with
  | Some p -> checki "replaced frame" 11 p.Pte.frame
  | None -> Alcotest.fail "mapping lost");
  checki "still one entry" 1 (Page_table.cardinal t)

let test_pt_unmap () =
  let t = Page_table.create () in
  Page_table.map t ~vpage:4 (pte 10 Perms.read_write);
  Page_table.unmap t ~vpage:4;
  checkb "gone" true (Page_table.find t ~vpage:4 = None)

let test_pt_mapped_range () =
  let t = Page_table.create () in
  for v = 2 to 4 do
    Page_table.map t ~vpage:v (pte v Perms.read_write)
  done;
  Page_table.map t ~vpage:5 (pte 5 Perms.read_only);
  let base = 2 * Layout.page_size in
  checkb "3 pages rw" true
    (Page_table.mapped_range t ~vaddr:base ~len:(3 * Layout.page_size) ~perms:Perms.read_write);
  checkb "4th page not writable" false
    (Page_table.mapped_range t ~vaddr:base ~len:(4 * Layout.page_size) ~perms:Perms.read_write);
  checkb "4 pages readable" true
    (Page_table.mapped_range t ~vaddr:base ~len:(4 * Layout.page_size) ~perms:Perms.read_only);
  checkb "hole detected" false
    (Page_table.mapped_range t ~vaddr:0 ~len:Layout.page_size ~perms:Perms.read_only);
  checkb "empty range ok" true (Page_table.mapped_range t ~vaddr:0 ~len:0 ~perms:Perms.read_write);
  checkb "sub-page range" true
    (Page_table.mapped_range t ~vaddr:(base + 100) ~len:8 ~perms:Perms.read_write)

let test_pt_copy_independent () =
  let t = Page_table.create () in
  Page_table.map t ~vpage:1 (pte 1 Perms.read_write);
  let t2 = Page_table.copy t in
  Page_table.unmap t2 ~vpage:1;
  checkb "original keeps entry" true (Page_table.find t ~vpage:1 <> None)

(* ------------------------------------------------------------------ *)
(* Tlb *)

let test_tlb_miss_then_hit () =
  let tlb = Tlb.create () and pt = Page_table.create () in
  Page_table.map pt ~vpage:7 (pte 3 Perms.read_write);
  (match Tlb.translate tlb pt ~vpage:7 with
  | Some (_, `Miss) -> ()
  | Some (_, `Hit) -> Alcotest.fail "expected miss"
  | None -> Alcotest.fail "expected entry");
  (match Tlb.translate tlb pt ~vpage:7 with
  | Some (_, `Hit) -> ()
  | Some (_, `Miss) -> Alcotest.fail "expected hit"
  | None -> Alcotest.fail "expected entry");
  let stats = Tlb.stats tlb in
  checki "hits" 1 stats.Tlb.hits;
  checki "misses" 1 stats.Tlb.misses

let test_tlb_unmapped () =
  let tlb = Tlb.create () and pt = Page_table.create () in
  checkb "no mapping" true (Tlb.translate tlb pt ~vpage:1 = None)

let test_tlb_flush () =
  let tlb = Tlb.create () and pt = Page_table.create () in
  Page_table.map pt ~vpage:7 (pte 3 Perms.read_write);
  ignore (Tlb.translate tlb pt ~vpage:7);
  Tlb.flush tlb;
  match Tlb.translate tlb pt ~vpage:7 with
  | Some (_, `Miss) -> ()
  | Some (_, `Hit) | None -> Alcotest.fail "flush should force a miss"

let test_tlb_invalidate () =
  let tlb = Tlb.create () and pt = Page_table.create () in
  Page_table.map pt ~vpage:7 (pte 3 Perms.read_write);
  ignore (Tlb.translate tlb pt ~vpage:7);
  Tlb.invalidate tlb ~vpage:7;
  checkb "probe misses" true (Tlb.lookup tlb ~vpage:7 = None)

let test_tlb_conflict_eviction () =
  (* direct-mapped: vpages 1 and 65 share slot 1 in a 64-entry TLB *)
  let tlb = Tlb.create ~slots:64 () and pt = Page_table.create () in
  Page_table.map pt ~vpage:1 (pte 1 Perms.read_write);
  Page_table.map pt ~vpage:65 (pte 2 Perms.read_write);
  ignore (Tlb.translate tlb pt ~vpage:1);
  ignore (Tlb.translate tlb pt ~vpage:65);
  checkb "1 evicted" true (Tlb.lookup tlb ~vpage:1 = None);
  checkb "65 cached" true (Tlb.lookup tlb ~vpage:65 <> None)

let test_tlb_power_of_two () =
  Alcotest.check_raises "slots must be power of two"
    (Invalid_argument "Tlb.create: slots must be a power of two") (fun () ->
      ignore (Tlb.create ~slots:48 () : Tlb.t))

(* ------------------------------------------------------------------ *)
(* Iotlb *)

(* the IOTLB's part of the paranoid key: its nonzero terms as
   "slot,word," pairs *)
let iotlb_encode_str t =
  let b = Buffer.create 128 in
  Uldma_util.Enc.terms (Uldma_util.Enc.Buf b) Iotlb.iter_terms t;
  Buffer.contents b

(* op scripts over a 64-vpage space: map (with OS shootdown), unmap
   (with shootdown), translate, flush — the discipline Os.Kernel
   follows, under which the cache must agree with a direct walk *)
type iotlb_op = Imap of int * int | Iunmap of int | Itranslate of int | Iflush

let iotlb_script_with_flush_gen =
  QCheck2.Gen.(
    list_size (int_range 1 120)
      (map
         (fun (op, vpage, frame) ->
           match op with
           | 0 | 1 | 2 -> Imap (vpage, frame + 100)
           | 3 -> Iunmap vpage
           | 4 | 5 | 6 | 7 | 8 -> Itranslate vpage
           | _ -> Iflush)
         (triple (int_range 0 9) (int_range 0 63) (int_range 0 63))))

let iotlb_apply iotlb pt = function
  | Imap (vpage, frame) ->
    Page_table.map pt ~vpage (pte frame Perms.read_write);
    Iotlb.invalidate iotlb ~vpage
  | Iunmap vpage ->
    Page_table.unmap pt ~vpage;
    Iotlb.invalidate iotlb ~vpage
  | Itranslate vpage -> ignore (Iotlb.translate iotlb pt ~vpage)
  | Iflush -> Iotlb.flush iotlb

(* 1. under the OS shootdown discipline, every translate agrees with a
   direct page-table walk — hit, miss-and-fill, or fault alike *)
let iotlb_agrees_with_walk_prop =
  qtest "iotlb: translate agrees with direct walk" iotlb_script_with_flush_gen (fun script ->
      let iotlb = Iotlb.create ~sets:4 ~ways:2 ~dg:[| 0; 0 |] () in
      let pt = Page_table.create () in
      List.for_all
        (fun op ->
          (match op with
          | Itranslate vpage -> (
            match (Iotlb.translate iotlb pt ~vpage, Page_table.find pt ~vpage) with
            | (`Hit got | `Miss got), Some want -> Pte.equal got want
            | `Fault, None -> true
            | (`Hit _ | `Miss _), None | `Fault, Some _ -> false)
          | _ ->
            iotlb_apply iotlb pt op;
            true)
          &&
          (* the cache never grows past its geometry and never caches
             a page the table no longer maps *)
          List.length (Iotlb.entries iotlb) <= 4 * 2
          && List.for_all
               (fun (vpage, cached) ->
                 match Page_table.find pt ~vpage with
                 | Some want -> Pte.equal cached want
                 | None -> false)
               (Iotlb.entries iotlb))
        script)

(* 2. miss/refill/invalidate determinism: the same script on two fresh
   caches leaves identical entries, statistics and encodings *)
let iotlb_determinism_prop =
  qtest "iotlb: refill/invalidate deterministic" iotlb_script_with_flush_gen (fun script ->
      let run () =
        let iotlb = Iotlb.create ~sets:4 ~ways:2 ~dg:[| 0; 0 |] () in
        let pt = Page_table.create () in
        List.iter (fun op -> iotlb_apply iotlb pt op) script;
        (iotlb, pt)
      in
      let a, _ = run () in
      let b, _ = run () in
      Iotlb.entries a = Iotlb.entries b
      && Iotlb.stats a = Iotlb.stats b
      && String.equal (iotlb_encode_str a) (iotlb_encode_str b))

(* 3. encoding equality <=> same reachable contents: a copy encodes
   equal and then behaves identically under any shared future stream,
   while any content-changing step separates the encodings *)
let iotlb_encode_iff_contents_prop =
  qtest "iotlb: encode equality iff same contents"
    QCheck2.Gen.(pair iotlb_script_with_flush_gen (list_size (int_range 1 30) (int_range 0 63)))
    (fun (script, probes) ->
      let dg = [| 0; 0 |] in
      let iotlb = Iotlb.create ~sets:4 ~ways:2 ~dg () in
      let pt = Page_table.create () in
      List.iter (fun op -> iotlb_apply iotlb pt op) script;
      let snap = Iotlb.copy iotlb ~dg:(Array.copy dg) in
      String.equal (iotlb_encode_str snap) (iotlb_encode_str iotlb)
      && (* equal encodings evolve identically: same hit/miss stream *)
      List.for_all
        (fun vpage ->
          Page_table.map pt ~vpage:(vpage land 7) (pte (vpage + 200) Perms.read_write);
          let tag = function `Hit _ -> 0 | `Miss _ -> 1 | `Fault -> 2 in
          tag (Iotlb.translate iotlb pt ~vpage) = tag (Iotlb.translate snap pt ~vpage)
          && String.equal (iotlb_encode_str snap) (iotlb_encode_str iotlb))
        probes
      &&
      (* and a content change separates them: filling a fresh page on
         one side only must change its encoding *)
      let before = iotlb_encode_str iotlb in
      Iotlb.fill iotlb ~vpage:999 (pte 999 Perms.read_write);
      not (String.equal before (iotlb_encode_str iotlb)))

(* 4. digest upkeep against the enumeration: after any script (fills,
   invalidations, flushes) on a cache and on a copy taken mid-script
   with a copy of the cell, each side's cell equals both the sum of its
   [iter_terms] and the lane sums of [Fp128.int_term] recomputed from
   the (slot, word) pairs of its paranoid key. Each pair must sit in
   the layout: slot k's vpage, frame and permission bits (the last with
   the valid bit) at 3k..3k+2, set s's victim cursor at 3 * slots + s,
   all in the IOTLB's slot domain (5) *)
let iotlb_digest_recomputed t ~slots =
  let module F = Uldma_util.Fp128 in
  let rec pairs a b = function
    | [] -> (a, b)
    | slot :: v :: rest ->
      let s = slot - F.domain 5 in
      if s < 0 || s >= 4 * slots then invalid_arg "iotlb_digest_recomputed: slot out of layout";
      if s < 3 * slots && s mod 3 = 2 && v land 8 = 0 then
        invalid_arg "iotlb_digest_recomputed: entry without its valid bit";
      pairs (a + F.int_term_a slot v) (b + F.int_term_b slot v) rest
    | [ _ ] -> invalid_arg "iotlb_digest_recomputed: odd key"
  in
  iotlb_encode_str t |> String.split_on_char ',' |> List.filter (( <> ) "")
  |> List.map int_of_string |> pairs 0 0

let iotlb_digest_matches_recomputed_prop =
  qtest "iotlb: maintained digest equals recomputed digest"
    QCheck2.Gen.(
      triple iotlb_script_with_flush_gen iotlb_script_with_flush_gen iotlb_script_with_flush_gen)
    (fun (before, parent_after, child_after) ->
      let dg = [| 0; 0 |] in
      let iotlb = Iotlb.create ~sets:4 ~ways:2 ~dg () in
      let pt = Page_table.create () in
      List.iter (iotlb_apply iotlb pt) before;
      let cdg = Array.copy dg in
      let child = Iotlb.copy iotlb ~dg:cdg and cpt = Page_table.copy pt in
      List.iter (iotlb_apply child cpt) child_after;
      List.iter (iotlb_apply iotlb pt) parent_after;
      let consistent dg t =
        (dg.(0), dg.(1)) = iotlb_digest_recomputed t ~slots:8
        && (dg.(0), dg.(1)) = Uldma_util.Fp128.sum_terms Iotlb.iter_terms t
      in
      consistent dg iotlb && consistent cdg child
      && (Iotlb.flush child;
          (cdg.(0), cdg.(1)) = (0, 0)))

(* ------------------------------------------------------------------ *)
(* Copy-on-write machine tables *)

(* A random fork tree of up to four live machines, each a TLB, an
   IOTLB and a PAL table. An op picks a machine and copies it (into a
   free slot, or over another machine once four are live), or writes
   one of its tables: fill, translate, invalidate or flush a TLB or the
   IOTLB, or install a PAL body. Each machine is mirrored by the list
   of writes that built it; the oracle's deep copy of a machine is a
   fresh one that replays that list, so it shares nothing. A fixed
   prelude makes sure every script has the risky cases: the parent
   writing after a fork, copies of copies, flushes of shared tables,
   and a fresh table flushed and refilled. Afterwards every machine must
   answer every TLB lookup like its oracle, hold the same IOTLB entries,
   encoding and digest cell (each machine has its own, copied at a
   fork, and it must equal one recomputed from the encoding), and the
   same PAL slots. *)
type cow_op =
  | Fork of int * int (* source, destination slot *)
  | Tlb_fill of int * int * int (* machine, vpage, frame *)
  | Tlb_translate of int * int
  | Tlb_invalidate of int * int
  | Tlb_flush of int
  | Io_fill of int * int * int
  | Io_translate of int * int
  | Io_invalidate of int * int
  | Io_flush of int
  | Pal_install of int * int * int (* machine, index, body tag *)

let cow_tables_match_deep_copy_oracle =
  let max_live = 4 and vpages = 16 and tlb_slots = 8 and io_sets = 4 and io_ways = 2 in
  let pal_slots = 6 in
  let pt = Page_table.create () in
  for vpage = 0 to 11 do
    Page_table.map pt ~vpage (pte (vpage + 300) Perms.read_write)
  done;
  let fresh () =
    let dg = [| 0; 0 |] in
    ( Tlb.create ~slots:tlb_slots (),
      Iotlb.create ~sets:io_sets ~ways:io_ways ~dg (),
      Uldma_cpu.Pal.create (),
      dg )
  in
  let body tag = Array.init (1 + (tag mod 4)) (fun i -> Uldma_cpu.Isa.Li (i, tag)) in
  let write (tlb, io, pal, _) = function
    | Fork _ -> ()
    | Tlb_fill (_, vpage, frame) -> Tlb.fill tlb ~vpage (pte frame Perms.read_write)
    | Tlb_translate (_, vpage) -> ignore (Tlb.translate tlb pt ~vpage)
    | Tlb_invalidate (_, vpage) -> Tlb.invalidate tlb ~vpage
    | Tlb_flush _ -> Tlb.flush tlb
    | Io_fill (_, vpage, frame) -> Iotlb.fill io ~vpage (pte frame Perms.read_only)
    | Io_translate (_, vpage) -> ignore (Iotlb.translate io pt ~vpage)
    | Io_invalidate (_, vpage) -> Iotlb.invalidate io ~vpage
    | Io_flush _ -> Iotlb.flush io
    | Pal_install (_, index, tag) ->
      ignore (Uldma_cpu.Pal.install pal ~index (body tag) : (unit, string) result)
  in
  let machine_of = function
    | Fork (k, _)
    | Tlb_fill (k, _, _)
    | Tlb_translate (k, _)
    | Tlb_invalidate (k, _)
    | Tlb_flush k
    | Io_fill (k, _, _)
    | Io_translate (k, _)
    | Io_invalidate (k, _)
    | Io_flush k
    | Pal_install (k, _, _) -> k
  in
  (* live.(k): the machine and its writes, newest first *)
  let apply live op =
    match (op, live.(machine_of op)) with
    | _, None -> ()
    | Fork (_, d), Some ((tlb, io, pal, dg), writes) ->
      let dg = Array.copy dg in
      live.(d) <- Some ((Tlb.copy tlb, Iotlb.copy io ~dg, Uldma_cpu.Pal.copy pal, dg), writes)
    | op, Some (m, writes) ->
      write m op;
      live.(machine_of op) <- Some (m, op :: writes)
  in
  let same_pte a b =
    match (a, b) with Some a, Some b -> Pte.equal a b | None, None -> true | _ -> false
  in
  let matches ((tlb, io, pal, dg), writes) =
    let ((otlb, oio, opal, odg) as oracle) = fresh () in
    List.iter (write oracle) (List.rev writes);
    List.for_all
      (fun vpage -> same_pte (Tlb.lookup tlb ~vpage) (Tlb.lookup otlb ~vpage))
      (List.init vpages Fun.id)
    && List.length (Iotlb.entries io) = List.length (Iotlb.entries oio)
    && List.for_all2
         (fun (v, p) (ov, op) -> v = ov && Pte.equal p op)
         (Iotlb.entries io) (Iotlb.entries oio)
    && String.equal (iotlb_encode_str io) (iotlb_encode_str oio)
    && dg = odg
    && (dg.(0), dg.(1)) = iotlb_digest_recomputed io ~slots:(io_sets * io_ways)
    && Uldma_cpu.Pal.installed pal = Uldma_cpu.Pal.installed opal
    && List.for_all
         (fun i -> Uldma_cpu.Pal.get pal i = Uldma_cpu.Pal.get opal i)
         (List.init pal_slots Fun.id)
  in
  let prelude =
    [
      Tlb_fill (0, 1, 5); Io_fill (0, 1, 5); Pal_install (0, 1, 2);
      (* the parent writes after a fork *)
      Fork (0, 1); Tlb_fill (0, 1, 6); Tlb_fill (0, 9, 7); Io_fill (0, 2, 7); Io_invalidate (0, 1);
      Pal_install (0, 3, 1);
      (* a copy of a copy, then the middle generation writes *)
      Fork (1, 2); Tlb_invalidate (1, 1); Io_translate (1, 5); Pal_install (1, 1, 3);
      (* flushes of shared tables, then writes on both sides *)
      Fork (2, 3); Tlb_flush 2; Io_flush 2; Tlb_fill (2, 4, 4); Io_fill (3, 6, 6);
      Tlb_translate (3, 3);
      (* a fresh table flushed, forked and refilled *)
      Tlb_flush 3; Io_flush 3; Fork (3, 0); Tlb_fill (3, 2, 8); Io_fill (0, 3, 9);
    ]
  in
  let op_of (kind, k, a, b) =
    let vpage = a mod vpages and frame = b mod 64 in
    match kind with
    | 0 -> Fork (k, (k + 1 + (a mod (max_live - 1))) mod max_live)
    | 1 -> Tlb_fill (k, vpage, frame)
    | 2 -> Tlb_translate (k, vpage)
    | 3 -> Tlb_invalidate (k, vpage)
    | 4 -> Tlb_flush k
    | 5 -> Io_fill (k, vpage, frame)
    | 6 -> Io_translate (k, vpage)
    | 7 -> Io_invalidate (k, vpage)
    | 8 -> Io_flush k
    | _ -> Pal_install (k, a mod pal_slots, b)
  in
  let print_op = function
    | Fork (k, d) -> Printf.sprintf "Fork (%d, %d)" k d
    | Tlb_fill (k, v, f) -> Printf.sprintf "Tlb_fill (%d, %d, %d)" k v f
    | Tlb_translate (k, v) -> Printf.sprintf "Tlb_translate (%d, %d)" k v
    | Tlb_invalidate (k, v) -> Printf.sprintf "Tlb_invalidate (%d, %d)" k v
    | Tlb_flush k -> Printf.sprintf "Tlb_flush %d" k
    | Io_fill (k, v, f) -> Printf.sprintf "Io_fill (%d, %d, %d)" k v f
    | Io_translate (k, v) -> Printf.sprintf "Io_translate (%d, %d)" k v
    | Io_invalidate (k, v) -> Printf.sprintf "Io_invalidate (%d, %d)" k v
    | Io_flush k -> Printf.sprintf "Io_flush %d" k
    | Pal_install (k, i, t) -> Printf.sprintf "Pal_install (%d, %d, %d)" k i t
  in
  let gen_op =
    QCheck2.Gen.(
      map op_of
        (quad
           (frequency [ (2, return 0); (6, int_range 1 8); (1, return 9) ])
           (int_range 0 (max_live - 1))
           (int_range 0 max_int) (int_range 0 max_int)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"tlb/iotlb/pal: fork tree matches deep-copy oracle" ~count:200
       ~print:QCheck2.Print.(list print_op)
       QCheck2.Gen.(list_size (int_range 0 80) gen_op)
       (fun ops ->
         let live = Array.make max_live None in
         live.(0) <- Some (fresh (), []);
         List.iter (apply live) prelude;
         List.iter (apply live) ops;
         Array.for_all (function None -> true | Some m -> matches m) live))

let test_iotlb_untagged_flush_and_walk_cost () =
  (* flush resets contents *and* victim cursors: a post-flush refill
     re-derives everything from the table, and statistics record the
     charged walks *)
  let iotlb = Iotlb.create ~dg:[| 0; 0 |] () in
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:7 (pte 3 Perms.read_write);
  (match Iotlb.translate iotlb pt ~vpage:7 with
  | `Miss _ -> ()
  | `Hit _ | `Fault -> Alcotest.fail "cold lookup must walk");
  (match Iotlb.translate iotlb pt ~vpage:7 with
  | `Hit _ -> ()
  | `Miss _ | `Fault -> Alcotest.fail "second lookup must hit");
  Iotlb.flush iotlb;
  (match Iotlb.translate iotlb pt ~vpage:7 with
  | `Miss _ -> ()
  | `Hit _ | `Fault -> Alcotest.fail "flush must force a re-walk");
  let s = Iotlb.stats iotlb in
  checki "hits" 1 s.Iotlb.hits;
  checki "misses (charged walks)" 2 s.Iotlb.misses

(* ------------------------------------------------------------------ *)
(* Addr_space *)

let space_with_page ~vpage ~frame ~perms =
  let s = Addr_space.create () in
  Addr_space.map_page s ~vpage (pte frame perms);
  s

let test_space_translate () =
  let s = space_with_page ~vpage:2 ~frame:9 ~perms:Perms.read_write in
  let va = (2 * Layout.page_size) + 24 in
  match Addr_space.translate s Addr_space.Read va with
  | Ok tr ->
    checki "paddr" ((9 * Layout.page_size) + 24) tr.Addr_space.paddr;
    checkb "cacheable" true tr.Addr_space.cacheable
  | Error _ -> Alcotest.fail "translation failed"

let test_space_protection () =
  let s = space_with_page ~vpage:2 ~frame:9 ~perms:Perms.read_only in
  let va = 2 * Layout.page_size in
  (match Addr_space.translate s Addr_space.Write va with
  | Error (Addr_space.Protection (bad_va, Addr_space.Write)) -> checki "faulting va" va bad_va
  | Error _ | Ok _ -> Alcotest.fail "expected write protection fault");
  match Addr_space.translate s Addr_space.Read va with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "read should pass"

let test_space_no_mapping () =
  let s = Addr_space.create () in
  match Addr_space.translate s Addr_space.Read 0x5000 with
  | Error (Addr_space.No_mapping va) -> checki "va" 0x5000 va
  | Error _ | Ok _ -> Alcotest.fail "expected no-mapping fault"

let test_space_translate_exn () =
  let s = Addr_space.create () in
  checkb "raises Page_fault" true
    (try
       ignore (Addr_space.translate_exn s Addr_space.Read 0 : Addr_space.translation);
       false
     with Addr_space.Page_fault (Addr_space.No_mapping 0) -> true)

let test_space_peek () =
  let s = space_with_page ~vpage:1 ~frame:4 ~perms:Perms.none in
  (* peek ignores permissions *)
  Alcotest.(check (option int))
    "peek"
    (Some ((4 * Layout.page_size) + 8))
    (Addr_space.peek_paddr s (Layout.page_size + 8));
  Alcotest.(check (option int)) "peek unmapped" None (Addr_space.peek_paddr s 0)

let test_space_uncacheable_page () =
  let s = Addr_space.create () in
  Addr_space.map_page s ~vpage:3 (Pte.make ~cacheable:false ~frame:1 ~perms:Perms.read_write ());
  match Addr_space.translate s Addr_space.Read (3 * Layout.page_size) with
  | Ok tr -> checkb "uncacheable" false tr.Addr_space.cacheable
  | Error _ -> Alcotest.fail "translation failed"

let test_space_check_range () =
  let s = space_with_page ~vpage:0 ~frame:1 ~perms:Perms.read_write in
  checkb "in-page range" true
    (Addr_space.check_range s ~vaddr:0 ~len:Layout.page_size ~perms:Perms.read_write);
  checkb "spills to unmapped page" false
    (Addr_space.check_range s ~vaddr:0 ~len:(Layout.page_size + 1) ~perms:Perms.read_write)

let test_space_copy_independent () =
  let s = space_with_page ~vpage:0 ~frame:1 ~perms:Perms.read_write in
  let s2 = Addr_space.copy s in
  Addr_space.unmap_page s2 ~vpage:0;
  checkb "original still mapped" true (Addr_space.find_page s ~vpage:0 <> None);
  checkb "copy unmapped" true (Addr_space.find_page s2 ~vpage:0 = None)

let test_space_map_invalidates_tlb () =
  let s = space_with_page ~vpage:0 ~frame:1 ~perms:Perms.read_write in
  ignore (Addr_space.translate s Addr_space.Read 0);
  (* remap page 0 to a different frame; translation must see it *)
  Addr_space.map_page s ~vpage:0 (pte 2 Perms.read_write);
  match Addr_space.translate s Addr_space.Read 0 with
  | Ok tr -> checki "new frame" (2 * Layout.page_size) tr.Addr_space.paddr
  | Error _ -> Alcotest.fail "translation failed"

let space_translate_offset_prop =
  qtest "addr_space: translation preserves page offset"
    QCheck2.Gen.(pair (int_range 0 100) (int_range 0 (Layout.page_size - 1)))
    (fun (vpage, off) ->
      let s = space_with_page ~vpage ~frame:(vpage + 7) ~perms:Perms.read_write in
      match Addr_space.translate s Addr_space.Read ((vpage * Layout.page_size) + off) with
      | Ok tr -> Layout.page_offset tr.Addr_space.paddr = off
      | Error _ -> false)

(* model-based fuzz: a random map/unmap/translate script against a
   pure association-list reference *)
let addr_space_model_fuzz =
  qtest "addr_space: agrees with a reference model" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (triple (int_range 0 2) (int_range 0 15) (int_range 0 3)))
    (fun script ->
      let space = Addr_space.create () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (op, vpage, perm_code) ->
          let perms =
            match perm_code with
            | 0 -> Perms.none
            | 1 -> Perms.read_only
            | 2 -> Perms.write_only
            | _ -> Perms.read_write
          in
          match op with
          | 0 ->
            let entry = pte (vpage + 100) perms in
            Addr_space.map_page space ~vpage entry;
            Hashtbl.replace model vpage entry;
            true
          | 1 ->
            Addr_space.unmap_page space ~vpage;
            Hashtbl.remove model vpage;
            true
          | _ -> (
            let va = (vpage * Layout.page_size) + 8 in
            let got = Addr_space.translate space Addr_space.Read va in
            match (got, Hashtbl.find_opt model vpage) with
            | Ok tr, Some entry ->
              Perms.allows_read entry.Pte.perms
              && tr.Addr_space.paddr = (entry.Pte.frame * Layout.page_size) + 8
            | Error (Addr_space.Protection _), Some entry ->
              not (Perms.allows_read entry.Pte.perms)
            | Error (Addr_space.No_mapping _), None -> true
            | Ok _, None | Error (Addr_space.No_mapping _), Some _
            | Error (Addr_space.Protection _), None ->
              false))
        script)

let () =
  Alcotest.run "mmu"
    [
      ( "shadow",
        [
          Alcotest.test_case "roundtrip" `Quick test_shadow_roundtrip;
          Alcotest.test_case "context field" `Quick test_shadow_context;
          Alcotest.test_case "atomic window" `Quick test_shadow_atomic_window;
          Alcotest.test_case "rejects bad input" `Quick test_shadow_rejects;
          Alcotest.test_case "plain addresses" `Quick test_shadow_decode_plain;
          Alcotest.test_case "frame encoding" `Quick test_shadow_frame;
          shadow_roundtrip_prop;
          shadow_atomic_roundtrip_prop;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "map/find" `Quick test_pt_map_find;
          Alcotest.test_case "remap replaces" `Quick test_pt_remap;
          Alcotest.test_case "unmap" `Quick test_pt_unmap;
          Alcotest.test_case "mapped_range" `Quick test_pt_mapped_range;
          Alcotest.test_case "copy independent" `Quick test_pt_copy_independent;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "miss then hit" `Quick test_tlb_miss_then_hit;
          Alcotest.test_case "unmapped" `Quick test_tlb_unmapped;
          Alcotest.test_case "flush" `Quick test_tlb_flush;
          Alcotest.test_case "invalidate" `Quick test_tlb_invalidate;
          Alcotest.test_case "conflict eviction" `Quick test_tlb_conflict_eviction;
          Alcotest.test_case "power-of-two slots" `Quick test_tlb_power_of_two;
        ] );
      ( "iotlb",
        [
          Alcotest.test_case "untagged flush + walk charge" `Quick
            test_iotlb_untagged_flush_and_walk_cost;
          iotlb_agrees_with_walk_prop;
          iotlb_determinism_prop;
          iotlb_encode_iff_contents_prop;
          iotlb_digest_matches_recomputed_prop;
        ] );
      ("cow", [ cow_tables_match_deep_copy_oracle ]);
      ( "addr_space",
        [
          Alcotest.test_case "translate" `Quick test_space_translate;
          Alcotest.test_case "protection fault" `Quick test_space_protection;
          Alcotest.test_case "no mapping" `Quick test_space_no_mapping;
          Alcotest.test_case "translate_exn" `Quick test_space_translate_exn;
          Alcotest.test_case "peek ignores perms" `Quick test_space_peek;
          Alcotest.test_case "uncacheable page" `Quick test_space_uncacheable_page;
          Alcotest.test_case "check_range" `Quick test_space_check_range;
          Alcotest.test_case "copy independent" `Quick test_space_copy_independent;
          Alcotest.test_case "remap invalidates TLB" `Quick test_space_map_invalidates_tlb;
          space_translate_offset_prop;
          addr_space_model_fuzz;
        ] );
    ]
