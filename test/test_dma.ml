(* Tests for the dma library: the sequence matcher, register contexts,
   atomic ops, transfers, and the engine's per-mechanism decoders. *)

open Uldma_util
open Uldma_mem
open Uldma_mmu
open Uldma_bus
open Uldma_dma
module Trace = Uldma_obs.Trace

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* A machine's two-lane digest cell, and its lanes as a pair. *)
let cell () = [| 0; 0 |]
let lanes dg = (dg.(0), dg.(1))

(* ------------------------------------------------------------------ *)
(* Seq_matcher *)

let feed m op paddr value = Seq_matcher.feed m op ~paddr ~value

let matcher ?(dg = cell ()) variant = Seq_matcher.create ~dg variant

let fired = function Seq_matcher.Fired _ -> true | Seq_matcher.Accepted | Seq_matcher.Rejected -> false

let test_matcher_five_happy () =
  let m = matcher Seq_matcher.Five in
  let d = 0x1000 and s = 0x2000 and size = 64 in
  checkb "s1" true (feed m Txn.Store d size = Seq_matcher.Accepted);
  checkb "l2" true (feed m Txn.Load s 0 = Seq_matcher.Accepted);
  checkb "s3" true (feed m Txn.Store d size = Seq_matcher.Accepted);
  checkb "l4" true (feed m Txn.Load s 0 = Seq_matcher.Accepted);
  match feed m Txn.Load d 0 with
  | Seq_matcher.Fired f ->
    checki "src" s f.Seq_matcher.src;
    checki "dst" d f.Seq_matcher.dst;
    checki "size" size f.Seq_matcher.size;
    checki "reset after fire" 0 (Seq_matcher.position m)
  | Seq_matcher.Accepted | Seq_matcher.Rejected -> Alcotest.fail "expected fire"

let test_matcher_three_happy () =
  let m = matcher Seq_matcher.Three in
  let d = 0x1000 and s = 0x2000 in
  ignore (feed m Txn.Load s 0);
  ignore (feed m Txn.Store d 32);
  checkb "fires" true (fired (feed m Txn.Load s 0))

let test_matcher_four_happy () =
  let m = matcher Seq_matcher.Four in
  let d = 0x1000 and s = 0x2000 in
  ignore (feed m Txn.Store d 32);
  ignore (feed m Txn.Load s 0);
  ignore (feed m Txn.Store d 32);
  checkb "fires" true (fired (feed m Txn.Load s 0))

let test_matcher_lengths () =
  checki "three" 3 (Seq_matcher.sequence_length Seq_matcher.Three);
  checki "four" 4 (Seq_matcher.sequence_length Seq_matcher.Four);
  checki "five" 5 (Seq_matcher.sequence_length Seq_matcher.Five)

let test_matcher_wrong_address_resets () =
  let m = matcher Seq_matcher.Five in
  ignore (feed m Txn.Store 0x1000 64);
  ignore (feed m Txn.Load 0x2000 0);
  (* third access to a different destination: reset *)
  checkb "rejected" true (feed m Txn.Store 0x3000 64 = Seq_matcher.Rejected);
  (* but the offender seeds a new sequence *)
  checki "position 1" 1 (Seq_matcher.position m)

let test_matcher_size_mismatch_resets () =
  let m = matcher Seq_matcher.Five in
  ignore (feed m Txn.Store 0x1000 64);
  ignore (feed m Txn.Load 0x2000 0);
  checkb "size changed" true (feed m Txn.Store 0x1000 65 = Seq_matcher.Rejected)

(* a negative size is still the sequence's size: a later store with
   another size breaks the sequence instead of rebinding it *)
let test_matcher_negative_size_binds () =
  let m = matcher Seq_matcher.Four in
  ignore (feed m Txn.Store 0x1000 (-1));
  ignore (feed m Txn.Load 0x2000 0);
  checkb "other size rejected" true (feed m Txn.Store 0x1000 64 = Seq_matcher.Rejected)

let test_matcher_wrong_op_resets () =
  let m = matcher Seq_matcher.Five in
  ignore (feed m Txn.Store 0x1000 64);
  (* second access must be a load *)
  checkb "store rejected" true (feed m Txn.Store 0x2000 64 = Seq_matcher.Rejected);
  (* the offending store seeds a fresh sequence (dest=0x2000) *)
  ignore (feed m Txn.Load 0x4000 0);
  ignore (feed m Txn.Store 0x2000 64);
  ignore (feed m Txn.Load 0x4000 0);
  checkb "new sequence completes" true (fired (feed m Txn.Load 0x2000 0))

let test_matcher_load_cannot_seed_five () =
  let m = matcher Seq_matcher.Five in
  checkb "lone load rejected" true (feed m Txn.Load 0x1000 0 = Seq_matcher.Rejected);
  checki "no seed" 0 (Seq_matcher.position m)

let test_matcher_fig5_stream () =
  (* the Fig. 5 interleaving at transaction level (Three variant) *)
  let m = matcher Seq_matcher.Three in
  let a = 0x1000 and b = 0x2000 and c = 0x3000 and foo = 0x4000 in
  ignore (feed m Txn.Load a 0) (* V: 1 *);
  ignore (feed m Txn.Store foo 8 (* M *));
  ignore (feed m Txn.Load foo 0 (* M: no DMA started *));
  ignore (feed m Txn.Load c 0 (* M: seeds new sequence *));
  ignore (feed m Txn.Store b 64 (* V: 5 *));
  match feed m Txn.Load c 0 with
  | Seq_matcher.Fired f ->
    checki "malicious source" c f.Seq_matcher.src;
    checki "victim destination" b f.Seq_matcher.dst
  | Seq_matcher.Accepted | Seq_matcher.Rejected -> Alcotest.fail "Fig. 5 attack should fire"

let test_matcher_fig6_stream () =
  let m = matcher Seq_matcher.Four in
  let a = 0x1000 and b = 0x2000 in
  ignore (feed m Txn.Store b 64 (* V *));
  ignore (feed m Txn.Load a 0 (* V *));
  ignore (feed m Txn.Store b 64 (* V *));
  checkb "attacker's load completes it" true (fired (feed m Txn.Load a 0 (* M *)));
  (* the victim's own final load is now rejected *)
  checkb "victim told failure" true (feed m Txn.Load a 0 = Seq_matcher.Rejected)

let test_matcher_copy_independent () =
  let dg = cell () in
  let m = matcher ~dg Seq_matcher.Five in
  ignore (feed m Txn.Store 0x1000 64);
  let m2 = Seq_matcher.copy m ~dg:(Array.copy dg) in
  Seq_matcher.reset m2;
  checki "original keeps position" 1 (Seq_matcher.position m);
  checki "copy reset" 0 (Seq_matcher.position m2)

(* after arbitrary noise on disjoint addresses, a clean five-access
   sequence always fires on its final load *)
let matcher_clean_sequence_fires =
  qtest "seq_matcher: clean sequence fires after disjoint noise"
    QCheck2.Gen.(list_size (int_range 0 12) (pair bool (int_range 0 7)))
    (fun noise ->
      let m = matcher Seq_matcher.Five in
      List.iter
        (fun (is_store, slot) ->
          let paddr = 0x10_0000 + (slot * 8) in
          ignore (feed m (if is_store then Txn.Store else Txn.Load) paddr 99))
        noise;
      let d = 0x1000 and s = 0x2000 in
      ignore (feed m Txn.Store d 64);
      ignore (feed m Txn.Load s 0);
      ignore (feed m Txn.Store d 64);
      ignore (feed m Txn.Load s 0);
      match feed m Txn.Load d 0 with
      | Seq_matcher.Fired f -> f.Seq_matcher.src = s && f.Seq_matcher.dst = d && f.Seq_matcher.size = 64
      | Seq_matcher.Accepted | Seq_matcher.Rejected -> false)

(* a fire implies the last five accesses were exactly the pattern *)
let matcher_fire_implies_pattern =
  qtest "seq_matcher: Fired implies a well-formed suffix" ~count:500
    QCheck2.Gen.(list_size (int_range 5 40) (triple bool (int_range 0 3) (int_range 1 4)))
    (fun stream ->
      let m = matcher Seq_matcher.Five in
      let history = ref [] in
      List.for_all
        (fun (is_store, slot, size) ->
          let op = if is_store then Txn.Store else Txn.Load in
          let paddr = 0x1000 + (slot * 8) in
          history := (op, paddr, size) :: !history;
          match feed m op paddr size with
          | Seq_matcher.Fired f -> (
            match !history with
            | (Txn.Load, a5, _) :: (Txn.Load, a4, _) :: (Txn.Store, a3, v3)
              :: (Txn.Load, a2, _) :: (Txn.Store, a1, v1) :: _ ->
              a1 = a3 && a3 = a5 && a2 = a4 && v1 = v3 && f.Seq_matcher.dst = a1
              && f.Seq_matcher.src = a2 && f.Seq_matcher.size = v1
            | _ -> false)
          | Seq_matcher.Accepted | Seq_matcher.Rejected -> true)
        stream)

(* Digest upkeep against the sum of the enumerated terms: random access
   streams on each variant, then a copy taken and both sides fed. *)
let matcher_digest_matches_recomputed =
  let gen_access =
    QCheck2.Gen.(
      triple bool (oneofl [ 0x1000; 0x2000; 0x3000 ]) (oneofl [ 0; 32; 64; max_int ]))
  in
  let gen_stream = QCheck2.Gen.(list_size (int_range 0 12) gen_access) in
  let apply m (store, paddr, value) =
    ignore (feed m (if store then Txn.Store else Txn.Load) paddr value : Seq_matcher.reply)
  in
  qtest "seq_matcher: maintained digest equals recomputed digest"
    QCheck2.Gen.(
      pair
        (oneofl Seq_matcher.[ Three; Four; Five ])
        (triple gen_stream gen_stream gen_stream))
    (fun (variant, (before, parent_after, child_after)) ->
      let dg = cell () in
      let m = matcher ~dg variant in
      List.iter (apply m) before;
      let cdg = Array.copy dg in
      let c = Seq_matcher.copy m ~dg:cdg in
      List.iter (apply c) child_after;
      List.iter (apply m) parent_after;
      lanes dg = Fp128.sum_terms Seq_matcher.iter_terms m
      && lanes cdg = Fp128.sum_terms Seq_matcher.iter_terms c)

(* ------------------------------------------------------------------ *)
(* Context_file *)

let test_ctx_create_bounds () =
  checkb "zero rejected" true
    (try
       ignore (Context_file.create ~n:0 ~dg:(cell ()) : Context_file.t);
       false
     with Invalid_argument _ -> true);
  checkb "nine rejected" true
    (try
       ignore (Context_file.create ~n:9 ~dg:(cell ()) : Context_file.t);
       false
     with Invalid_argument _ -> true);
  checki "length" 4 (Context_file.length (Context_file.create ~n:4 ~dg:(cell ())))

let test_ctx_slots_alternate () =
  let t = Context_file.create ~n:2 ~dg:(cell ()) in
  let c = Context_file.get t 0 in
  Context_file.push_address c 0x100;
  Context_file.push_address c 0x200;
  Alcotest.(check (option int)) "dest first" (Some 0x100) c.Context_file.dest;
  Alcotest.(check (option int)) "src second" (Some 0x200) c.Context_file.src;
  checkb "not ready without size" true (Context_file.args_ready c = None);
  Context_file.set_size c (Some 64);
  Alcotest.(check (option (triple int int int)))
    "ready" (Some (0x200, 0x100, 64)) (Context_file.args_ready c)

let test_ctx_third_push_wraps () =
  let t = Context_file.create ~n:1 ~dg:(cell ()) in
  let c = Context_file.get t 0 in
  List.iter (Context_file.push_address c) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "dest overwritten" (Some 3) c.Context_file.dest

let test_ctx_clear_and_reset () =
  let t = Context_file.create ~n:1 ~dg:(cell ()) in
  let c = Context_file.get t 0 in
  Context_file.set_key t ~context:0 ~key:42;
  Context_file.push_address c 0x100;
  Context_file.set_size c (Some 8);
  Context_file.set_status c (-1);
  Context_file.clear_args c;
  checkb "args cleared" true (c.Context_file.dest = None && c.Context_file.size = None);
  checki "key preserved" 42 c.Context_file.key;
  checki "status preserved by clear" (-1) c.Context_file.status;
  Context_file.reset c;
  checki "status reset" 0 c.Context_file.status

let test_ctx_get_bounds () =
  let t = Context_file.create ~n:2 ~dg:(cell ()) in
  checkb "mem in range" true (Context_file.mem t 1);
  checkb "mem out of range" false (Context_file.mem t 2);
  checkb "get raises" true
    (try
       ignore (Context_file.get t 5 : Context_file.context);
       false
     with Invalid_argument _ -> true)

let test_ctx_copy_independent () =
  let dg = cell () in
  let t = Context_file.create ~n:2 ~dg in
  Context_file.set_key t ~context:0 ~key:7;
  let t2 = Context_file.copy t ~dg:(Array.copy dg) in
  Context_file.set_key t2 ~context:0 ~key:9;
  checki "original key" 7 (Context_file.get t 0).Context_file.key

(* ------------------------------------------------------------------ *)
(* Atomic_op *)

let test_atomic_encode_decode () =
  let p = Atomic_op.accumulate Atomic_op.P_none (Atomic_op.encode_add 5) in
  checkb "add ready" true (p = Atomic_op.P_ready (Atomic_op.Add 5));
  let p = Atomic_op.accumulate Atomic_op.P_none (Atomic_op.encode_fetch_store 9) in
  checkb "fetch_store ready" true (p = Atomic_op.P_ready (Atomic_op.Fetch_store 9))

let test_atomic_cas_two_halves () =
  let p = Atomic_op.accumulate Atomic_op.P_none (Atomic_op.encode_cas_expected 3) in
  checkb "half" true (p = Atomic_op.P_cas_expected 3);
  let p = Atomic_op.accumulate p (Atomic_op.encode_cas_new 8) in
  checkb "complete" true (p = Atomic_op.P_ready (Atomic_op.Cas { expected = 3; new_value = 8 }))

let test_atomic_cas_out_of_order () =
  let p = Atomic_op.accumulate Atomic_op.P_none (Atomic_op.encode_cas_new 8) in
  checkb "new without expected resets" true (p = Atomic_op.P_none)

let test_atomic_bad_opcode () =
  checkb "opcode 9 resets" true (Atomic_op.accumulate Atomic_op.P_none ((5 lsl 4) lor 9) = Atomic_op.P_none)

let test_atomic_negative_operand () =
  let p = Atomic_op.accumulate Atomic_op.P_none (Atomic_op.encode_add (-4)) in
  checkb "negative add" true (p = Atomic_op.P_ready (Atomic_op.Add (-4)))

let execute_on value op =
  let cell = ref value in
  let old = Atomic_op.execute op ~read:(fun _ -> !cell) ~write:(fun _ v -> cell := v) ~target:0 in
  (old, !cell)

let test_atomic_execute () =
  Alcotest.(check (pair int int)) "add" (10, 13) (execute_on 10 (Atomic_op.Add 3));
  Alcotest.(check (pair int int)) "fetch_store" (10, 99) (execute_on 10 (Atomic_op.Fetch_store 99));
  Alcotest.(check (pair int int)) "cas hit" (10, 11)
    (execute_on 10 (Atomic_op.Cas { expected = 10; new_value = 11 }));
  Alcotest.(check (pair int int)) "cas miss" (10, 10)
    (execute_on 10 (Atomic_op.Cas { expected = 9; new_value = 11 }))

(* ------------------------------------------------------------------ *)
(* Transfer *)

let test_transfer_remaining () =
  let tr =
    { Transfer.src = 0; dst = 0; size = 1000; context = None; pid = 1; started_at = 100; duration = 1000 }
  in
  checki "at start" 1000 (Transfer.remaining tr ~now:100);
  checki "half way" 500 (Transfer.remaining tr ~now:600);
  checki "done" 0 (Transfer.remaining tr ~now:1100);
  checki "past" 0 (Transfer.remaining tr ~now:9999);
  checki "end_time" 1100 (Transfer.end_time tr)

let test_transfer_null_backend () =
  let tr =
    { Transfer.src = 0; dst = 0; size = 64; context = None; pid = 1; started_at = 0;
      duration = Transfer.null_backend.Transfer.duration_ps 64 }
  in
  checki "instant" 0 (Transfer.remaining tr ~now:0)

let test_transfer_local_backend () =
  let ram = Phys_mem.create ~size:Layout.page_size in
  let b = Transfer.local_backend ram ~setup_ps:100 ~bytes_per_s:1e9 in
  Phys_mem.fill ram ~addr:0 ~len:16 ~byte:7;
  b.Transfer.copy ~src:0 ~dst:128 ~len:16;
  checki "copied" 7 (Phys_mem.load_byte ram 128);
  b.Transfer.write_word 256 77;
  checki "word io" 77 (b.Transfer.read_word 256);
  checkb "duration includes setup" true (b.Transfer.duration_ps 0 >= 100)

(* ------------------------------------------------------------------ *)
(* Engine *)

let ram_pages = 16

let make_engine ?(mechanism = Engine.Key_based) ?(local = false) ?n_contexts ?(dg = cell ()) () =
  let clock = Clock.create () in
  let ram = Phys_mem.create ~size:(ram_pages * Layout.page_size) in
  let backend =
    if local then Transfer.local_backend ram ~setup_ps:1000 ~bytes_per_s:1e9
    else Transfer.null_backend
  in
  let engine =
    Engine.create ~clock ~backend ~ram_size:(Phys_mem.size ram) ~mechanism ?n_contexts ~dg ()
  in
  (engine, clock, ram)

let dstore ?(pid = 1) engine paddr value =
  ignore (Engine.device.Bus.handle engine Txn.Store ~paddr ~value ~pid : int)

let dload ?(pid = 1) engine paddr = Engine.device.Bus.handle engine Txn.Load ~paddr ~value:0 ~pid

let control offset = Layout.kernel_control_page + offset

(* an engine with a fresh trace sink attached: the sink is the engine's
   only record of its rejections and transfer starts *)
let traced_engine ?mechanism ?n_contexts () =
  let engine, _, _ = make_engine ?mechanism ?n_contexts () in
  let sink = Trace.create () in
  Engine.set_sink engine ~machine:0 sink;
  (engine, sink)

let reject_names sink =
  List.filter_map
    (fun (r : Trace.record) ->
      match r.Trace.kind with Trace.Engine_reject { reason } -> Some reason | _ -> None)
    (Trace.events sink)

let rejected sink reason = List.mem (Engine.reject_name reason) (reject_names sink)

let started engine = List.length (Engine.transfers engine)

let mechanisms =
  Engine.
    [
      Shrimp_mapped; Shrimp_two_step; Flash; Key_based; Ext_shadow; Ext_shadow_stateless;
      Rep_args Seq_matcher.Three; Rep_args Seq_matcher.Four; Rep_args Seq_matcher.Five; Iommu;
      Capio;
    ]

(* One access to the engine: store or load, physical address, value.
   The accesses cover every window on every mechanism: the kernel
   control page, the register context pages (one past the four
   contexts), and the shadow window with and without its atomic tag.
   The values mix small sizes, KEY#CONTEXT_ID words (context 4 names
   no context), atomic-op words, page-straddling addresses and
   arbitrary ints. *)
let gen_ctx = QCheck2.Gen.int_range 0 Shadow.max_context
let gen_paddr = QCheck2.Gen.(map (fun w -> w * 64) (int_range 0 40))

let gen_value =
  let open QCheck2.Gen in
  oneof
    [
      int_range 0 256;
      map2 (fun key context -> Regmap.key_word ~key ~context) (int_range 0 2) (int_range 0 4);
      map Atomic_op.encode_add (int_range (-3) 3);
      map Atomic_op.encode_cas_expected (int_range 0 3);
      map Atomic_op.encode_cas_new (int_range 0 3);
      map (fun p -> (p * Layout.page_size) - 64) (int_range 1 3);
      int_range min_int max_int;
    ]

let gen_txn =
  let open QCheck2.Gen in
  let addr =
    oneof
      [
        map control
          (oneofl
             Regmap.
               [
                 k_source; k_dest; k_size; k_status; k_current_pid; k_invalidate;
                 k_map_out_src; k_map_out_dst; k_atomic_target; k_atomic_op; k_cap_value;
                 k_cap_base; k_cap_len; k_cap_commit; k_cap_revoke; k_iotlb_invalidate;
               ]);
        map (fun c -> control (Regmap.key_offset ~context:c)) (int_range 0 3);
        map (fun c -> control (Regmap.mailbox_offset ~context:c)) (int_range 0 3);
        map2
          (fun c o -> Layout.context_page c + o)
          (int_range 0 4)
          (oneofl Regmap.[ c_size; c_atomic; c_arg_src; c_arg_dst ]);
        map2 (fun c p -> Shadow.encode_ctx ~context:c p) gen_ctx gen_paddr;
        map2 (fun c p -> Shadow.encode_atomic ~context:c p) gen_ctx gen_paddr;
      ]
  in
  triple bool addr gen_value

(* One process's initiation in some mechanism's shape, its arguments
   drawn from the same pools: the kernel's and the register context's
   argument registers written first and a size or a load that starts
   the DMA (readwriteDMA.c's shape), the key-based, extended-shadow,
   two-step and repeated-passing sequences, and the atomic forms. Its
   arguments may name anything, as dma-attack.c's control block does:
   addresses, values, or the capabilities of [prologue]. The FLASH
   kernel's context-switch hook (a new pid register) is a shape too. *)
let gen_burst =
  let open QCheck2.Gen in
  let arg = frequency [ (1, gen_paddr); (1, gen_value); (2, oneofl [ 17; 18; 33; 34 ]) ] in
  let* d = gen_paddr and* s = gen_paddr and* n = gen_value and* c = gen_ctx and* v = gen_value
  and* a = arg and* b = arg and* pid_reg = int_range 0 2 in
  let sh p = Shadow.encode_ctx ~context:c p and at p = Shadow.encode_atomic ~context:c p in
  let page o = Layout.context_page c + o in
  let st a v = (true, a, v) and ld a = (false, a, 0) in
  oneofl
    [
      [ st (control Regmap.k_source) s; st (control Regmap.k_dest) d; st (control Regmap.k_size) n ];
      [ st (page Regmap.c_arg_src) a; st (page Regmap.c_arg_dst) b; st (page Regmap.c_size) n;
        ld (page 0) ];
      [ st (sh d) v; st (sh s) v; st (page Regmap.c_size) n; ld (page 0) ];
      [ st (sh d) n; ld (sh s) ];
      [ ld (sh s); st (sh d) n; ld (sh s) ];
      [ st (sh d) n; ld (sh s); st (sh d) n; ld (sh s) ];
      [ st (sh d) n; ld (sh s); st (sh d) n; ld (sh s); ld (sh d) ];
      [ st (at d) v; ld (at d) ];
      [ st (at d) v; ld (at s) ];
      [ st (at d) v; st (page Regmap.c_atomic) n; ld (page Regmap.c_atomic) ];
      [ st (control Regmap.k_current_pid) pid_reg ];
    ]

(* Two processes' streams of single accesses and initiations, each
   process's accesses in its order, interleaved by a random merge *)
let gen_stream =
  let open QCheck2.Gen in
  let own = list_size (int_range 0 6) (oneof [ map (fun t -> [ t ]) gen_txn; gen_burst ]) in
  let* a = own and* b = own and* order = list_repeat 600 bool in
  let tag pid l = List.map (fun t -> (pid, t)) (List.concat l) in
  let rec merge a b order =
    match (a, b, order) with
    | [], rest, _ | rest, [], _ -> rest
    | x :: a', _, true :: order -> x :: merge a' b order
    | _, y :: b', _ :: order -> y :: merge a b' order
    | _, _, [] -> a @ b
  in
  return (merge (tag 1 a) (tag 2 b) order)

let apply ?pid e (store, paddr, value) =
  if store then dstore ?pid e paddr value else ignore (dload ?pid e paddr : int)

(* The set-up every stream starts from, through the kernel control
   page: keys 0, 1, 2, 0 for the four contexts; context 1's reply
   mailbox; page 0 mapped out to page 2; FLASH's pid register at 1;
   capabilities 17 (context 0, read, 128 B at 0x200), 18 (context 0,
   write, 256 B at 0x2000), 33 (context 1, read-write, 64 B at 0x4000)
   and 34 (context 0, read-write, a page at 0x6000, then revoked); and
   an IOMMU table bound to contexts 0 and 1 that maps virtual page 0 to
   frame 3 and pages 1 and 2 to frames 7 and 8, page 2 read-only, so a
   range across pages 0 and 1 is not contiguous. [gen_burst] names the
   four capabilities as arguments. *)
let prologue =
  let k offset value = (true, control offset, value) in
  let cap ~value ~base ~len ~meta =
    [ k Regmap.k_cap_value value; k Regmap.k_cap_base base; k Regmap.k_cap_len len;
      k Regmap.k_cap_commit meta ]
  in
  List.init 4 (fun c -> k (Regmap.key_offset ~context:c) (c mod 3))
  @ [
      k (Regmap.mailbox_offset ~context:1) 0x1f00; k Regmap.k_map_out_src 0;
      k Regmap.k_map_out_dst 0x4000; k Regmap.k_current_pid 1;
    ]
  @ cap ~value:17 ~base:0x200 ~len:128 ~meta:(0x100 lor (1 lsl 16))
  @ cap ~value:18 ~base:0x2000 ~len:256 ~meta:(0x200 lor (1 lsl 16))
  @ cap ~value:33 ~base:0x4000 ~len:64 ~meta:(1 lor 0x300 lor (2 lsl 16))
  @ cap ~value:34 ~base:0x6000 ~len:Layout.page_size ~meta:(0x300 lor (2 lsl 16))
  @ [ k Regmap.k_cap_revoke 34 ]

let prologue_tables () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:0 (Pte.make ~frame:3 ~perms:Perms.read_write ());
  Page_table.map pt ~vpage:1 (Pte.make ~frame:7 ~perms:Perms.read_write ());
  Page_table.map pt ~vpage:2 (Pte.make ~frame:8 ~perms:Perms.read_only ());
  [ (0, pt); (1, pt) ]

let set_up e tables =
  List.iter (fun (context, table) -> Engine.iommu_bind e ~context ~table) tables;
  List.iter (apply ~pid:0 e) prologue

let test_engine_claims () =
  let d = Engine.device in
  checkb "mmio" true (d.Bus.claims Layout.mmio_base);
  checkb "shadow" true (d.Bus.claims (Shadow.encode 0x100));
  checkb "ram" false (d.Bus.claims 0x100)

let test_engine_kernel_path () =
  let engine, _, _ = make_engine () in
  dstore engine (control Regmap.k_source) 0x100;
  dstore engine (control Regmap.k_dest) 0x2000;
  dstore engine (control Regmap.k_size) 64;
  checki "one transfer" 1 (started engine);
  (match Engine.transfers engine with
  | [ tr ] ->
    checki "src" 0x100 tr.Transfer.src;
    checki "dst" 0x2000 tr.Transfer.dst;
    checki "size" 64 tr.Transfer.size;
    checkb "no context" true (tr.Transfer.context = None)
  | _ -> Alcotest.fail "transfers");
  checki "status complete" 0 (dload engine (control Regmap.k_status))

let test_engine_kernel_bad_range () =
  let engine, _, _ = make_engine () in
  dstore engine (control Regmap.k_source) (ram_pages * Layout.page_size);
  dstore engine (control Regmap.k_dest) 0;
  dstore engine (control Regmap.k_size) 64;
  checki "nothing started" 0 (started engine);
  checki "status failure" Status.failure (dload engine (control Regmap.k_status));
  checki "rejected counter" 1 (Engine.counters engine).Engine.rejected

(* a size so large that address + size wraps past max_int names no
   range in RAM: the copy unit's range check must not overflow *)
let test_engine_kernel_huge_size () =
  let engine, sink = traced_engine () in
  dstore engine (control Regmap.k_source) 0x40;
  dstore engine (control Regmap.k_dest) 0x2000;
  dstore engine (control Regmap.k_size) (max_int - 0x20);
  checki "nothing started" 0 (started engine);
  checkb "bad-range reject" true (rejected sink Engine.Bad_range)

let test_engine_kernel_zero_size () =
  let engine, _, _ = make_engine () in
  dstore engine (control Regmap.k_source) 0;
  dstore engine (control Regmap.k_dest) 64;
  dstore engine (control Regmap.k_size) 0;
  checki "zero size rejected" 0 (started engine)

let test_engine_key_path () =
  let engine, _, _ = make_engine ~mechanism:Engine.Key_based () in
  Engine.set_context_owner engine ~context:1 ~pid:(Some 1);
  dstore engine (control (Regmap.key_offset ~context:1)) 0xbeef;
  (* dest then src through the shadow window *)
  dstore engine (Shadow.encode 0x3000) (Regmap.key_word ~key:0xbeef ~context:1);
  dstore engine (Shadow.encode 0x1000) (Regmap.key_word ~key:0xbeef ~context:1);
  (* size through the context page, then the initiating load *)
  dstore engine (Layout.context_page 1 + Regmap.c_size) 128;
  let status = dload engine (Layout.context_page 1) in
  checki "started" 1 (started engine);
  checki "status" 0 status;
  match Engine.transfers engine with
  | [ tr ] ->
    checki "src" 0x1000 tr.Transfer.src;
    checki "dst" 0x3000 tr.Transfer.dst;
    Alcotest.(check (option int)) "context" (Some 1) tr.Transfer.context
  | _ -> Alcotest.fail "transfers"

let test_engine_key_rejects_wrong_key () =
  let engine, _, _ = make_engine ~mechanism:Engine.Key_based () in
  dstore engine (control (Regmap.key_offset ~context:0)) 0xbeef;
  dstore engine (Shadow.encode 0x3000) (Regmap.key_word ~key:0xdead ~context:0);
  dstore engine (Shadow.encode 0x1000) (Regmap.key_word ~key:0xdead ~context:0);
  dstore engine (Layout.context_page 0) 128;
  checki "go load fails" Status.failure (dload engine (Layout.context_page 0));
  checki "nothing started" 0 (started engine);
  checki "key rejections" 2 (Engine.counters engine).Engine.key_rejected

let test_engine_key_rejects_bad_context () =
  let engine, sink = traced_engine ~mechanism:Engine.Key_based ~n_contexts:2 () in
  dstore engine (Shadow.encode 0x3000) (Regmap.key_word ~key:0 ~context:7);
  checki "nothing deposited" 0 (started engine);
  checkb "no-context event" true (rejected sink Engine.No_context)

let test_engine_key_shadow_load_unsupported () =
  let engine, _, _ = make_engine ~mechanism:Engine.Key_based () in
  checki "load from shadow fails" Status.failure (dload engine (Shadow.encode 0x1000))

let test_engine_key_interrupted_resumes () =
  (* deposits survive arbitrary interleaving because the context is
     private: deposit dest, let another process bang on its own
     context, then finish *)
  let engine, _, _ = make_engine ~mechanism:Engine.Key_based () in
  dstore engine (control (Regmap.key_offset ~context:0)) 111;
  dstore engine (control (Regmap.key_offset ~context:1)) 222;
  dstore engine (Shadow.encode 0x3000) (Regmap.key_word ~key:111 ~context:0);
  (* other process's full initiation on context 1 *)
  dstore engine ~pid:2 (Shadow.encode 0x5000) (Regmap.key_word ~key:222 ~context:1);
  dstore engine ~pid:2 (Shadow.encode 0x4000) (Regmap.key_word ~key:222 ~context:1);
  dstore engine ~pid:2 (Layout.context_page 1) 32;
  checki "ctx1 started" 0 (dload engine ~pid:2 (Layout.context_page 1));
  (* original process resumes *)
  dstore engine (Shadow.encode 0x1000) (Regmap.key_word ~key:111 ~context:0);
  dstore engine (Layout.context_page 0) 64;
  checki "ctx0 started" 0 (dload engine (Layout.context_page 0));
  checki "both transfers" 2 (started engine);
  match Engine.transfers engine with
  | [ t1; t2 ] ->
    checki "ctx1 src" 0x4000 t1.Transfer.src;
    checki "ctx0 src" 0x1000 t2.Transfer.src;
    checki "ctx0 dst intact" 0x3000 t2.Transfer.dst
  | _ -> Alcotest.fail "expected two transfers"

let test_engine_ext_shadow_path () =
  let engine, _, _ = make_engine ~mechanism:Engine.Ext_shadow () in
  dstore engine (Shadow.encode_ctx ~context:2 0x3000) 64;
  checki "fires on load" 0 (dload engine (Shadow.encode_ctx ~context:2 0x1000));
  (match Engine.transfers engine with
  | [ tr ] ->
    checki "src" 0x1000 tr.Transfer.src;
    checki "dst" 0x3000 tr.Transfer.dst;
    Alcotest.(check (option int)) "context" (Some 2) tr.Transfer.context
  | _ -> Alcotest.fail "transfers");
  (* args consumed: a second load fails *)
  checki "consumed" Status.failure (dload engine (Shadow.encode_ctx ~context:2 0x1000))

let test_engine_ext_shadow_context_isolation () =
  let engine, _, _ = make_engine ~mechanism:Engine.Ext_shadow () in
  dstore engine (Shadow.encode_ctx ~context:0 0x3000) 64;
  (* load on a different context: its own slot is empty *)
  checki "other context empty" Status.failure (dload engine (Shadow.encode_ctx ~context:1 0x1000));
  checki "nothing started" 0 (started engine);
  (* context 0 still holds its argument *)
  checki "context 0 fires" 0 (dload engine (Shadow.encode_ctx ~context:0 0x1000))

let test_engine_ext_shadow_bad_context () =
  let engine, _, _ = make_engine ~mechanism:Engine.Ext_shadow ~n_contexts:2 () in
  dstore engine (Shadow.encode_ctx ~context:3 0x3000) 64;
  checki "no context" Status.failure (dload engine (Shadow.encode_ctx ~context:3 0x1000));
  checki "nothing started" 0 (started engine)

let test_engine_ext_stateless_pair () =
  let engine, _, _ = make_engine ~mechanism:Engine.Ext_shadow_stateless () in
  dstore engine (Shadow.encode_ctx ~context:2 0x3000) 64;
  checki "matched pair fires" 0 (dload engine (Shadow.encode_ctx ~context:2 0x1000));
  checki "started" 1 (started engine)

let test_engine_ext_stateless_mismatch () =
  let engine, sink = traced_engine ~mechanism:Engine.Ext_shadow_stateless () in
  dstore engine ~pid:1 (Shadow.encode_ctx ~context:0 0x3000) 64;
  (* interloper's store replaces the pending pair half with ctx 1 *)
  dstore engine ~pid:2 (Shadow.encode_ctx ~context:1 0x5000) 64;
  checki "mismatched pair rejected" Status.failure
    (dload engine ~pid:1 (Shadow.encode_ctx ~context:0 0x1000));
  checki "nothing started" 0 (started engine);
  checkb "wrong-context event" true (rejected sink Engine.Wrong_context)

let test_engine_shared_slot_atomic_stateless () =
  (* the shared atomic slot also serves the contextless engine (used
     by PAL-wrapped atomics on that personality) *)
  let engine, _, ram = make_engine ~mechanism:Engine.Ext_shadow_stateless ~local:true () in
  Phys_mem.store_word ram 0x800 9;
  let a = Shadow.encode_atomic ~context:0 0x800 in
  dstore engine a (Atomic_op.encode_add 4);
  checki "old value" 9 (dload engine a);
  checki "applied" 13 (Phys_mem.load_word ram 0x800)

let test_engine_shared_slot_atomic_target_mismatch () =
  let engine, _, ram = make_engine ~mechanism:Engine.Shrimp_two_step ~local:true () in
  Phys_mem.store_word ram 0x800 9;
  dstore engine (Shadow.encode_atomic ~context:0 0x800) (Atomic_op.encode_add 4);
  checki "different target rejected" Status.failure
    (dload engine (Shadow.encode_atomic ~context:0 0x900));
  checki "untouched" 9 (Phys_mem.load_word ram 0x800);
  (* the slot was consumed by the failed load *)
  checki "slot cleared" Status.failure (dload engine (Shadow.encode_atomic ~context:0 0x800))

let test_engine_two_step () =
  let engine, _, _ = make_engine ~mechanism:Engine.Shrimp_two_step () in
  dstore engine (Shadow.encode 0x3000) 64;
  checki "fires" 0 (dload engine (Shadow.encode 0x1000));
  checki "started" 1 (started engine);
  checki "pending consumed" Status.failure (dload engine (Shadow.encode 0x1000))

let test_engine_two_step_invalidate () =
  let engine, _, _ = make_engine ~mechanism:Engine.Shrimp_two_step () in
  dstore engine (Shadow.encode 0x3000) 64;
  (* the SHRIMP context-switch hook *)
  dstore engine (control Regmap.k_invalidate) 0;
  checki "pending gone" Status.failure (dload engine (Shadow.encode 0x1000));
  checki "nothing started" 0 (started engine)

let test_engine_two_step_overwrite_race () =
  (* the unprotected race: a second store overwrites the pending dest *)
  let engine, _, _ = make_engine ~mechanism:Engine.Shrimp_two_step () in
  dstore engine ~pid:1 (Shadow.encode 0x3000) 64;
  dstore engine ~pid:2 (Shadow.encode 0x5000) 64;
  ignore (dload engine ~pid:1 (Shadow.encode 0x1000) : int);
  match Engine.transfers engine with
  | [ tr ] -> checki "wrong destination won" 0x5000 tr.Transfer.dst
  | _ -> Alcotest.fail "expected the mixed transfer"

let test_engine_flash_gates_on_pid () =
  let engine, _, _ = make_engine ~mechanism:Engine.Flash () in
  Engine.set_current_pid engine 1;
  dstore engine ~pid:1 (Shadow.encode 0x3000) 64;
  (* context switch: the modified kernel updates the register *)
  Engine.set_current_pid engine 2;
  dstore engine ~pid:2 (Shadow.encode 0x5000) 64;
  Engine.set_current_pid engine 1;
  checki "victim load rejected (pending is pid 2's)" Status.failure
    (dload engine ~pid:1 (Shadow.encode 0x1000));
  checki "nothing started" 0 (started engine);
  (* a clean uninterrupted initiation works *)
  dstore engine ~pid:1 (Shadow.encode 0x3000) 64;
  checki "clean initiation" 0 (dload engine ~pid:1 (Shadow.encode 0x1000))

let test_engine_mapped_out () =
  let engine, _, _ = make_engine ~mechanism:Engine.Shrimp_mapped () in
  Engine.map_out engine ~src_page:0x2000 ~dst_page:0x8000;
  Alcotest.(check (option int)) "mapped" (Some 0x8000) (Engine.mapped_out_dst engine ~src_page:0x2000);
  dstore engine (Shadow.encode 0x2040) 64;
  (match Engine.transfers engine with
  | [ tr ] ->
    checki "src" 0x2040 tr.Transfer.src;
    checki "dst twin + offset" 0x8040 tr.Transfer.dst
  | _ -> Alcotest.fail "expected transfer");
  checki "status load" 0 (dload engine (Shadow.encode 0x2040))

let test_engine_mapped_out_via_control_page () =
  let engine, _, _ = make_engine ~mechanism:Engine.Shrimp_mapped () in
  dstore engine (control Regmap.k_map_out_src) 0x2000;
  dstore engine (control Regmap.k_map_out_dst) 0x6000;
  Alcotest.(check (option int)) "installed" (Some 0x6000)
    (Engine.mapped_out_dst engine ~src_page:0x2000)

let test_engine_mapped_out_missing () =
  let engine, _, _ = make_engine ~mechanism:Engine.Shrimp_mapped () in
  dstore engine (Shadow.encode 0x2000) 64;
  checki "nothing started" 0 (started engine);
  checki "status reports failure" Status.failure (dload engine (Shadow.encode 0x2000))

let test_engine_rep_five () =
  let engine, _, _ = make_engine ~mechanism:(Engine.Rep_args Seq_matcher.Five) () in
  let sd = Shadow.encode 0x3000 and ss = Shadow.encode 0x1000 in
  dstore engine sd 64;
  checki "mid-sequence load" Status.in_progress (dload engine ss);
  dstore engine sd 64;
  checki "second load" Status.in_progress (dload engine ss);
  checki "final load starts" 0 (dload engine sd);
  checki "started" 1 (started engine)

let test_engine_rep_broken_sequence_status () =
  let engine, _, _ = make_engine ~mechanism:(Engine.Rep_args Seq_matcher.Five) () in
  checki "lone load = failure" Status.failure (dload engine (Shadow.encode 0x1000));
  checki "counted" 1 (Engine.counters engine).Engine.rejected

let test_engine_local_backend_copies () =
  let engine, clock, ram = make_engine ~mechanism:Engine.Ext_shadow ~local:true () in
  Phys_mem.fill ram ~addr:0x1000 ~len:256 ~byte:0x5a;
  dstore engine (Shadow.encode_ctx ~context:0 0x4000) 256;
  let status = dload engine (Shadow.encode_ctx ~context:0 0x1000) in
  checkb "remaining positive at start" true (status > 0);
  checkb "bytes moved" true (Phys_mem.equal_range ram ram ~addr:0x1000 ~len:0 || Phys_mem.load_byte ram 0x4000 = 0x5a);
  checki "last byte" 0x5a (Phys_mem.load_byte ram (0x4000 + 255));
  (* status decays to 0 as time passes *)
  Clock.advance clock (Units.us 1000.0);
  checki "complete later" 0 (Engine.context_status engine 0)

let test_engine_atomic_kernel_regs () =
  let engine, _, ram = make_engine ~local:true () in
  Phys_mem.store_word ram 0x800 10;
  dstore engine (control Regmap.k_atomic_target) 0x800;
  dstore engine (control Regmap.k_atomic_op) (Atomic_op.encode_add 5);
  checki "old value" 10 (dload engine (control Regmap.k_atomic_op));
  checki "cell updated" 15 (Phys_mem.load_word ram 0x800);
  (* CAS through two stores *)
  dstore engine (control Regmap.k_atomic_target) 0x800;
  dstore engine (control Regmap.k_atomic_op) (Atomic_op.encode_cas_expected 15);
  dstore engine (control Regmap.k_atomic_op) (Atomic_op.encode_cas_new 99);
  checki "cas old" 15 (dload engine (control Regmap.k_atomic_op));
  checki "cas applied" 99 (Phys_mem.load_word ram 0x800)

let test_engine_atomic_ext_window () =
  let engine, _, ram = make_engine ~mechanism:Engine.Ext_shadow ~local:true () in
  Phys_mem.store_word ram 0x800 7;
  let a = Shadow.encode_atomic ~context:1 0x800 in
  dstore engine a (Atomic_op.encode_add 3);
  checki "old" 7 (dload engine a);
  checki "new" 10 (Phys_mem.load_word ram 0x800);
  checki "atomics counter" 1 (Engine.counters engine).Engine.atomics

let test_engine_atomic_ext_target_mismatch () =
  let engine, _, ram = make_engine ~mechanism:Engine.Ext_shadow ~local:true () in
  Phys_mem.store_word ram 0x800 7;
  dstore engine (Shadow.encode_atomic ~context:0 0x800) (Atomic_op.encode_add 3);
  (* load from a different target: rejected, pending cleared *)
  checki "mismatch" Status.failure (dload engine (Shadow.encode_atomic ~context:0 0x900));
  checki "cell untouched" 7 (Phys_mem.load_word ram 0x800)

let test_engine_atomic_key_window () =
  let engine, _, ram = make_engine ~mechanism:Engine.Key_based ~local:true () in
  Phys_mem.store_word ram 0x800 50;
  dstore engine (control (Regmap.key_offset ~context:0)) 0xfeed;
  dstore engine (Shadow.encode_atomic ~context:0 0x800) (Regmap.key_word ~key:0xfeed ~context:0);
  dstore engine (Layout.context_page 0 + Regmap.c_atomic) (Atomic_op.encode_fetch_store 3);
  checki "old via context page" 50 (dload engine (Layout.context_page 0 + Regmap.c_atomic));
  checki "swapped" 3 (Phys_mem.load_word ram 0x800)

(* a wrong key on the atomic window is a forged context: it must not
   name the context's atomic target, or the owner's next atomic
   operation runs on the forger's word *)
let test_engine_atomic_key_window_bad_key () =
  let engine, sink = traced_engine ~mechanism:Engine.Key_based () in
  dstore engine (control (Regmap.key_offset ~context:0)) 0xfeed;
  dstore engine ~pid:2 (Shadow.encode_atomic ~context:0 0x800) (Regmap.key_word ~key:0xbeef ~context:0);
  checkb "bad-key reject" true (rejected sink Engine.Bad_key);
  checkb "no atomic target" true
    ((Context_file.get (Engine.contexts engine) 0).Context_file.atomic_target = None)

let test_engine_atomic_unaligned_rejected () =
  let engine, _, _ = make_engine ~local:true () in
  dstore engine (control Regmap.k_atomic_target) 0x803;
  dstore engine (control Regmap.k_atomic_op) (Atomic_op.encode_add 1);
  checki "unaligned" Status.failure (dload engine (control Regmap.k_atomic_op))

let test_engine_key_change_wipes_context () =
  let engine, _, _ = make_engine ~mechanism:Engine.Key_based () in
  dstore engine (control (Regmap.key_offset ~context:0)) 111;
  (* old owner deposits both addresses but is descheduled before go *)
  dstore engine (Shadow.encode 0x3000) (Regmap.key_word ~key:111 ~context:0);
  dstore engine (Shadow.encode 0x1000) (Regmap.key_word ~key:111 ~context:0);
  (* the OS reassigns the context to a new owner *)
  dstore engine (control (Regmap.key_offset ~context:0)) 222;
  (* the new owner stores a size and goes: must NOT fire with the old
     owner's addresses *)
  dstore engine ~pid:2 (Layout.context_page 0) 64;
  checki "go rejected" Status.failure (dload engine ~pid:2 (Layout.context_page 0));
  checki "nothing started" 0 (started engine);
  (* the old key no longer deposits *)
  dstore engine (Shadow.encode 0x5000) (Regmap.key_word ~key:111 ~context:0);
  checkb "old key dead" true
    ((Context_file.get (Engine.contexts engine) 0).Context_file.dest = None)

let test_engine_shrimp1_remote_twin () =
  (* SHRIMP-1's real design: the mapped-out twin lives on ANOTHER
     workstation — a remote-window page *)
  let engine, _, ram = make_engine ~mechanism:Engine.Shrimp_mapped ~local:true () in
  Phys_mem.fill ram ~addr:0x2000 ~len:32 ~byte:0x42;
  Engine.map_out engine ~src_page:0x2000 ~dst_page:(Layout.remote_base + 0x6000);
  dstore engine (Shadow.encode 0x2000) 32;
  checki "transfer started" 1 (started engine);
  (match Engine.take_outbound engine with
  | [ p ] ->
    checki "peer twin page" 0x6000 p.Engine.remote_addr;
    checki "payload" 0x42 (Char.code (Bytes.get p.Engine.payload 0))
  | _ -> Alcotest.fail "expected one packet");
  checki "no local write" 0 (Phys_mem.load_byte ram 0x6000)

let test_engine_mailbox_register () =
  let engine, _, _ = make_engine ~mechanism:Engine.Ext_shadow () in
  dstore engine (control (Regmap.mailbox_offset ~context:1)) 0x4000;
  Alcotest.(check (option int)) "mailbox set" (Some 0x4000)
    (Context_file.get (Engine.contexts engine) 1).Context_file.mailbox;
  dstore engine (control (Regmap.mailbox_offset ~context:1)) 0;
  Alcotest.(check (option int)) "mailbox cleared" None
    (Context_file.get (Engine.contexts engine) 1).Context_file.mailbox

let test_engine_remote_word_store () =
  let engine, _, _ = make_engine () in
  dstore engine (Layout.remote_base + 0x4010) 999;
  (match Engine.take_outbound engine with
  | [ p ] ->
    checki "remote address" 0x4010 p.Engine.remote_addr;
    checki "payload is the word" 999 (Int64.to_int (Bytes.get_int64_le p.Engine.payload 0))
  | _ -> Alcotest.fail "expected one packet");
  checki "drained" 0 (List.length (Engine.take_outbound engine));
  checki "counted" 1 (Engine.counters engine).Engine.remote_sends

(* An outbound packet is keyed whole: two remote DMAs from zeroed RAM
   whose payloads differ only in length (5 and 8 zero bytes) give the
   outbound queue different terms. *)
let test_engine_packet_length_keyed () =
  let table_terms size =
    let engine, _, _ = make_engine ~local:true () in
    dstore engine (control Regmap.k_source) 0;
    dstore engine (control Regmap.k_dest) (Layout.remote_base + 0x4000);
    dstore engine (control Regmap.k_size) size;
    checki "one packet queued" 1 (Engine.counters engine).Engine.remote_sends;
    Fp128.sum_terms Engine.iter_table_terms engine
  in
  checkb "lengths key apart" true (table_terms 5 <> table_terms 8)

let test_engine_remote_load_rejected () =
  let engine, _, _ = make_engine () in
  checki "remote load fails" Status.failure (dload engine (Layout.remote_base + 0x4000))

let test_engine_remote_dma_ships_payload () =
  let engine, _, ram = make_engine ~mechanism:Engine.Ext_shadow ~local:true () in
  Phys_mem.fill ram ~addr:0x1000 ~len:64 ~byte:0x7e;
  dstore engine (Shadow.encode_ctx ~context:0 (Layout.remote_base + 0x8000)) 64;
  let status = dload engine (Shadow.encode_ctx ~context:0 0x1000) in
  checkb "accepted" true (status >= 0);
  (match Engine.take_outbound engine with
  | [ p ] ->
    checki "peer address" 0x8000 p.Engine.remote_addr;
    checki "payload length" 64 (Bytes.length p.Engine.payload);
    checki "payload content" 0x7e (Char.code (Bytes.get p.Engine.payload 63))
  | _ -> Alcotest.fail "expected one packet");
  (* local RAM at the raw offset must NOT have been written *)
  checki "no local copy" 0 (Phys_mem.load_byte ram 0x8000)

let test_engine_remote_dma_range_checked () =
  let engine, _, _ = make_engine ~mechanism:Engine.Ext_shadow () in
  (* destination straddles the end of the remote window *)
  dstore engine (Shadow.encode_ctx ~context:0 (Layout.remote_limit - 8)) 64;
  checki "rejected" Status.failure (dload engine (Shadow.encode_ctx ~context:0 0x1000));
  checki "nothing shipped" 0 (List.length (Engine.take_outbound engine))

let test_engine_events_ordering () =
  let engine, sink = traced_engine () in
  dstore engine (control Regmap.k_source) 0;
  dstore engine (control Regmap.k_dest) 64;
  dstore engine (control Regmap.k_size) 8;
  dstore engine (control Regmap.k_source) (1 lsl 40);
  dstore engine ~pid:2 (control Regmap.k_size) 8;
  let outcomes =
    List.filter_map
      (fun (r : Trace.record) ->
        match r.Trace.kind with
        | Trace.Transfer_start { src; dst; size; _ } ->
          Some (Printf.sprintf "pid%d start %#x -> %#x (%d B)" r.Trace.pid src dst size)
        | Trace.Engine_reject { reason } ->
          Some (Printf.sprintf "pid%d reject %s" r.Trace.pid reason)
        | _ -> None)
      (Trace.events sink)
  in
  Alcotest.(check (list string))
    "started, then rejected"
    [ "pid1 start 0 -> 0x40 (8 B)"; "pid2 reject " ^ Engine.reject_name Engine.Bad_range ]
    outcomes

(* fuzz: arbitrary user traffic through the user-reachable windows of a
   key-based engine, with no knowledge of the key, never starts a DMA *)
let engine_fuzz_key_no_transfers =
  qtest "engine fuzz: keyless traffic never starts a DMA (key-based)" ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 60)
        (triple bool (int_range 0 5) (int_range 0 ((1 lsl 30) - 1))))
    (fun stream ->
      let engine, _, _ = make_engine ~mechanism:Engine.Key_based () in
      (* a real, unguessable key guards every context *)
      List.iter
        (fun context ->
          dstore engine (control (Regmap.key_offset ~context)) ((0x5eC2e7 lsl 30) lor context))
        [ 0; 1; 2; 3 ];
      List.iter
        (fun (is_store, addr_kind, value) ->
          let paddr =
            match addr_kind with
            | 0 | 1 -> Shadow.encode ((value * 8) land 0xffff)
            | 2 -> Shadow.encode_ctx ~context:(value land 3) ((value * 16) land 0xffff)
            | 3 -> Shadow.encode_atomic ~context:(value land 3) ((value * 8) land 0xffff)
            | 4 -> Layout.context_page (value land 3) + (value land 0xf8)
            | _ -> Shadow.encode (value land 0xfff8)
          in
          if is_store then dstore engine ~pid:(2 + (value land 1)) paddr value
          else ignore (dload engine ~pid:(2 + (value land 1)) paddr : int))
        stream;
      Engine.transfers engine = [] && Engine.n_transfers engine = 0)

(* fuzz: whatever traffic any mechanism sees, every started transfer
   stays within RAM and the counters agree with the log *)
let engine_fuzz_invariants =
  qtest "engine fuzz: transfers in RAM, counters consistent" ~count:200
    QCheck2.Gen.(
      pair (int_range 0 5)
        (list_size (int_range 0 60) (triple bool (int_range 0 4) (int_range 0 ((1 lsl 20) - 1)))))
    (fun (mech_idx, stream) ->
      let mechanism =
        match mech_idx with
        | 0 -> Engine.Shrimp_two_step
        | 1 -> Engine.Flash
        | 2 -> Engine.Key_based
        | 3 -> Engine.Ext_shadow
        | 4 -> Engine.Rep_args Seq_matcher.Five
        | _ -> Engine.Shrimp_mapped
      in
      let engine, _, _ = make_engine ~mechanism () in
      Engine.map_out engine ~src_page:0x2000 ~dst_page:0x4000;
      List.iter
        (fun (is_store, addr_kind, value) ->
          let paddr =
            match addr_kind with
            | 0 -> Shadow.encode (value land 0x1ffff8)
            | 1 -> Shadow.encode_ctx ~context:(value land 3) (value land 0x1ffff8)
            | 2 -> Shadow.encode_atomic ~context:(value land 3) (value land 0x1ffff8)
            | 3 -> Layout.context_page (value land 3) + (value land 0xf8)
            | _ -> control (value land 0xf8)
          in
          if is_store then dstore engine ~pid:(1 + (value land 1)) paddr value
          else ignore (dload engine ~pid:(1 + (value land 1)) paddr : int))
        stream;
      let transfers = Engine.transfers engine in
      List.length transfers = Engine.n_transfers engine
      && List.for_all
           (fun (tr : Transfer.t) ->
             tr.Transfer.size > 0
             && tr.Transfer.src >= 0
             && tr.Transfer.src + tr.Transfer.size <= ram_pages * Layout.page_size
             && tr.Transfer.dst >= 0
             && tr.Transfer.dst + tr.Transfer.size <= ram_pages * Layout.page_size)
           transfers)

(* ------------------------------------------------------------------ *)
(* IOMMU virtual-address initiation *)

let ctx_page context = Layout.context_page context

let iommu_fire ?(pid = 1) engine ~context ~vsrc ~vdst ~size =
  dstore ~pid engine (ctx_page context + Regmap.c_arg_src) vsrc;
  dstore ~pid engine (ctx_page context + Regmap.c_arg_dst) vdst;
  dstore ~pid engine (ctx_page context + Regmap.c_size) size;
  dload ~pid engine (ctx_page context)

let iommu_table () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:1 (Pte.make ~frame:2 ~perms:Perms.read_write ());
  Page_table.map pt ~vpage:3 (Pte.make ~frame:4 ~perms:Perms.read_write ());
  pt

let test_engine_iommu_path () =
  let engine, _, _ = make_engine ~mechanism:Engine.Iommu () in
  Engine.set_context_owner engine ~context:1 ~pid:(Some 1);
  Engine.iommu_bind engine ~context:1 ~table:(iommu_table ());
  let status = iommu_fire engine ~context:1 ~vsrc:(Layout.page_size + 0x40) ~vdst:(3 * Layout.page_size) ~size:64 in
  checki "status" 0 status;
  (match Engine.transfers engine with
  | [ tr ] ->
    checki "src translated" ((2 * Layout.page_size) + 0x40) tr.Transfer.src;
    checki "dst translated" (4 * Layout.page_size) tr.Transfer.dst;
    Alcotest.(check (option int)) "context" (Some 1) tr.Transfer.context
  | _ -> Alcotest.fail "transfers");
  let s = Engine.iotlb_stats engine in
  checki "cold fire walks both pages" 2 s.Uldma_mmu.Iotlb.misses;
  (* the second initiation reuses the cached translations *)
  ignore (iommu_fire engine ~context:1 ~vsrc:(Layout.page_size + 0x40) ~vdst:(3 * Layout.page_size) ~size:64 : int);
  let s = Engine.iotlb_stats engine in
  checki "warm fire hits" 2 s.Uldma_mmu.Iotlb.hits;
  checki "no extra walks" 2 s.Uldma_mmu.Iotlb.misses

let test_engine_iommu_not_present () =
  let engine, sink = traced_engine ~mechanism:Engine.Iommu () in
  Engine.set_context_owner engine ~context:1 ~pid:(Some 1);
  Engine.iommu_bind engine ~context:1 ~table:(iommu_table ());
  checki "unmapped src fails" Status.failure
    (iommu_fire engine ~context:1 ~vsrc:(9 * Layout.page_size) ~vdst:(3 * Layout.page_size) ~size:64);
  checkb "not-present reject" true (rejected sink Engine.Not_present);
  checki "nothing started" 0 (started engine)

let test_engine_iommu_rights () =
  (* a read-only destination page translates but fails the access
     check — also Not_present, like a real IOMMU's translation fault *)
  let engine, sink = traced_engine ~mechanism:Engine.Iommu () in
  Engine.set_context_owner engine ~context:1 ~pid:(Some 1);
  let pt = iommu_table () in
  Page_table.map pt ~vpage:3 (Pte.make ~frame:4 ~perms:Perms.read_only ());
  Engine.iommu_bind engine ~context:1 ~table:pt;
  checki "read-only dst fails" Status.failure
    (iommu_fire engine ~context:1 ~vsrc:Layout.page_size ~vdst:(3 * Layout.page_size) ~size:64);
  checkb "not-present reject" true (rejected sink Engine.Not_present)

(* the copy unit takes one physical base: a virtual range whose pages
   are present but lie in frames that are not adjacent is a Bad_range *)
let test_engine_iommu_discontiguous () =
  let engine, sink = traced_engine ~mechanism:Engine.Iommu () in
  let pt = iommu_table () in
  Page_table.map pt ~vpage:2 (Pte.make ~frame:9 ~perms:Perms.read_write ());
  Engine.iommu_bind engine ~context:1 ~table:pt;
  checki "discontiguous src fails" Status.failure
    (iommu_fire engine ~context:1 ~vsrc:((2 * Layout.page_size) - 64) ~vdst:(3 * Layout.page_size)
       ~size:128);
  checkb "bad-range reject" true (rejected sink Engine.Bad_range);
  checki "nothing started" 0 (started engine)

let test_engine_iommu_unbound () =
  let engine, sink = traced_engine ~mechanism:Engine.Iommu () in
  Engine.set_context_owner engine ~context:1 ~pid:(Some 1);
  checki "no table bound" Status.failure
    (iommu_fire engine ~context:1 ~vsrc:Layout.page_size ~vdst:(3 * Layout.page_size) ~size:64);
  checkb "not-present reject" true (rejected sink Engine.Not_present)

let test_engine_iommu_invalidate_refetches () =
  let engine, _, _ = make_engine ~mechanism:Engine.Iommu () in
  Engine.set_context_owner engine ~context:1 ~pid:(Some 1);
  let pt = iommu_table () in
  Engine.iommu_bind engine ~context:1 ~table:pt;
  ignore (iommu_fire engine ~context:1 ~vsrc:Layout.page_size ~vdst:(3 * Layout.page_size) ~size:64 : int);
  (* the OS remaps the source page and shoots down its entry; the next
     fire must walk again and see the new frame *)
  Page_table.map pt ~vpage:1 (Pte.make ~frame:5 ~perms:Perms.read_write ());
  Engine.iotlb_invalidate engine ~vpage:1;
  ignore (iommu_fire engine ~context:1 ~vsrc:Layout.page_size ~vdst:(3 * Layout.page_size) ~size:64 : int);
  (match Engine.transfers engine with
  | [ _; tr ] -> checki "re-walked src" (5 * Layout.page_size) tr.Transfer.src
  | _ -> Alcotest.fail "expected two transfers");
  (* stale entry without shootdown would have kept firing from frame 2;
     a full flush (context switch) forces both pages to re-walk *)
  let misses_before = (Engine.iotlb_stats engine).Uldma_mmu.Iotlb.misses in
  Engine.iotlb_flush engine;
  ignore (iommu_fire engine ~context:1 ~vsrc:Layout.page_size ~vdst:(3 * Layout.page_size) ~size:64 : int);
  let misses_after = (Engine.iotlb_stats engine).Uldma_mmu.Iotlb.misses in
  checki "post-flush fire re-walks both pages" (misses_before + 2) misses_after

(* ------------------------------------------------------------------ *)
(* CAPIO capability-checked initiation *)

let install_cap engine ~value ~base ~len ~context ~pid ~read ~write =
  dstore engine (control Regmap.k_cap_value) value;
  dstore engine (control Regmap.k_cap_base) base;
  dstore engine (control Regmap.k_cap_len) len;
  let meta =
    context lor (if read then 0x100 else 0) lor (if write then 0x200 else 0) lor (pid lsl 16)
  in
  dstore engine (control Regmap.k_cap_commit) meta

let capio_fire ?(pid = 1) engine ~context ~cap_src ~cap_dst ~size =
  dstore ~pid engine (ctx_page context + Regmap.c_arg_src) cap_src;
  dstore ~pid engine (ctx_page context + Regmap.c_arg_dst) cap_dst;
  dstore ~pid engine (ctx_page context + Regmap.c_size) size;
  dload ~pid engine (ctx_page context)

let capio_engine () =
  let engine, sink = traced_engine ~mechanism:Engine.Capio ~n_contexts:4 () in
  Engine.set_context_owner engine ~context:1 ~pid:(Some 1);
  install_cap engine ~value:0xCAFE ~base:0x1000 ~len:128 ~context:1 ~pid:1 ~read:true
    ~write:false;
  install_cap engine ~value:0xD00D ~base:0x3000 ~len:128 ~context:1 ~pid:1 ~read:false
    ~write:true;
  (engine, sink)

let test_engine_capio_path () =
  let engine, _ = capio_engine () in
  checki "status" 0 (capio_fire engine ~context:1 ~cap_src:0xCAFE ~cap_dst:0xD00D ~size:128);
  match Engine.transfers engine with
  | [ tr ] ->
    checki "src from cap base" 0x1000 tr.Transfer.src;
    checki "dst from cap base" 0x3000 tr.Transfer.dst;
    checki "size" 128 tr.Transfer.size
  | _ -> Alcotest.fail "transfers"

let test_engine_capio_forged () =
  let engine, sink = capio_engine () in
  checki "forged value fails" Status.failure
    (capio_fire engine ~context:1 ~cap_src:0xBAD ~cap_dst:0xD00D ~size:64);
  checkb "bad-capability reject" true (rejected sink Engine.Bad_capability);
  checki "nothing started" 0 (started engine)

let test_engine_capio_foreign_context () =
  (* the laundering move: a victim's capability replayed through the
     accomplice's own context is as bad as a forged one *)
  let engine, sink = capio_engine () in
  Engine.set_context_owner engine ~context:2 ~pid:(Some 2);
  checki "foreign context fails" Status.failure
    (capio_fire ~pid:2 engine ~context:2 ~cap_src:0xCAFE ~cap_dst:0xD00D ~size:64);
  checkb "bad-capability reject" true (rejected sink Engine.Bad_capability);
  checki "nothing started" 0 (started engine)

let test_engine_capio_revoked () =
  let engine, sink = capio_engine () in
  dstore engine (control Regmap.k_cap_revoke) 0xCAFE;
  checki "revoked fails" Status.failure
    (capio_fire engine ~context:1 ~cap_src:0xCAFE ~cap_dst:0xD00D ~size:64);
  checkb "revoked (not bad) reject" true
    (rejected sink Engine.Revoked_capability);
  checkb "no bad_capability mislabel" false
    (rejected sink Engine.Bad_capability);
  checki "nothing started" 0 (started engine)

let test_engine_capio_revoked_by_range () =
  (* unmap shootdown: revoking by physical range kills the cap *)
  let engine, sink = capio_engine () in
  Engine.revoke_caps_range engine ~base:0x3000 ~len:Layout.page_size;
  checki "range-revoked fails" Status.failure
    (capio_fire engine ~context:1 ~cap_src:0xCAFE ~cap_dst:0xD00D ~size:64);
  checkb "revoked reject" true (rejected sink Engine.Revoked_capability)

let test_engine_capio_out_of_range () =
  let engine, sink = capio_engine () in
  checki "oversized fails" Status.failure
    (capio_fire engine ~context:1 ~cap_src:0xCAFE ~cap_dst:0xD00D ~size:256);
  checkb "bad-range reject" true (rejected sink Engine.Bad_range);
  checki "nothing started" 0 (started engine)

let test_engine_capio_rights () =
  (* the write-only cap cannot source a transfer, nor the read-only
     cap sink one *)
  let engine, sink = capio_engine () in
  checki "write-only src fails" Status.failure
    (capio_fire engine ~context:1 ~cap_src:0xD00D ~cap_dst:0xCAFE ~size:64);
  checkb "bad-capability reject" true (rejected sink Engine.Bad_capability);
  checki "nothing started" 0 (started engine)

let test_engine_capio_pid_revocation () =
  let engine, sink = capio_engine () in
  Engine.revoke_caps_pid engine ~pid:1;
  checki "dead owner's caps fail" Status.failure
    (capio_fire engine ~context:1 ~cap_src:0xCAFE ~cap_dst:0xD00D ~size:64);
  checkb "revoked reject" true (rejected sink Engine.Revoked_capability)

let test_engine_copy_independent () =
  let dg = cell () in
  let engine, clock, ram = make_engine ~dg () in
  dstore engine (Shadow.encode 0x3000) (Regmap.key_word ~key:0 ~context:0);
  let copy =
    Engine.copy engine ~dg:(Array.copy dg) ~clock:(Clock.copy clock)
      ~backend:(Transfer.local_backend (Phys_mem.copy ram) ~setup_ps:0 ~bytes_per_s:1e9)
  in
  dstore copy (control Regmap.k_source) 0;
  dstore copy (control Regmap.k_dest) 64;
  dstore copy (control Regmap.k_size) 8;
  checki "copy started one" 1 (started copy);
  checki "original untouched" 0 (started engine)

(* Digest upkeep against the from-scratch builder: random transaction
   scripts on every mechanism (kernel page, context pages and the
   shadow window, atomic forms included), then a copy taken with a copy
   of the cell and both sides written on. Each side's cell plus its
   started transfers' history lanes must equal its engine's
   recomputation, which sums the engine's own terms, its transfers'
   and its contexts', matcher's and IOTLB's. The history is synced
   lazily, so the parent is keyed before the copy in half the cases:
   then the two sides start from one shared keyed view and each sorts
   its own later transfers in. *)
let engine_digest_matches_recomputed =
  let gen_script = QCheck2.Gen.(list_size (int_range 0 30) gen_txn) in
  let consistent dg e =
    let acc = Array.copy dg in
    Engine.add_history e acc;
    lanes acc = Fp128.sum_terms Engine.iter_terms e
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"engine: maintained digest equals recomputed digest"
       QCheck2.Gen.(
         pair
           (triple (oneofl mechanisms) bool bool)
           (triple gen_script gen_script gen_script))
       (fun ((mechanism, local, keyed), (before, parent_after, child_after)) ->
         let dg = cell () in
         let e, clock, _ = make_engine ~mechanism ~local ~dg () in
         List.iter (apply e) before;
         if keyed then Engine.add_history e (cell ());
         let cdg = Array.copy dg in
         let c = Engine.copy e ~dg:cdg ~clock:(Clock.copy clock) ~backend:Transfer.null_backend in
         List.iter (apply c) child_after;
         List.iter (apply e) parent_after;
         consistent dg e && consistent cdg c))

(* One access's outcome as the engine reports it: the rejects its
   trace sink saw and the transfer it started, if any. *)
let observe e sink ~pid txn =
  Trace.clear sink;
  let before = Engine.n_transfers e in
  let (store, paddr, _) = txn in
  let reply = if store then (apply ~pid e txn; None) else Some (dload ~pid e paddr) in
  let started =
    if Engine.n_transfers e = before then None
    else Some (List.nth (Engine.transfers e) before)
  in
  (reply, reject_names sink, started)

(* The engine's characterisation golden: each mechanism's fixed-seed
   stream, one line per access (op, pid, address, stored value; a
   load's reply; the rejects; the started transfer; the digest lanes
   with the started transfers' history). A store's reply is not
   recorded: nothing reads it. The engine runs on a local backend whose
   clock advances 16 ns per access, so statuses read remaining bytes of
   transfers still in flight. *)
let golden_streams = 16

let mechanism_name (m : Engine.mechanism) =
  match m with
  | Shrimp_mapped -> "shrimp-mapped"
  | Shrimp_two_step -> "shrimp-two-step"
  | Flash -> "flash"
  | Key_based -> "key-based"
  | Ext_shadow -> "ext-shadow"
  | Ext_shadow_stateless -> "ext-stateless"
  | Rep_args Seq_matcher.Three -> "rep3"
  | Rep_args Seq_matcher.Four -> "rep4"
  | Rep_args Seq_matcher.Five -> "rep5"
  | Iommu -> "iommu"
  | Capio -> "capio"

let render_decode () =
  let buf = Buffer.create (1 lsl 18) in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  List.iteri
    (fun i mechanism ->
      let dg = cell () in
      let e, clock, _ = make_engine ~mechanism ~local:true ~dg () in
      let sink = Trace.create () in
      Engine.set_sink e ~machine:0 sink;
      let rand = Random.State.make [| 37; i |] in
      let stream =
        List.map (fun txn -> (0, txn)) prologue
        @ List.concat (QCheck2.Gen.generate ~rand ~n:golden_streams gen_stream)
      in
      line "# %s" (mechanism_name mechanism);
      List.iter (fun (context, table) -> Engine.iommu_bind e ~context ~table) (prologue_tables ());
      List.iter
        (fun (pid, ((store, paddr, value) as txn)) ->
          Clock.advance clock 16_000;
          let reply, rejects, started = observe e sink ~pid txn in
          let acc = Array.copy dg in
          Engine.add_history e acc;
          line "%s p%d %#x %s | %s | %s | %s | %x %x"
            (if store then "S" else "L") pid paddr
            (if store then string_of_int value else "-")
            (match reply with Some r -> string_of_int r | None -> "-")
            (match rejects with [] -> "-" | l -> String.concat "," l)
            (match started with
             | None -> "-"
             | Some tr ->
               Printf.sprintf "%#x>%#x/%d ctx%s" tr.Transfer.src tr.Transfer.dst tr.Transfer.size
                 (match tr.Transfer.context with Some c -> string_of_int c | None -> "-"))
            acc.(0) acc.(1))
        stream)
    mechanisms;
  Buffer.contents buf

(* The golden pins every answer the decode gives, byte for byte; after
   an intended change of behaviour, review the diff of
   engine_decode.actual (beside the test binary) and copy it over
   golden/engine_decode.txt. *)
let test_engine_decode_golden () =
  let actual = render_decode () in
  let path = Filename.concat "golden" "engine_decode.txt" in
  let expected =
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all else ""
  in
  if actual <> expected then begin
    Out_channel.with_open_bin "engine_decode.actual" (fun oc -> output_string oc actual);
    Alcotest.fail "the engine's decode drifted from golden/engine_decode.txt (see engine_decode.actual)"
  end

(* The paper-level spec differential: on every mechanism, from the
   common set-up, two processes' interleaved random accesses must meet
   exactly the rejects and the transfers that the executable spec
   (dma_spec.ml) predicts, access by access. The spec ignores time, so
   the engine runs on the Null backend. *)
let engine_matches_spec =
  let as_spec (tr : Transfer.t) =
    { Dma_spec.src = tr.Transfer.src; dst = tr.Transfer.dst; size = tr.Transfer.size;
      context = tr.Transfer.context; pid = tr.Transfer.pid }
  in
  let show_txn (pid, (store, paddr, value)) =
    Printf.sprintf "%s p%d %#x %d" (if store then "S" else "L") pid paddr value
  in
  let show (rejects, start) =
    Printf.sprintf "[%s] %s" (String.concat "," rejects)
      (match start with
      | Some (s : Dma_spec.transfer) -> Printf.sprintf "%#x>%#x/%d" s.src s.dst s.size
      | None -> "-")
  in
  let print (mechanism, stream) =
    mechanism_name mechanism ^ ": " ^ String.concat "; " (List.map show_txn stream)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:10000 ~print ~name:"engine: decode agrees with the paper-level spec"
       QCheck2.Gen.(pair (oneofl mechanisms) gen_stream)
       (fun (mechanism, stream) ->
         let e, _, ram = make_engine ~mechanism () in
         let sink = Trace.create () in
         Engine.set_sink e ~machine:0 sink;
         let tables = prologue_tables () in
         set_up e tables;
         let spec =
           Dma_spec.create ~mechanism ~ram_size:(Phys_mem.size ram)
             ~n_contexts:(Context_file.length (Engine.contexts e)) ~tables
         in
         List.iter
           (fun (_, paddr, value) ->
             ignore (Dma_spec.step spec ~pid:0 Txn.Store ~paddr ~value : Dma_spec.outcome))
           prologue;
         List.for_all
           (fun ((pid, (store, paddr, value)) as access) ->
             let _, rejects, started = observe e sink ~pid (store, paddr, value) in
             let want = Dma_spec.step spec ~pid (if store then Txn.Store else Txn.Load) ~paddr ~value in
             let got = (rejects, Option.map as_spec started)
             and want = (Option.to_list want.Dma_spec.reject, want.Dma_spec.start) in
             got = want
             || QCheck2.Test.fail_reportf "%s: engine %s, spec %s" (show_txn access) (show got)
                  (show want))
           stream))

(* The clock-relative view is fed at key time, outside the digest: two
   engines whose only difference is how long ago a slow transfer
   started (same remaining bytes, different remaining wire time) must
   key differently, in both sink modes. *)
let test_engine_fp_sees_remaining_time () =
  let clock = Clock.create () in
  let backend = { Transfer.null_backend with Transfer.duration_ps = (fun _ -> 1_000_000) } in
  let dg = cell () in
  let e = Engine.create ~clock ~backend ~ram_size:(ram_pages * Layout.page_size)
      ~mechanism:Engine.Key_based ~dg () in
  dstore e (control Regmap.k_source) 0;
  dstore e (control Regmap.k_dest) 64;
  dstore e (control Regmap.k_size) 8;
  let at dt =
    let clock = Clock.copy clock and dg = Array.copy dg in
    Clock.advance clock dt;
    (Engine.copy e ~dg ~clock ~backend, dg)
  in
  let (a, adg) = at 1 and (b, bdg) = at 2 in
  let fp e dg =
    let f = Fp128.create () in
    Fp128.add_int f dg.(0);
    Fp128.add_int f dg.(1);
    Engine.add_live (Enc.Fp f) e;
    Fp128.key f
  in
  let text e =
    let buf = Buffer.create 256 in
    Enc.terms (Enc.Buf buf) Engine.iter_terms e;
    Engine.add_live (Enc.Buf buf) e;
    Buffer.contents buf
  in
  let status e = dload e (control Regmap.k_status) in
  checki "same remaining bytes" (status a) (status b);
  checkb "paranoid encodings differ" true (text a <> text b);
  checkb "fingerprints differ" true (fp a adg <> fp b bdg)

(* Fresh registers digest to (0, 0): every register enters as value
   xor its reset value, and the matcher's reset variant is [Five]. A
   [Three] matcher adds its variant's term to the cell at [create]. *)
let test_engine_fresh_digest_zero () =
  List.iter
    (fun mechanism ->
      let dg = cell () in
      let e, _, _ = make_engine ~mechanism ~dg () in
      checkb "fresh engine digests to zero" true (Fp128.sum_terms Engine.iter_terms e = (0, 0));
      checkb "its cell agrees" true (lanes dg = (0, 0));
      checkb "fresh contexts digest to zero" true
        (Fp128.sum_terms Context_file.iter_terms (Engine.contexts e) = (0, 0)))
    Engine.[ Shrimp_mapped; Flash; Key_based; Ext_shadow; Rep_args Seq_matcher.Five; Capio ];
  let dg = cell () in
  let m = matcher ~dg Seq_matcher.Five in
  checkb "fresh Five matcher digests to zero" true
    (lanes dg = (0, 0) && Fp128.sum_terms Seq_matcher.iter_terms m = (0, 0));
  let dg = cell () in
  let m = matcher ~dg Seq_matcher.Three in
  checkb "a Three matcher does not" true (lanes dg <> (0, 0));
  checkb "and seeds its cell at create" true (lanes dg = Fp128.sum_terms Seq_matcher.iter_terms m)

let () =
  Alcotest.run "dma"
    [
      ( "seq_matcher",
        [
          Alcotest.test_case "five happy path" `Quick test_matcher_five_happy;
          Alcotest.test_case "three happy path" `Quick test_matcher_three_happy;
          Alcotest.test_case "four happy path" `Quick test_matcher_four_happy;
          Alcotest.test_case "lengths" `Quick test_matcher_lengths;
          Alcotest.test_case "wrong address resets" `Quick test_matcher_wrong_address_resets;
          Alcotest.test_case "size mismatch resets" `Quick test_matcher_size_mismatch_resets;
          Alcotest.test_case "wrong op resets and reseeds" `Quick test_matcher_wrong_op_resets;
          Alcotest.test_case "load cannot seed five" `Quick test_matcher_load_cannot_seed_five;
          Alcotest.test_case "Fig. 5 stream" `Quick test_matcher_fig5_stream;
          Alcotest.test_case "Fig. 6 stream" `Quick test_matcher_fig6_stream;
          Alcotest.test_case "copy independent" `Quick test_matcher_copy_independent;
          matcher_clean_sequence_fires;
          matcher_fire_implies_pattern;
          matcher_digest_matches_recomputed;
          Alcotest.test_case "negative size binds" `Quick test_matcher_negative_size_binds;
        ] );
      ( "context_file",
        [
          Alcotest.test_case "create bounds" `Quick test_ctx_create_bounds;
          Alcotest.test_case "slots alternate" `Quick test_ctx_slots_alternate;
          Alcotest.test_case "third push wraps" `Quick test_ctx_third_push_wraps;
          Alcotest.test_case "clear and reset" `Quick test_ctx_clear_and_reset;
          Alcotest.test_case "get bounds" `Quick test_ctx_get_bounds;
          Alcotest.test_case "copy independent" `Quick test_ctx_copy_independent;
        ] );
      ( "atomic_op",
        [
          Alcotest.test_case "encode/decode" `Quick test_atomic_encode_decode;
          Alcotest.test_case "cas halves" `Quick test_atomic_cas_two_halves;
          Alcotest.test_case "cas out of order" `Quick test_atomic_cas_out_of_order;
          Alcotest.test_case "bad opcode" `Quick test_atomic_bad_opcode;
          Alcotest.test_case "negative operand" `Quick test_atomic_negative_operand;
          Alcotest.test_case "execute" `Quick test_atomic_execute;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "remaining" `Quick test_transfer_remaining;
          Alcotest.test_case "null backend" `Quick test_transfer_null_backend;
          Alcotest.test_case "local backend" `Quick test_transfer_local_backend;
        ] );
      ( "engine",
        [
          Alcotest.test_case "claims" `Quick test_engine_claims;
          Alcotest.test_case "kernel path" `Quick test_engine_kernel_path;
          Alcotest.test_case "kernel bad range" `Quick test_engine_kernel_bad_range;
          Alcotest.test_case "kernel zero size" `Quick test_engine_kernel_zero_size;
          Alcotest.test_case "key path" `Quick test_engine_key_path;
          Alcotest.test_case "key rejects wrong key" `Quick test_engine_key_rejects_wrong_key;
          Alcotest.test_case "key rejects bad context" `Quick test_engine_key_rejects_bad_context;
          Alcotest.test_case "key shadow load unsupported" `Quick
            test_engine_key_shadow_load_unsupported;
          Alcotest.test_case "key interrupted resumes" `Quick test_engine_key_interrupted_resumes;
          Alcotest.test_case "ext-shadow path" `Quick test_engine_ext_shadow_path;
          Alcotest.test_case "ext-shadow context isolation" `Quick
            test_engine_ext_shadow_context_isolation;
          Alcotest.test_case "ext-shadow bad context" `Quick test_engine_ext_shadow_bad_context;
          Alcotest.test_case "ext-stateless pair" `Quick test_engine_ext_stateless_pair;
          Alcotest.test_case "shared-slot atomic (stateless)" `Quick
            test_engine_shared_slot_atomic_stateless;
          Alcotest.test_case "shared-slot atomic mismatch" `Quick
            test_engine_shared_slot_atomic_target_mismatch;
          Alcotest.test_case "ext-stateless mismatch" `Quick test_engine_ext_stateless_mismatch;
          Alcotest.test_case "two-step" `Quick test_engine_two_step;
          Alcotest.test_case "two-step invalidate" `Quick test_engine_two_step_invalidate;
          Alcotest.test_case "two-step overwrite race" `Quick test_engine_two_step_overwrite_race;
          Alcotest.test_case "flash gates on pid" `Quick test_engine_flash_gates_on_pid;
          Alcotest.test_case "mapped out" `Quick test_engine_mapped_out;
          Alcotest.test_case "mapped out via control page" `Quick
            test_engine_mapped_out_via_control_page;
          Alcotest.test_case "mapped out missing" `Quick test_engine_mapped_out_missing;
          Alcotest.test_case "rep five statuses" `Quick test_engine_rep_five;
          Alcotest.test_case "iommu path + iotlb reuse" `Quick test_engine_iommu_path;
          Alcotest.test_case "iommu not present" `Quick test_engine_iommu_not_present;
          Alcotest.test_case "iommu rights fault" `Quick test_engine_iommu_rights;
          Alcotest.test_case "iommu unbound context" `Quick test_engine_iommu_unbound;
          Alcotest.test_case "iommu invalidate refetches" `Quick
            test_engine_iommu_invalidate_refetches;
          Alcotest.test_case "capio path" `Quick test_engine_capio_path;
          Alcotest.test_case "capio forged" `Quick test_engine_capio_forged;
          Alcotest.test_case "capio foreign context" `Quick test_engine_capio_foreign_context;
          Alcotest.test_case "capio revoked" `Quick test_engine_capio_revoked;
          Alcotest.test_case "capio revoked by range" `Quick test_engine_capio_revoked_by_range;
          Alcotest.test_case "capio out of range" `Quick test_engine_capio_out_of_range;
          Alcotest.test_case "capio rights" `Quick test_engine_capio_rights;
          Alcotest.test_case "capio pid revocation" `Quick test_engine_capio_pid_revocation;
          Alcotest.test_case "rep broken sequence" `Quick test_engine_rep_broken_sequence_status;
          Alcotest.test_case "local backend copies" `Quick test_engine_local_backend_copies;
          Alcotest.test_case "atomic via kernel regs" `Quick test_engine_atomic_kernel_regs;
          Alcotest.test_case "atomic via ext window" `Quick test_engine_atomic_ext_window;
          Alcotest.test_case "atomic target mismatch" `Quick test_engine_atomic_ext_target_mismatch;
          Alcotest.test_case "atomic via key window" `Quick test_engine_atomic_key_window;
          Alcotest.test_case "atomic unaligned rejected" `Quick
            test_engine_atomic_unaligned_rejected;
          Alcotest.test_case "key change wipes context" `Quick
            test_engine_key_change_wipes_context;
          Alcotest.test_case "shrimp-1 remote twin" `Quick test_engine_shrimp1_remote_twin;
          Alcotest.test_case "mailbox register" `Quick test_engine_mailbox_register;
          Alcotest.test_case "remote word store" `Quick test_engine_remote_word_store;
          Alcotest.test_case "packet length keyed" `Quick test_engine_packet_length_keyed;
          Alcotest.test_case "remote load rejected" `Quick test_engine_remote_load_rejected;
          Alcotest.test_case "remote DMA ships payload" `Quick test_engine_remote_dma_ships_payload;
          Alcotest.test_case "remote DMA range checked" `Quick test_engine_remote_dma_range_checked;
          Alcotest.test_case "events ordering" `Quick test_engine_events_ordering;
          Alcotest.test_case "copy independent" `Quick test_engine_copy_independent;
          Alcotest.test_case "fresh digest is zero" `Quick test_engine_fresh_digest_zero;
          Alcotest.test_case "fingerprint sees remaining time" `Quick
            test_engine_fp_sees_remaining_time;
          engine_digest_matches_recomputed;
          engine_fuzz_key_no_transfers;
          engine_fuzz_invariants;
          Alcotest.test_case "kernel huge size" `Quick test_engine_kernel_huge_size;
          Alcotest.test_case "iommu discontiguous range" `Quick test_engine_iommu_discontiguous;
          Alcotest.test_case "atomic key window bad key" `Quick test_engine_atomic_key_window_bad_key;
          Alcotest.test_case "decode golden" `Quick test_engine_decode_golden;
          engine_matches_spec;
        ] );
    ]
