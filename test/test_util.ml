(* Tests for the util library: rng, stats, tbl, units. *)

open Uldma_util

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_matters () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  checkb "different first draw" true (Rng.int64 a <> Rng.int64 b)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:9 in
  ignore (Rng.int64 a : int64);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues the stream" (Rng.int64 a) (Rng.int64 b);
  ignore (Rng.int64 a : int64);
  ignore (Rng.int64 a : int64);
  (* b has drawn once, a three times: streams diverge positionally *)
  checkb "independent positions" true (Rng.int64 a <> Rng.int64 b)

let test_rng_split () =
  let a = Rng.create ~seed:3 in
  let child = Rng.split a in
  checkb "child differs from parent continuation" true (Rng.int64 child <> Rng.int64 a)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    checkb "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let r = Rng.create ~seed:12 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r ~lo:(-5) ~hi:5 in
    checkb "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_int_covers () =
  let r = Rng.create ~seed:13 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Rng.int r 8) <- true
  done;
  Array.iteri (fun i s -> checkb (Printf.sprintf "value %d drawn" i) true s) seen

let test_rng_chance_extremes () =
  let r = Rng.create ~seed:14 in
  checkb "p=0 never" false (Rng.chance r 0.0);
  checkb "p=1 always" true (Rng.chance r 1.0);
  checkb "p<0 never" false (Rng.chance r (-0.5));
  checkb "p>1 always" true (Rng.chance r 1.5)

let test_rng_chance_rate () =
  let r = Rng.create ~seed:15 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.chance r 0.3 then incr hits
  done;
  checkb "roughly 30%" true (!hits > 2600 && !hits < 3400)

let test_rng_float_bounds () =
  let r = Rng.create ~seed:16 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    checkb "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_pick () =
  let r = Rng.create ~seed:17 in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    checkb "member" true (Array.mem (Rng.pick r arr) arr)
  done;
  checki "singleton list" 42 (Rng.pick_list r [ 42 ])

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:18 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_dma_key_width () =
  let r = Rng.create ~seed:19 in
  for _ = 1 to 1000 do
    let k = Rng.dma_key r in
    checkb "58-bit non-negative" true (k >= 0 && k < 1 lsl 58)
  done

let test_rng_bool_balanced () =
  let r = Rng.create ~seed:20 in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool r then incr trues
  done;
  checkb "roughly balanced" true (!trues > 4500 && !trues < 5500)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_known () =
  let s = Stats.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  checki "n" 4 s.Stats.n;
  check (Alcotest.float 1e-9) "mean" 2.5 s.Stats.mean;
  check (Alcotest.float 1e-9) "min" 1.0 s.Stats.min;
  check (Alcotest.float 1e-9) "max" 4.0 s.Stats.max

let test_stats_singleton () =
  let s = Stats.of_list [ 7.5 ] in
  check (Alcotest.float 1e-9) "mean" 7.5 s.Stats.mean;
  check (Alcotest.float 1e-9) "stddev" 0.0 s.Stats.stddev;
  check (Alcotest.float 1e-9) "p99" 7.5 s.Stats.p99

let test_stats_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.of_array: empty sample") (fun () ->
      ignore (Stats.of_list [] : Stats.summary))

let test_stats_percentile () =
  let sorted = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0 |] in
  check (Alcotest.float 1e-9) "p50" 5.0 (Stats.percentile sorted 0.5);
  check (Alcotest.float 1e-9) "p100" 10.0 (Stats.percentile sorted 1.0);
  check (Alcotest.float 1e-9) "p0 clamps" 1.0 (Stats.percentile sorted 0.0)

let test_stats_stddev () =
  let s = Stats.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check (Alcotest.float 1e-6) "sample stddev" 2.13809 s.Stats.stddev

let float_list_gen = QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.0))

let stats_mean_bounded =
  qtest "stats: min <= mean <= max" float_list_gen (fun l ->
      match l with
      | [] -> true
      | _ :: _ ->
        let s = Stats.of_list l in
        s.Stats.min <= s.Stats.mean +. 1e-9 && s.Stats.mean <= s.Stats.max +. 1e-9)

let stats_percentiles_monotone =
  qtest "stats: p50 <= p95 <= p99 <= max" float_list_gen (fun l ->
      match l with
      | [] -> true
      | _ :: _ ->
        let s = Stats.of_list l in
        s.Stats.p50 <= s.Stats.p95 && s.Stats.p95 <= s.Stats.p99 && s.Stats.p99 <= s.Stats.max)

(* ------------------------------------------------------------------ *)
(* Tbl *)

let test_tbl_arity () =
  let t = Tbl.create ~title:"t" ~columns:[ ("a", Tbl.Left); ("b", Tbl.Right) ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Tbl.add_row: 1 cells for 2 columns (table \"t\")") (fun () ->
      Tbl.add_row t [ "x" ])

let test_tbl_render_contains () =
  let t = Tbl.create ~title:"My table" ~columns:[ ("name", Tbl.Left); ("v", Tbl.Right) ] in
  Tbl.add_row t [ "alpha"; "1" ];
  Tbl.add_rule t;
  Tbl.add_row t [ "beta"; "22" ];
  let s = Tbl.render t in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun needle -> checkb (Printf.sprintf "contains %S" needle) true (contains needle))
    [ "My table"; "alpha"; "beta"; "22"; "name" ]

let test_tbl_right_align () =
  let t = Tbl.create ~title:"t" ~columns:[ ("v", Tbl.Right) ] in
  Tbl.add_row t [ "7" ];
  Tbl.add_row t [ "100" ];
  let lines = String.split_on_char '\n' (Tbl.render t) in
  checkb "7 is right-aligned" true (List.exists (fun l -> l = "|   7 |") lines)

let test_tbl_csv () =
  let t = Tbl.create ~title:"t" ~columns:[ ("a", Tbl.Left); ("b", Tbl.Left) ] in
  Tbl.add_row t [ "x,y"; "plain" ];
  Tbl.add_rule t;
  Tbl.add_row t [ "quo\"te"; "z" ];
  checks "csv" "a,b\n\"x,y\",plain\n\"quo\"\"te\",z\n" (Tbl.to_csv t)

let test_tbl_cells () =
  checks "cell_f trims" "1.5" (Tbl.cell_f 1.5);
  checks "cell_f keeps one decimal" "2.0" (Tbl.cell_f 2.0);
  checks "cell_us" "18.6" (Tbl.cell_us 18.6)

(* ------------------------------------------------------------------ *)
(* Units *)

let test_units_conversions () =
  checki "1ns" 1000 (Units.ns 1.0);
  checki "1us" 1_000_000 (Units.us 1.0);
  check (Alcotest.float 1e-9) "roundtrip" 2.5 (Units.to_ns (Units.ns 2.5));
  check (Alcotest.float 1e-9) "us roundtrip" 18.6 (Units.to_us (Units.us 18.6))

let test_units_cycles () =
  checki "150MHz cycle" 6667 (Units.cycle_ps ~hz:150_000_000);
  checki "12.5MHz cycle" 80_000 (Units.cycle_ps ~hz:12_500_000);
  checki "7 bus cycles" 560_000 (Units.cycles ~hz:12_500_000 7)

let test_units_sizes () =
  checki "4 KiB" 4096 (Units.kib 4);
  checki "2 MiB" (2 * 1024 * 1024) (Units.mib 2)

let test_units_bandwidth () =
  check (Alcotest.float 1.0) "155 Mbps in B/s" 19_375_000.0 (Units.mbps 155.0);
  (* 1 KiB at ~19.4 MB/s is ~52.9 us *)
  let t = Units.transfer_ps ~bytes_per_s:(Units.mbps 155.0) 1024 in
  checkb "52-54us" true (t > Units.us 52.0 && t < Units.us 54.0);
  checki "zero bytes" 0 (Units.transfer_ps ~bytes_per_s:1e9 0)

let test_units_pp () =
  checks "ns" "1.5 ns" (Format.asprintf "%a" Units.pp_time 1500);
  checks "us" "18.60 us" (Format.asprintf "%a" Units.pp_time (Units.us 18.6));
  checks "bytes" "64 B" (Format.asprintf "%a" Units.pp_bytes 64);
  checks "kib" "4 KiB" (Format.asprintf "%a" Units.pp_bytes 4096)

let units_transfer_monotone =
  qtest "units: transfer time monotone in size"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 100_000))
    (fun (a, b) ->
      let t n = Units.transfer_ps ~bytes_per_s:1e8 n in
      if a <= b then t a <= t b else t b <= t a)

(* The splitmix64 stream is part of every experiment's output: pin its
   first draws so a change of representation cannot move it. *)
let test_rng_stream_pinned () =
  let r = Rng.create ~seed:7 in
  check Alcotest.int64 "first draw" 7191089600892374487L (Rng.int64 r);
  check Alcotest.int64 "second draw" 309689372594955804L (Rng.int64 r);
  checki "int" 336 (Rng.int r 1000)

let test_rng_no_alloc () =
  let r = Rng.create ~seed:5 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int r 7;
    if Rng.chance r 0.5 then incr acc
  done;
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "20000 draws allocate nothing (%.0f words)" words) true (words < 100.0);
  checkb "draws happened" true (!acc > 0)

(* ------------------------------------------------------------------ *)
(* Bits *)

let test_bits_msb () =
  let naive v =
    let p = ref 0 and x = ref v in
    while !x > 1 do
      incr p;
      x := !x lsr 1
    done;
    !p
  in
  List.iter
    (fun v -> checki (Printf.sprintf "msb %d" v) (naive v) (Bits.msb v))
    ([ 1; 2; 3; 4; 255; 256; 1 lsl 31; (1 lsl 32) - 1; 1 lsl 32; 1 lsl 61; max_int ]
    @ List.init 62 (fun i -> (1 lsl i) + 1))

let bits_msb_prop =
  qtest "bits: 2^msb v <= v < 2^(msb v + 1)" QCheck2.Gen.(int_range 1 max_int) (fun v ->
      let p = Bits.msb v in
      (* 1 lsl 62 wraps to min_int, so bit 61 has no upper bound to test *)
      1 lsl p <= v && (p = 61 || v < 1 lsl (p + 1)))

(* ------------------------------------------------------------------ *)
(* Pqueue *)

(* Random push/pop programs against a sorted-list model: the flat heap
   must pop ascending (key, seq), the polymorphic wrapper ascending key
   and FIFO among equal keys. Small keys force many ties. *)
let pqueue_ops_gen =
  QCheck2.Gen.(list_size (int_range 1 300) (pair (int_range 0 3) (int_range 0 20)))

let pqueue_int_matches_model =
  qtest "pqueue: Int pops ascending (key, seq)" pqueue_ops_gen (fun ops ->
      let q = Pqueue.Int.create () in
      let model = ref [] and seq = ref 0 and ok = ref true in
      let insert e = model := List.merge compare [ e ] !model in
      List.iter
        (fun (op, key) ->
          match op with
          | 0 when not (Pqueue.Int.is_empty q) -> (
            match !model with
            | (k, s, v) :: rest ->
              ok := !ok && Pqueue.Int.min_key q = k && Pqueue.Int.min_value q = v && v = s * 3;
              Pqueue.Int.remove_min q;
              model := rest
            | [] -> ok := false)
          | 1 when not (Pqueue.Int.is_empty q) -> (
            (* replace the minimum by a later event *)
            match !model with
            | (k, _, _) :: rest ->
              let key = k + key and s = !seq in
              incr seq;
              Pqueue.Int.replace_min q ~key ~seq:s (s * 3);
              model := rest;
              insert (key, s, s * 3)
            | [] -> ok := false)
          | _ ->
            let s = !seq in
            incr seq;
            Pqueue.Int.push q ~key ~seq:s (s * 3);
            insert (key, s, s * 3))
        ops;
      !ok && Pqueue.Int.length q = List.length !model)

let pqueue_fifo_ties =
  qtest "pqueue: polymorphic pops by key, FIFO among ties" pqueue_ops_gen (fun ops ->
      let q = Pqueue.create () in
      (* the model keeps (key, insertion number), so its order is FIFO
         among ties; payloads are strings to exercise boxed values *)
      let model = ref [] and n = ref 0 and ok = ref true in
      let pop_both () =
        match (Pqueue.pop q, !model) with
        | Some (k, v), (k', id) :: rest ->
          ok := !ok && k = k' && v = string_of_int id;
          model := rest
        | None, [] -> ()
        | _ -> ok := false
      in
      List.iter
        (fun (op, key) ->
          if op = 0 then pop_both ()
          else begin
            Pqueue.push q ~key (string_of_int !n);
            model := List.merge compare !model [ (key, !n) ];
            incr n
          end)
        ops;
      while !model <> [] do
        pop_both ()
      done;
      !ok && Pqueue.is_empty q)

let test_pqueue_empty () =
  let q = Pqueue.Int.create () in
  Alcotest.check_raises "min_key of empty" (Invalid_argument "Pqueue.Int.min_key: empty heap")
    (fun () -> ignore (Pqueue.Int.min_key q));
  Alcotest.check_raises "remove_min of empty"
    (Invalid_argument "Pqueue.Int.remove_min: empty heap") (fun () -> Pqueue.Int.remove_min q);
  let p = Pqueue.create () in
  checkb "pop of empty" true (Pqueue.pop p = None);
  checkb "peek of empty" true (Pqueue.peek_key p = None);
  Pqueue.push p ~key:5 'a';
  checkb "peek" true (Pqueue.peek_key p = Some 5);
  checki "length" 1 (Pqueue.length p)

let test_pqueue_int_no_alloc () =
  let q = Pqueue.Int.create () in
  for i = 0 to 999 do
    Pqueue.Int.push q ~key:((i * 7919) mod 1000) ~seq:i i
  done;
  let before = Gc.minor_words () in
  for i = 1000 to 100_999 do
    let k = Pqueue.Int.min_key q in
    Pqueue.Int.replace_min q ~key:(k + (i mod 97)) ~seq:i i;
    Pqueue.Int.remove_min q;
    Pqueue.Int.push q ~key:(k + 50) ~seq:i i
  done;
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "steady-state heap allocates nothing (%.0f words)" words) true
    (words < 100.0)

(* ------------------------------------------------------------------ *)
(* Fp128 (streaming two-lane fingerprint) *)

let test_fp128_deterministic () =
  let feed t =
    Fp128.add_tag t 'P';
    Fp128.add_int t 42;
    Fp128.add_string t "hello";
    Fp128.add_bytes t (Bytes.of_string "\x00\x01\xff")
  in
  let a = Fp128.create () and b = Fp128.create () in
  feed a;
  feed b;
  checks "same feeds, same key" (Fp128.key a) (Fp128.key b);
  checki "key is 16 bytes" 16 (String.length (Fp128.key a));
  checki "fed counts ints as 8, tags as 1, strings as 8+len" (1 + 8 + 13 + 11) (Fp128.fed a);
  (* lanes is a read, not a finalisation: feeding more still works *)
  let l1 = Fp128.lanes a in
  Fp128.add_int a 7;
  checkb "more input changes the lanes" true (Fp128.lanes a <> l1);
  Fp128.reset a;
  feed a;
  checks "reset replays from scratch" (Fp128.key b) (Fp128.key a)

let test_fp128_domain_separation () =
  (* a tag must never alias the int with the same code: 'A' vs 65 *)
  let a = Fp128.create () and b = Fp128.create () in
  Fp128.add_tag a 'A';
  Fp128.add_int b (Char.code 'A');
  checkb "tag vs int differ" true (Fp128.key a <> Fp128.key b);
  (* length prefixes keep concatenation unambiguous: "ab"+"c" vs "a"+"bc" *)
  let c = Fp128.create () and d = Fp128.create () in
  Fp128.add_string c "ab";
  Fp128.add_string c "c";
  Fp128.add_string d "a";
  Fp128.add_string d "bc";
  checkb "string boundaries matter" true (Fp128.key c <> Fp128.key d)

let lo32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffff_ffff

let test_fp128_digest () =
  let p1 = Bytes.make 8192 'x' and p2 = Bytes.make 8192 'x' in
  checkb "equal content, equal digest" true (Fp128.block_digest p1 = Fp128.block_digest p2);
  Bytes.set p2 8191 'y';
  checkb "last byte matters" true (Fp128.block_digest p1 <> Fp128.block_digest p2);
  Bytes.set p2 8191 'x';
  Bytes.set p2 0 'y';
  checkb "first byte matters" true (Fp128.block_digest p1 <> Fp128.block_digest p2);
  (* bit 63 of a word is part of its value *)
  let z = Bytes.make 8192 '\000' in
  checkb "all-zero block digests to (0, 0)" true (Fp128.block_digest z = (0, 0));
  Bytes.set z 7 '\x80';
  checkb "top bit matters" true (Fp128.block_digest z <> (0, 0));
  (* additivity: the digest is the lane sum of per-word terms *)
  let a, b = Fp128.block_digest p2 in
  let lo = lo32 p2 0 and hi = lo32 p2 4 in
  Bytes.fill p2 0 8 '\000';
  let a', b' = Fp128.block_digest p2 in
  checkb "one word's term is removable" true
    (a' = a - Fp128.word_term_a 0 lo hi && b' = b - Fp128.word_term_b 0 lo hi);
  checki "int terms of zero are zero" 0 (Fp128.int_term_a 5 0 lor Fp128.int_term_b 5 0)

(* Collision-power meta-check. The real keys are 126-bit, so an
   in-test collision can never be observed directly; instead truncate
   one finalised lane to 12 bits and verify the birthday statistics
   come out as hashing theory predicts — n = 4096 draws into m = 4096
   buckets must leave roughly m(1 - e^-1) ~ 2589 distinct values. A
   biased mixer (the failure this test has power against) would show
   up as far fewer distinct truncated values; a broken test harness
   (e.g. feeding equal inputs) as zero full-width distinctness. *)
let test_fp128_truncated_collision_power () =
  let rng = Rng.create ~seed:0x5eed in
  let n = 4096 in
  let full = Hashtbl.create n and trunc = Hashtbl.create n in
  for _ = 1 to n do
    let t = Fp128.create () in
    (* a random-length walk of random words, like a small state encoding *)
    for _ = 0 to 2 + Rng.int rng 6 do
      Fp128.add_int t (Rng.dma_key rng)
    done;
    let lo, _ = Fp128.lanes t in
    Hashtbl.replace full (Fp128.key t) ();
    Hashtbl.replace trunc (lo land 0xfff) ()
  done;
  checki "no full-width collisions across 4096 draws" n (Hashtbl.length full);
  let distinct = Hashtbl.length trunc in
  checkb
    (Printf.sprintf "12-bit truncation shows birthday collisions (distinct=%d)" distinct)
    true
    (distinct > 2200 && distinct < 2950)

(* The same meta-check for the additive digest, on structured inputs
   that a weak (linear or unmixed) term function would collide: from a
   base page whose even words hold random values and whose odd words
   are zero, 4096 distinct variants — two words swapped, one word moved
   to an empty offset, a single bit flipped, a word zeroed (present
   versus absent). No two may share both lanes, and each lane truncated
   to 12 bits must show the same birthday statistics as above. A
   zeroed word must digest exactly like a word never written. *)
let test_fp128_additive_collision_power () =
  let rng = Rng.create ~seed:0xadd in
  let words = 1024 in
  let base = Bytes.make (8 * words) '\000' in
  for w = 0 to (words / 2) - 1 do
    Bytes.set_int64_le base (16 * w) (Int64.logor (Rng.int64 rng) 1L)
  done;
  let variants = Hashtbl.create 4096 in
  let add f =
    let b = Bytes.copy base in
    f b;
    if not (Bytes.equal b base) then Hashtbl.replace variants (Bytes.to_string b) ()
  in
  let even () = 2 * Rng.int rng (words / 2) and odd () = (2 * Rng.int rng (words / 2)) + 1 in
  let get b w = Bytes.get_int64_le b (8 * w) and put b w v = Bytes.set_int64_le b (8 * w) v in
  let target = ref 1024 in
  let fill_to f =
    while Hashtbl.length variants < !target do
      add f
    done;
    target := !target + 1024
  in
  fill_to (fun b ->
      let i = even () and j = even () in
      let vi = get b i in
      put b i (get b j);
      put b j vi);
  fill_to (fun b ->
      let i = even () and k = odd () in
      put b k (get b i);
      put b i 0L);
  fill_to (fun b ->
      let w = Rng.int rng words in
      put b w (Int64.logxor (get b w) (Int64.shift_left 1L (Rng.int rng 64))));
  (* every even word zeroed once (512), topped up with two-word zeroings *)
  for w = 0 to (words / 2) - 1 do
    add (fun b -> put b (2 * w) 0L)
  done;
  fill_to (fun b ->
      put b (even ()) 0L;
      put b (even ()) 0L);
  let n = Hashtbl.length variants in
  checki "4096 distinct structured variants" 4096 n;
  let full = Hashtbl.create n and ta = Hashtbl.create n and tb = Hashtbl.create n in
  Hashtbl.iter
    (fun v () ->
      let ((a, b) as d) = Fp128.block_digest (Bytes.of_string v) in
      Hashtbl.replace full d ();
      Hashtbl.replace ta (a land 0xfff) ();
      Hashtbl.replace tb (b land 0xfff) ())
    variants;
  checki "no full-width collisions across the variants" n (Hashtbl.length full);
  List.iter
    (fun (lane, t) ->
      let distinct = Hashtbl.length t in
      checkb
        (Printf.sprintf "lane %s 12-bit truncation shows birthday collisions (distinct=%d)" lane
           distinct)
        true
        (distinct > 2200 && distinct < 2950))
    [ ("a", ta); ("b", tb) ];
  (* zero versus absent: a written-then-zeroed word is no word at all *)
  let absent = Bytes.copy base in
  put absent 0 0L;
  checkb "zeroed word digests like an absent one" true
    (Fp128.block_digest absent
    = (let a, b = Fp128.block_digest base in
       let lo = lo32 base 0 and hi = lo32 base 4 in
       (a - Fp128.word_term_a 0 lo hi, b - Fp128.word_term_b 0 lo hi)))

(* ------------------------------------------------------------------ *)
(* Ws_deque (Chase–Lev work-stealing deque) *)

let test_ws_deque_owner_lifo () =
  let d = Ws_deque.create () in
  checkb "empty pop" true (Ws_deque.pop d = None);
  Ws_deque.push d 1;
  Ws_deque.push d 2;
  Ws_deque.push d 3;
  checki "size" 3 (Ws_deque.size d);
  checkb "pop newest" true (Ws_deque.pop d = Some 3);
  checkb "then next" true (Ws_deque.pop d = Some 2);
  checkb "then oldest" true (Ws_deque.pop d = Some 1);
  checkb "then empty" true (Ws_deque.pop d = None);
  checki "size after drain" 0 (Ws_deque.size d)

let test_ws_deque_steal_fifo () =
  let d = Ws_deque.create () in
  Ws_deque.push d 1;
  Ws_deque.push d 2;
  Ws_deque.push d 3;
  checkb "steal oldest" true (Ws_deque.steal d = Some 1);
  checkb "steal next" true (Ws_deque.steal d = Some 2);
  checkb "owner gets the rest" true (Ws_deque.pop d = Some 3);
  checkb "steal empty" true (Ws_deque.steal d = None)

let test_ws_deque_grow () =
  (* push far past the 16-slot initial buffer, with interleaved pops
     and steals so the logical indices wrap several superseded buffers *)
  let d = Ws_deque.create () in
  let popped = ref [] and stolen = ref [] in
  for i = 1 to 1000 do
    Ws_deque.push d i;
    if i mod 3 = 0 then
      match Ws_deque.pop d with Some v -> popped := v :: !popped | None -> ()
  done;
  let rec drain () =
    match Ws_deque.steal d with
    | Some v ->
      stolen := v :: !stolen;
      drain ()
    | None -> ()
  in
  drain ();
  let all = List.sort compare (!popped @ !stolen) in
  checki "nothing lost or duplicated" 1000 (List.length all);
  checkb "exactly 1..1000" true (all = List.init 1000 (fun i -> i + 1));
  checkb "stolen side is FIFO" true (List.rev !stolen = List.sort compare !stolen)

(* Conservation under real contention: one owner domain pushing and
   popping while three thieves steal. Every pushed element must be
   consumed exactly once, whichever side wins each race. *)
let test_ws_deque_concurrent_conservation () =
  let d = Ws_deque.create () in
  let n = 20_000 in
  let stop = Atomic.make false in
  let thief () =
    let got = ref [] in
    while not (Atomic.get stop) do
      match Ws_deque.steal d with
      | Some v -> got := v :: !got
      | None -> Domain.cpu_relax ()
    done;
    (* final sweep so nothing is left when the owner finished early *)
    let rec sweep () =
      match Ws_deque.steal d with
      | Some v ->
        got := v :: !got;
        sweep ()
      | None -> ()
    in
    sweep ();
    !got
  in
  let thieves = List.init 3 (fun _ -> Domain.spawn thief) in
  let owner_got = ref [] in
  for i = 1 to n do
    Ws_deque.push d i;
    if i land 1 = 0 then
      match Ws_deque.pop d with Some v -> owner_got := v :: !owner_got | None -> ()
  done;
  let rec drain () =
    match Ws_deque.pop d with
    | Some v ->
      owner_got := v :: !owner_got;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  let stolen = List.concat_map Domain.join thieves in
  let all = List.sort compare (stolen @ !owner_got) in
  checki "every element consumed exactly once" n (List.length all);
  checkb "the elements are exactly 1..n" true (all = List.init n (fun i -> i + 1))

(* Steal-burst on a near-empty deque: the hard Chase–Lev window is the
   single-element race, where the owner's pop and every thief's steal
   CAS the same top index. The adaptive publication cutoff makes this
   the common case (a worker publishes one task at a time and often
   pops it straight back), so hammer it: the owner pushes elements one
   or two at a time and immediately tries to pop, while a burst of
   thieves steals whatever appears. Every element must be consumed
   exactly once — a lost CAS must lose the *element* to exactly one
   winner, never duplicate it, never drop it. *)
let test_ws_deque_steal_burst_near_empty () =
  let d = Ws_deque.create () in
  let n = 4_000 in
  let stop = Atomic.make false in
  let thief () =
    let got = ref [] in
    while not (Atomic.get stop) do
      match Ws_deque.steal d with
      | Some v -> got := v :: !got
      | None -> Domain.cpu_relax ()
    done;
    let rec sweep () =
      match Ws_deque.steal d with
      | Some v ->
        got := v :: !got;
        sweep ()
      | None -> ()
    in
    sweep ();
    !got
  in
  let thieves = List.init 4 (fun _ -> Domain.spawn thief) in
  let owner_got = ref [] in
  let try_pop () =
    match Ws_deque.pop d with Some v -> owner_got := v :: !owner_got | None -> ()
  in
  for i = 1 to n do
    Ws_deque.push d i;
    (* keep the deque hovering at 0–2 elements: pop right back most of
       the time so nearly every steal races the owner for the last one *)
    if i land 3 <> 0 then try_pop ()
  done;
  let rec drain () =
    match Ws_deque.pop d with
    | Some v ->
      owner_got := v :: !owner_got;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  let stolen = List.concat_map Domain.join thieves in
  let all = List.sort compare (stolen @ !owner_got) in
  checki "every element consumed exactly once" n (List.length all);
  checkb "the elements are exactly 1..n" true (all = List.init n (fun i -> i + 1));
  checki "deque left empty" 0 (Ws_deque.size d)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed matters" `Quick test_rng_seed_matters;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "chance rate" `Quick test_rng_chance_rate;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "pick membership" `Quick test_rng_pick;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "dma_key width" `Quick test_rng_dma_key_width;
          Alcotest.test_case "bool balanced" `Quick test_rng_bool_balanced;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_no_alloc;
        ] );
      ("bits", [ Alcotest.test_case "msb" `Quick test_bits_msb; bits_msb_prop ]);
      ( "pqueue",
        [
          pqueue_int_matches_model;
          pqueue_fifo_ties;
          Alcotest.test_case "empty and peek" `Quick test_pqueue_empty;
          Alcotest.test_case "Int allocates nothing" `Quick test_pqueue_int_no_alloc;
        ] );
      ( "fp128",
        [
          Alcotest.test_case "deterministic" `Quick test_fp128_deterministic;
          Alcotest.test_case "domain separation" `Quick test_fp128_domain_separation;
          Alcotest.test_case "page digest" `Quick test_fp128_digest;
          Alcotest.test_case "truncated collision power" `Quick
            test_fp128_truncated_collision_power;
          Alcotest.test_case "additive digest collision power" `Quick
            test_fp128_additive_collision_power;
        ] );
      ( "ws_deque",
        [
          Alcotest.test_case "owner LIFO" `Quick test_ws_deque_owner_lifo;
          Alcotest.test_case "steal FIFO" `Quick test_ws_deque_steal_fifo;
          Alcotest.test_case "grow preserves elements" `Quick test_ws_deque_grow;
          Alcotest.test_case "concurrent conservation" `Slow
            test_ws_deque_concurrent_conservation;
          Alcotest.test_case "steal burst near empty" `Slow
            test_ws_deque_steal_burst_near_empty;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "singleton" `Quick test_stats_singleton;
          Alcotest.test_case "empty rejected" `Quick test_stats_empty_rejected;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          stats_mean_bounded;
          stats_percentiles_monotone;
        ] );
      ( "tbl",
        [
          Alcotest.test_case "arity mismatch" `Quick test_tbl_arity;
          Alcotest.test_case "render contains content" `Quick test_tbl_render_contains;
          Alcotest.test_case "right alignment" `Quick test_tbl_right_align;
          Alcotest.test_case "csv escaping" `Quick test_tbl_csv;
          Alcotest.test_case "cell formatting" `Quick test_tbl_cells;
        ] );
      ( "units",
        [
          Alcotest.test_case "conversions" `Quick test_units_conversions;
          Alcotest.test_case "cycles" `Quick test_units_cycles;
          Alcotest.test_case "sizes" `Quick test_units_sizes;
          Alcotest.test_case "bandwidth" `Quick test_units_bandwidth;
          Alcotest.test_case "pretty printing" `Quick test_units_pp;
          units_transfer_monotone;
        ] );
    ]
