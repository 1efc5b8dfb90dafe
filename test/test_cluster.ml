(* Tests for the cluster-service layer: the percentile reporter, the
   N-node mesh and its Session front door, and the KV load generator's
   determinism and batching behaviour. *)

module Percentile = Uldma_obs.Percentile
module Backend = Uldma_net.Backend
module Kv = Uldma_workload.Kv_load
module Kernel = Uldma_os.Kernel

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Percentile *)

let test_percentile_exact () =
  (* sub_bits = 10: every value up to 1024 lands in a width-1 bucket,
     so nearest-rank percentiles over 1..1000 are exact *)
  let t = Percentile.create ~sub_bits:10 () in
  checki "empty p50" 0 (Percentile.percentile t 0.50);
  checki "empty count" 0 (Percentile.count t);
  for v = 1 to 1000 do
    Percentile.record t v
  done;
  checki "count" 1000 (Percentile.count t);
  checki "total" 500_500 (Percentile.total t);
  checki "min" 1 (Percentile.min_value t);
  checki "max" 1000 (Percentile.max_value t);
  checki "p50" 500 (Percentile.percentile t 0.50);
  checki "p99" 990 (Percentile.percentile t 0.99);
  checki "p999" 999 (Percentile.percentile t 0.999);
  checki "p100 = max" 1000 (Percentile.percentile t 1.0);
  checki "p0 = rank 1" 1 (Percentile.percentile t 0.0);
  Alcotest.(check (float 1e-9)) "mean" 500.5 (Percentile.mean t)

let test_percentile_negative_clamp () =
  let t = Percentile.create () in
  Percentile.record t (-5);
  checki "clamped to 0" 0 (Percentile.max_value t);
  checki "p50 of {0}" 0 (Percentile.percentile t 0.5)

let test_percentile_merge () =
  let a = Percentile.create () and b = Percentile.create () in
  for v = 1 to 100 do
    Percentile.record a v
  done;
  for v = 101 to 200 do
    Percentile.record b v
  done;
  Percentile.merge_into ~dst:a b;
  checki "merged count" 200 (Percentile.count a);
  checki "merged max" 200 (Percentile.max_value a);
  checki "merged min" 1 (Percentile.min_value a);
  checki "merged total" 20_100 (Percentile.total a);
  let t16 = Percentile.create ~sub_bits:16 () in
  Alcotest.check_raises "sub_bits mismatch" (Invalid_argument "Percentile.merge_into: sub_bits mismatch")
    (fun () -> Percentile.merge_into ~dst:a t16)

(* every recorded value quantises to a bucket whose bounds bracket it
   and whose upper bound overstates it by at most 2^-sub_bits *)
let prop_percentile_rounding =
  qtest "bucket bounds bracket within 2^-sub_bits"
    QCheck2.Gen.(int_range 0 (1 lsl 40))
    (fun v ->
      let t = Percentile.create () in
      let lo, hi = Percentile.bucket_bounds t v in
      let eps = Percentile.max_relative_error t in
      lo <= v && v <= hi && float_of_int hi <= (float_of_int (max v 1) *. (1.0 +. eps)))

(* a percentile estimate never understates and overstates by at most
   the quantisation bound (single-value histogram: p100 is clamped to
   the exact max; interior ranks report bucket upper bounds) *)
let prop_percentile_estimate =
  qtest "estimate in [exact, exact*(1+eps)]"
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 1_000_000))
    (fun vs ->
      let t = Percentile.create () in
      List.iter (Percentile.record t) vs;
      let sorted = List.sort compare vs in
      let n = List.length sorted in
      let eps = Percentile.max_relative_error t in
      List.for_all
        (fun q ->
          let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
          let exact = List.nth sorted (min (rank - 1) (n - 1)) in
          let est = Percentile.percentile t q in
          exact <= est && float_of_int est <= (float_of_int (max exact 1) *. (1.0 +. eps)))
        [ 0.5; 0.9; 0.99; 0.999 ])

(* ------------------------------------------------------------------ *)
(* Backend.of_string validation (the CLI's --net / --tick-ps gate) *)

let test_backend_of_string_errors () =
  (match Backend.of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error e ->
    checkb "names the offender" true (contains e "bogus");
    checkb "lists valid spellings" true
      (contains e "atm155" && contains e "atm622" && contains e "gigabit" && contains e "hic"
      && contains e "null"));
  (match Backend.of_string ~tick_ps:0 "atm155" with
  | Ok _ -> Alcotest.fail "tick_ps 0 accepted"
  | Error e -> checkb "tick 0 rejected" true (contains e "positive"));
  (match Backend.of_string ~tick_ps:(-5) "atm155" with
  | Ok _ -> Alcotest.fail "negative tick_ps accepted"
  | Error e -> checkb "negative tick rejected" true (contains e "positive"));
  match Backend.of_string ~tick_ps:1000 "gigabit" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid spelling rejected: %s" e

(* ------------------------------------------------------------------ *)
(* The N-node mesh *)

(* a 3-node cluster where node 0 writes into node 2 explicitly (not
   its successor): the node field in the remote offset must route the
   packets across the mesh *)
let test_three_node_explicit_dst () =
  let open Uldma_os in
  let module C = Uldma.Cluster in
  let cluster = Uldma.Session.cluster_exn ~net:"gigabit" ~nodes:3 () in
  checki "three nodes" 3 (C.nodes cluster);
  let words = 16 in
  let src = 0 and dst = 2 in
  let p = Kernel.spawn (C.node cluster src) ~name:"xwrite" ~program:[||] () in
  let peer_ram = (Kernel.config (C.node cluster dst)).Kernel.ram_size in
  let target = peer_ram - Uldma_mem.Layout.page_size in
  let vaddr =
    C.map_remote cluster ~src ~dst p ~remote_paddr:target ~n:1
      ~perms:Uldma_mem.Perms.read_write
  in
  let open Uldma_cpu in
  let asm = Asm.create () in
  let loop = Asm.fresh_label asm "loop" in
  Asm.li asm 10 vaddr;
  Asm.li asm 11 words;
  Asm.li asm 12 0;
  Asm.label asm loop;
  Asm.store asm ~base:10 ~off:0 12;
  Asm.add asm 10 10 (Isa.Imm 8);
  Asm.add asm 12 12 (Isa.Imm 1);
  Asm.blt asm 12 11 loop;
  Asm.halt asm;
  Process.set_program p (Asm.assemble asm);
  (match C.run cluster () with
  | C.All_exited -> ()
  | C.Max_steps | C.Predicate -> Alcotest.fail "cluster did not converge");
  checki "all bytes landed on node 2" (words * 8) (C.write_bytes_into cluster 2);
  checki "nothing landed on node 1" 0 (C.write_bytes_into cluster 1);
  let ram = Kernel.ram (C.node cluster dst) in
  for i = 0 to words - 1 do
    checki
      (Printf.sprintf "word %d" i)
      i
      (Uldma_mem.Phys_mem.load_word ram (target + (8 * i)))
  done

let test_cluster_bounds () =
  let config = Kernel.default_config in
  Alcotest.check_raises "1 node rejected"
    (Invalid_argument "Cluster.create: nodes must be in 2..62 (got 1)") (fun () ->
      ignore (Uldma.Cluster.create ~nodes:1 ~config () : Uldma.Cluster.t));
  Alcotest.check_raises "63 nodes rejected"
    (Invalid_argument "Cluster.create: nodes must be in 2..62 (got 63)") (fun () ->
      ignore (Uldma.Cluster.create ~nodes:63 ~config () : Uldma.Cluster.t));
  checkb "remote_paddr rejects oversized offsets" true
    (try
       ignore (Uldma.Cluster.remote_paddr ~node:0 (1 lsl 26) : int);
       false
     with Invalid_argument _ -> true)

let test_session_cluster_errors () =
  let err = function Ok _ -> Alcotest.fail "expected Error" | Error e -> e in
  let e = err (Uldma.Session.cluster ~net:"token-ring" ~nodes:3 ()) in
  checkb "bad net names spellings" true (contains e "token-ring" && contains e "atm155");
  let e = err (Uldma.Session.cluster ~nodes:1 ()) in
  checkb "bad node count" true (contains e "nodes");
  let e = err (Uldma.Session.cluster ~mech:"warp-drive" ~nodes:2 ()) in
  checkb "bad mech lists mechanisms" true (contains e "warp-drive" && contains e "ext-shadow");
  let e = err (Uldma.Session.cluster ~tick_ps:0 ~nodes:2 ()) in
  checkb "bad tick" true (contains e "positive");
  match Uldma.Session.cluster ~net:"null" ~mech:"ext-shadow" ~nodes:2 () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid cluster rejected: %s" e

(* ------------------------------------------------------------------ *)
(* KV load generation *)

let small_params =
  { Kv.default_params with Kv.nodes = 3; clients = 30; transfers = 3_000; seed = 11 }

let cal () =
  match Kv.calibrate ~iterations:64 small_params.Kv.mech with
  | Ok c -> c
  | Error e -> Alcotest.failf "calibrate failed: %s" e

let test_calibrate () =
  let c = cal () in
  checkb "doorbell cost positive" true (c.Kv.initiation_ps > 0);
  checkb "descriptor cost positive" true (c.Kv.submit_ps > 0);
  checkb "doorbell dwarfs descriptor" true (c.Kv.initiation_ps > c.Kv.submit_ps);
  match Kv.calibrate "warp-drive" with
  | Ok _ -> Alcotest.fail "unknown mechanism accepted"
  | Error e -> checkb "unknown mechanism named" true (contains e "warp-drive")

let test_kv_determinism () =
  let cal = cal () in
  let net =
    match Backend.of_string "atm155" with Ok b -> b | Error e -> Alcotest.failf "%s" e
  in
  let a = Kv.run small_params ~cal ~net and b = Kv.run small_params ~cal ~net in
  checki "same transfers" a.Kv.transfers b.Kv.transfers;
  checki "same GET split" a.Kv.gets b.Kv.gets;
  checki "same doorbells" a.Kv.doorbells b.Kv.doorbells;
  checki "same makespan" a.Kv.sim_ps b.Kv.sim_ps;
  checki "same wire bytes" a.Kv.wire_bytes b.Kv.wire_bytes;
  checki "same p999" (Percentile.percentile a.Kv.latency 0.999)
    (Percentile.percentile b.Kv.latency 0.999);
  let c = Kv.run { small_params with Kv.seed = 12 } ~cal ~net in
  checkb "different seed changes the trace" true
    (c.Kv.sim_ps <> a.Kv.sim_ps || c.Kv.gets <> a.Kv.gets)

let test_kv_accounting () =
  let cal = cal () in
  let net =
    match Backend.of_string "gigabit" with Ok b -> b | Error e -> Alcotest.failf "%s" e
  in
  let r = Kv.run small_params ~cal ~net in
  checki "all transfers completed" small_params.Kv.transfers r.Kv.transfers;
  checki "GETs + PUTs = transfers" r.Kv.transfers (r.Kv.gets + r.Kv.puts);
  checki "latency samples = transfers" r.Kv.transfers (Percentile.count r.Kv.latency);
  checkb "batching amortises doorbells" true
    (r.Kv.doorbells < r.Kv.transfers && r.Kv.doorbells > 0);
  checkb "headers make wire > payload" true (r.Kv.wire_bytes > r.Kv.value_bytes);
  checkb "positive makespan" true (r.Kv.sim_ps > 0)

let test_kv_batching_speedup () =
  let cal = cal () in
  let net =
    match Backend.of_string "gigabit" with Ok b -> b | Error e -> Alcotest.failf "%s" e
  in
  let batch1 = Kv.run { small_params with Kv.batch = 1 } ~cal ~net in
  let batched = Kv.run small_params ~cal ~net in
  let sp = Kv.transfers_per_s batched /. Kv.transfers_per_s batch1 in
  checkb (Printf.sprintf "batch=%d beats batch=1 on gigabit (%.2fx)" small_params.Kv.batch sp)
    true (sp > 1.02)

(* The event loop as it was first written — every event boxed in one
   global heap, descriptors in lists — kept as the oracle for the flat
   event core: both must produce identical results, down to every
   latency sample's bucket, for any parameters. *)
module Reference = struct
  open Uldma_util

  type desc = { d_dst : int; d_req_bytes : int; d_resp_bytes : int; d_submit_at : int }

  type ev =
    | Step of int
    | Rx of { rx_c : int; rx_src : int; rx_dst : int; rx_resp : int; rx_submit : int }
    | Done of { dn_c : int; dn_submit : int }

  let run (p : Kv.params) ~(cal : Kv.calibration) ~net =
    let n = p.Kv.nodes in
    let link = match Backend.link net with Some l -> l | None -> Uldma_net.Link.instant in
    let client_node c = c mod n in
    let wire_busy = Array.make (n * n) 0 in
    let cpu_free = Array.make n 0 and engine_free = Array.make n 0 in
    let remaining = Array.make p.clients 0 and outstanding = Array.make p.clients 0 in
    let ready = Array.make p.clients 0 and parked = Array.make p.clients false in
    let pending = Array.make p.clients [] and pending_len = Array.make p.clients 0 in
    let base = p.transfers / p.clients and extra = p.transfers mod p.clients in
    for c = 0 to p.clients - 1 do
      remaining.(c) <- (base + if c < extra then 1 else 0)
    done;
    let rngs = Array.init p.clients (fun c -> Rng.create ~seed:(p.seed + (31 * c) + 1)) in
    let heap = Pqueue.create () in
    let latency = Percentile.create () in
    let counters = Uldma_obs.Counters.create () in
    let gets = ref 0 and puts = ref 0 and doorbells = ref 0 in
    let value_bytes = ref 0 and wire_bytes = ref 0 and sim_end = ref 0 in
    let send ~src ~dst ~now bytes =
      let k = (src * n) + dst in
      let depart = max now wire_busy.(k) in
      wire_busy.(k) <-
        depart + Units.transfer_ps ~bytes_per_s:link.Uldma_net.Link.bytes_per_s bytes;
      wire_bytes := !wire_bytes + bytes;
      depart + Uldma_net.Link.wire_time_ps link bytes
    in
    let flush c =
      if pending_len.(c) > 0 then begin
        let node = client_node c in
        let fin = max ready.(c) cpu_free.(node) + cal.Kv.initiation_ps in
        ready.(c) <- fin;
        cpu_free.(node) <- fin;
        incr doorbells;
        List.iter
          (fun d ->
            let arrive = send ~src:node ~dst:d.d_dst ~now:fin d.d_req_bytes in
            Pqueue.push heap ~key:arrive
              (Rx
                 {
                   rx_c = c;
                   rx_src = node;
                   rx_dst = d.d_dst;
                   rx_resp = d.d_resp_bytes;
                   rx_submit = d.d_submit_at;
                 }))
          (List.rev pending.(c));
        pending.(c) <- [];
        pending_len.(c) <- 0
      end
    in
    let step c now =
      let node = client_node c in
      if remaining.(c) > 0 && outstanding.(c) < p.window then begin
        let fin = max (max now ready.(c)) cpu_free.(node) + cal.Kv.submit_ps in
        ready.(c) <- fin;
        cpu_free.(node) <- fin;
        let rng = rngs.(c) in
        let dst = (node + 1 + Rng.int rng (n - 1)) mod n in
        let is_get = Rng.chance rng p.get_ratio in
        if is_get then incr gets else incr puts;
        let d_req_bytes = Kv.header_bytes + if is_get then 0 else p.value_size in
        let d_resp_bytes = if is_get then Kv.header_bytes + p.value_size else Kv.ack_bytes in
        pending.(c) <- { d_dst = dst; d_req_bytes; d_resp_bytes; d_submit_at = fin } :: pending.(c);
        pending_len.(c) <- pending_len.(c) + 1;
        remaining.(c) <- remaining.(c) - 1;
        outstanding.(c) <- outstanding.(c) + 1;
        if pending_len.(c) >= p.batch || remaining.(c) = 0 then flush c;
        Pqueue.push heap ~key:ready.(c) (Step c)
      end
      else if remaining.(c) > 0 then begin
        flush c;
        parked.(c) <- true
      end
      else flush c
    in
    for c = 0 to p.clients - 1 do
      if remaining.(c) > 0 then Pqueue.push heap ~key:0 (Step c)
    done;
    let rec loop () =
      match Pqueue.pop heap with
      | None -> ()
      | Some (now, Step c) ->
        step c now;
        loop ()
      | Some (now, Rx { rx_c; rx_src; rx_dst; rx_resp; rx_submit }) ->
        let fin =
          max now engine_free.(rx_dst) + cal.Kv.service_base_ps
          + Units.transfer_ps ~bytes_per_s:cal.Kv.ram_bytes_per_s p.value_size
        in
        engine_free.(rx_dst) <- fin;
        let arrive = send ~src:rx_dst ~dst:rx_src ~now:fin rx_resp in
        Pqueue.push heap ~key:arrive (Done { dn_c = rx_c; dn_submit = rx_submit });
        loop ()
      | Some (now, Done { dn_c; dn_submit }) ->
        Percentile.record latency (now - dn_submit);
        Uldma_obs.Counters.observe counters "kv.latency_ps" (now - dn_submit);
        value_bytes := !value_bytes + p.value_size;
        outstanding.(dn_c) <- outstanding.(dn_c) - 1;
        if now > !sim_end then sim_end := now;
        if parked.(dn_c) then begin
          parked.(dn_c) <- false;
          Pqueue.push heap ~key:(max now ready.(dn_c)) (Step dn_c)
        end;
        loop ()
    in
    loop ();
    (!gets, !puts, !doorbells, !value_bytes, !wire_bytes, !sim_end, latency, counters)
end

(* everything observable about a result, as one comparable value *)
let facts (gets, puts, doorbells, value_bytes, wire_bytes, sim_ps, latency, counters) =
  ( (gets, puts, doorbells, value_bytes, wire_bytes, sim_ps),
    ( Percentile.count latency,
      Percentile.total latency,
      Percentile.min_value latency,
      Percentile.max_value latency,
      List.map (Percentile.percentile latency) [ 0.0; 0.1; 0.5; 0.9; 0.99; 0.999; 1.0 ] ),
    Uldma_obs.Counters.buckets counters "kv.latency_ps" )

let result_facts (r : Kv.result) =
  facts
    ( r.Kv.gets,
      r.Kv.puts,
      r.Kv.doorbells,
      r.Kv.value_bytes,
      r.Kv.wire_bytes,
      r.Kv.sim_ps,
      r.Kv.latency,
      r.Kv.counters )

let kv_params_gen =
  QCheck2.Gen.(
    let* nodes = int_range 2 6 and* clients = int_range 1 40 and* transfers = int_range 1 1500 in
    let* batch = int_range 1 12 and* window = int_range 1 12 and* value_size = int_range 1 512 in
    let* get_ratio = oneofl [ 0.0; 0.3; 0.5; 1.0 ] and* seed = int_range 0 1000 in
    let+ net = oneofl [ "null"; "atm155"; "gigabit"; "hic" ] in
    ( {
        Kv.default_params with
        Kv.nodes;
        clients;
        transfers;
        batch;
        window;
        value_size;
        get_ratio;
        seed;
      },
      net ))

let kv_matches_reference =
  let cal = lazy (cal ()) in
  QCheck2.Test.make ~count:60 ~name:"kv: flat event core = boxed reference DES"
    ~print:(fun ((p : Kv.params), net) ->
      Printf.sprintf
        "%s nodes=%d clients=%d transfers=%d batch=%d window=%d value=%d get=%.1f seed=%d" net
        p.Kv.nodes p.clients p.transfers p.batch p.window p.value_size p.get_ratio p.seed)
    kv_params_gen
    (fun (p, net) ->
      let net = match Backend.of_string net with Ok b -> b | Error e -> failwith e in
      let cal = Lazy.force cal in
      result_facts (Kv.run p ~cal ~net) = facts (Reference.run p ~cal ~net))
  |> QCheck_alcotest.to_alcotest

(* the default batch and window at 200 clients and 2·10^4 transfers, on
   the CPU-bound and the wire-bound wire: deep windows, many parked
   clients, long wire queues *)
let test_kv_reference_default_shape () =
  let cal = cal () in
  List.iter
    (fun name ->
      let net = match Backend.of_string name with Ok b -> b | Error e -> failwith e in
      let p = { Kv.default_params with Kv.clients = 200; transfers = 20_000 } in
      checkb (name ^ " identical") true
        (result_facts (Kv.run p ~cal ~net) = facts (Reference.run p ~cal ~net)))
    [ "gigabit"; "atm155" ]

let test_kv_no_alloc () =
  let cal = cal () in
  let net = match Backend.of_string "gigabit" with Ok b -> b | Error e -> failwith e in
  let p = { small_params with Kv.transfers = 50_000 } in
  let before = Gc.minor_words () in
  let r = Kv.run p ~cal ~net in
  let words = Gc.minor_words () -. before in
  checki "completed" p.Kv.transfers r.Kv.transfers;
  checkb
    (Printf.sprintf "%.0f minor words for %d transfers: set-up only" words p.Kv.transfers)
    true
    (words < 0.1 *. float_of_int p.Kv.transfers)

let test_kv_validate () =
  let bad f = match Kv.validate_params f with Ok _ -> false | Error _ -> true in
  checkb "0 clients" true (bad { small_params with Kv.clients = 0 });
  checkb "0 transfers" true (bad { small_params with Kv.transfers = 0 });
  checkb "0 batch" true (bad { small_params with Kv.batch = 0 });
  checkb "0 window" true (bad { small_params with Kv.window = 0 });
  checkb "0 value size" true (bad { small_params with Kv.value_size = 0 });
  checkb "get_ratio > 1" true (bad { small_params with Kv.get_ratio = 1.5 });
  checkb "1 node" true (bad { small_params with Kv.nodes = 1 });
  checkb "good params pass" true
    (match Kv.validate_params small_params with Ok _ -> true | Error _ -> false)

let () =
  Alcotest.run "cluster"
    [
      ( "percentile",
        [
          Alcotest.test_case "exact on 1..1000" `Quick test_percentile_exact;
          Alcotest.test_case "negative clamp" `Quick test_percentile_negative_clamp;
          Alcotest.test_case "merge" `Quick test_percentile_merge;
          prop_percentile_rounding;
          prop_percentile_estimate;
        ] );
      ( "backend",
        [ Alcotest.test_case "of_string validation" `Quick test_backend_of_string_errors ] );
      ( "mesh",
        [
          Alcotest.test_case "3-node explicit destination" `Quick test_three_node_explicit_dst;
          Alcotest.test_case "bounds" `Quick test_cluster_bounds;
          Alcotest.test_case "session errors" `Quick test_session_cluster_errors;
        ] );
      ( "kv",
        [
          Alcotest.test_case "calibrate" `Quick test_calibrate;
          Alcotest.test_case "determinism" `Quick test_kv_determinism;
          Alcotest.test_case "accounting" `Quick test_kv_accounting;
          Alcotest.test_case "batching speedup" `Quick test_kv_batching_speedup;
          Alcotest.test_case "validate_params" `Quick test_kv_validate;
          kv_matches_reference;
          Alcotest.test_case "reference at default shape" `Quick test_kv_reference_default_shape;
          Alcotest.test_case "event loop allocates nothing" `Quick test_kv_no_alloc;
        ] );
    ]
