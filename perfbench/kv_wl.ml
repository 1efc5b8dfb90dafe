(* Workloads [kv-cpu] (gigabit: the client CPU and doorbell are the
   bottleneck) and [kv-wire] (atm155: the wire is). Both run Kv_load.run
   with the default parameters and the seed as params.seed, after the
   same calibration and co-simulation `uldma_cli cluster` does. An op
   is one KV transfer. *)

module Kv = Uldma_workload.Kv_load
module Backend = Uldma_net.Backend
module Percentile = Uldma_obs.Percentile

let burst_words = 64

type env = {
  net : string;
  params : Kv.params;
  cal : Kv.calibration;
  backend : Backend.t;
  cosim : int * int;  (** bytes, packets *)
  calibrate_s : float;
  cosim_s : float;
}

let get = function Ok x -> x | Error e -> failwith e

let setup ~net ~size ~seed () =
  let transfers = match size with Pb.Full -> Kv.default_params.Kv.transfers | Pb.Tiny -> 10_000 in
  let params = { Kv.default_params with Kv.seed; transfers } in
  let cal, calibrate_s = Pb.time (fun () -> get (Kv.calibrate params.Kv.mech)) in
  let cosim, cosim_s =
    Pb.time (fun () ->
        let cluster =
          get (Uldma.Session.cluster ~net ~mech:params.Kv.mech ~nodes:params.Kv.nodes ())
        in
        Kv.cosim_burst cluster ~words:burst_words)
  in
  { net; params; cal; backend = get (Backend.of_string net); cosim; calibrate_s; cosim_s }

let pass ?(call = fun f -> f ()) env =
  call (fun () -> Kv.run env.params ~cal:env.cal ~net:env.backend)

(* ------------------------------------------------------------------ *)
(* Checks *)

let us ps = float_of_int ps /. 1e6
let pct (r : Kv.result) q = Percentile.percentile r.Kv.latency q

(* (net, seed, transfers) -> p50/p99/p999 as `uldma_cli cluster` prints them *)
let load_pins () =
  List.filter_map
    (function
      | [ net; seed; transfers; p50; p99; p999 ] ->
        Some ((net, int_of_string seed, int_of_string transfers), [ p50; p99; p999 ])
      | _ -> None)
    (Pb.read_rows (Pb.ref_path "kv.tsv"))

(* Conservation invariants; a failing pass fails all its transfers. *)
let check pins env (r : Kv.result) =
  let p = env.params in
  let n = p.Kv.transfers in
  let printed = List.map (fun q -> Printf.sprintf "%.1f" (us (pct r q))) [ 0.50; 0.99; 0.999 ] in
  let conditions =
    [
      ("completed = transfers", r.Kv.transfers = n && Percentile.count r.Kv.latency = n);
      ("gets + puts = transfers", r.Kv.gets + r.Kv.puts = n);
      ("value_bytes = transfers x value_size", r.Kv.value_bytes = n * p.Kv.value_size);
      ( "transfers/batch <= doorbells <= transfers",
        r.Kv.doorbells >= (n + p.Kv.batch - 1) / p.Kv.batch && r.Kv.doorbells <= n );
      ( "p50 <= p99 <= p999 <= max",
        pct r 0.50 <= pct r 0.99
        && pct r 0.99 <= pct r 0.999
        && pct r 0.999 <= Percentile.max_value r.Kv.latency );
      ( "cosim delivered every burst word",
        env.cosim = (p.Kv.nodes * burst_words * 8, p.Kv.nodes * burst_words) );
      ( "percentiles equal the CLI's at a pinned seed",
        match List.assoc_opt (env.net, p.Kv.seed, n) pins with
        | Some want -> want = printed
        | None -> true );
    ]
  in
  let failed = List.filter (fun (_, ok) -> not ok) conditions in
  List.iter (fun (what, _) -> Pb.complain "%s seed %d: %s" env.net p.Kv.seed what) failed;
  (n, if failed = [] then 0 else n)

(* ------------------------------------------------------------------ *)
(* Microbenchmarks for the DES's own layers, timed over a loop *)

let per_call_ns ~n f =
  Pb.median
    (List.init 5 (fun _ ->
         let (), dt = Pb.time f in
         dt *. 1e9 /. float_of_int n))

(* One push plus one pop on a heap held at [depth] events. *)
let pqueue_ns ~seed ~depth =
  let module Pq = Uldma_util.Pqueue in
  let rng = Uldma_util.Rng.create ~seed in
  let n = 200_000 in
  let gaps = Array.init n (fun _ -> Uldma_util.Rng.int rng 1_000_000) in
  let q = Pq.create () in
  for i = 1 to depth do
    Pq.push q ~key:gaps.(i mod n) ()
  done;
  per_call_ns ~n (fun () ->
      for i = 0 to n - 1 do
        match Pq.pop q with Some (k, ()) -> Pq.push q ~key:(k + gaps.(i)) () | None -> ()
      done)

let percentile_record_ns ~seed (r : Kv.result) =
  let rng = Uldma_util.Rng.create ~seed in
  let n = 1_000_000 in
  let lo = Percentile.min_value r.Kv.latency and hi = Percentile.max_value r.Kv.latency in
  let values = Array.init n (fun _ -> lo + Uldma_util.Rng.int rng (max 1 (hi - lo))) in
  let p = Percentile.create () in
  per_call_ns ~n (fun () -> Array.iter (Percentile.record p) values)

(* ------------------------------------------------------------------ *)
(* Runs *)

let run ~net ~seed ~size =
  let pins = load_pins () in
  Pb.one_pass ~setup:(setup ~net ~size ~seed)
    ~pass:(fun call env -> pass ~call env)
    ~check:(check pins)

let paper_initiation_us = 1.1 (* Table 1, extended shadow addressing *)

let traced ~net ~seed ~size =
  let pins = load_pins () in
  let env = setup ~net ~size ~seed () in
  Gc.full_major ();
  let m = Pb.meter () in
  let plain = pass ~call:(Pb.metered m) env in
  let ops1, bad1 = check pins env plain in
  Gc.full_major ();
  let (r, gc), wall = Pb.time (fun () -> Pb.with_gc (fun () -> pass env)) in
  let ops2, bad2 = check pins env r in
  let p = env.params and cal = env.cal in
  let n = float_of_int p.Kv.transfers in
  let nodes = float_of_int p.Kv.nodes in
  let sim_ps = float_of_int r.Kv.sim_ps in
  let link = match Backend.link env.backend with Some l -> l | None -> Uldma_net.Link.instant in
  let wire_ps = float_of_int r.Kv.wire_bytes /. link.Uldma_net.Link.bytes_per_s *. 1e12 in
  let service_ps =
    cal.Kv.service_base_ps
    + Uldma_util.Units.transfer_ps ~bytes_per_s:cal.Kv.ram_bytes_per_s p.Kv.value_size
  in
  (* Little's law: one Step per client plus one Rx or Done per
     transfer in flight *)
  let depth =
    p.Kv.clients
    + int_of_float (Kv.transfers_per_s r *. Percentile.mean r.Kv.latency *. 1e-12)
  in
  let (pq_ns, rec_ns), micro_s =
    Pb.time (fun () -> (pqueue_ns ~seed ~depth, percentile_record_ns ~seed r))
  in
  (* per transfer the DES pushes and pops at least a Step, an Rx and a
     Done, and records one latency *)
  let util = (((3.0 *. n) +. float_of_int p.Kv.clients) *. pq_ns) *. 1e-9 in
  let obs = n *. rec_ns *. 1e-9 in
  let initiation_us = us cal.Kv.initiation_ps in
  {
    Pb.attempted = ops1 + ops2;
    failed = bad1 + bad2;
    correct = true;
    metrics =
      [
        ("gc.minor_words_per_transfer", gc.Pb.minor_words /. n);
        ("gc.top_heap_mb", Pb.top_heap_mb ());
        ("kv.run_ns_per_transfer", wall *. 1e9 /. n);
        ("util.pqueue_ns", pq_ns);
        ("obs.percentile_record_ns", rec_ns);
        ("kv.descriptors_per_doorbell", n /. float_of_int r.Kv.doorbells);
        ( "kv.cpu_util",
          ((float_of_int r.Kv.doorbells *. float_of_int cal.Kv.initiation_ps)
          +. (n *. float_of_int cal.Kv.submit_ps))
          /. (nodes *. sim_ps) );
        ("kv.wire_util", wire_ps /. (nodes *. (nodes -. 1.0) *. sim_ps));
        ("kv.ni_util", n *. float_of_int service_ps /. (nodes *. sim_ps));
        ( "kv.wire_bytes_per_value_byte",
          float_of_int r.Kv.wire_bytes /. float_of_int r.Kv.value_bytes );
        ("sim_p50_us", us (pct r 0.50));
        ("sim_p99_us", us (pct r 0.99));
        ("sim_p999_us", us (pct r 0.999));
        ("sim_goodput_gbps", Kv.gbps r);
        ("core.calibrate_s", env.calibrate_s);
        ("core.cosim_s", env.cosim_s);
        ("core.initiation_us", initiation_us);
        ("core.initiation_err_vs_paper", (initiation_us /. paper_initiation_us) -. 1.0);
        ("attr.wall_s", wall);
        ("attr.util_s", util);
        ("attr.obs_s", obs);
        ("attr.self_s", wall -. (util +. obs));
        ("trace.overhead", (wall +. micro_s) /. m.Pb.raw);
      ]
      @ Pb.host_metrics m;
  }
