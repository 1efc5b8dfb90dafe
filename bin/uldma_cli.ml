(* uldma_cli: run the paper's experiments selectively from the command
   line, list the registry, or inspect the mechanism catalog.

     uldma_cli list
     uldma_cli run table1 [--csv out.csv] [--iterations N]
     uldma_cli all
     uldma_cli mechanisms
*)

module Experiments = Uldma_sim.Experiments
module Api = Uldma.Api
module Mech = Uldma.Mech
module Trace = Uldma_obs.Trace
module Export = Uldma_obs.Export
module Scenario = Uldma_workload.Scenario
module Backend = Uldma_net.Backend
open Cmdliner

(* --trace support: install an enabled ambient sink around the body so
   every kernel the experiment builds reports into it, then export.
   All tracing chatter goes to stderr: stdout stays golden-stable. *)

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"Write a structured event trace of the run to $(docv).")

let trace_format_arg =
  Arg.(
    value
    & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl); ("summary", `Summary) ]) `Chrome
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:
          "Trace output format: $(b,chrome) (chrome://tracing / Perfetto JSON), $(b,jsonl) (one \
           event per line) or $(b,summary) (per-layer event counts).")

let with_trace trace_file trace_format f =
  match trace_file with
  | None -> f ()
  | Some path ->
    let sink = Trace.create () in
    Trace.with_ambient sink f;
    (match trace_format with
    | (`Chrome | `Jsonl) as fmt -> Export.to_file fmt path sink
    | `Summary ->
      let oc = open_out path in
      output_string oc (Uldma_util.Tbl.render (Export.summary sink));
      close_out oc);
    Printf.eprintf "(trace: %d events%s -> %s)\n%!" (Trace.total sink)
      (let d = Trace.dropped sink in
       if d > 0 then Printf.sprintf " (%d dropped at ring cap)" d else "")
      path

let list_cmd =
  let doc = "List every reproducible table/figure." in
  let run () =
    let tbl =
      Uldma_util.Tbl.create ~title:"experiments"
        ~columns:
          [ ("id", Uldma_util.Tbl.Left); ("paper", Uldma_util.Tbl.Left); ("title", Uldma_util.Tbl.Left) ]
    in
    List.iter
      (fun (e : Experiments.experiment) ->
        Uldma_util.Tbl.add_row tbl [ e.Experiments.id; e.Experiments.paper_ref; e.Experiments.title ])
      Experiments.all;
    Uldma_util.Tbl.print tbl
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_experiment id csv iterations trace_file trace_format =
  match Experiments.find id with
  | None ->
    Printf.eprintf "unknown experiment %S; try `uldma_cli list'\n" id;
    exit 1
  | Some e ->
    with_trace trace_file trace_format (fun () ->
        let tbl =
          if id = "table1" then Experiments.table1 ?iterations ()
          else e.Experiments.run ()
        in
        Uldma_util.Tbl.print tbl;
        match csv with
        | Some path ->
          let oc = open_out path in
          output_string oc (Uldma_util.Tbl.to_csv tbl);
          close_out oc;
          Printf.printf "(csv written to %s)\n" path
        | None -> ())

let run_cmd =
  let doc = "Run one experiment by id." in
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let csv = Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV.") in
  let iterations =
    Arg.(value & opt (some int) None & info [ "iterations" ] ~docv:"N" ~doc:"Initiations per mechanism (table1 only).")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run_experiment $ id $ csv $ iterations $ trace_file_arg $ trace_format_arg)

let all_cmd =
  let doc = "Run every experiment in registry order." in
  let run trace_file trace_format =
    with_trace trace_file trace_format (fun () ->
        List.iter
          (fun (e : Experiments.experiment) ->
            Printf.printf "--- %s [%s] ---\n%!" e.Experiments.id e.Experiments.paper_ref;
            Uldma_util.Tbl.print (e.Experiments.run ()))
          Experiments.all)
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ trace_file_arg $ trace_format_arg)

let mechanisms_cmd =
  let doc = "Show the mechanism catalog." in
  let run () =
    let tbl =
      Uldma_util.Tbl.create ~title:"DMA initiation mechanisms"
        ~columns:
          [
            ("name", Uldma_util.Tbl.Left);
            ("NI accesses", Uldma_util.Tbl.Right);
            ("kernel modification", Uldma_util.Tbl.Left);
            ("engine personality", Uldma_util.Tbl.Left);
          ]
    in
    List.iter
      (fun (m : Mech.t) ->
        Uldma_util.Tbl.add_row tbl
          [
            m.Mech.name;
            string_of_int m.Mech.ni_accesses;
            (if m.Mech.requires_kernel_modification then "required" else "none");
            (match m.Mech.engine_mechanism with
            | None -> "any"
            | Some Uldma_dma.Engine.Shrimp_mapped -> "shrimp-mapped"
            | Some Uldma_dma.Engine.Shrimp_two_step -> "two-step"
            | Some Uldma_dma.Engine.Flash -> "flash"
            | Some Uldma_dma.Engine.Key_based -> "key-contexts"
            | Some Uldma_dma.Engine.Ext_shadow -> "ext-shadow"
            | Some Uldma_dma.Engine.Ext_shadow_stateless -> "ext-shadow (no contexts)"
            | Some (Uldma_dma.Engine.Rep_args _) -> "sequence-recogniser"
            | Some Uldma_dma.Engine.Iommu -> "iotlb-translator"
            | Some Uldma_dma.Engine.Capio -> "capability-checker");
          ])
      Api.all;
    Uldma_util.Tbl.print tbl
  in
  Cmd.v (Cmd.info "mechanisms" ~doc) Term.(const run $ const ())

let sweep_cmd =
  let doc =
    "Custom latency sweep: measure initiation for chosen mechanisms across bus frequencies \
     and syscall costs."
  in
  let mechanisms =
    Arg.(
      value
      & opt (list string) [ "kernel"; "ext-shadow"; "rep-args"; "key-based" ]
      & info [ "mechanisms" ] ~docv:"NAMES" ~doc:"Comma-separated mechanism names.")
  in
  let bus_mhz =
    Arg.(
      value
      & opt (list float) [ 12.5 ]
      & info [ "bus-mhz" ] ~docv:"MHZ" ~doc:"Comma-separated bus frequencies in MHz.")
  in
  let syscall_cycles =
    Arg.(
      value
      & opt int 2300
      & info [ "syscall-cycles" ] ~docv:"N" ~doc:"Empty-syscall cost in CPU cycles.")
  in
  let iterations =
    Arg.(value & opt int 500 & info [ "iterations" ] ~docv:"N" ~doc:"Initiations per cell.")
  in
  let run mech_names bus_list syscall iterations =
    let tbl =
      Uldma_util.Tbl.create
        ~title:(Printf.sprintf "custom sweep (syscall = %d cycles, %d initiations/cell)" syscall iterations)
        ~columns:
          (("mechanism", Uldma_util.Tbl.Left)
          :: List.map (fun mhz -> (Printf.sprintf "%g MHz (us)" mhz, Uldma_util.Tbl.Right)) bus_list)
    in
    List.iter
      (fun name ->
        match Api.find name with
        | None ->
          Printf.eprintf "unknown mechanism %S; try `uldma_cli mechanisms'\n" name;
          exit 1
        | Some mech ->
          let cells =
            List.map
              (fun mhz ->
                let timing =
                  Uldma_bus.Timing.with_syscall_cycles
                    (Uldma_bus.Timing.with_bus_hz Uldma_bus.Timing.alpha3000_300
                       (int_of_float (mhz *. 1e6)))
                    syscall
                in
                let base = { Uldma_os.Kernel.default_config with Uldma_os.Kernel.timing } in
                let r = Uldma_sim.Measure.initiation ~base ~iterations mech in
                Printf.sprintf "%.2f" r.Uldma_sim.Measure.us_per_initiation)
              bus_list
          in
          Uldma_util.Tbl.add_row tbl (name :: cells))
      mech_names;
    Uldma_util.Tbl.print tbl
  in
  Cmd.v (Cmd.info "sweep" ~doc) Term.(const run $ mechanisms $ bus_mhz $ syscall_cycles $ iterations)

let timeline_cmd =
  let doc = "Replay an attack scenario and print its access timeline (the paper's interleaving diagrams)." in
  let which =
    Arg.(
      required
      & pos 0
          (some
             (enum
                (List.filter_map
                   (fun (e : Scenario.entry) ->
                     Option.map (fun legs -> (e.Scenario.name, (e, legs))) e.Scenario.schedule)
                   Scenario.catalogue)))
          None
      & info [] ~docv:"SCENARIO")
  in
  let run (e, schedule) trace_file trace_format =
    with_trace trace_file trace_format @@ fun () ->
    let s = Scenario.traced (fun () -> Scenario.instance e) in
    Scenario.run_legs s schedule;
    Scenario.finish s ();
    let tbl =
      Uldma_util.Tbl.create ~title:"engine-visible access timeline"
        ~columns:
          [ ("t (us)", Uldma_util.Tbl.Right); ("actor", Uldma_util.Tbl.Left); ("access", Uldma_util.Tbl.Left) ]
    in
    List.iter
      (fun (at, actor, access) ->
        Uldma_util.Tbl.add_row tbl
          [ Printf.sprintf "%.2f" (Uldma_util.Units.to_us at); actor; access ])
      (Scenario.access_timeline s);
    Uldma_util.Tbl.print tbl;
    List.iter
      (fun tr -> Format.printf "started: %a@." Uldma_dma.Transfer.pp tr)
      (Scenario.transfers s);
    Format.printf "%a@." Uldma_verify.Oracle.pp_report (Scenario.report s)
  in
  Cmd.v (Cmd.info "timeline" ~doc) Term.(const run $ which $ trace_file_arg $ trace_format_arg)

let explore_cmd =
  let doc =
    "Exhaustively explore NI-access interleavings of a contested scenario against the safety \
     oracle (the Fig. 8 proof for one variant): one sequential depth-first search with state \
     dedup through a bounded memo."
  in
  let which =
    Arg.(
      required
      & pos 0
          (some (enum (List.map (fun (e : Scenario.entry) -> (e.Scenario.name, e)) Scenario.catalogue)))
          None
      & info [] ~docv:"SCENARIO")
  in
  let no_dedup =
    Arg.(
      value
      & flag
      & info [ "no-dedup" ]
          ~doc:"Disable state deduplication: expand every schedule even through states already seen.")
  in
  let paranoid_memo =
    Arg.(
      value
      & flag
      & info [ "paranoid-memo" ]
          ~doc:
            "Key the dedup memo on full canonical encoding strings instead of streamed 126-bit \
             fingerprints. Slower, but key equality is then exactly state equality — the \
             verification mode tools/diff_explore runs differentially against the fingerprint \
             default.")
  in
  let max_paths =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "max-paths" ] ~docv:"N" ~doc:"Stop after counting $(docv) schedules (default 1M).")
  in
  let memo_cap =
    Arg.(
      value
      & opt int 262_144
      & info [ "memo-cap" ] ~docv:"N"
          ~doc:
            "Bound the dedup memo to $(docv) subtree summaries (hot generation); older entries \
             are evicted and their states re-expanded on re-encounter. Results are unchanged; \
             only peak memory and time move.")
  in
  let timed_names =
    List.filter_map
      (fun (e : Scenario.entry) ->
        match e.Scenario.build with
        | Scenario.Timed _ -> Some e.Scenario.name
        | Scenario.Untimed _ -> None)
      Scenario.catalogue
  in
  let net =
    Arg.(
      value
      & opt string "null"
      & info [ "net" ] ~docv:"BACKEND"
          ~doc:
            ("DMA wire-time model: $(b,null) (transfers complete instantly, the default), or a \
             latency-modelling link — $(b,atm155), $(b,atm622), $(b,gigabit), $(b,hic). Timed \
             backends are supported on the scenarios "
           ^ String.concat ", " timed_names
           ^ "; with one, transfer completion becomes an explorable scheduling leg (pseudo-pid -2 \
              in schedules)."))
  in
  let tick_ps =
    Arg.(
      value
      & opt int Uldma_net.Backend.default_tick_ps
      & info [ "tick-ps" ] ~docv:"PS"
          ~doc:
            "Quantise timed-backend transfer durations up to multiples of $(docv) picoseconds \
             (default 1000000 = 1us). Coarser ticks merge more states; durations are never \
             rounded down to zero.")
  in
  let run (e : Scenario.entry) no_dedup paranoid_memo max_paths memo_cap net tick_ps trace_file
      trace_format =
    with_trace trace_file trace_format @@ fun () ->
    let module Explorer = Uldma_verify.Explorer in
    let module Oracle = Uldma_verify.Oracle in
    if memo_cap < 1 then begin
      Printf.eprintf "memo_cap must be positive (got %d)\n" memo_cap;
      exit 1
    end;
    let backend =
      match Backend.of_string ~tick_ps net with
      | Ok b -> b
      | Error msg ->
        prerr_endline msg;
        exit 1
    in
    let s =
      match Scenario.instance ~net:backend e with
      | s -> s
      | exception Invalid_argument msg ->
        prerr_endline msg;
        exit 1
    in
    let t0 = Unix.gettimeofday () in
    let r =
      Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s) ~max_paths
        ~dedup:(not no_dedup) ~paranoid_memo ~memo_cap ~check:(Scenario.oracle_check s) ()
    in
    let secs = Unix.gettimeofday () -. t0 in
    let tbl =
      Uldma_util.Tbl.create
        ~title:(Printf.sprintf "interleaving exploration: %s" e.Scenario.title)
        ~columns:[ ("metric", Uldma_util.Tbl.Left); ("value", Uldma_util.Tbl.Right) ]
    in
    let row k v = Uldma_util.Tbl.add_row tbl [ k; v ] in
    (match backend with
    | Backend.Null -> ()
    | Backend.Linked _ ->
      row "net backend" (Format.asprintf "%a" Backend.pp backend);
      row "tick" (Format.asprintf "%a" Uldma_util.Units.pp_time tick_ps));
    row "schedules" (string_of_int r.Explorer.paths);
    row "violating schedules" (string_of_int (List.length r.Explorer.violations));
    row "states visited" (string_of_int r.Explorer.states_visited);
    row "dedup hits" (string_of_int r.Explorer.dedup_hits);
    row "stuck legs" (string_of_int r.Explorer.stuck_legs);
    row "memo evictions" (string_of_int r.Explorer.evictions);
    row "snapshots" (string_of_int r.Explorer.snapshots);
    if not no_dedup then begin
      row "memo keying" (if paranoid_memo then "paranoid (full encodings)" else "fingerprint-128");
      row "bytes hashed" (string_of_int r.Explorer.bytes_hashed)
    end;
    row "complete" (if r.Explorer.truncated then "TRUNCATED" else "yes");
    row "seconds" (Printf.sprintf "%.3f" secs);
    row "schedules/sec" (Printf.sprintf "%.0f" (float_of_int r.Explorer.paths /. secs));
    Uldma_util.Tbl.print tbl;
    (match Explorer.verdict r with
    | Explorer.Inconclusive ->
      Printf.printf "verdict: INCONCLUSIVE (clipped at %d schedules, no violation found)\n"
        r.Explorer.paths
    | Explorer.Safe -> Printf.printf "verdict: SAFE under all explored schedules\n"
    | Explorer.Vulnerable n -> (
      Printf.printf "verdict: VULNERABLE (%d violating schedules)\n" n;
      match r.Explorer.violations with
      | (v, schedule) :: _ ->
        Format.printf "first violation: %a@." Oracle.pp_violation v;
        Printf.printf "schedule: %s\n" (String.concat " " (List.map string_of_int schedule))
      | [] -> ()));
    if r.Explorer.truncated then exit 2;
    if r.Explorer.violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "explore" ~doc)
    Term.(
      const run $ which $ no_dedup $ paranoid_memo $ max_paths $ memo_cap $ net
      $ tick_ps $ trace_file_arg $ trace_format_arg)

let cluster_cmd =
  let module Kv = Uldma_workload.Kv_load in
  let module Backend = Uldma_net.Backend in
  let doc =
    "Drive a key-value load (thousands of client processes, millions of small GET/PUT transfers) \
     across an N-node co-simulated cluster and export tail latency per wire to \
     _results/BENCH_cluster.json."
  in
  let nodes =
    Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size (default 4).")
  in
  let clients =
    Arg.(
      value
      & opt int 1000
      & info [ "clients" ] ~docv:"K"
          ~doc:"Simulated client processes, spread round-robin over the nodes (default 1000).")
  in
  let transfers =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "transfers" ] ~docv:"M" ~doc:"Total GET/PUT requests (default 1000000).")
  in
  let net =
    Arg.(
      value
      & opt string "atm155"
      & info [ "net" ] ~docv:"BACKEND"
          ~doc:
            "Headline wire, same spellings as $(b,explore --net): $(b,null), $(b,atm155), \
             $(b,atm622), $(b,gigabit), $(b,hic) (default atm155).")
  in
  let batch =
    Arg.(
      value
      & opt int 8
      & info [ "batch" ] ~docv:"D"
          ~doc:
            "Descriptors per doorbell (default 8). Each doorbell costs one verified initiation \
             sequence; descriptors are cheap cached stores into the per-process submission queue.")
  in
  let window =
    Arg.(
      value
      & opt int 32
      & info [ "window" ] ~docv:"W" ~doc:"Max outstanding requests per client (default 32).")
  in
  let value_size =
    Arg.(
      value
      & opt int 64
      & info [ "value-size" ] ~docv:"BYTES" ~doc:"Value payload size (default 64).")
  in
  let get_ratio =
    Arg.(
      value
      & opt float 0.5
      & info [ "get-ratio" ] ~docv:"R" ~doc:"Fraction of GETs, in [0,1] (default 0.5).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed (default 42).") in
  let mech =
    Arg.(
      value
      & opt string "ext-shadow"
      & info [ "mech" ] ~docv:"MECHANISM"
          ~doc:
            "Initiation mechanism to calibrate doorbell cost from, and to install on every \
             cluster node (default ext-shadow).")
  in
  let tick_ps =
    Arg.(
      value
      & opt int Backend.default_tick_ps
      & info [ "tick-ps" ] ~docv:"PS"
          ~doc:"Tick for the timed wires (default 1000000 = 1us); must be positive.")
  in
  let backends =
    Arg.(
      value
      & opt string "atm155,atm622,gigabit,hic"
      & info [ "backends" ] ~docv:"LIST"
          ~doc:"Comma-separated wires for the per-backend sweep (default all four timed links).")
  in
  let batch_net =
    Arg.(
      value
      & opt string "gigabit"
      & info [ "batch-net" ] ~docv:"BACKEND"
          ~doc:
            "Wire for the batch-vs-unbatched comparison (default gigabit: a fast link keeps the \
             client CPU — i.e. initiation cost — the bottleneck, which is the regime doorbell \
             batching targets).")
  in
  let out =
    Arg.(
      value
      & opt string (Filename.concat "_results" "BENCH_cluster.json")
      & info [ "out" ] ~docv:"FILE" ~doc:"Report path (default _results/BENCH_cluster.json).")
  in
  let die msg =
    prerr_endline msg;
    exit 1
  in
  let run nodes clients transfers net batch window value_size get_ratio seed mech tick_ps backends
      batch_net out =
    let params =
      match
        Kv.validate_params
          {
            Kv.nodes;
            clients;
            transfers;
            batch;
            window;
            value_size;
            get_ratio;
            seed;
            mech;
          }
      with
      | Ok p -> p
      | Error e -> die e
    in
    (* --tick-ps <= 0 and unknown backend names both surface here *)
    let resolve name =
      match Backend.of_string ~tick_ps name with Ok b -> b | Error e -> die e
    in
    let headline_backend = resolve net in
    ignore (headline_backend : Backend.t);
    let sweep_names =
      let named = String.split_on_char ',' backends |> List.map String.trim in
      let named = List.filter (fun s -> s <> "") named in
      if List.mem net named then named else net :: named
    in
    let sweep_backends = List.map (fun n -> (n, resolve n)) sweep_names in
    let bat_backend = resolve batch_net in
    let cal = match Kv.calibrate mech with Ok c -> c | Error e -> die e in
    let t0 = Unix.gettimeofday () in
    (* instruction-level leg: real kernels, real mesh, real packets *)
    let cluster =
      match Uldma.Session.cluster ~net ~tick_ps ~mech ~nodes () with
      | Ok c -> c
      | Error e -> die e
    in
    let burst_words = 64 in
    let cosim_bytes, cosim_packets = Kv.cosim_burst cluster ~words:burst_words in
    if cosim_bytes <> nodes * burst_words * 8 then
      die
        (Printf.sprintf "cosim validation failed: %d bytes delivered, expected %d" cosim_bytes
           (nodes * burst_words * 8));
    Printf.printf
      "cosim: %d nodes moved %d bytes (%d packets) through the %s mesh; calibrated %s: doorbell \
       %d ps, descriptor %d ps\n"
      nodes cosim_bytes cosim_packets net mech cal.Kv.initiation_ps cal.Kv.submit_ps;
    let sweep = Kv.sweep params ~cal sweep_backends in
    let batch1 = Kv.run { params with Kv.batch = 1 } ~cal ~net:bat_backend in
    let batched = Kv.run params ~cal ~net:bat_backend in
    let wall = Unix.gettimeofday () -. t0 in
    let tbl =
      Uldma_util.Tbl.create
        ~title:
          (Printf.sprintf
             "KV service: %d nodes, %d clients, %d transfers, batch %d, %d-byte values"
             nodes clients transfers batch value_size)
        ~columns:
          [
            ("wire", Uldma_util.Tbl.Left);
            ("p50 us", Uldma_util.Tbl.Right);
            ("p99 us", Uldma_util.Tbl.Right);
            ("p999 us", Uldma_util.Tbl.Right);
            ("mean us", Uldma_util.Tbl.Right);
            ("k tx/s", Uldma_util.Tbl.Right);
            ("Gb/s", Uldma_util.Tbl.Right);
          ]
    in
    List.iter
      (fun (name, r) ->
        let pc q = float_of_int (Uldma_obs.Percentile.percentile r.Kv.latency q) /. 1e6 in
        Uldma_util.Tbl.add_row tbl
          [
            name;
            Printf.sprintf "%.1f" (pc 0.50);
            Printf.sprintf "%.1f" (pc 0.99);
            Printf.sprintf "%.1f" (pc 0.999);
            Printf.sprintf "%.1f" (Uldma_obs.Percentile.mean r.Kv.latency /. 1e6);
            Printf.sprintf "%.0f" (Kv.transfers_per_s r /. 1e3);
            Printf.sprintf "%.3f" (Kv.gbps r);
          ])
      sweep;
    Uldma_util.Tbl.print tbl;
    let report =
      {
        Kv.Report.params;
        cal;
        headline_net = net;
        sweep;
        batching = { Kv.Report.bat_net = batch_net; batch1; batched };
        cosim_nodes = nodes;
        cosim_bytes;
        cosim_packets;
      }
    in
    Printf.printf
      "doorbell batching on %s: batch=1 %.0f tx/s -> batch=%d %.0f tx/s (%.2fx)\n" batch_net
      (Kv.transfers_per_s batch1) batch (Kv.transfers_per_s batched)
      (Kv.Report.speedup report.Kv.Report.batching);
    Kv.Report.write ~path:out ~wall_seconds:wall report;
    Printf.printf "report: %s (schema v1, %.2fs wall)\n" out wall
  in
  Cmd.v
    (Cmd.info "cluster" ~doc)
    Term.(
      const run $ nodes $ clients $ transfers $ net $ batch $ window $ value_size $ get_ratio
      $ seed $ mech $ tick_ps $ backends $ batch_net $ out)

let stub_cmd =
  let doc =
    "Print the instruction sequence a mechanism's stub emits (the paper's Figs. 1-4/7 as code)."
  in
  let mech_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"MECHANISM") in
  let run mech_name =
    match Api.find mech_name with
    | None ->
      Printf.eprintf "unknown mechanism %S; try `uldma_cli mechanisms'\n" mech_name;
      exit 1
    | Some mech ->
      (* build a minimal machine so prepare can allocate real contexts
         and mappings, then print the emitted DMA(r1, r2, r3) body *)
      let s = Uldma.Session.of_mech mech in
      let p = Uldma.Session.process s ~name:"stub" ~src_pages:1 ~dst_pages:1 () in
      let asm = Uldma_cpu.Asm.create () in
      p.Uldma.Session.emit_dma asm;
      Printf.printf
        "DMA stub for %s  (entry: r1 = vsource, r2 = vdestination, r3 = size; exit: r0 = status)\n\n"
        mech.Mech.name;
      Format.printf "%a" Uldma_cpu.Isa.pp_listing (Uldma_cpu.Asm.assemble asm);
      Printf.printf "\n%d engine accesses per initiation; kernel modification: %s\n"
        mech.Mech.ni_accesses
        (if mech.Mech.requires_kernel_modification then "REQUIRED" else "none");
      if mech.Mech.name = "pal" then begin
        Printf.printf "\nPAL body (installed once, executes uninterruptibly):\n";
        Format.printf "%a" Uldma_cpu.Isa.pp_listing Uldma.Pal_dma.pal_body
      end
  in
  Cmd.v (Cmd.info "stub" ~doc) Term.(const run $ mech_arg)

let campaign_cmd =
  let module Synth = Uldma_workload.Synth in
  let module Backend = Uldma_net.Backend in
  let doc =
    "Bounded adversary synthesis: enumerate every accomplice program up to --slots ops from the \
     S/L shadow-page grammar, explore each candidate exhaustively through the campaign engine \
     (one cross-candidate shared memo per cell), and write the collusion \
     catalogue — which mechanism/backend cells admit collusion, with minimal witness programs."
  in
  let slots =
    Arg.(
      value
      & opt int 3
      & info [ "slots" ] ~docv:"N"
          ~doc:
            "Accomplice instruction slots: enumerate all canonical programs of 1..$(docv) ops \
             (4^n/2 per length n: 10 candidates at 2, 42 at 3, 682 at 5).")
  in
  let max_paths =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "max-paths" ] ~docv:"N"
          ~doc:"Per-candidate schedule budget (default 1M).")
  in
  let mechs =
    Arg.(
      value
      & opt
          (list
             (enum
                [
                  ("rep3", Synth.Rep Uldma_dma.Seq_matcher.Three);
                  ("rep4", Synth.Rep Uldma_dma.Seq_matcher.Four);
                  ("rep5", Synth.Rep Uldma_dma.Seq_matcher.Five);
                  ("pal", Synth.Pal);
                  ("key", Synth.Key);
                  ("ext", Synth.Ext);
                  ("iommu", Synth.Iommu);
                  ("capio", Synth.Capio);
                ]))
          [ Synth.Rep Uldma_dma.Seq_matcher.Five ]
      & info [ "mechs" ] ~docv:"M,.."
          ~doc:
            "Mechanisms to grid over: rep3, rep4, rep5, pal, key, ext, iommu, capio \
             (default rep5).")
  in
  let nets =
    Arg.(
      value
      & opt (list string) [ "null" ]
      & info [ "nets" ] ~docv:"B,.."
          ~doc:
            "Net backends to grid over: null, atm155, atm622, gigabit, hic (default null).")
  in
  let tick_ps =
    Arg.(
      value
      & opt int Backend.default_tick_ps
      & info [ "tick-ps" ] ~docv:"PS" ~doc:"Timed-backend duration quantum (default 1us).")
  in
  let out =
    Arg.(
      value
      & opt string "_results/collusion_catalogue.csv"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the collusion catalogue CSV to $(docv).")
  in
  let run slots max_paths mechs nets tick_ps out =
    if slots < 1 then begin
      Printf.eprintf "slots must be positive (got %d)\n" slots;
      exit 1
    end;
    let nets =
      List.map
        (fun name ->
          match Backend.of_string ~tick_ps name with
          | Ok Backend.Null -> None
          | Ok b -> Some b
          | Error e ->
            prerr_endline e;
            exit 1)
        nets
    in
    let tbl =
      Uldma_util.Tbl.create ~title:"adversary-synthesis campaign"
        ~columns:
          [
            ("mech", Uldma_util.Tbl.Left);
            ("net", Uldma_util.Tbl.Left);
            ("candidates", Uldma_util.Tbl.Right);
            ("violating", Uldma_util.Tbl.Right);
            ("paths", Uldma_util.Tbl.Right);
            ("states", Uldma_util.Tbl.Right);
            ("hits", Uldma_util.Tbl.Right);
            ("seconds", Uldma_util.Tbl.Right);
            ("witness", Uldma_util.Tbl.Left);
          ]
    in
    (* each cell runs on a table of its own: keys are comparable only
       under one baseline, and the cell's candidates share it *)
    let cells =
      List.concat_map
        (fun subject ->
          List.map
            (fun net ->
              let t0 = Unix.gettimeofday () in
              let cr = Synth.run_cell ?net ~slots ~max_paths subject in
              let c = cr.Synth.cr_cell in
              Uldma_util.Tbl.add_row tbl
                [
                  c.Synth.cell_mech;
                  c.Synth.cell_net;
                  string_of_int c.Synth.cell_candidates;
                  string_of_int c.Synth.cell_violating;
                  string_of_int c.Synth.cell_paths;
                  string_of_int c.Synth.cell_states;
                  string_of_int c.Synth.cell_hits;
                  Printf.sprintf "%.2f" (Unix.gettimeofday () -. t0);
                  c.Synth.cell_witness;
                ];
              c)
            nets)
        mechs
    in
    Uldma_util.Tbl.print tbl;
    (try Unix.mkdir (Filename.dirname out) 0o755 with Unix.Unix_error _ -> ());
    Synth.write_catalogue out cells;
    Printf.printf "catalogue -> %s\n" out;
    List.iter
      (fun c ->
        if c.Synth.cell_violating > 0 then
          Printf.printf "collusion: %s/%s admits %d violating candidate(s); minimal witness %s (%s)\n"
            c.Synth.cell_mech c.Synth.cell_net c.Synth.cell_violating c.Synth.cell_witness
            c.Synth.cell_witness_kinds)
      cells;
    if List.exists (fun c -> c.Synth.cell_truncated > 0) cells then begin
      Printf.printf "WARNING: some candidates truncated by --max-paths; catalogue is incomplete\n";
      exit 2
    end
  in
  Cmd.v
    (Cmd.info "campaign" ~doc)
    Term.(const run $ slots $ max_paths $ mechs $ nets $ tick_ps $ out)

let () =
  let doc = "User-level DMA without OS kernel modification - reproduction toolkit" in
  let info = Cmd.info "uldma_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            all_cmd;
            mechanisms_cmd;
            sweep_cmd;
            timeline_cmd;
            explore_cmd;
            campaign_cmd;
            cluster_cmd;
            stub_cmd;
          ]))
