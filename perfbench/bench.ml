(* The benchmark program. run.py builds it and runs it in fresh
   processes:

     bench.exe --workload W --seed N [--setup | --trace 1] [--size full|tiny]

   By default it sets up once and runs one pass, checked outside the
   timing (norm_ops_per_s); --setup times repeated set-ups (setup_s);
   --trace 1 makes the traced run (every per-layer metric). The last
   line of stdout is the result object (see NOTES.md); failed checks
   are reported on stderr. `bench.exe --pin` regenerates the pinned
   references in perfbench/ref from cold and brute-force runs. Paths
   are relative to the repository root, where run.py starts it. *)

let () =
  let workload = ref "" and seed = ref 0 and trace = ref 0 and setup_only = ref false in
  let size = ref Pb.Full and pin = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W campaign | trees | kv-cpu | kv-wire");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--setup", Arg.Set setup_only, " time repeated set-ups instead of running a pass");
      ("--trace", Arg.Set_int trace, "0|1 one pass, or the per-layer traced run");
      ( "--size",
        Arg.Symbol ([ "full"; "tiny" ], fun s -> size := if s = "tiny" then Pb.Tiny else Pb.Full),
        " workload size (tiny is for the self-test)" );
      ("--pin", Arg.Set pin, " regenerate the pinned references and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N [--setup | --trace 1]";
  if !pin then begin
    Campaign_wl.pin ();
    Trees_wl.pin ()
  end
  else begin
    let seed = !seed and size = !size in
    (* (set-up, one pass, traced run) of the workload *)
    let setup, pass, traced =
      match !workload with
      | "campaign" ->
        ( (fun () -> ignore (Campaign_wl.setup ~size ~seed ())),
          (fun () -> Campaign_wl.run ~seed ~size),
          fun () -> Campaign_wl.traced ~seed ~size )
      | "trees" ->
        ( (fun () -> ignore (Trees_wl.setup ~size ~seed ())),
          (fun () -> Trees_wl.run ~seed ~size),
          fun () -> Trees_wl.traced ~seed ~size )
      | ("kv-cpu" | "kv-wire") as w ->
        let net = if w = "kv-cpu" then "gigabit" else "atm155" in
        ( (fun () -> ignore (Kv_wl.setup ~net ~size ~seed ())),
          (fun () -> Kv_wl.run ~net ~seed ~size),
          fun () -> Kv_wl.traced ~net ~seed ~size )
      | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
    in
    let catalogue, run =
      if !setup_only then (Pb.setup_metrics, fun () -> Pb.time_setup setup)
      else if !trace <> 0 then (Pb.per_layer, traced)
      else (Pb.pass_metrics, pass)
    in
    (* a run that raises is one failed op, not a missing result *)
    let report =
      try run ()
      with e ->
        Pb.complain "%s raised %s" !workload (Printexc.to_string e);
        { Pb.attempted = 1; failed = 1; correct = false; metrics = [] }
    in
    Pb.print_report ~catalogue report
  end
