open Uldma_util
open Uldma_os
open Uldma_dma

type process_row = {
  pid : int;
  name : string;
  state : string;
  instructions : int;
  syscalls : int;
  cpu_time_us : float;
  share : float;
}

type t = {
  processes : process_row list;
  elapsed_us : float;
  context_switches : int;
  bus_busy_us : float;
  bus_utilization : float;
  transfers_started : int;
  initiations_rejected : int;
  atomics : int;
  remote_sends : int;
  counters : Uldma_obs.Counters.t;
}

let snapshot kernel =
  let procs = Kernel.processes kernel in
  let total_cpu =
    List.fold_left (fun acc p -> acc + p.Process.cpu_time_ps) 0 procs |> max 1
  in
  let row (p : Process.t) =
    {
      pid = p.Process.pid;
      name = p.Process.name;
      state = Format.asprintf "%a" Process.pp_state p.Process.state;
      instructions = p.Process.instructions_retired;
      syscalls = p.Process.syscalls;
      cpu_time_us = Units.to_us p.Process.cpu_time_ps;
      share = float_of_int p.Process.cpu_time_ps /. float_of_int total_cpu;
    }
  in
  (* the uniform named-counter registry is the source of truth; the
     flat record fields remain as convenient typed views of it *)
  let named = Kernel.counter_snapshot kernel in
  let counters = Engine.counters (Kernel.engine kernel) in
  let elapsed = Kernel.now_ps kernel in
  let busy = Uldma_bus.Bus.busy_ps (Kernel.bus kernel) in
  {
    processes = List.map row procs;
    elapsed_us = Units.to_us elapsed;
    context_switches = Kernel.context_switches kernel;
    bus_busy_us = Units.to_us busy;
    bus_utilization = (if elapsed = 0 then 0.0 else float_of_int busy /. float_of_int elapsed);
    transfers_started = Engine.n_transfers (Kernel.engine kernel);
    initiations_rejected = counters.Engine.rejected;
    atomics = counters.Engine.atomics;
    remote_sends = counters.Engine.remote_sends;
    counters = named;
  }

let to_table t =
  let tbl =
    Tbl.create ~title:"machine accounting"
      ~columns:
        [
          ("process", Tbl.Left);
          ("state", Tbl.Left);
          ("instructions", Tbl.Right);
          ("syscalls", Tbl.Right);
          ("cpu time (us)", Tbl.Right);
          ("share", Tbl.Right);
        ]
  in
  List.iter
    (fun r ->
      Tbl.add_row tbl
        [
          Printf.sprintf "%d:%s" r.pid r.name;
          r.state;
          string_of_int r.instructions;
          string_of_int r.syscalls;
          Printf.sprintf "%.1f" r.cpu_time_us;
          Printf.sprintf "%.0f%%" (100.0 *. r.share);
        ])
    t.processes;
  Tbl.add_rule tbl;
  let summary label value = Tbl.add_row tbl [ label; value; ""; ""; ""; "" ] in
  summary "elapsed" (Printf.sprintf "%.1f us" t.elapsed_us);
  summary "context switches" (string_of_int t.context_switches);
  summary "bus utilization" (Printf.sprintf "%.0f%% (%.1f us busy)" (100.0 *. t.bus_utilization) t.bus_busy_us);
  summary "transfers / rejects" (Printf.sprintf "%d / %d" t.transfers_started t.initiations_rejected);
  summary "atomic ops" (string_of_int t.atomics);
  summary "remote sends" (string_of_int t.remote_sends);
  Tbl.add_rule tbl;
  List.iter (fun (name, v) -> summary name v) (Uldma_obs.Counters.rows t.counters);
  tbl

let fairness_spread t =
  let times =
    List.filter_map
      (fun r -> if r.cpu_time_us > 0.0 then Some r.cpu_time_us else None)
      t.processes
  in
  match times with
  | [] -> 1.0
  | first :: rest ->
    let mn = List.fold_left min first rest and mx = List.fold_left max first rest in
    if mn = 0.0 then infinity else mx /. mn
