(* Tests for the bus library: clock, timing, write buffer, bus routing. *)

open Uldma_util
open Uldma_mem
open Uldma_bus

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Clock *)

let test_clock () =
  let c = Clock.create () in
  checki "starts at 0" 0 (Clock.now c);
  Clock.advance c 100;
  Clock.advance c 50;
  checki "accumulates" 150 (Clock.now c);
  let c2 = Clock.copy c in
  Clock.advance c2 10;
  checki "copy independent" 150 (Clock.now c)

(* ------------------------------------------------------------------ *)
(* Timing *)

let tm = Timing.alpha3000_300

let test_timing_cycles () =
  checki "cpu cycle" 6667 (Timing.cpu_cycle_ps tm);
  checki "bus cycle" 80_000 (Timing.bus_cycle_ps tm);
  checki "store crossing" (7 * 80_000) (Timing.uncached_ps tm Txn.Store);
  checki "load crossing" (5 * 80_000) (Timing.uncached_ps tm Txn.Load)

let test_timing_kernel_costs () =
  (* the Table 1 anchor: the empty syscall is ~15.3 us at 150 MHz *)
  let syscall_us = Units.to_us (Timing.syscall_ps tm) in
  checkb "syscall in 1000-5000 cycle range" true (syscall_us > 6.0 && syscall_us < 34.0);
  checkb "ctx switch positive" true (Timing.context_switch_ps tm > 0);
  checkb "pal cheaper than syscall" true (Timing.pal_call_ps tm < Timing.syscall_ps tm)

let test_timing_presets () =
  checki "pci33" 33_000_000 Timing.pci33.Timing.bus_hz;
  checki "pci66" 66_000_000 Timing.pci66.Timing.bus_hz;
  checkb "faster bus = cheaper crossing" true
    (Timing.uncached_ps Timing.pci66 Txn.Store < Timing.uncached_ps tm Txn.Store)

let test_timing_with () =
  let t2 = Timing.with_bus_hz tm 50_000_000 in
  checki "bus set" 50_000_000 t2.Timing.bus_hz;
  checki "cpu untouched" tm.Timing.cpu_hz t2.Timing.cpu_hz;
  let t3 = Timing.with_syscall_cycles tm 5000 in
  checki "syscall set" 5000 t3.Timing.syscall_cpu_cycles

(* Every stored price is its cycle count times the cycle time of the
   right clock, for every preset and every derived model: prices are
   computed once, by one constructor, and never drift from the counts. *)
let test_timing_price_table () =
  let models =
    [
      ("alpha3000_300", tm);
      ("pci33", Timing.pci33);
      ("pci66", Timing.pci66);
      ("modern", Timing.modern);
      ("with_bus_hz", Timing.with_bus_hz tm 50_000_000);
      ("with_syscall_cycles", Timing.with_syscall_cycles tm 5000);
      ("both", Timing.with_syscall_cycles (Timing.with_bus_hz Timing.pci66 25_000_000) 900);
    ]
  in
  List.iter
    (fun (name, (m : Timing.t)) ->
      let cpu n = n * Units.cycle_ps ~hz:m.Timing.cpu_hz
      and bus n = n * Units.cycle_ps ~hz:m.Timing.bus_hz in
      let check field expected actual = checki (name ^ " " ^ field) expected actual in
      check "cpu cycle" (cpu 1) m.Timing.cpu_cycle_ps;
      check "bus cycle" (bus 1) m.Timing.bus_cycle_ps;
      check "instruction" (cpu m.Timing.instruction_cpu_cycles) m.Timing.instruction_ps;
      check "cached access" (cpu m.Timing.cached_access_cpu_cycles) m.Timing.cached_access_ps;
      check "uncached store" (bus m.Timing.uncached_store_bus_cycles) m.Timing.uncached_store_ps;
      check "uncached load" (bus m.Timing.uncached_load_bus_cycles) m.Timing.uncached_load_ps;
      check "memory barrier" (cpu m.Timing.memory_barrier_cpu_cycles) m.Timing.memory_barrier_ps;
      check "syscall" (cpu m.Timing.syscall_cpu_cycles) m.Timing.syscall_ps;
      check "translate" (cpu m.Timing.translate_cpu_cycles) m.Timing.translate_ps;
      check "check size" (cpu m.Timing.check_size_cpu_cycles) m.Timing.check_size_ps;
      check "context switch" (cpu m.Timing.context_switch_cpu_cycles) m.Timing.context_switch_ps;
      check "pal call" (cpu m.Timing.pal_call_cpu_cycles) m.Timing.pal_call_ps;
      check "tlb miss" (cpu m.Timing.tlb_miss_cpu_cycles) m.Timing.tlb_miss_ps;
      check "iotlb walk" (bus m.Timing.iotlb_walk_bus_cycles) m.Timing.iotlb_walk_ps;
      (* the accessors read the same table *)
      check "instruction_ps" m.Timing.instruction_ps (Timing.instruction_ps m);
      check "uncached_ps store" m.Timing.uncached_store_ps (Timing.uncached_ps m Txn.Store);
      check "uncached_ps load" m.Timing.uncached_load_ps (Timing.uncached_ps m Txn.Load);
      check "syscall_ps" m.Timing.syscall_ps (Timing.syscall_ps m))
    models

(* ------------------------------------------------------------------ *)
(* Write buffer *)

let collect () =
  let out = ref [] in
  let emit () ~paddr ~value = out := (paddr, value) :: !out in
  (out, emit)

let emitted out = List.rev !out

let test_wbuf_ordered_passthrough () =
  let wb = Write_buffer.create ~dg:[| 0; 0 |] Write_buffer.Ordered in
  let out, emit = collect () in
  Write_buffer.store wb ~emit () ~paddr:8 ~value:1;
  Write_buffer.store wb ~emit () ~paddr:16 ~value:2;
  Alcotest.(check (list (pair int int))) "immediate" [ (8, 1); (16, 2) ] (emitted out);
  checkb "nothing pending" true (Write_buffer.pending wb = []);
  checkb "loads go to bus" true (Write_buffer.load wb ~paddr:8 = `To_bus)

let bypass = Write_buffer.Bypass { forward = true; collapse = true }

let test_wbuf_bypass_buffers () =
  let wb = Write_buffer.create ~dg:[| 0; 0 |] bypass in
  let out, emit = collect () in
  Write_buffer.store wb ~emit () ~paddr:8 ~value:1;
  Alcotest.(check (list (pair int int))) "nothing emitted" [] (emitted out);
  Alcotest.(check (list (pair int int))) "pending" [ (8, 1) ] (Write_buffer.pending wb)

let test_wbuf_collapse () =
  let wb = Write_buffer.create ~dg:[| 0; 0 |] bypass in
  let out, emit = collect () in
  Write_buffer.store wb ~emit () ~paddr:8 ~value:1;
  Write_buffer.store wb ~emit () ~paddr:8 ~value:2;
  Alcotest.(check (list (pair int int))) "collapsed" [ (8, 2) ] (Write_buffer.pending wb);
  Write_buffer.barrier wb ~emit ();
  Alcotest.(check (list (pair int int))) "only latest value reaches the bus" [ (8, 2) ]
    (emitted out)

let test_wbuf_no_collapse_mode () =
  let wb = Write_buffer.create ~dg:[| 0; 0 |] (Write_buffer.Bypass { forward = true; collapse = false }) in
  let out, emit = collect () in
  Write_buffer.store wb ~emit () ~paddr:8 ~value:1;
  Write_buffer.store wb ~emit () ~paddr:8 ~value:2;
  Alcotest.(check (list (pair int int)))
    "both buffered" [ (8, 1); (8, 2) ] (Write_buffer.pending wb);
  ignore (emitted out)

let test_wbuf_forwarding () =
  let wb = Write_buffer.create ~dg:[| 0; 0 |] bypass in
  let _, emit = collect () in
  Write_buffer.store wb ~emit () ~paddr:8 ~value:42;
  (match Write_buffer.load wb ~paddr:8 with
  | `Forwarded v -> checki "forwarded latest" 42 v
  | `To_bus -> Alcotest.fail "expected forwarding");
  checkb "other address to bus" true (Write_buffer.load wb ~paddr:16 = `To_bus);
  checkb "store stays buffered after forward" true (Write_buffer.pending wb <> [])

let test_wbuf_no_forward_mode () =
  let wb = Write_buffer.create ~dg:[| 0; 0 |] (Write_buffer.Bypass { forward = false; collapse = true }) in
  let _, emit = collect () in
  Write_buffer.store wb ~emit () ~paddr:8 ~value:42;
  checkb "load bypasses without forwarding" true (Write_buffer.load wb ~paddr:8 = `To_bus)

let test_wbuf_barrier_fifo () =
  let wb = Write_buffer.create ~dg:[| 0; 0 |] bypass in
  let out, emit = collect () in
  Write_buffer.store wb ~emit () ~paddr:8 ~value:1;
  Write_buffer.store wb ~emit () ~paddr:16 ~value:2;
  Write_buffer.store wb ~emit () ~paddr:24 ~value:3;
  Write_buffer.barrier wb ~emit ();
  Alcotest.(check (list (pair int int)))
    "drained oldest first" [ (8, 1); (16, 2); (24, 3) ] (emitted out);
  checkb "empty after barrier" true (Write_buffer.pending wb = [])

let test_wbuf_capacity_drain () =
  let wb = Write_buffer.create ~capacity:2 ~dg:[| 0; 0 |] bypass in
  let out, emit = collect () in
  Write_buffer.store wb ~emit () ~paddr:8 ~value:1;
  Write_buffer.store wb ~emit () ~paddr:16 ~value:2;
  Write_buffer.store wb ~emit () ~paddr:24 ~value:3;
  Alcotest.(check (list (pair int int))) "oldest spilled" [ (8, 1) ] (emitted out);
  checki "two still pending" 2 (List.length (Write_buffer.pending wb))

let wbuf_barrier_empties =
  qtest "write_buffer: after a barrier nothing is pending"
    QCheck2.Gen.(list_size (int_range 0 20) (pair (int_range 0 7) (int_range 0 100)))
    (fun stores ->
      let wb = Write_buffer.create ~dg:[| 0; 0 |] bypass in
      let _, emit = collect () in
      List.iter (fun (slot, value) -> Write_buffer.store wb ~emit () ~paddr:(slot * 8) ~value) stores;
      Write_buffer.barrier wb ~emit ();
      Write_buffer.pending wb = [])

let wbuf_forward_returns_latest =
  qtest "write_buffer: forwarding returns the most recent store"
    QCheck2.Gen.(list_size (int_range 1 4) (int_range 0 100))
    (fun values ->
      let wb = Write_buffer.create ~dg:[| 0; 0 |] (Write_buffer.Bypass { forward = true; collapse = false }) in
      let _, emit = collect () in
      List.iter (fun value -> Write_buffer.store wb ~emit () ~paddr:8 ~value) values;
      match (Write_buffer.load wb ~paddr:8, List.rev values) with
      | `Forwarded v, last :: _ -> v = last
      | `To_bus, _ | `Forwarded _, [] -> false)

(* model-based fuzz for the bypass buffer: compare against a reference
   bounded FIFO with collapse and store-to-load forwarding; after every
   op the buffer's digest cell must equal the digest recomputed from
   its queue *)
let wbuf_model_fuzz =
  qtest "write_buffer: agrees with a reference queue" ~count:300
    QCheck2.Gen.(list_size (int_range 1 40) (triple (int_range 0 2) (int_range 0 5) (int_range 0 99)))
    (fun script ->
      let dg = [| 0; 0 |] in
      let wb = Write_buffer.create ~capacity:4 ~dg bypass in
      let model = ref [] (* oldest first *) in
      let emitted_real = ref [] and emitted_model = ref [] in
      let emit_real () ~paddr ~value = emitted_real := (paddr, value) :: !emitted_real in
      let emit_model paddr value = emitted_model := (paddr, value) :: !emitted_model in
      let model_store paddr value =
        if List.mem_assoc paddr !model then
          model := List.map (fun (p, v) -> if p = paddr then (p, value) else (p, v)) !model
        else begin
          model := !model @ [ (paddr, value) ];
          if List.length !model > 4 then begin
            match !model with
            | (p, v) :: rest ->
              model := rest;
              emit_model p v
            | [] -> ()
          end
        end
      in
      List.for_all
        (fun (op, slot, value) ->
          let paddr = slot * 8 in
          (match op with
          | 0 ->
            Write_buffer.store wb ~emit:emit_real () ~paddr ~value;
            model_store paddr value;
            true
          | 1 -> (
            let expected =
              List.fold_left (fun acc (p, v) -> if p = paddr then Some v else acc) None !model
            in
            match (Write_buffer.load wb ~paddr, expected) with
            | `Forwarded v, Some v' -> v = v'
            | `To_bus, None -> true
            | `Forwarded _, None | `To_bus, Some _ -> false)
          | _ ->
            Write_buffer.barrier wb ~emit:emit_real ();
            List.iter (fun (p, v) -> emit_model p v) !model;
            model := [];
            true)
          && (dg.(0), dg.(1)) = Fp128.sum_terms Write_buffer.iter_terms wb)
        script
      && !emitted_real = !emitted_model
      && Write_buffer.pending wb = !model)

(* ------------------------------------------------------------------ *)
(* Bus *)

let make_bus () =
  let clock = Clock.create () in
  let ram = Phys_mem.create ~size:(4 * Layout.page_size) in
  (Bus.create ~clock ~timing:tm ~ram (), clock, ram)

module Trace = Uldma_obs.Trace

(* the bus's transactions as its sink recorded them *)
let accesses sink =
  List.filter_map
    (fun (r : Trace.record) ->
      match r.Trace.kind with
      | Trace.Uncached_access { op; paddr; value } ->
        Some (r.Trace.machine, r.Trace.pid, op, paddr, value, r.Trace.at)
      | _ -> None)
    (Trace.events sink)

let test_bus_ram_roundtrip () =
  let bus, _, ram = make_bus () in
  Bus.store bus ~pid:1 ~cacheable:true 64 77;
  checki "via bus" 77 (Bus.load bus ~pid:1 ~cacheable:true 64);
  checki "in ram" 77 (Phys_mem.load_word ram 64)

let test_bus_charges_time () =
  let bus, clock, _ = make_bus () in
  let t0 = Clock.now clock in
  Bus.store bus ~pid:1 ~cacheable:true 64 1;
  let cached_cost = Clock.now clock - t0 in
  checki "cached store costs one cpu cycle" (Timing.cached_access_ps tm) cached_cost;
  let t1 = Clock.now clock in
  Bus.store bus ~pid:1 ~cacheable:false 64 1;
  checki "uncached store costs bus cycles" (Timing.uncached_ps tm Txn.Store) (Clock.now clock - t1);
  let t2 = Clock.now clock in
  ignore (Bus.load bus ~pid:1 ~cacheable:false 64 : int);
  checki "uncached load costs bus cycles" (Timing.uncached_ps tm Txn.Load) (Clock.now clock - t2)

let test_bus_device_claim () =
  let bus, _, _ = make_bus () in
  let seen = ref [] in
  Bus.register_device bus
    {
      Bus.claims = (fun paddr -> paddr >= 0x1000_0000);
      handle =
        (fun () op ~paddr:_ ~value ~pid ->
          seen := (value, pid) :: !seen;
          match op with Txn.Load -> 99 | Txn.Store -> 0);
    };
  Bus.store bus ~pid:3 ~cacheable:false 0x1000_0008 5;
  checki "device load reply" 99 (Bus.load bus ~pid:3 ~cacheable:false 0x1000_0000);
  checki "device saw both" 2 (List.length !seen);
  (match !seen with
  | [ (_, load_pid); (store_value, _) ] ->
    checki "store value" 5 store_value;
    checki "provenance pid" 3 load_pid
  | _ -> Alcotest.fail "expected two transactions");
  (* RAM unaffected by device-claimed access *)
  checki "ram untouched" 0 (Bus.load bus ~pid:3 ~cacheable:true 8)

let test_bus_error () =
  let bus, _, ram = make_bus () in
  let beyond = Phys_mem.size ram + 64 in
  Alcotest.check_raises "unclaimed address" (Bus.Bus_error beyond) (fun () ->
      ignore (Bus.load bus ~pid:1 ~cacheable:false beyond : int))

let test_bus_trace () =
  let bus, clock, _ = make_bus () in
  let sink = Trace.create () in
  Bus.set_sink bus ~machine:3 sink;
  Bus.store bus ~pid:1 ~cacheable:false 8 0x11;
  let t_store = Clock.now clock in
  ignore (Bus.load bus ~pid:2 ~cacheable:false 8 : int);
  let t_load = Clock.now clock in
  (* cached accesses are not engine-visible and emit nothing *)
  Bus.store bus ~pid:1 ~cacheable:true 16 1;
  ignore (Bus.load bus ~pid:1 ~cacheable:true 16 : int);
  Bus.store bus ~pid:(-1) ~cacheable:false 24 0x22;
  let t_kernel = Clock.now clock in
  checkb "uncached crossings in issue order, with pid, paddr, value and time" true
    (accesses sink
    = [
        (3, 1, `Store, 8, 0x11, t_store);
        (3, 2, `Load, 8, 0, t_load);
        (3, -1, `Store, 24, 0x22, t_kernel);
      ]);
  checki "nothing else emitted" 3 (Trace.total sink)

let test_bus_pid_counters () =
  let bus, _, _ = make_bus () in
  checki "fresh pid" 0 (Bus.pid_access_count bus 1);
  (* counted even with tracing off, kernel pid -1 included *)
  Bus.store bus ~pid:1 ~cacheable:false 8 1;
  ignore (Bus.load bus ~pid:1 ~cacheable:false 8 : int);
  Bus.store bus ~pid:(-1) ~cacheable:false 16 2;
  Bus.store bus ~pid:1 ~cacheable:true 24 3;
  (* cached: not engine-visible *)
  checki "pid 1 uncached accesses" 2 (Bus.pid_access_count bus 1);
  checki "kernel accesses" 1 (Bus.pid_access_count bus (-1));
  checki "unseen pid" 0 (Bus.pid_access_count bus 99);
  Bus.store bus ~pid:200 ~cacheable:false 32 4;
  (* forces counter growth *)
  checki "large pid" 1 (Bus.pid_access_count bus 200);
  checki "pid 1 unaffected" 2 (Bus.pid_access_count bus 1)

let test_bus_device_dispatch_order () =
  let bus, _, _ = make_bus () in
  let hits = ref [] in
  let dev tag =
    {
      Bus.claims = (fun paddr -> paddr >= 0x1000_0000);
      handle =
        (fun () _ ~paddr:_ ~value:_ ~pid:_ ->
          hits := tag :: !hits;
          tag);
    }
  in
  for tag = 1 to 10 do
    Bus.register_device bus (dev tag)
  done;
  (* overlapping claims: first registered wins *)
  checki "first device wins" 1 (Bus.load bus ~pid:1 ~cacheable:false 0x1000_0000);
  Alcotest.(check (list int)) "only the winner handled it" [ 1 ] !hits

let test_bus_copy_carries_accounting () =
  let bus, _, _ = make_bus () in
  let sink = Trace.create () in
  Bus.set_sink bus ~machine:0 sink;
  Bus.store bus ~pid:1 ~cacheable:false 8 1;
  Bus.store bus ~pid:2 ~cacheable:false 16 2;
  let clock = Clock.create () in
  let ram = Phys_mem.create ~size:(4 * Layout.page_size) in
  let snap = Bus.copy bus ~ram ~clock () in
  checki "busy_ps carried" (Bus.busy_ps bus) (Bus.busy_ps snap);
  checki "pid 1 counter carried" 1 (Bus.pid_access_count snap 1);
  checki "pid 2 counter carried" 1 (Bus.pid_access_count snap 2);
  Bus.store snap ~pid:1 ~cacheable:false 8 3;
  checki "snap counter advances" 2 (Bus.pid_access_count snap 1);
  checki "original counter unaffected" 1 (Bus.pid_access_count bus 1);
  (* the sink is carried: the snapshot reports into it too *)
  checki "snap emits into the shared sink" 3 (List.length (accesses sink))

let () =
  Alcotest.run "bus"
    [
      ("clock", [ Alcotest.test_case "advance/copy" `Quick test_clock ]);
      ( "timing",
        [
          Alcotest.test_case "cycle costs" `Quick test_timing_cycles;
          Alcotest.test_case "kernel costs" `Quick test_timing_kernel_costs;
          Alcotest.test_case "presets" `Quick test_timing_presets;
          Alcotest.test_case "with_* combinators" `Quick test_timing_with;
          Alcotest.test_case "price table" `Quick test_timing_price_table;
        ] );
      ( "write_buffer",
        [
          Alcotest.test_case "ordered passthrough" `Quick test_wbuf_ordered_passthrough;
          Alcotest.test_case "bypass buffers" `Quick test_wbuf_bypass_buffers;
          Alcotest.test_case "collapse" `Quick test_wbuf_collapse;
          Alcotest.test_case "no-collapse mode" `Quick test_wbuf_no_collapse_mode;
          Alcotest.test_case "store-to-load forwarding" `Quick test_wbuf_forwarding;
          Alcotest.test_case "no-forward mode" `Quick test_wbuf_no_forward_mode;
          Alcotest.test_case "barrier drains FIFO" `Quick test_wbuf_barrier_fifo;
          Alcotest.test_case "capacity drain" `Quick test_wbuf_capacity_drain;
          wbuf_barrier_empties;
          wbuf_forward_returns_latest;
          wbuf_model_fuzz;
        ] );
      ( "bus",
        [
          Alcotest.test_case "ram roundtrip" `Quick test_bus_ram_roundtrip;
          Alcotest.test_case "charges time" `Quick test_bus_charges_time;
          Alcotest.test_case "device claim" `Quick test_bus_device_claim;
          Alcotest.test_case "bus error" `Quick test_bus_error;
          Alcotest.test_case "trace" `Quick test_bus_trace;
          Alcotest.test_case "per-pid counters" `Quick test_bus_pid_counters;
          Alcotest.test_case "device dispatch order" `Quick test_bus_device_dispatch_order;
          Alcotest.test_case "copy carries accounting" `Quick test_bus_copy_carries_accounting;
        ] );
    ]
