(* Tests for the observability layer: trace sink, counters, exporters,
   and the Session front-end that surfaces them. *)

open Uldma_obs
module Session = Uldma.Session

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let ev i = Trace.Engine_match { step = i }

let emit_n sink n =
  for i = 1 to n do
    Trace.emit sink ~at:(i * 10) ~machine:0 ~pid:1 (ev i)
  done

let steps sink =
  List.filter_map
    (fun (r : Trace.record) ->
      match r.Trace.kind with Trace.Engine_match { step } -> Some step | _ -> None)
    (Trace.events sink)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_basics () =
  let sink = Trace.create () in
  checkb "created enabled" true (Trace.enabled sink);
  emit_n sink 3;
  checki "three events" 3 (Trace.total sink);
  checki "none dropped" 0 (Trace.dropped sink);
  (match Trace.events sink with
  | [ a; _; c ] ->
    checki "oldest first" 10 a.Trace.at;
    checki "newest last" 30 c.Trace.at;
    checki "machine stamped" 0 a.Trace.machine;
    checki "pid stamped" 1 c.Trace.pid
  | l -> Alcotest.failf "expected 3 events, got %d" (List.length l));
  Trace.clear sink;
  checki "cleared" 0 (Trace.total sink)

let test_trace_disabled_noop () =
  let sink = Trace.create () in
  Trace.set_enabled sink false;
  emit_n sink 100;
  checki "disabled: nothing recorded" 0 (Trace.total sink);
  checki "disabled: no machine ids" 0 (Trace.register_machine sink);
  checki "disabled: machine id stays 0" 0 (Trace.register_machine sink);
  Trace.set_enabled sink true;
  emit_n sink 1;
  checki "re-enabled: records again" 1 (Trace.total sink);
  (* the null sink is permanently off *)
  checki "null records nothing" 0 (Trace.total Trace.null);
  Trace.emit Trace.null ~at:0 ~machine:0 ~pid:0 (ev 1);
  checki "null still empty" 0 (Trace.total Trace.null);
  Alcotest.check_raises "null cannot be enabled"
    (Invalid_argument "Trace.set_enabled: the null sink stays disabled") (fun () ->
      Trace.set_enabled Trace.null true)

let test_trace_ring_wraparound () =
  let sink = Trace.create ~cap:8 () in
  emit_n sink 8;
  checki "at cap: nothing dropped" 0 (Trace.dropped sink);
  Alcotest.(check (list int)) "at cap: all retained" [ 1; 2; 3; 4; 5; 6; 7; 8 ] (steps sink);
  emit_n sink 3;
  (* emit_n restarts at 1, so the window is 4..8 then 1..3 *)
  checki "total keeps counting" 11 (Trace.total sink);
  checki "three dropped" 3 (Trace.dropped sink);
  Alcotest.(check (list int)) "window slid, oldest first" [ 4; 5; 6; 7; 8; 1; 2; 3 ] (steps sink)

let test_trace_machine_registry () =
  let sink = Trace.create () in
  checki "first machine" 0 (Trace.register_machine sink);
  checki "second machine" 1 (Trace.register_machine sink);
  checki "third machine" 2 (Trace.register_machine sink)

let test_trace_ambient () =
  checkb "default ambient is null" true (Trace.ambient () == Trace.null);
  let sink = Trace.create () in
  Trace.with_ambient sink (fun () ->
      checkb "installed inside the scope" true (Trace.ambient () == sink));
  checkb "restored after the scope" true (Trace.ambient () == Trace.null);
  (try Trace.with_ambient sink (fun () -> failwith "boom") with Failure _ -> ());
  checkb "restored after an exception" true (Trace.ambient () == Trace.null)

let test_trace_explorer_kinds () =
  let sink = Trace.create () in
  Trace.emit sink ~at:0 ~machine:0 ~pid:(-1) (Trace.Explorer_fork { depth = 2 });
  Trace.emit sink ~at:1 ~machine:0 ~pid:(-1) (Trace.Explorer_dedup { depth = 3 });
  (match Trace.events sink with
  | [ a; b ] ->
    Alcotest.(check string) "fork name" "explorer_fork" (Trace.kind_name a.Trace.kind);
    Alcotest.(check string) "dedup name" "explorer_dedup" (Trace.kind_name b.Trace.kind);
    Alcotest.(check string) "fork layer" "verify"
      (Trace.layer_name (Trace.layer_of_kind a.Trace.kind));
    Alcotest.(check string) "dedup layer" "verify"
      (Trace.layer_name (Trace.layer_of_kind b.Trace.kind))
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
  let rendered = Format.asprintf "%a" Trace.pp_record (List.hd (Trace.events sink)) in
  checkb "args rendered" true (contains rendered "depth=2")

(* ------------------------------------------------------------------ *)
(* Counters *)

let test_counters_basic () =
  let c = Counters.create () in
  checki "untouched counter reads 0" 0 (Counters.value c "os.syscalls");
  Counters.incr c "os.syscalls";
  Counters.incr c "os.syscalls";
  Counters.add c "bus.busy_ps" 500;
  checki "incr twice" 2 (Counters.value c "os.syscalls");
  checki "add" 500 (Counters.value c "bus.busy_ps");
  Alcotest.(check (list string))
    "names sorted" [ "bus.busy_ps"; "os.syscalls" ] (Counters.counter_names c)

let test_counters_histogram () =
  let c = Counters.create () in
  Alcotest.(check bool) "empty histogram" true (Counters.summarize c "lat" = None);
  List.iter (Counters.observe c "lat") [ 1; 2; 3; 100; (-5) ];
  (match Counters.summarize c "lat" with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
    checki "count" 5 s.Counters.count;
    checki "min clamps negatives to 0" 0 s.Counters.min;
    checki "max" 100 s.Counters.max;
    checki "sum" 106 s.Counters.sum);
  checkb "buckets non-empty ascending" true
    (let b = Counters.buckets c "lat" in
     b <> [] && List.sort compare b = b)

(* a handle records exactly what [observe] by name does, on both sides
   of every power-of-two bucket edge *)
let test_counters_histogram_handle () =
  let a = Counters.create () and b = Counters.create () in
  let h = Counters.histogram b "lat" in
  let samples =
    [ -3; 0; 1; 2; 3; 4; 5; 1023; 1024; 1025; max_int ]
    @ List.concat_map
        (fun i ->
          let p = 1 lsl (i + 1) in
          [ p - 1; p; p + 1 ])
        (List.init 61 Fun.id)
  in
  List.iter
    (fun v ->
      Counters.observe a "lat" v;
      Counters.record h v)
    samples;
  checkb "same summary" true (Counters.summarize a "lat" = Counters.summarize b "lat");
  Alcotest.(check (list (pair int int)))
    "same buckets" (Counters.buckets a "lat") (Counters.buckets b "lat");
  checkb "2^i lands in bucket 2^i, 2^i + 1 in the next" true
    (let c = Counters.create () in
     Counters.observe c "x" 1024;
     Counters.observe c "x" 1025;
     Counters.buckets c "x" = [ (1024, 1); (2048, 1) ])

let test_counters_merge_rows () =
  let a = Counters.create () and b = Counters.create () in
  Counters.incr a "x";
  Counters.add b "x" 4;
  Counters.observe b "h" 7;
  Counters.merge_into ~dst:a b;
  checki "merged counter" 5 (Counters.value a "x");
  checkb "merged histogram" true (Counters.summarize a "h" <> None);
  checkb "rows include both" true (List.length (Counters.rows a) = 2)

(* ------------------------------------------------------------------ *)
(* Exporters *)

let traced_sink () =
  let sink = Trace.create () in
  let m = Trace.register_machine sink in
  Trace.emit sink ~at:100 ~machine:m ~pid:1 (Trace.Syscall_enter { sysno = 3 });
  (* a transfer whose completion is stamped in the future, before an
     earlier instant event: the Chrome exporter must re-sort *)
  Trace.emit sink ~at:900 ~machine:m ~pid:1
    (Trace.Transfer_complete { src = 0x2000; dst = 0x4000; size = 64 });
  Trace.emit sink ~at:200 ~machine:m ~pid:1
    (Trace.Transfer_start { src = 0x2000; dst = 0x4000; size = 64; duration = 700 });
  Trace.emit sink ~at:300 ~machine:m ~pid:1 (Trace.Syscall_exit { sysno = 3 });
  sink

let test_export_jsonl () =
  let sink = traced_sink () in
  let path = Filename.temp_file "uldma_test" ".jsonl" in
  Export.to_file `Jsonl path sink;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  checki "one line per event" 4 (List.length lines);
  List.iter
    (fun l ->
      checkb "line looks like a JSON object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  checkb "emission order preserved" true
    (match lines with first :: _ -> contains first "syscall_enter" | [] -> false)

let test_export_chrome_sorted () =
  let sink = traced_sink () in
  let path = Filename.temp_file "uldma_test" ".json" in
  Export.to_file `Chrome path sink;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  checkb "has traceEvents array" true (contains s "\"traceEvents\"");
  (* the future-stamped completion must appear last despite being
     emitted second *)
  let pos_of needle =
    let nn = String.length needle in
    let rec go i =
      if i + nn > String.length s then Alcotest.failf "missing %s" needle
      else if String.sub s i nn = needle then i
      else go (i + 1)
    in
    go 0
  in
  checkb "ts-sorted: start before complete" true
    (pos_of "transfer_start" < pos_of "transfer_complete");
  checkb "ts-sorted: syscall_exit before complete" true
    (pos_of "syscall_exit" < pos_of "transfer_complete");
  checkb "transfer_start is a duration event" true (contains s "\"ph\":\"X\"")

let test_export_summary () =
  let sink = traced_sink () in
  let rendered = Uldma_util.Tbl.render (Export.summary sink) in
  List.iter
    (fun needle ->
      checkb (needle ^ " in summary") true (contains rendered needle))
    [ "os"; "dma"; "syscall_enter"; "transfer_start" ]

(* ------------------------------------------------------------------ *)
(* Session *)

let test_session_quickstart () =
  let s = Session.create ~mech:"ext-shadow" () in
  let p = Session.process s ~name:"app" ~src_pages:1 ~dst_pages:1 () in
  Session.dma_once s p;
  Session.run_exn s ~max_steps:100_000;
  checki "one success" 1 (Session.successes s p);
  checkb "status non-negative" true (Session.last_status s p >= 0);
  let m = Session.metrics s in
  checkb "os.instructions counted" true (Counters.value m "os.instructions" > 0);
  checkb "dma.transfers_started counted" true (Counters.value m "dma.transfers_started" = 1)

let test_session_loop_and_unknown_mech () =
  let s = Session.create ~mech:"rep-args" () in
  let p = Session.process s ~name:"looper" () in
  Session.dma_stub ~iterations:25 s p;
  Session.run_exn s ~max_steps:1_000_000;
  checki "all iterations succeed" 25 (Session.successes s p);
  Alcotest.check_raises "unknown mechanism"
    (Invalid_argument "Api.find_exn: unknown mechanism \"no-such-mech\"") (fun () ->
      ignore (Session.create ~mech:"no-such-mech" () : Session.t))

let test_session_traced () =
  let sink = Trace.create () in
  Trace.set_enabled sink true;
  let s = Session.create ~mech:"ext-shadow" ~trace:sink () in
  let p = Session.process s ~name:"traced" ~src_pages:1 ~dst_pages:1 () in
  Session.dma_once s p;
  Session.run_exn s ~max_steps:100_000;
  checkb "session reports its sink" true (Session.trace s == sink);
  checkb "events recorded" true (Trace.total sink > 0);
  let kinds =
    List.sort_uniq compare (List.map (fun r -> Trace.kind_name r.Trace.kind) (Trace.events sink))
  in
  List.iter
    (fun k -> checkb (k ^ " present") true (List.mem k kinds))
    [ "instr_retired"; "uncached_access"; "transfer_start"; "engine_decode" ]

let test_session_untraced_is_silent () =
  (* no ambient sink, no ?trace: the machine runs on the null sink *)
  let s = Session.create ~mech:"ext-shadow" () in
  let p = Session.process s ~name:"silent" ~src_pages:1 ~dst_pages:1 () in
  Session.dma_once s p;
  Session.run_exn s ~max_steps:100_000;
  checkb "null sink" true (Session.trace s == Trace.null);
  checki "nothing recorded" 0 (Trace.total Trace.null)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace_basics;
          Alcotest.test_case "disabled is a no-op" `Quick test_trace_disabled_noop;
          Alcotest.test_case "ring wraparound" `Quick test_trace_ring_wraparound;
          Alcotest.test_case "machine registry" `Quick test_trace_machine_registry;
          Alcotest.test_case "ambient install/restore" `Quick test_trace_ambient;
          Alcotest.test_case "explorer kinds" `Quick test_trace_explorer_kinds;
        ] );
      ( "counters",
        [
          Alcotest.test_case "counters" `Quick test_counters_basic;
          Alcotest.test_case "histograms" `Quick test_counters_histogram;
          Alcotest.test_case "histogram handle" `Quick test_counters_histogram_handle;
          Alcotest.test_case "merge and rows" `Quick test_counters_merge_rows;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl" `Quick test_export_jsonl;
          Alcotest.test_case "chrome sorted" `Quick test_export_chrome_sorted;
          Alcotest.test_case "summary" `Quick test_export_summary;
        ] );
      ( "session",
        [
          Alcotest.test_case "quickstart" `Quick test_session_quickstart;
          Alcotest.test_case "loop + unknown mech" `Quick test_session_loop_and_unknown_mech;
          Alcotest.test_case "traced session" `Quick test_session_traced;
          Alcotest.test_case "untraced is silent" `Quick test_session_untraced_is_silent;
        ] );
    ]
