(* check-trace — end-to-end validator of the observability layer,
   wired into `dune runtest`:

   1. runs a small traced workload (four Table-1 measurements
      including the iommu and capio mechanisms, a rejected capio
      laundering attempt, the Fig. 5 attack, a bounded rep5
      exploration) under an ambient sink and checks the trace covers
      >= 6 event kinds from >= 4 layers and specifically contains
      iotlb_miss / iotlb_fill / cap_check / engine_reject;
   2. exports the Chrome trace_event JSON, re-parses it with a local
      JSON reader and checks timestamps are monotone per machine (pid);
   3. checks the disabled path really is a no-op (no events recorded);
   4. re-measures explorer throughput with tracing disabled and
      compares against the recorded baseline (argv.(1), normally
      _results/BENCH_explorer.json, which tools/bench_explorer.exe
      writes), both as paths per second times the same-run host-speed
      reference (tools/reference_loop.ml), so the comparison does not
      move with the host phase either file was written in: fails only
      below baseline/5, a deliberately loose bound so loaded CI
      machines do not flake. *)

module Trace = Uldma_obs.Trace
module Export = Uldma_obs.Export
module Scenario = Uldma_workload.Scenario
module Explorer = Uldma_verify.Explorer

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("check-trace: " ^ s); exit 1) fmt

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader (objects, arrays, strings, numbers, atoms) — *)
(* enough to re-parse our own exporter's output without dependencies. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise (Bad_json "eof") in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c =
    skip_ws ();
    if peek () <> c then raise (Bad_json (Printf.sprintf "expected %c at %d" c !pos));
    advance ()
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'u' ->
          (* keep the escape verbatim; we never compare unicode *)
          Buffer.add_string buf "\\u"
        | c -> Buffer.add_char buf c);
        advance ();
        go ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          let key = parse_string () in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); skip_ws (); members ((key, v) :: acc)
          | '}' -> advance (); Obj (List.rev ((key, v) :: acc))
          | c -> raise (Bad_json (Printf.sprintf "in object: %c" c))
        in
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin advance (); Arr [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements (v :: acc)
          | ']' -> advance (); Arr (List.rev (v :: acc))
          | c -> raise (Bad_json (Printf.sprintf "in array: %c" c))
        in
        elements []
      end
    | '"' -> Str (parse_string ())
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | 'n' -> pos := !pos + 4; Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
      do
        advance ()
      done;
      if !pos = start then raise (Bad_json (Printf.sprintf "junk at %d" start));
      Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad_json (Printf.sprintf "trailing junk at %d" !pos));
  v

let member key = function
  | Obj kvs -> (
    match List.assoc_opt key kvs with
    | Some v -> v
    | None -> fail "JSON object is missing %S" key)
  | _ -> fail "expected a JSON object holding %S" key

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)

let explore_rep5 ~max_paths =
  let s = Scenario.named "rep5" in
  Explorer.explore ~root:s.Scenario.kernel ~pids:(Scenario.explore_pids s) ~max_paths
    ~check:(fun _ -> None) ()

let traced_workload () =
  ignore
    (Uldma_sim.Measure.initiation ~iterations:20 (Uldma.Api.find_exn "ext-shadow")
      : Uldma_sim.Measure.result);
  ignore
    (Uldma_sim.Measure.initiation ~iterations:10 (Uldma.Api.find_exn "kernel")
      : Uldma_sim.Measure.result);
  (* the IOMMU path emits iotlb_miss/iotlb_fill, the CAPIO path
     cap_check{ok} — both must appear in the kind coverage below *)
  ignore
    (Uldma_sim.Measure.initiation ~iterations:5 (Uldma.Api.find_exn "iommu")
      : Uldma_sim.Measure.result);
  ignore
    (Uldma_sim.Measure.initiation ~iterations:5 (Uldma.Api.find_exn "capio")
      : Uldma_sim.Measure.result);
  (* and a denied cap_check plus its engine_reject: the laundering
     accomplice fires first, while the victim's caps are live *)
  let l = Scenario.named "capio-launder" in
  Scenario.run_legs l [ Scenario.M; Scenario.M; Scenario.M; Scenario.M ];
  Scenario.finish l ();
  let s = Scenario.named "fig5" in
  Scenario.run_legs s Scenario.fig5_schedule;
  Scenario.finish s ();
  ignore (explore_rep5 ~max_paths:50 : _ Explorer.result)

let () =
  (* 1. coverage of a traced run *)
  let sink = Trace.create () in
  Trace.with_ambient sink traced_workload;
  let kinds = Hashtbl.create 16 and layers = Hashtbl.create 8 in
  List.iter
    (fun (r : Trace.record) ->
      Hashtbl.replace kinds (Trace.kind_name r.Trace.kind) ();
      Hashtbl.replace layers (Trace.layer_name (Trace.layer_of_kind r.Trace.kind)) ())
    (Trace.events sink);
  if Trace.total sink = 0 then fail "traced workload recorded no events";
  if Hashtbl.length kinds < 6 then fail "only %d distinct event kinds (need >= 6)" (Hashtbl.length kinds);
  if Hashtbl.length layers < 4 then fail "only %d distinct layers (need >= 4)" (Hashtbl.length layers);
  (* the IOMMU/CAPIO engine paths must be visible in the trace, by
     name: a cold IOTLB walk (miss + fill) from the iommu measurement,
     and a capability verdict (the capio measurement gives ok=true,
     the laundering accomplice a denial) *)
  List.iter
    (fun kind ->
      if not (Hashtbl.mem kinds kind) then fail "traced workload missing event kind %S" kind)
    [ "iotlb_miss"; "iotlb_fill"; "cap_check"; "engine_reject" ];

  (* 2. the Chrome export parses and is time-ordered per machine *)
  let tmp = Filename.temp_file "uldma_check_trace" ".json" in
  Export.to_file `Chrome tmp sink;
  let doc =
    match parse_json (read_file tmp) with
    | doc -> doc
    | exception Bad_json msg -> fail "Chrome trace does not parse: %s" msg
  in
  let events = match member "traceEvents" doc with Arr l -> l | _ -> fail "traceEvents not an array" in
  if List.length events < 100 then fail "suspiciously small Chrome trace (%d events)" (List.length events);
  let last_ts = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let pid = match member "pid" ev with Num f -> int_of_float f | _ -> fail "pid not a number" in
      let ts = match member "ts" ev with Num f -> f | _ -> fail "ts not a number" in
      (match Hashtbl.find_opt last_ts pid with
      | Some prev when ts < prev ->
        fail "timestamps not monotone on machine %d: %.6f after %.6f" pid ts prev
      | _ -> ());
      Hashtbl.replace last_ts pid ts;
      match member "ph" ev with
      | Str ("X" | "i") -> ()
      | Str ph -> fail "unexpected phase %S" ph
      | _ -> fail "ph not a string")
    events;
  Sys.remove tmp;

  (* 3. disabled sinks record nothing *)
  let off = Trace.create () in
  Trace.set_enabled off false;
  Trace.with_ambient off (fun () ->
      ignore
        (Uldma_sim.Measure.initiation ~iterations:5 (Uldma.Api.find_exn "ext-shadow")
          : Uldma_sim.Measure.result));
  if Trace.total off <> 0 then fail "disabled sink recorded %d events" (Trace.total off);

  (* 4. tracing-disabled explorer throughput vs the recorded baseline.
     [_results/] is invisible to dune (leading underscore), so locate
     the baseline by walking up from the cwd (which, under `dune
     runtest`, is inside _build/) unless a path was given. *)
  let baseline_file =
    if Array.length Sys.argv > 1 then (if Sys.file_exists Sys.argv.(1) then Some Sys.argv.(1) else None)
    else begin
      let rec up dir n =
        if n = 0 then None
        else
          let candidate = Filename.concat dir (Filename.concat "_results" "BENCH_explorer.json") in
          if Sys.file_exists candidate then Some candidate
          else
            let parent = Filename.dirname dir in
            if parent = dir then None else up parent (n - 1)
      in
      up (Sys.getcwd ()) 6
    end
  in
  let baseline =
    match baseline_file with
    | None -> None
    | Some path -> (
      let json = parse_json (read_file path) in
      match (member "paths_per_sec" (member "explorer" json), member "reference_ns" json) with
      | Num f, Num ref_ns -> Some (f, ref_ns)
      | _ -> fail "baseline %s: explorer.paths_per_sec or reference_ns not a number" path)
  in
  (match baseline with
  | None -> prerr_endline "check-trace: no baseline file; skipping throughput comparison"
  | Some (base, base_ref_ns) ->
    ignore (explore_rep5 ~max_paths:1_000_000 : _ Explorer.result) (* warm up *);
    (* best of five: one exploration takes about 1.5 ms, so a single
       timing can be cut by 5x by one descheduling while `dune runtest`
       runs other tests beside it *)
    let rate () =
      let t0 = Unix.gettimeofday () in
      let r = explore_rep5 ~max_paths:1_000_000 in
      float_of_int r.Explorer.paths /. (Unix.gettimeofday () -. t0)
    in
    let rate = List.fold_left (fun best _ -> Float.max best (rate ())) 0.0 (List.init 5 Fun.id) in
    let ref_ns = Reference_loop.ns_per_op ~now:Unix.gettimeofday in
    (* paths per reference operation: paths/s x ns per operation *)
    let norm = rate *. ref_ns and base_norm = base *. base_ref_ns in
    if norm < base_norm /. 5.0 then
      fail
        "explorer throughput collapsed: %.0f paths/s at reference %.1f ns (%.0f) vs baseline %.0f \
         at %.1f ns (%.0f)"
        rate ref_ns norm base base_ref_ns base_norm;
    Printf.printf
      "check-trace: explorer %.0f paths/s at reference %.1f ns (baseline %.0f at %.1f ns)\n" rate
      ref_ns base base_ref_ns);
  Printf.printf "check-trace ok: %d events, %d kinds, %d layers, Chrome export valid\n"
    (Trace.total sink) (Hashtbl.length kinds) (Hashtbl.length layers)
