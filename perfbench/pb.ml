(* Shared plumbing for the benchmark: the clock, medians, the metric
   catalogue, the result line and the pinned reference files. *)

(* ------------------------------------------------------------------ *)
(* Clock *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* One call, in nanoseconds. The clock read costs ~25 ns, which is why
   sub-microsecond costs are timed over a loop instead (see Kv_wl). *)
let time_ns f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0))

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Sizes and seeds *)

type size = Full | Tiny

(* Seed 0 keeps enumeration order; any other seed shuffles. [salt]
   separates the streams of independent lists under one seed. *)
let permutation ~seed ~salt n =
  let a = Array.init n Fun.id in
  if seed <> 0 then Uldma_util.Rng.shuffle (Uldma_util.Rng.create ~seed:((seed * 7919) + salt)) a;
  a

(* ------------------------------------------------------------------ *)
(* Metrics *)

(* The end-to-end metrics the program prints: setup_s from a set-up
   run, norm_ops_per_s from a pass (both scaled to the reference host
   speed, see [reference]). run.py adds peak_rss_mb, measured on each
   pass's process from outside. *)
let setup_metrics = [ ("setup_s", "s") ]
let pass_metrics = [ ("norm_ops_per_s", "ops/s") ]

(* Every per-layer metric, printed by every workload in a traced run
   (0 where the layer is not exercised). BENCHMARK.json lists the same
   names; the self-test checks that the two agree. *)
let per_layer =
  [
    ("verify.states", "count");
    ("verify.memo_hits", "count");
    ("verify.hit_ratio", "fraction");
    ("verify.paths", "count");
    ("verify.snapshots_per_node", "count");
    ("verify.bytes_hashed_per_node", "bytes");
    ("verify.violations", "count");
    ("verify.memo_resident", "count");
    ("verify.memo_evictions", "count");
    ("verify.cell_s.rep3", "s");
    ("verify.cell_s.rep4", "s");
    ("verify.cell_s.rep5", "s");
    ("verify.cell_s.pal", "s");
    ("verify.cell_s.key", "s");
    ("verify.cell_s.ext", "s");
    ("verify.cell_s.iommu", "s");
    ("verify.cell_s.capio", "s");
    ("verify.tree_s.key3", "s");
    ("verify.tree_s.ext3", "s");
    ("verify.tree_s.rep5-3", "s");
    ("verify.tree_s.timed", "s");
    ("verify.memo_find_ns", "ns");
    ("verify.memo_add_ns", "ns");
    ("verify.oracle_ns", "ns");
    ("os.snapshot_ns", "ns");
    ("os.state_key_ns", "ns");
    ("machine.leg_ns", "ns");
    ("cpu.instr_per_leg", "count");
    ("bus.uncached_per_leg", "count");
    ("net.wait_legs", "count");
    ("net.wait_leg_ns", "ns");
    ("gc.minor_words_per_state", "words");
    ("gc.major_words_per_state", "words");
    ("gc.minor_words_per_transfer", "words");
    ("gc.top_heap_mb", "MB");
    ("kv.run_ns_per_transfer", "ns");
    ("util.pqueue_ns", "ns");
    ("obs.percentile_record_ns", "ns");
    ("kv.descriptors_per_doorbell", "count");
    ("kv.cpu_util", "fraction");
    ("kv.wire_util", "fraction");
    ("kv.ni_util", "fraction");
    ("kv.wire_bytes_per_value_byte", "ratio");
    ("sim_p50_us", "us");
    ("sim_p99_us", "us");
    ("sim_p999_us", "us");
    ("sim_goodput_gbps", "Gb/s");
    ("core.calibrate_s", "s");
    ("core.cosim_s", "s");
    ("core.initiation_us", "us");
    ("core.initiation_err_vs_paper", "fraction");
    ("attr.wall_s", "s");
    ("attr.os_s", "s");
    ("attr.machine_s", "s");
    ("attr.net_s", "s");
    ("attr.verify_memo_s", "s");
    ("attr.verify_oracle_s", "s");
    ("attr.util_s", "s");
    ("attr.obs_s", "s");
    ("attr.self_s", "s");
    ("trace.overhead", "ratio");
    ("host.speed", "ratio");
  ]

(* What one run reports before run.py adds peak RSS. [metrics] must
   name exactly the metrics of the run's mode, in any order. *)
type report = { attempted : int; failed : int; correct : bool; metrics : (string * float) list }

(* Fill [catalogue] from [values]: a name missing from [values] reads
   0, and a value the catalogue does not name is a bug in the
   benchmark, not a measurement. *)
let select catalogue values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then invalid_arg ("unknown metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      (name, unit_, match List.assoc_opt name values with Some v -> v | None -> 0.0))
    catalogue

(* Integers print as JSON integers only while a double holds them
   exactly (below 2^53); a larger value, such as the trees workload's
   summed path count, prints with an exponent so every reader takes it
   as the double it is. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 0x1p53 then Printf.sprintf "%.0f" v
  else if Float.is_integer v then Printf.sprintf "%.16e" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "non-finite metric"

let print_report ~catalogue r =
  let fields =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_number v) unit_)
      (select catalogue r.metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (r.correct && r.failed = 0)
    r.attempted r.failed (String.concat "," fields)

(* A failed check goes to stderr and into [failed]; the run goes on. *)
let complain fmt = Printf.ksprintf (fun s -> prerr_endline ("CHECK FAILED: " ^ s)) fmt

(* ------------------------------------------------------------------ *)
(* Host speed *)

(* The host this runs on is shared: over tens of seconds its speed
   drifts by up to 2x, and medians within a run cannot remove that. So
   each top-level call whose time feeds an end-to-end metric sits
   between two runs of a fixed reference computation, and its time is
   scaled to a host on which the reference takes [reference_nominal_s].
   The reference is a walk of finds and in-place replaces over a
   Stdlib hash table of 8192 ints. It shares no code with the program,
   so no change to the program can move it; it allocates nothing, so it
   neither triggers collections of a workload's heap nor raises its
   peak RSS beyond its own 0.3 MB table. Of the candidates tried against
   repeated KV runs and explorer trees on a shared 2-vCPU VM, it
   tracked their speed best: a random walk over a 2 MB array overshot
   when neighbours contended for the cache, and an ALU-only loop did
   not follow the drift at all. *)
let reference_table : (int, int) Hashtbl.t = Hashtbl.create 8192

let () =
  for k = 0 to 8191 do
    Hashtbl.replace reference_table k k
  done

let reference () =
  let t = reference_table and acc = ref 0 in
  for i = 1 to 1_500_000 do
    let k = (i * 7919) land 8191 in
    acc := !acc + Hashtbl.find t k;
    Hashtbl.replace t k i
  done;
  !acc

let reference_nominal_s = 0.1
let reference_s () = snd (time (fun () -> ignore (Sys.opaque_identity (reference ()))))

(* Accumulates the raw and the scaled time of a sequence of calls; the
   reference run after one call is the one before the next. *)
type meter = { mutable before : float; mutable raw : float; mutable scaled : float }

let meter () = { before = reference_s (); raw = 0.0; scaled = 0.0 }

let metered m f =
  let x, dt = time f in
  let after = reference_s () in
  m.raw <- m.raw +. dt;
  m.scaled <- m.scaled +. (dt *. reference_nominal_s /. ((m.before +. after) /. 2.0));
  m.before <- after;
  x

(* The traced run's record of its untraced pass: the factor its time was
   scaled by for norm_ops_per_s (> 1 when the host ran faster than
   nominal). *)
let host_metrics m = [ ("host.speed", m.scaled /. m.raw) ]

(* ------------------------------------------------------------------ *)
(* Untraced runs *)

(* Set-ups take from 0.1 ms (trees) to 30 ms (campaign), so setup_s is
   the median of set-ups run in [setup_blocks] blocks, each block at
   least one set-up and [setup_block_s] long, capped at
   [setup_block_reps] because every set-up keeps some memory for the
   life of the process. Each block is metered on its own, so the
   scaling follows drift across the blocks. Each set-up starts from a
   collected heap, so none pays for its predecessor's garbage. run.py
   times set-ups in a process of their own, so they do not inflate a
   pass's peak RSS. *)
let setup_blocks = 5
let setup_block_s = 0.1
let setup_block_reps = 40

let time_setup setup =
  let rec go n spent acc =
    if n >= setup_block_reps || (n >= 1 && spent >= setup_block_s) then acc
    else begin
      Gc.full_major ();
      let _, dt = time setup in
      go (n + 1) (spent +. dt) (dt :: acc)
    end
  in
  let m = meter () in
  let samples =
    List.concat_map
      (fun _ ->
        let raw = m.raw and scaled = m.scaled in
        let block = metered m (fun () -> go 0 0.0 []) in
        let scale = (m.scaled -. scaled) /. (m.raw -. raw) in
        List.map (fun dt -> dt *. scale) block)
      (List.init setup_blocks Fun.id)
  in
  {
    attempted = List.length samples;
    failed = 0;
    correct = true;
    metrics = [ ("setup_s", median samples) ];
  }

(* One untraced pass: set up, run the pass with every top-level call
   metered, then run the untimed [check], which returns (ops, failed
   ops). run.py starts a fresh process per pass, so every pass starts
   from the same cold heap and its peak RSS is that pass's own. *)
let one_pass ~setup ~pass ~check =
  let env = setup () in
  Gc.full_major ();
  let m = meter () in
  let out = pass (metered m) env in
  let ops, bad = check env out in
  {
    attempted = ops;
    failed = bad;
    correct = bad = 0;
    metrics = [ ("norm_ops_per_s", float_of_int ops /. m.scaled) ];
  }

(* Gc counters over one span. *)
type gc_delta = { minor_words : float; major_words : float }

let with_gc f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      major_words = s1.Gc.major_words -. s0.Gc.major_words;
    } )

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Pinned references: whitespace-separated rows, '#' comments, in
   perfbench/ref relative to the repository root *)

let ref_path name = Filename.concat "perfbench/ref" name

let read_rows path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line ->
      let fields = String.split_on_char ' ' line |> List.filter (( <> ) "") in
      if fields = [] || (String.length line > 0 && line.[0] = '#') then go acc
      else go (fields :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let write_rows path ~header rows =
  let oc = open_out path in
  output_string oc ("# " ^ header ^ "\n");
  List.iter (fun r -> output_string oc (String.concat " " r ^ "\n")) rows;
  close_out oc

(* The warmth-independent facts of one exploration: path count,
   truncation, violation count, first violating schedule, and a digest
   of every violation's kind and schedule in emission order. *)
type facts = { paths : int; truncated : bool; nviol : int; first : string; digest : string }

let hex s = String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* Feeds every violation's kind and schedule, as the catalogue's
   results_fp does. *)
let add_violations fp (r : Uldma_verify.Oracle.violation Uldma_verify.Explorer.result) =
  List.iter
    (fun (v, schedule) ->
      Uldma_util.Fp128.add_string fp (Uldma_workload.Synth.kind_name v);
      List.iter (Uldma_util.Fp128.add_int fp) schedule)
    r.Uldma_verify.Explorer.violations

let facts (r : Uldma_verify.Oracle.violation Uldma_verify.Explorer.result) =
  let fp = Uldma_util.Fp128.create () in
  add_violations fp r;
  {
    paths = r.Uldma_verify.Explorer.paths;
    truncated = r.Uldma_verify.Explorer.truncated;
    nviol = List.length r.Uldma_verify.Explorer.violations;
    first =
      (match r.Uldma_verify.Explorer.violations with
      | [] -> "-"
      | (_, s) :: _ -> String.concat "." (List.map string_of_int s));
    digest = hex (Uldma_util.Fp128.key fp);
  }

let facts_row f =
  [ string_of_int f.paths; string_of_bool f.truncated; string_of_int f.nviol; f.first; f.digest ]

let facts_of_row = function
  | [ paths; truncated; nviol; first; digest ] ->
    {
      paths = int_of_string paths;
      truncated = bool_of_string truncated;
      nviol = int_of_string nviol;
      first;
      digest;
    }
  | _ -> failwith "malformed facts row"

let show_facts f =
  Printf.sprintf "paths=%d truncated=%b violations=%d first=%s digest=%s" f.paths f.truncated
    f.nviol f.first f.digest
