(* Tests for the workload library: the stub-loop builders, the random
   workload generator, and the differential oracle — the same random
   plan must produce byte-identical results through every correct
   mechanism, with and without preemptive interference. *)

open Uldma_util
open Uldma_os
module Mech = Uldma.Mech
module Api = Uldma.Api
module Generator = Uldma_workload.Generator
module Stub = Uldma.Session.Stub

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Generator basics *)

let test_plan_shape () =
  let rng = Rng.create ~seed:1 in
  let plan = Generator.random_plan rng ~pages:4 ~requests:20 ~max_size:4096 in
  checki "requests" 20 (List.length plan.Generator.requests);
  List.iter
    (fun (r : Generator.request) ->
      checkb "pages in range" true (r.Generator.src_page >= 0 && r.Generator.src_page < 4);
      checkb "dst in range" true (r.Generator.dst_page >= 0 && r.Generator.dst_page < 4);
      checkb "size sane" true (r.Generator.size >= 8 && r.Generator.size <= 4096);
      checki "word aligned" 0 (r.Generator.size land 7))
    plan.Generator.requests

let test_plan_deterministic () =
  let mk () = Generator.random_plan (Rng.create ~seed:5) ~pages:4 ~requests:10 ~max_size:1024 in
  checkb "same seed, same plan" true (mk () = mk ())

let test_run_counts () =
  let plan = Generator.random_plan (Rng.create ~seed:2) ~pages:2 ~requests:8 ~max_size:512 in
  let o =
    Generator.run plan ~mech:(Api.find_exn "ext-shadow") ~sched:Sched.Run_to_completion
      ~with_interference:false
  in
  checki "all succeed" 8 o.Generator.successes;
  checki "all started" 8 o.Generator.transfers;
  checkb "time advanced" true (o.Generator.simulated_us > 0.0)

(* ------------------------------------------------------------------ *)
(* Differential execution *)

let differential_mechs =
  [ "kernel"; "pal"; "key-based"; "ext-shadow"; "rep-args"; "shrimp-2"; "flash" ]

let run_all plan ~sched ~with_interference =
  List.map
    (fun name ->
      (name, Generator.run plan ~mech:(Api.find_exn name) ~sched ~with_interference))
    differential_mechs

let assert_all_agree outcomes ~requests =
  match outcomes with
  | [] -> Alcotest.fail "no outcomes"
  | (ref_name, reference) :: rest ->
    List.iter
      (fun (name, (o : Generator.outcome)) ->
        checki (name ^ ": successes") requests o.Generator.successes;
        checki (name ^ ": transfers") requests o.Generator.transfers;
        checki
          (Printf.sprintf "%s produces the same bytes as %s" name ref_name)
          reference.Generator.dst_checksum o.Generator.dst_checksum)
      rest;
    checki (ref_name ^ ": successes") requests reference.Generator.successes

let test_differential_sequential () =
  let plan = Generator.random_plan (Rng.create ~seed:11) ~pages:4 ~requests:15 ~max_size:2048 in
  assert_all_agree (run_all plan ~sched:Sched.Run_to_completion ~with_interference:false) ~requests:15

let test_differential_preempted () =
  (* a compute process preempts the DMA program every 9 instructions;
     results must not change for any mechanism (the baselines have
     their hooks installed by prepare) *)
  let plan = Generator.random_plan (Rng.create ~seed:12) ~pages:4 ~requests:12 ~max_size:1024 in
  assert_all_agree
    (run_all plan ~sched:(Sched.Round_robin { quantum = 9 }) ~with_interference:true)
    ~requests:12

let test_differential_random_preemption () =
  let plan = Generator.random_plan (Rng.create ~seed:13) ~pages:2 ~requests:10 ~max_size:512 in
  assert_all_agree
    (run_all plan ~sched:(Sched.Random_preempt { probability = 0.15; seed = 4 }) ~with_interference:true)
    ~requests:10

let test_user_mechs_keep_kernel_unmodified () =
  let plan = Generator.random_plan (Rng.create ~seed:14) ~pages:2 ~requests:5 ~max_size:512 in
  List.iter
    (fun name ->
      let o =
        Generator.run plan ~mech:(Api.find_exn name) ~sched:Sched.Run_to_completion
          ~with_interference:false
      in
      checkb (name ^ " unmodified kernel") false o.Generator.kernel_modified)
    [ "kernel"; "pal"; "key-based"; "ext-shadow"; "rep-args" ]

(* ------------------------------------------------------------------ *)
(* Soak: a full machine of mixed tenants under random preemption *)

let test_soak_mixed_tenants () =
  (* 4 key-based users (all contexts taken) + 2 kernel-path users on
     the same machine, heavily preempted; every DMA must complete and
     the oracle must stay clean *)
  let config =
    {
      Kernel.default_config with
      Kernel.mechanism = Uldma_dma.Engine.Key_based;
      backend = Kernel.Local { bytes_per_s = 1e9 };
      ram_size = 8 * 1024 * 1024;
      n_contexts = 4;
      sched = Sched.Random_preempt { probability = 0.1; seed = 21 };
    }
  in
  let kernel = Kernel.create config in
  let per_proc = 15 in
  let users = ref [] in
  let intents = ref [] in
  for i = 1 to 6 do
    let p = Kernel.spawn kernel ~name:(Printf.sprintf "tenant%d" i) ~program:[||] () in
    let src = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
    let dst = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
    let result_va = Kernel.alloc_pages kernel p ~n:1 ~perms:Uldma_mem.Perms.read_write in
    let emit =
      if i <= 4 then
        (Uldma.Key_dma.mech.Mech.prepare kernel p
           ~src:{ Mech.vaddr = src; pages = 1 }
           ~dst:{ Mech.vaddr = dst; pages = 1 })
          .Mech.emit_dma
      else Uldma.Kernel_dma.emit_dma
    in
    Process.set_program p
      (Stub.build_repeat ~n:per_proc ~vsrc:src ~vdst:dst ~size:256 ~result_va ~emit_dma:emit);
    intents :=
      Uldma_verify.Oracle.intent_of_regions kernel p ~vsrc:src ~vdst:dst ~size:256
        ~requests:per_proc
      :: !intents;
    users := (p, result_va) :: !users
  done;
  (match Kernel.run kernel ~max_steps:5_000_000 () with
  | Kernel.All_exited -> ()
  | Kernel.Max_steps | Kernel.Predicate -> Alcotest.fail "soak did not finish");
  let reported =
    List.map (fun ((p : Process.t), rv) -> (p.Process.pid, Stub.read_successes kernel p ~result_va:rv)) !users
  in
  List.iter (fun (pid, n) -> checki (Printf.sprintf "pid %d all succeeded" pid) per_proc n) reported;
  let report = Uldma_verify.Oracle.check ~kernel ~intents:!intents ~reported_successes:reported in
  if not (Uldma_verify.Oracle.ok report) then
    Alcotest.failf "%a" Uldma_verify.Oracle.pp_report report;
  checki "90 transfers" 90
    (List.length (Uldma_dma.Engine.transfers (Kernel.engine kernel)))

(* ------------------------------------------------------------------ *)
(* Stub builders *)

let test_build_loop_rejects_bad_pages () =
  checkb "non power of two" true
    (try
       ignore
         (Stub.build_loop
            {
              Stub.iterations = 1;
              transfer_size = 8;
              src_base = 0;
              dst_base = 0;
              pages = 3;
              result_va = 0;
            }
            ~emit_dma:(fun _ -> ())
          : Uldma_cpu.Isa.instr array);
       false
     with Invalid_argument _ -> true)

let test_build_single_shape () =
  let program =
    Stub.build_single ~vsrc:0x10000 ~vdst:0x12000 ~size:64 ~result_va:0x14000
      ~emit_dma:Uldma.Ext_shadow.emit_dma
  in
  checkb "non-trivial program" true (Array.length program > 8);
  checkb "ends with halt" true (program.(Array.length program - 1) = Uldma_cpu.Isa.Halt)

(* ------------------------------------------------------------------ *)
(* The scenario catalogue *)

module Scenario = Uldma_workload.Scenario
module Backend = Uldma_net.Backend

let names = List.map (fun (e : Scenario.entry) -> e.Scenario.name) Scenario.catalogue

let test_catalogue_names () =
  checki "names unique" (List.length names) (List.length (List.sort_uniq compare names));
  List.iter
    (fun name ->
      match Scenario.find name with
      | Some e -> Alcotest.(check string) "find round-trips" name e.Scenario.name
      | None -> Alcotest.failf "find %s" name)
    names;
  checkb "unknown name" true (Scenario.find "no-such-machine" = None)

let encoding (s : Scenario.t) = Kernel.state_encoding s.Scenario.kernel

(* Every entry builds, and a timed entry given Backend.null is its Null
   default: the same root state. *)
let test_catalogue_builds () =
  List.iter
    (fun (e : Scenario.entry) ->
      let s = Scenario.instance e in
      checkb (e.Scenario.name ^ " has a victim and an attacker") true
        (List.length (Scenario.explore_pids s) >= 2);
      match e.Scenario.build with
      | Scenario.Timed _ ->
        Alcotest.(check string)
          (e.Scenario.name ^ " at Backend.null")
          (Digest.to_hex (Digest.string (encoding s)))
          (Digest.to_hex (Digest.string (encoding (Scenario.instance ~net:Backend.null e))))
      | Scenario.Untimed _ ->
        Alcotest.check_raises (e.Scenario.name ^ " refuses a linked net")
          (Invalid_argument
             (Printf.sprintf "scenario %s has no timed variant; --net must be null" e.Scenario.name))
          (fun () ->
            ignore (Scenario.instance ~net:(Backend.linked Uldma_net.Link.atm155) e : Scenario.t)))
    Scenario.catalogue

(* Each root as it was when every machine had a builder of its own: the
   MD5 of its state encoding, its explored pids and its page names. The
   four two-step races name the victim's A and B too, as every other
   machine does; labels are not part of the encoding. *)
let pinned_roots =
  [
    ( "fig5",
      "c988d15a741cae5b878179c9f9852b2b",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "foo"); (0x28000, "C") ] );
    ( "fig6",
      "fa93d4e68f6ed13e82db98fda0280b20",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B") ] );
    ( "rep5",
      "bddfb35d03f2ec736b7d9169422df8b9",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "foo"); (0x28000, "C") ] );
    ( "splice",
      "bbcb7cf4a45ac87844341e061393b7c1",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "X") ] );
    ( "key-based",
      "c622a0f44438e8f0c172c03b8d3b4d14",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "C"); (0x28000, "D") ] );
    ( "pal",
      "c3f37a2624f77bace10b5741c508a977",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "C"); (0x28000, "D") ] );
    ( "ext-shadow",
      "b73e6da71ec930e1c9c340e33edb039d",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "C"); (0x28000, "D") ] );
    ( "iommu",
      "92cbf82be632a8042ed69a52c7ed5ee5",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "C"); (0x28000, "D") ] );
    ( "capio",
      "1959d92327f9a8e98bb88950658eef47",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "C"); (0x28000, "D") ] );
    ( "iommu-fig5",
      "9671ce2c74512940b2602cb5563d10e2",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "foo"); (0x28000, "C") ] );
    ( "capio-fig5",
      "d2c58c7d8a25bb4493c03a839affbe4f",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "foo"); (0x28000, "C") ] );
    ( "capio-launder",
      "3c3a204201a699f41ef94b91560d472c",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B") ] );
    ( "shrimp2-race",
      "a4247b68e18ecb0987470059b580b568",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "D") ] );
    ( "shrimp2-race-hook",
      "851fbc2d492960e1a62df88b9e7f7ad7",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "D") ] );
    ( "flash-race",
      "a4247b68e18ecb0987470059b580b568",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "D") ] );
    ( "flash-race-hook",
      "3599ef4d1835c459b18f7d5c6ecc36ca",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "D") ] );
    ( "ext-stateless-race",
      "29cdcd116d894e1681faf0fc9092a153",
      [ 1; 2 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x26000, "D") ] );
    ( "key-3",
      "613ea5f7693352f60fa553902b514c41",
      [ 1; 2; 3 ],
      [
        (0x20000, "A"); (0x22000, "B"); (0x26000, "C");
        (0x28000, "D"); (0x2c000, "E"); (0x2e000, "F");
      ] );
    ( "ext-shadow-3",
      "d5378ee3eca3ae879b5e5c63acde9ab6",
      [ 1; 2; 3 ],
      [
        (0x20000, "A"); (0x22000, "B"); (0x26000, "C");
        (0x28000, "D"); (0x2c000, "E"); (0x2e000, "F");
      ] );
    ( "rep5-3",
      "e408a5e57f67b5f555b7e6f82c5826e4",
      [ 1; 2; 3 ],
      [ (0x20000, "A"); (0x22000, "B"); (0x2a000, "X"); (0x26000, "foo"); (0x28000, "C") ] );
    ( "iommu-3",
      "5b2794b6475dac9cc0a46a193af40fd7",
      [ 1; 2; 3 ],
      [
        (0x20000, "A"); (0x22000, "B"); (0x26000, "C");
        (0x28000, "D"); (0x2c000, "E"); (0x2e000, "F");
      ] );
    ( "capio-3",
      "340e3c101b1bf8dad9c94ca9d12ca8e0",
      [ 1; 2; 3 ],
      [
        (0x20000, "A"); (0x22000, "B"); (0x26000, "C");
        (0x28000, "D"); (0x2c000, "E"); (0x2e000, "F");
      ] );
  ]

let test_catalogue_pinned () =
  checki "every entry pinned" (List.length names) (List.length pinned_roots);
  List.iter
    (fun (name, digest, pids, labels) ->
      let s = Scenario.named name in
      Alcotest.(check string)
        (name ^ " encoding") digest
        (Digest.to_hex (Digest.string (encoding s)));
      Alcotest.(check (list int)) (name ^ " pids") pids (Scenario.explore_pids s);
      Alcotest.(check (list (pair int string))) (name ^ " labels") labels s.Scenario.labels)
    pinned_roots

let () =
  Alcotest.run "workload"
    [
      ( "generator",
        [
          Alcotest.test_case "plan shape" `Quick test_plan_shape;
          Alcotest.test_case "plan deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "run counts" `Quick test_run_counts;
        ] );
      ( "differential",
        [
          Alcotest.test_case "sequential: all mechanisms agree" `Slow test_differential_sequential;
          Alcotest.test_case "preempted: all mechanisms agree" `Slow test_differential_preempted;
          Alcotest.test_case "random preemption: all agree" `Slow
            test_differential_random_preemption;
          Alcotest.test_case "user mechanisms: kernel unmodified" `Quick
            test_user_mechs_keep_kernel_unmodified;
        ] );
      ( "soak",
        [ Alcotest.test_case "mixed key/kernel tenants" `Slow test_soak_mixed_tenants ] );
      ( "stub_loop",
        [
          Alcotest.test_case "rejects bad pages" `Quick test_build_loop_rejects_bad_pages;
          Alcotest.test_case "single-shot shape" `Quick test_build_single_shape;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "names" `Quick test_catalogue_names;
          Alcotest.test_case "every entry builds" `Quick test_catalogue_builds;
          Alcotest.test_case "roots pinned" `Quick test_catalogue_pinned;
        ] );
    ]
