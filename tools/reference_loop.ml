(* The host-speed reference the timing gates divide by: a walk of
   finds and in-place replaces over a Stdlib hash table of 8192 ints,
   the computation perfbench scales its end-to-end times by. It shares
   no code with the program, so no change to the program can move it,
   and it allocates nothing. A timing taken beside it in the same run
   and divided by it (or multiplied, for a rate) compares across runs
   that the shared host ran at different speeds. *)

let table : (int, int) Hashtbl.t = Hashtbl.create 8192

let () =
  for k = 0 to 8191 do
    Hashtbl.replace table k k
  done

let ops = 1_500_000

let walk () =
  let acc = ref 0 in
  for i = 1 to ops do
    let k = (i * 7919) land 8191 in
    acc := !acc + Hashtbl.find table k;
    Hashtbl.replace table k i
  done;
  !acc

let batches = 9
let batch_s = 0.02

(* Nanoseconds per find-and-replace: the minimum over [batches]
   batches, each of as many walks as fill [batch_s], after one untimed
   walk. [now] reads seconds. *)
let ns_per_op ~now =
  ignore (Sys.opaque_identity (walk ()));
  let batch () =
    let t0 = now () in
    let rec go n =
      ignore (Sys.opaque_identity (walk ()));
      let dt = now () -. t0 in
      if dt >= batch_s then dt /. float_of_int n else go (n + 1)
    in
    go 1
  in
  let best = ref infinity in
  for _ = 1 to batches do
    best := Float.min !best (batch ())
  done;
  !best *. 1e9 /. float_of_int ops
