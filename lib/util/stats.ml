type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
  let rank = int_of_float (ceil (p *. float_of_int n)) in
  let idx = if rank <= 0 then 0 else if rank > n then n - 1 else rank - 1 in
  sorted.(idx)

let of_array samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.of_array: empty sample";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let sum = Array.fold_left ( +. ) 0.0 sorted in
  let mean = sum /. float_of_int n in
  let sq_err = Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 sorted in
  let stddev = if n > 1 then sqrt (sq_err /. float_of_int (n - 1)) else 0.0 in
  {
    n;
    mean;
    stddev;
    min = sorted.(0);
    max = sorted.(n - 1);
    p50 = percentile sorted 0.5;
    p95 = percentile sorted 0.95;
    p99 = percentile sorted 0.99;
  }

let of_list samples = of_array (Array.of_list samples)

let mean samples =
  match samples with
  | [] -> invalid_arg "Stats.mean: empty sample"
  | _ :: _ -> List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)
