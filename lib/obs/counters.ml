type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  buckets : int array; (* bucket i counts samples in (2^(i-1), 2^i]; bucket 0 is [0;1] *)
}

type t = { counters : (string, int ref) Hashtbl.t; hists : (string, hist) Hashtbl.t }

let create () = { counters = Hashtbl.create 32; hists = Hashtbl.create 8 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let incr t name = Stdlib.incr (counter t name)
let add t name n = counter t name := !(counter t name) + n
let value t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let n_buckets = 63

let hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = { h_count = 0; h_sum = 0; h_min = max_int; h_max = 0; buckets = Array.make n_buckets 0 } in
    Hashtbl.add t.hists name h;
    h

let histogram = hist

(* the bit length of v - 1: 2^(i-1) < v <= 2^i *)
let bucket_of v = if v <= 1 then 0 else min (n_buckets - 1) (Uldma_util.Bits.msb (v - 1) + 1)

let record h v =
  let v = if v < 0 then 0 else v in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let observe t name v = record (hist t name) v

type summary = { count : int; sum : int; min : int; max : int; mean : float }

let summarize t name =
  match Hashtbl.find_opt t.hists name with
  | None -> None
  | Some h ->
    if h.h_count = 0 then None
    else
      Some
        {
          count = h.h_count;
          sum = h.h_sum;
          min = h.h_min;
          max = h.h_max;
          mean = float_of_int h.h_sum /. float_of_int h.h_count;
        }

let buckets t name =
  match Hashtbl.find_opt t.hists name with
  | None -> []
  | Some h ->
    let out = ref [] in
    for i = n_buckets - 1 downto 0 do
      if h.buckets.(i) > 0 then out := ((if i = 0 then 1 else 1 lsl i), h.buckets.(i)) :: !out
    done;
    !out

let sorted_keys tbl = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
let counter_names t = sorted_keys t.counters
let histogram_names t = sorted_keys t.hists

let merge_into ~dst src =
  Hashtbl.iter (fun name r -> add dst name !r) src.counters;
  Hashtbl.iter
    (fun name h ->
      let d = hist dst name in
      d.h_count <- d.h_count + h.h_count;
      d.h_sum <- d.h_sum + h.h_sum;
      if h.h_count > 0 then begin
        if h.h_min < d.h_min then d.h_min <- h.h_min;
        if h.h_max > d.h_max then d.h_max <- h.h_max
      end;
      Array.iteri (fun i n -> d.buckets.(i) <- d.buckets.(i) + n) h.buckets)
    src.hists

let rows t =
  let cs = List.map (fun name -> (name, string_of_int (value t name))) (counter_names t) in
  let hs =
    List.filter_map
      (fun name ->
        match summarize t name with
        | None -> None
        | Some s ->
          Some
            ( name,
              Printf.sprintf "n=%d mean=%.1f min=%d max=%d" s.count s.mean s.min s.max ))
      (histogram_names t)
  in
  cs @ hs

let to_table ?(title = "counters") t =
  let tbl =
    Uldma_util.Tbl.create ~title
      ~columns:[ ("counter", Uldma_util.Tbl.Left); ("value", Uldma_util.Tbl.Right) ]
  in
  List.iter (fun (name, v) -> Uldma_util.Tbl.add_row tbl [ name; v ]) (rows t);
  tbl
