(* Batch driver over many candidate explorations sharing one memo; see
   the mli for the contract. *)

open Uldma_os

type 'v candidate = {
  c_label : string;
  c_root : Kernel.t;
  c_key_tag : (Kernel.t -> string) option;
}

type stats = {
  g_candidates : int;
  g_outer : int;
  g_paths : int;
  g_states : int;
  g_hits : int;
  g_memo_length : int;
  g_memo_evictions : int;
}

let run ~candidates ~pids ~baseline ?(jobs = 1) ?(max_instructions_per_leg = 2000)
    ?(max_paths = 1_000_000) ?(dedup = true) ?(paranoid_memo = false)
    ?(memo_cap = 1 lsl 20) ?shared ~check () =
  let n = Array.length candidates in
  let outer = max 1 (min jobs n) in
  let sm =
    match shared with
    | Some sm -> sm
    | None -> Explorer.create_shared ~cap:memo_cap ~locked:(outer > 1) ()
  in
  (* fresh key generation for this cell: keys minted against an earlier
     baseline/backend under the same table can never alias ours *)
  Explorer.bump_generation sm;
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let explore_one i =
    let c = candidates.(i) in
    let r =
      Explorer.explore ~root:c.c_root ~pids ~baseline ~max_instructions_per_leg ~max_paths
        ~dedup ~paranoid_memo ~shared:sm ?key_tag:c.c_key_tag ~check ()
    in
    results.(i) <- Some r
  in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        explore_one i;
        loop ()
      end
    in
    loop ()
  in
  if outer = 1 then worker ()
  else begin
    let domains = List.init outer (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains
  end;
  let results =
    Array.map
      (function
        | Some r -> r
        | None -> invalid_arg "Campaign.run: a candidate was never explored")
      results
  in
  let total f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  let stats =
    {
      g_candidates = n;
      g_outer = outer;
      g_paths = total (fun r -> r.Explorer.paths);
      g_states = total (fun r -> r.Explorer.states_visited);
      g_hits = total (fun r -> r.Explorer.dedup_hits);
      g_memo_length = Explorer.shared_length sm;
      g_memo_evictions = Explorer.shared_evictions sm;
    }
  in
  (results, stats)
