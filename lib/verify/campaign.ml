(* Batch driver over many candidate explorations sharing one memo; see
   the mli for the contract. *)

open Uldma_os

type 'v candidate = { c_label : string; c_root : Kernel.t }

type stats = {
  g_candidates : int;
  g_paths : int;
  g_states : int;
  g_hits : int;
  g_memo_length : int;
  g_memo_evictions : int;
}

let run ~candidates ~pids ~baseline ?(jobs = 1) ?(max_instructions_per_leg = 2000)
    ?(max_paths = 1_000_000) ?(dedup = true) ?(paranoid_memo = false)
    ?(memo_cap = 1 lsl 20) ?shared ~check () =
  if jobs <> 1 then invalid_arg "Campaign.run: jobs must be 1";
  let sm = match shared with Some sm -> sm | None -> Explorer.create_shared ~cap:memo_cap () in
  (* keys are comparable only under one baseline: the cell owns its table *)
  Explorer.clear_shared sm;
  let results =
    Array.map
      (fun c ->
        Explorer.explore ~root:c.c_root ~pids ~baseline ~max_instructions_per_leg ~max_paths
          ~dedup ~paranoid_memo ~shared:sm ~check ())
      candidates
  in
  let total f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  let stats =
    {
      g_candidates = Array.length candidates;
      g_paths = total (fun r -> r.Explorer.paths);
      g_states = total (fun r -> r.Explorer.states_visited);
      g_hits = total (fun r -> r.Explorer.dedup_hits);
      g_memo_length = Explorer.shared_length sm;
      g_memo_evictions = Explorer.shared_evictions sm;
    }
  in
  (results, stats)
