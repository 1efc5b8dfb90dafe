open Uldma_util

type policy =
  | Run_to_completion
  | Round_robin of { quantum : int }
  | Random_preempt of { probability : float; seed : int }

type t = {
  policy : policy;
  mutable since_switch : int;
  rng : Rng.t;
}

let create policy =
  let seed = match policy with Random_preempt { seed; _ } -> seed | _ -> 0 in
  { policy; since_switch = 0; rng = Rng.create ~seed }

let copy t = { t with rng = Rng.copy t.rng }

let policy t = t.policy

(* next runnable pid strictly after [current] in cyclic pid order *)
let next_after current runnable =
  match List.find_opt (fun pid -> pid > current) runnable with
  | Some pid -> pid
  | None -> List.hd runnable

let round_robin t ~quantum ~current ~runnable =
  match current with
  | Some cur when List.mem cur runnable ->
    if t.since_switch >= quantum then next_after cur runnable else cur
  | Some cur -> next_after cur runnable
  | None -> List.hd runnable

let pick t ~current ~runnable =
  match runnable with
  | [] -> None
  | _ :: _ ->
    let chosen =
      match t.policy with
      | Run_to_completion -> (
        match current with
        | Some cur when List.mem cur runnable -> cur
        | Some _ | None -> List.hd runnable)
      | Round_robin { quantum } -> round_robin t ~quantum ~current ~runnable
      | Random_preempt { probability; _ } -> (
        match current with
        | Some cur when List.mem cur runnable ->
          if Rng.chance t.rng probability then List.nth runnable (Rng.int t.rng (List.length runnable))
          else cur
        | Some _ | None -> List.nth runnable (Rng.int t.rng (List.length runnable)))
    in
    (match current with
    | Some cur when cur = chosen -> t.since_switch <- t.since_switch + 1
    | Some _ | None -> t.since_switch <- 1);
    Some chosen

let keeps_current t =
  let keep =
    match t.policy with
    | Run_to_completion -> true
    | Round_robin { quantum } -> t.since_switch < quantum
    | Random_preempt _ -> false
  in
  if keep then t.since_switch <- t.since_switch + 1;
  keep

let note_switch t = t.since_switch <- max t.since_switch 1
