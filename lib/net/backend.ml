open Uldma_util

type t = Null | Linked of { link : Link.t; tick_ps : Units.ps }

let default_tick_ps = Units.us 1.0

let null = Null

let linked ?(tick_ps = default_tick_ps) link =
  if tick_ps <= 0 then invalid_arg "Backend.linked: tick_ps must be positive";
  Linked { link; tick_ps }

(* Round a wire time up to a whole number of ticks. Ceiling, never
   floor: a nonzero transfer must cost at least one tick, or a timed
   run would silently degenerate into the Null backend (and the
   explorer would lose the in-flight window the tick exists to model). *)
let quantise ~tick_ps ps = if ps <= 0 then 0 else (ps + tick_ps - 1) / tick_ps * tick_ps

let duration_ps t n =
  match t with
  | Null -> 0
  | Linked { link; tick_ps } -> quantise ~tick_ps (Link.wire_time_ps link n)

let link = function Null -> None | Linked { link; _ } -> Some link

let name = function Null -> "null" | Linked { link; _ } -> link.Link.name

(* The backend's canonical label: same link, different tick =>
   different schedule trees, so the tick is part of it. *)
let cache_key = function
  | Null -> "null"
  | Linked { link; tick_ps } -> Printf.sprintf "%s@%dps" link.Link.name tick_ps

(* the CLI spellings accepted by [of_string] *)
let all_names = [ "null"; "atm155"; "atm622"; "gigabit"; "hic" ]

let of_string ?tick_ps s =
  (* validate the tick here rather than letting [linked] raise: CLI
     callers pattern-match on the Result and should get a message, not
     an exception, for --tick-ps 0 *)
  match tick_ps with
  | Some t when t <= 0 ->
    Error (Printf.sprintf "tick_ps must be positive (got %d)" t)
  | _ -> (
    match String.lowercase_ascii s with
    | "null" -> Ok Null
    | "atm155" -> Ok (linked ?tick_ps Link.atm155)
    | "atm622" -> Ok (linked ?tick_ps Link.atm622)
    | "gigabit" -> Ok (linked ?tick_ps Link.gigabit)
    | "hic" | "hic1355" -> Ok (linked ?tick_ps Link.hic1355)
    | other ->
      Error
        (Printf.sprintf "unknown net backend %S (expected one of: %s)" other
           (String.concat ", " all_names)))

let pp ppf = function
  | Null -> Format.pp_print_string ppf "null (zero-duration)"
  | Linked { link; tick_ps } ->
    Format.fprintf ppf "%a, tick %a" Link.pp link Units.pp_time tick_ps
