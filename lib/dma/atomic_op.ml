type t = Add of int | Fetch_store of int | Cas of { expected : int; new_value : int }

type pending = P_none | P_cas_expected of int | P_ready of t

let opcode_add = 1
let opcode_fetch_store = 2
let opcode_cas_expected = 3
let opcode_cas_new = 4

let encode ~opcode ~operand = (operand lsl 4) lor opcode
let encode_add v = encode ~opcode:opcode_add ~operand:v
let encode_fetch_store v = encode ~opcode:opcode_fetch_store ~operand:v
let encode_cas_expected v = encode ~opcode:opcode_cas_expected ~operand:v
let encode_cas_new v = encode ~opcode:opcode_cas_new ~operand:v

let accumulate pending value =
  let opcode = value land 0xf in
  let operand = value asr 4 in
  if opcode = opcode_add then P_ready (Add operand)
  else if opcode = opcode_fetch_store then P_ready (Fetch_store operand)
  else if opcode = opcode_cas_expected then P_cas_expected operand
  else if opcode = opcode_cas_new then
    match pending with
    | P_cas_expected expected -> P_ready (Cas { expected; new_value = operand })
    | P_none | P_ready _ -> P_none
  else P_none

let execute t ~read ~write ~target =
  let old_value = read target in
  (match t with
  | Add operand -> write target (old_value + operand)
  | Fetch_store operand -> write target operand
  | Cas { expected; new_value } -> if old_value = expected then write target new_value);
  old_value

let pending_word p w =
  match (p, w) with
  | P_none, _ -> 0
  | P_cas_expected _, 0 -> 1
  | P_ready (Add _), 0 -> 2
  | P_ready (Fetch_store _), 0 -> 3
  | P_ready (Cas _), 0 -> 4
  | (P_cas_expected v | P_ready (Add v | Fetch_store v | Cas { expected = v; _ })), 1 -> v
  | P_ready (Cas { new_value; _ }), 2 -> new_value
  | (P_cas_expected _ | P_ready _), _ -> 0

let pp ppf = function
  | Add v -> Format.fprintf ppf "atomic_add(%d)" v
  | Fetch_store v -> Format.fprintf ppf "fetch_and_store(%d)" v
  | Cas { expected; new_value } ->
    Format.fprintf ppf "compare_and_swap(%d, %d)" expected new_value
