type op = Load | Store

type t = { op : op; paddr : int; value : int; pid : int; at : Uldma_util.Units.ps }

let pp_op ppf = function
  | Load -> Format.pp_print_string ppf "LOAD"
  | Store -> Format.pp_print_string ppf "STORE"

let pp ppf t =
  Format.fprintf ppf "%a %#x%s (pid %d, %a)" pp_op t.op t.paddr
    (match t.op with Store -> Printf.sprintf " <- %#x" t.value | Load -> "")
    t.pid Uldma_util.Units.pp_time t.at
