let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Event payload as a JSON object body (no braces), shared by both
   textual formats. *)
let args_body (kind : Trace.kind) =
  match kind with
  | Instr_retired { opcode } -> Printf.sprintf {|"opcode":"%s"|} (json_escape opcode)
  | Uncached_access { op; paddr; value } ->
    Printf.sprintf {|"op":"%s","paddr":%d,"value":%d|}
      (match op with `Load -> "load" | `Store -> "store")
      paddr value
  | Wbuf_collapse { paddr } -> Printf.sprintf {|"paddr":%d|} paddr
  | Wbuf_flush { drained } -> Printf.sprintf {|"drained":%d|} drained
  | Syscall_enter { sysno } | Syscall_exit { sysno } -> Printf.sprintf {|"sysno":%d|} sysno
  | Ctx_switch { from_pid; to_pid } ->
    Printf.sprintf {|"from_pid":%d,"to_pid":%d|} from_pid to_pid
  | Pal_enter { index } | Pal_exit { index } -> Printf.sprintf {|"index":%d|} index
  | Engine_decode { paddr } -> Printf.sprintf {|"paddr":%d|} paddr
  | Engine_match { step } -> Printf.sprintf {|"step":%d|} step
  | Engine_reject { reason } -> Printf.sprintf {|"reason":"%s"|} (json_escape reason)
  | Iotlb_miss { vpage } | Iotlb_fill { vpage } -> Printf.sprintf {|"vpage":%d|} vpage
  | Cap_check { cap; ok } -> Printf.sprintf {|"cap":%d,"ok":%b|} cap ok
  | Transfer_start { src; dst; size; duration } ->
    Printf.sprintf {|"src":%d,"dst":%d,"size":%d,"duration_ps":%d|} src dst size duration
  | Transfer_complete { src; dst; size } ->
    Printf.sprintf {|"src":%d,"dst":%d,"size":%d|} src dst size
  | Packet_tx { dst_paddr; bytes } | Packet_rx { dst_paddr; bytes } ->
    Printf.sprintf {|"dst_paddr":%d,"bytes":%d|} dst_paddr bytes
  | Oracle_violation { detail } -> Printf.sprintf {|"detail":"%s"|} (json_escape detail)
  | Explorer_fork { depth } | Explorer_dedup { depth } ->
    Printf.sprintf {|"depth":%d|} depth
  | Explorer_prune { depth; reason } ->
    Printf.sprintf {|"depth":%d,"reason":"%s"|} depth (json_escape reason)

let write_jsonl oc trace =
  List.iter
    (fun (r : Trace.record) ->
      Printf.fprintf oc {|{"at_ps":%d,"machine":%d,"pid":%d,"layer":"%s","kind":"%s","args":{%s}}|}
        r.Trace.at r.Trace.machine r.Trace.pid
        (Trace.layer_name (Trace.layer_of_kind r.Trace.kind))
        (Trace.kind_name r.Trace.kind) (args_body r.Trace.kind);
      output_char oc '\n')
    (Trace.events trace)

(* ps -> Chrome "ts" (microseconds, fractional). Emitted with enough
   digits that picosecond ordering survives the round-trip. *)
let chrome_ts ps = Printf.sprintf "%.6f" (float_of_int ps /. 1e6)

let sorted_events trace =
  (* Stable sort by timestamp: transfers stamp their completion in the
     future, so emission order alone is not time order. *)
  List.stable_sort
    (fun (a : Trace.record) (b : Trace.record) -> compare a.Trace.at b.Trace.at)
    (Trace.events trace)

let write_chrome oc trace =
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i (r : Trace.record) ->
      if i > 0 then output_string oc ",";
      output_string oc "\n";
      let ph, dur =
        match r.Trace.kind with
        | Transfer_start { duration; _ } -> ("X", Printf.sprintf {|,"dur":%s|} (chrome_ts duration))
        | _ -> ("i", "")
      in
      let scope = if ph = "i" then {|,"s":"t"|} else "" in
      Printf.fprintf oc
        {|{"name":"%s","cat":"%s","ph":"%s"%s%s,"ts":%s,"pid":%d,"tid":%d,"args":{%s}}|}
        (Trace.kind_name r.Trace.kind)
        (Trace.layer_name (Trace.layer_of_kind r.Trace.kind))
        ph dur scope (chrome_ts r.Trace.at) r.Trace.machine r.Trace.pid (args_body r.Trace.kind))
    (sorted_events trace);
  output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n"

let to_file fmt path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> match fmt with `Jsonl -> write_jsonl oc trace | `Chrome -> write_chrome oc trace)

let summary trace =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (r : Trace.record) ->
      let key =
        (Trace.layer_name (Trace.layer_of_kind r.Trace.kind), Trace.kind_name r.Trace.kind)
      in
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    (Trace.events trace);
  let rows = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let out =
    Uldma_util.Tbl.create ~title:"trace summary (events per layer)"
      ~columns:
        [
          ("layer", Uldma_util.Tbl.Left);
          ("event", Uldma_util.Tbl.Left);
          ("count", Uldma_util.Tbl.Right);
        ]
  in
  List.iter
    (fun ((layer, kind), n) -> Uldma_util.Tbl.add_row out [ layer; kind; string_of_int n ])
    rows;
  if Trace.dropped trace > 0 then
    Uldma_util.Tbl.add_row out [ "(all)"; "dropped (ring overflow)"; string_of_int (Trace.dropped trace) ];
  out
