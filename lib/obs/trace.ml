type layer = Bus | Cpu | Os | Dma | Net | Verify

type kind =
  | Instr_retired of { opcode : string }
  | Uncached_access of { op : [ `Load | `Store ]; paddr : int; value : int }
  | Wbuf_collapse of { paddr : int }
  | Wbuf_flush of { drained : int }
  | Syscall_enter of { sysno : int }
  | Syscall_exit of { sysno : int }
  | Ctx_switch of { from_pid : int; to_pid : int }
  | Pal_enter of { index : int }
  | Pal_exit of { index : int }
  | Engine_decode of { paddr : int }
  | Engine_match of { step : int }
  | Engine_reject of { reason : string }
  | Iotlb_miss of { vpage : int }
  | Iotlb_fill of { vpage : int }
  | Cap_check of { cap : int; ok : bool }
  | Transfer_start of { src : int; dst : int; size : int; duration : int }
  | Transfer_complete of { src : int; dst : int; size : int }
  | Packet_tx of { dst_paddr : int; bytes : int }
  | Packet_rx of { dst_paddr : int; bytes : int }
  | Oracle_violation of { detail : string }
  | Explorer_fork of { depth : int }
  | Explorer_prune of { depth : int; reason : string }
  | Explorer_dedup of { depth : int }

type record = { at : Uldma_util.Units.ps; machine : int; pid : int; kind : kind }

type t = {
  mutable enabled : bool;
  permanent_off : bool; (* the [null] singleton; set_enabled rejects it *)
  cap : int;
  mutable buf : record array; (* ring, grows geometrically up to cap *)
  mutable total : int;
  mutable next_machine : int;
}

let default_cap = 262_144

let create ?(cap = default_cap) () =
  if cap < 1 then invalid_arg "Trace.create: cap must be positive";
  { enabled = true; permanent_off = false; cap; buf = [||]; total = 0; next_machine = 0 }

let null = { enabled = false; permanent_off = true; cap = 1; buf = [||]; total = 0; next_machine = 0 }

let enabled t = t.enabled

let set_enabled t v =
  if t.permanent_off then invalid_arg "Trace.set_enabled: the null sink stays disabled";
  t.enabled <- v

let grow t =
  let cur = Array.length t.buf in
  let want = min t.cap (max 64 (cur * 2)) in
  if want > cur then begin
    (* [t.total <= cur] here: we only grow before wraparound, so the
       live events are exactly [buf.[0..total-1]] in order. *)
    let nbuf = Array.make want t.buf.(0) in
    Array.blit t.buf 0 nbuf 0 cur;
    t.buf <- nbuf
  end

let emit t ~at ~machine ~pid kind =
  if t.enabled then begin
    let r = { at; machine; pid; kind } in
    let len = Array.length t.buf in
    if len = 0 then t.buf <- Array.make (min t.cap 64) r
    else if t.total >= len && len < t.cap then grow t;
    t.buf.(t.total mod Array.length t.buf) <- r;
    t.total <- t.total + 1
  end

let total t = t.total
let dropped t = max 0 (t.total - Array.length t.buf)

let events t =
  let len = Array.length t.buf in
  if len = 0 then []
  else begin
    let n = min t.total len in
    let first = t.total - n in
    List.init n (fun i -> t.buf.((first + i) mod len))
  end

let clear t =
  t.buf <- [||];
  t.total <- 0

let register_machine t =
  if not t.enabled then 0
  else begin
    let id = t.next_machine in
    t.next_machine <- id + 1;
    id
  end

let ambient_sink = ref null
let ambient () = !ambient_sink

let with_ambient t f =
  let prev = !ambient_sink in
  ambient_sink := t;
  Fun.protect ~finally:(fun () -> ambient_sink := prev) f

let layer_of_kind = function
  | Uncached_access _ | Wbuf_collapse _ | Wbuf_flush _ -> Bus
  | Instr_retired _ | Pal_enter _ | Pal_exit _ -> Cpu
  | Syscall_enter _ | Syscall_exit _ | Ctx_switch _ -> Os
  | Engine_decode _ | Engine_match _ | Engine_reject _ | Iotlb_miss _ | Iotlb_fill _
  | Cap_check _ | Transfer_start _ | Transfer_complete _ ->
    Dma
  | Packet_tx _ | Packet_rx _ -> Net
  | Oracle_violation _ | Explorer_fork _ | Explorer_prune _ | Explorer_dedup _ -> Verify

let layer_name = function
  | Bus -> "bus"
  | Cpu -> "cpu"
  | Os -> "os"
  | Dma -> "dma"
  | Net -> "net"
  | Verify -> "verify"

let kind_name = function
  | Instr_retired _ -> "instr_retired"
  | Uncached_access _ -> "uncached_access"
  | Wbuf_collapse _ -> "wbuf_collapse"
  | Wbuf_flush _ -> "wbuf_flush"
  | Syscall_enter _ -> "syscall_enter"
  | Syscall_exit _ -> "syscall_exit"
  | Ctx_switch _ -> "ctx_switch"
  | Pal_enter _ -> "pal_enter"
  | Pal_exit _ -> "pal_exit"
  | Engine_decode _ -> "engine_decode"
  | Engine_match _ -> "engine_match"
  | Engine_reject _ -> "engine_reject"
  | Iotlb_miss _ -> "iotlb_miss"
  | Iotlb_fill _ -> "iotlb_fill"
  | Cap_check _ -> "cap_check"
  | Transfer_start _ -> "transfer_start"
  | Transfer_complete _ -> "transfer_complete"
  | Packet_tx _ -> "packet_tx"
  | Packet_rx _ -> "packet_rx"
  | Oracle_violation _ -> "oracle_violation"
  | Explorer_fork _ -> "explorer_fork"
  | Explorer_prune _ -> "explorer_prune"
  | Explorer_dedup _ -> "explorer_dedup"

let pp_args ppf = function
  | Instr_retired { opcode } -> Fmt.pf ppf "opcode=%s" opcode
  | Uncached_access { op; paddr; value } ->
    Fmt.pf ppf "%s %#x value=%#x" (match op with `Load -> "load" | `Store -> "store") paddr value
  | Wbuf_collapse { paddr } -> Fmt.pf ppf "paddr=%#x" paddr
  | Wbuf_flush { drained } -> Fmt.pf ppf "drained=%d" drained
  | Syscall_enter { sysno } | Syscall_exit { sysno } -> Fmt.pf ppf "sysno=%d" sysno
  | Ctx_switch { from_pid; to_pid } -> Fmt.pf ppf "%d -> %d" from_pid to_pid
  | Pal_enter { index } | Pal_exit { index } -> Fmt.pf ppf "slot=%d" index
  | Engine_decode { paddr } -> Fmt.pf ppf "paddr=%#x" paddr
  | Engine_match { step } -> Fmt.pf ppf "step=%d" step
  | Engine_reject { reason } -> Fmt.pf ppf "reason=%s" reason
  | Iotlb_miss { vpage } | Iotlb_fill { vpage } -> Fmt.pf ppf "vpage=%#x" vpage
  | Cap_check { cap; ok } -> Fmt.pf ppf "cap=%#x %s" cap (if ok then "ok" else "denied")
  | Transfer_start { src; dst; size; duration } ->
    Fmt.pf ppf "%#x -> %#x (%d B, %d ps)" src dst size duration
  | Transfer_complete { src; dst; size } -> Fmt.pf ppf "%#x -> %#x (%d B)" src dst size
  | Packet_tx { dst_paddr; bytes } | Packet_rx { dst_paddr; bytes } ->
    Fmt.pf ppf "dst=%#x (%d B)" dst_paddr bytes
  | Oracle_violation { detail } -> Fmt.pf ppf "%s" detail
  | Explorer_fork { depth } -> Fmt.pf ppf "depth=%d" depth
  | Explorer_prune { depth; reason } -> Fmt.pf ppf "depth=%d reason=%s" depth reason
  | Explorer_dedup { depth } -> Fmt.pf ppf "depth=%d" depth

let pp_record ppf r =
  Fmt.pf ppf "[%a m%d pid%d] %s/%s %a" Uldma_util.Units.pp_time r.at r.machine r.pid
    (layer_name (layer_of_kind r.kind))
    (kind_name r.kind) pp_args r.kind
