open Uldma_util

type t = { name : string; bytes_per_s : float; latency_ps : Units.ps }

let atm155 = { name = "ATM 155Mbps"; bytes_per_s = Units.mbps 155.0; latency_ps = Units.us 10.0 }
let atm622 = { name = "ATM 622Mbps"; bytes_per_s = Units.mbps 622.0; latency_ps = Units.us 8.0 }
let gigabit = { name = "Gigabit LAN"; bytes_per_s = Units.mbps 1000.0; latency_ps = Units.us 5.0 }
let hic1355 = { name = "HIC/IEEE-1355"; bytes_per_s = Units.mbps 800.0; latency_ps = Units.us 2.0 }

let all = [ atm155; atm622; gigabit; hic1355 ]

(* Infinite bandwidth, zero latency: the wire model matching the Null
   backend, so N-node meshes can be built uniformly over links even
   when the scenario wants zero-duration transfers. *)
let instant = { name = "instant"; bytes_per_s = infinity; latency_ps = 0 }

let serialisation_ps t n = Units.transfer_ps ~bytes_per_s:t.bytes_per_s n
let wire_time_ps t n = t.latency_ps + serialisation_ps t n

let[@inline] reserve ~busy_until ~now ~serialisation =
  (if now >= busy_until then now else busy_until) + serialisation

let pp ppf t =
  Format.fprintf ppf "%s (%.0f MB/s, %a latency)" t.name (t.bytes_per_s /. 1e6) Units.pp_time
    t.latency_ps
