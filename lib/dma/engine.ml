open Uldma_util
open Uldma_mem
open Uldma_bus
module Shadow = Uldma_mmu.Shadow
module Iotlb = Uldma_mmu.Iotlb
module Page_table = Uldma_mmu.Page_table
module Pte = Uldma_mmu.Pte
module Imap = Map.Make (Int)

type mechanism =
  | Shrimp_mapped
  | Shrimp_two_step
  | Flash
  | Key_based
  | Ext_shadow
  | Ext_shadow_stateless
  | Rep_args of Seq_matcher.variant
  | Iommu
  | Capio

type reject_reason =
  | Bad_key
  | No_context
  | Wrong_context
  | Incomplete_arguments
  | Broken_sequence
  | Bad_range
  | Not_mapped_out
  | Wrong_pid
  | Unsupported
  | Not_present
  | Bad_capability
  | Revoked_capability

type counters = {
  mutable rejected : int;
  mutable key_rejected : int;
  mutable atomics : int;
  mutable remote_sends : int;
}

type packet_kind =
  | Remote_write
  | Remote_atomic of { op : Atomic_op.t; reply_paddr : int }
      (* execute at the peer's [remote_addr]; deliver the old value to
         the *local* physical word [reply_paddr] (the context mailbox) *)

type outbound_packet = {
  remote_addr : int; (* physical address on the peer node *)
  payload : Bytes.t; (* Remote_write payload; empty for atomics *)
  sent_at : Units.ps;
  kind : packet_kind;
}

type pending_two_step = { p_dest : int; p_size : int; p_pid : int; p_ctx : int }
(* [p_pid] is only consulted by the FLASH mechanism, and holds the
   engine's [current_pid] register value at deposit time (maintained by
   the modified kernel) — never the transaction's provenance. [p_ctx]
   is only consulted by the contextless extended-shadow variant and is
   the context id carried by the depositing shadow address. *)

type t = {
  clock : Clock.t;
  backend : Transfer.backend;
  ram_size : int;
  mechanism : mechanism;
  contexts : Context_file.t;
  matcher : Seq_matcher.t;
  mutable mapped_out : int Imap.t; (* src page base -> dst page base *)
  mutable map_out_staged : int option;
  mutable pending : pending_two_step option;
  mutable current_pid : int;
  mutable k_src : int;
  mutable k_dst : int;
  mutable k_status : int;
  mutable k_atomic_target : int;
  mutable k_atomic_pending : Atomic_op.pending;
  mutable g_atomic_target : int option; (* shared atomic slot (PAL use) *)
  mutable g_atomic_pending : Atomic_op.pending;
  iotlb : Iotlb.t; (* Iommu: device-side translation cache *)
  iotlb_walk_ps : int; (* cost of one table walk on a miss *)
  mutable iommu_tables : (int * Page_table.t) list; (* context -> bound table *)
  caps : Capability.t; (* Capio: the engine's capability table *)
  mutable cap_stage_value : int; (* staged grant (committed by k_cap_commit) *)
  mutable cap_stage_base : int;
  mutable cap_stage_len : int;
  mutable last_transfer : Transfer.t option; (* for two-step status loads *)
  mutable last_status : int;
  mutable transfers : Transfer.t list; (* newest first *)
  mutable n_transfers : int; (* length of [transfers] *)
  mutable in_flight : (int * Transfer.t) list;
      (* (ordinal, transfer) of the started transfers whose wire time had
         not elapsed when last looked at, newest first; pruned lazily by
         [live_transfers]. Always empty under a zero-duration backend. *)
  mutable outbound : outbound_packet list; (* newest first *)
  counters : counters;
  mutable sink : Uldma_obs.Trace.t;
  mutable machine : int;
  dg : int array; (* register digest lanes, then 1 once built (see [digest]) *)
}

let create ~clock ~backend ~ram_size ~mechanism ?(n_contexts = 4) ?(iotlb_walk_ps = 0) () =
  {
    clock;
    backend;
    ram_size;
    mechanism;
    contexts = Context_file.create ~n:n_contexts;
    matcher =
      (match mechanism with Rep_args v -> Seq_matcher.create v | _ -> Seq_matcher.create Seq_matcher.Five);
    mapped_out = Imap.empty;
    map_out_staged = None;
    pending = None;
    iotlb = Iotlb.create ();
    iotlb_walk_ps;
    iommu_tables = [];
    caps = Capability.create ();
    cap_stage_value = 0;
    cap_stage_base = 0;
    cap_stage_len = 0;
    current_pid = -1;
    k_src = 0;
    k_dst = 0;
    k_status = Status.complete;
    k_atomic_target = 0;
    k_atomic_pending = Atomic_op.P_none;
    g_atomic_target = None;
    g_atomic_pending = Atomic_op.P_none;
    last_transfer = None;
    last_status = Status.failure;
    transfers = [];
    n_transfers = 0;
    in_flight = [];
    counters = { rejected = 0; key_rejected = 0; atomics = 0; remote_sends = 0 };
    outbound = [];
    sink = Uldma_obs.Trace.null;
    machine = 0;
    dg = [| 0; 0; 0 |];
  }

let mechanism t = t.mechanism
let contexts t = t.contexts

let set_sink t ~machine sink =
  t.sink <- sink;
  t.machine <- machine

let tracing t = Uldma_obs.Trace.enabled t.sink

let trace t ~at ~pid kind = Uldma_obs.Trace.emit t.sink ~at ~machine:t.machine ~pid kind

(* Engine snapshot for kernel forks. The register contexts, matcher,
   capabilities, counters and digest are duplicated; the IOTLB is
   shared copy-on-write (Iotlb.copy flags both sides, and the first
   write copies); transfers, the in-flight list, outbound and the
   mapped-out map are immutable and are shared. *)
let copy t ~clock ~backend =
  {
    t with
    clock;
    backend;
    contexts = Context_file.copy t.contexts;
    matcher = Seq_matcher.copy t.matcher;
    iotlb = Iotlb.copy t.iotlb;
    (* the bindings still point at the parent's page tables here; the
       kernel fork re-binds each live context to its copied table
       immediately after copying the processes *)
    iommu_tables = t.iommu_tables;
    caps = Capability.copy t.caps;
    counters = { t.counters with rejected = t.counters.rejected }; (* a fresh record *)
    dg = Array.copy t.dg;
  }

let now t = Clock.now t.clock

(* ------------------------------------------------------------------ *)
(* Register writes and the engine's additive digest *)

(* Digest slots of the engine's own registers, and six slots per
   started transfer from 32, by ordinal (oldest 0). The register
   contexts and the matcher keep digests of their own. Every value
   enters as value xor its reset value, so a fresh engine digests to
   (0, 0). The lanes live in [t.dg]; until the first [digest] call
   builds them a write pays only the test of [t.dg.(2)]. *)
let s_current_pid = 0
let s_k_src = 1
let s_k_dst = 2
let s_k_status = 3
let s_k_atomic_target = 4
let s_k_atomic_pending = 5 (* three slots *)
let s_g_atomic_target = 8
let s_g_atomic_pending = 9 (* three slots *)
let s_last_status = 12
let s_cap_stage_value = 13
let s_cap_stage_base = 14
let s_cap_stage_len = 15
let s_map_out_staged = 16
let s_pending = 17 (* five slots: present, dest, size, pid, context *)
let s_n_transfers = 22
let s_transfer k = 32 + (8 * k) (* six slots *)

(* Setters test [built] before computing any digest value, so until
   the digest is built a write costs one load and compare. *)
let[@inline] built t = t.dg.(2) <> 0

let[@inline] note t slot old v = Fp128.replace_int t.dg 0 slot old v

let note_atomic t slot old p =
  for w = 0 to 2 do
    note t (slot + w) (Atomic_op.pending_word old w) (Atomic_op.pending_word p w)
  done

let deposit_word p w =
  match p with
  | None -> 0
  | Some { p_dest; p_size; p_pid; p_ctx } -> (
    match w with 0 -> 1 | 1 -> p_dest | 2 -> p_size | 3 -> p_pid | _ -> p_ctx)

(* the static fields of a started transfer; its clock-relative view is
   fed at key time *)
let transfer_word (tr : Transfer.t) f =
  match f with
  | 0 -> tr.Transfer.src
  | 1 -> tr.Transfer.dst
  | 2 -> tr.Transfer.size
  | 3 -> tr.Transfer.pid
  | 4 -> Fp128.opt_value tr.Transfer.context
  | _ -> tr.Transfer.duration

let set_current_pid t v =
  if built t then note t s_current_pid (lnot t.current_pid) (lnot v);
  t.current_pid <- v

let set_k_src t v =
  if built t then note t s_k_src t.k_src v;
  t.k_src <- v

let set_k_dst t v =
  if built t then note t s_k_dst t.k_dst v;
  t.k_dst <- v

let set_k_status t v =
  if built t then note t s_k_status (t.k_status lxor Status.complete) (v lxor Status.complete);
  t.k_status <- v

let set_k_atomic_target t v =
  if built t then note t s_k_atomic_target t.k_atomic_target v;
  t.k_atomic_target <- v

let set_k_atomic_pending t p =
  if built t then note_atomic t s_k_atomic_pending t.k_atomic_pending p;
  t.k_atomic_pending <- p

let set_g_atomic t target p =
  if built t then begin
    note t s_g_atomic_target (Fp128.opt_value t.g_atomic_target) (Fp128.opt_value target);
    note_atomic t s_g_atomic_pending t.g_atomic_pending p
  end;
  t.g_atomic_target <- target;
  t.g_atomic_pending <- p

let set_last_status t v =
  if built t then note t s_last_status (t.last_status lxor Status.failure) (v lxor Status.failure);
  t.last_status <- v

let set_cap_stage_value t v =
  if built t then note t s_cap_stage_value t.cap_stage_value v;
  t.cap_stage_value <- v

let set_cap_stage_base t v =
  if built t then note t s_cap_stage_base t.cap_stage_base v;
  t.cap_stage_base <- v

let set_cap_stage_len t v =
  if built t then note t s_cap_stage_len t.cap_stage_len v;
  t.cap_stage_len <- v

let set_map_out_staged t v =
  if built t then note t s_map_out_staged (Fp128.opt_value t.map_out_staged) (Fp128.opt_value v);
  t.map_out_staged <- v

let set_pending t p =
  if built t then
    for w = 0 to 4 do
      note t (s_pending + w) (deposit_word t.pending w) (deposit_word p w)
    done;
  t.pending <- p

let push_transfer t tr =
  let k = t.n_transfers in
  if built t then begin
    for f = 0 to 5 do
      note t (s_transfer k + f) 0 (transfer_word tr f)
    done;
    note t s_n_transfers k (k + 1)
  end;
  t.transfers <- tr :: t.transfers;
  t.n_transfers <- k + 1;
  if Transfer.end_time tr > Clock.now t.clock then t.in_flight <- (k, tr) :: t.in_flight

(* The in-flight list with the transfers completed by now dropped. It is
   rebuilt only when one has completed, so a walk that finds every entry
   still live allocates nothing. *)
let rec all_live now = function
  | [] -> true
  | (_, tr) :: rest -> Transfer.end_time tr > now && all_live now rest

let rec live now = function
  | [] -> []
  | ((_, tr) as e) :: rest -> if Transfer.end_time tr > now then e :: live now rest else live now rest

let live_transfers t =
  let now = Clock.now t.clock in
  if not (all_live now t.in_flight) then t.in_flight <- live now t.in_flight;
  t.in_flight

let scratch_digest t =
  let d = [| 0; 0 |] in
  let add slot v = Fp128.replace_int d 0 slot 0 v in
  add s_current_pid (lnot t.current_pid);
  add s_k_src t.k_src;
  add s_k_dst t.k_dst;
  add s_k_status (t.k_status lxor Status.complete);
  add s_k_atomic_target t.k_atomic_target;
  add s_g_atomic_target (Fp128.opt_value t.g_atomic_target);
  for w = 0 to 2 do
    add (s_k_atomic_pending + w) (Atomic_op.pending_word t.k_atomic_pending w);
    add (s_g_atomic_pending + w) (Atomic_op.pending_word t.g_atomic_pending w)
  done;
  add s_last_status (t.last_status lxor Status.failure);
  add s_cap_stage_value t.cap_stage_value;
  add s_cap_stage_base t.cap_stage_base;
  add s_cap_stage_len t.cap_stage_len;
  add s_map_out_staged (Fp128.opt_value t.map_out_staged);
  for w = 0 to 4 do
    add (s_pending + w) (deposit_word t.pending w)
  done;
  add s_n_transfers t.n_transfers;
  List.iteri
    (fun j tr ->
      for f = 0 to 5 do
        add (s_transfer (t.n_transfers - 1 - j) + f) (transfer_word tr f)
      done)
    t.transfers;
  (d.(0), d.(1))

let build_digest t =
  if t.dg.(2) = 0 then begin
    let a, b = scratch_digest t in
    t.dg.(0) <- a;
    t.dg.(1) <- b;
    t.dg.(2) <- 1
  end

let digest t =
  build_digest t;
  (t.dg.(0), t.dg.(1))

(* exhaustive by construction: a new [reject_reason] variant must be
   named here, it cannot fall through a wildcard *)
let reject_name r =
  match[@warning "+8"] r with
  | Bad_key -> "bad_key"
  | No_context -> "no_context"
  | Wrong_context -> "wrong_context"
  | Incomplete_arguments -> "incomplete_arguments"
  | Broken_sequence -> "broken_sequence"
  | Bad_range -> "bad_range"
  | Not_mapped_out -> "not_mapped_out"
  | Wrong_pid -> "wrong_pid"
  | Unsupported -> "unsupported"
  | Not_present -> "not_present"
  | Bad_capability -> "bad_capability"
  | Revoked_capability -> "revoked_capability"

let reject t ~reason ~pid =
  t.counters.rejected <- t.counters.rejected + 1;
  if reason = Bad_key then t.counters.key_rejected <- t.counters.key_rejected + 1;
  if tracing t then
    trace t ~at:(now t) ~pid (Uldma_obs.Trace.Engine_reject { reason = reject_name reason });
  Status.failure

let in_ram_range t addr size = addr >= 0 && size >= 0 && addr + size <= t.ram_size

let in_remote_range addr size =
  Layout.in_remote addr && size >= 0 && addr + size <= Layout.remote_limit

let send_remote ?(kind = Remote_write) t ~remote_paddr ~payload =
  t.outbound <-
    { remote_addr = Layout.remote_offset remote_paddr; payload; sent_at = now t; kind }
    :: t.outbound;
  t.counters.remote_sends <- t.counters.remote_sends + 1;
  if tracing t then
    trace t ~at:(now t) ~pid:t.current_pid
      (Uldma_obs.Trace.Packet_tx
         { dst_paddr = Layout.remote_offset remote_paddr; bytes = Bytes.length payload })

let start_transfer t ~src ~dst ~size ~context ~pid =
  let dst_ok = in_ram_range t dst size || in_remote_range dst size in
  if size <= 0 || not (in_ram_range t src size) || not dst_ok then
    reject t ~reason:Bad_range ~pid
  else begin
    if Layout.in_remote dst then
      (* Telegraphos-style remote DMA: the payload leaves on the wire
         instead of being copied locally *)
      send_remote t ~remote_paddr:dst ~payload:(t.backend.Transfer.read_bytes src size)
    else t.backend.Transfer.copy ~src ~dst ~len:size;
    let tr =
      {
        Transfer.src;
        dst;
        size;
        context;
        pid;
        started_at = now t;
        duration = t.backend.Transfer.duration_ps size;
      }
    in
    push_transfer t tr;
    if tracing t then begin
      trace t ~at:tr.Transfer.started_at ~pid
        (Uldma_obs.Trace.Transfer_start { src; dst; size; duration = tr.Transfer.duration });
      (* stamped at completion time, in the future of the emission
         point; the Chrome exporter re-sorts by timestamp *)
      trace t ~at:(Transfer.end_time tr) ~pid
        (Uldma_obs.Trace.Transfer_complete { src; dst; size })
    end;
    (match context with
    | Some i ->
      let c = Context_file.get t.contexts i in
      Context_file.set_last_transfer c (Some tr);
      Context_file.set_status c (Transfer.remaining tr ~now:(now t))
    | None -> ());
    t.last_transfer <- Some tr;
    set_last_status t (Transfer.remaining tr ~now:(now t));
    Transfer.remaining tr ~now:(now t)
  end

let context_transfer_end t i =
  match (Context_file.get t.contexts i).Context_file.last_transfer with
  | Some tr -> Some (Transfer.end_time tr)
  | None -> None

let last_transfer_end t =
  match t.last_transfer with Some tr -> Some (Transfer.end_time tr) | None -> None

let context_status t i =
  let c = Context_file.get t.contexts i in
  if Status.is_failure c.Context_file.status then c.Context_file.status
  else
    match c.Context_file.last_transfer with
    | Some tr -> Transfer.remaining tr ~now:(now t)
    | None -> c.Context_file.status

let two_step_status t =
  if Status.is_failure t.last_status then t.last_status
  else
    match t.last_transfer with
    | Some tr -> Transfer.remaining tr ~now:(now t)
    | None -> t.last_status

(* ------------------------------------------------------------------ *)
(* IOMMU: device-side translation of virtual DMA arguments *)

let iommu_bind t ~context ~table =
  t.iommu_tables <- (context, table) :: List.remove_assoc context t.iommu_tables

let iommu_unbind t ~context = t.iommu_tables <- List.remove_assoc context t.iommu_tables

let iotlb_invalidate t ~vpage = Iotlb.invalidate t.iotlb ~vpage

let iotlb_flush t = Iotlb.flush t.iotlb

let iotlb_stats t = Iotlb.stats t.iotlb

(* One page lookup through the IOTLB. A miss walks the bound table and
   is charged [iotlb_walk_ps] on the machine clock whether or not the
   walk finds a mapping (the engine has to look either way). *)
let iotlb_lookup t ~table ~vpage ~pid =
  match Iotlb.translate t.iotlb table ~vpage with
  | `Hit pte -> Some pte
  | `Miss pte ->
    Clock.advance t.clock t.iotlb_walk_ps;
    if tracing t then begin
      trace t ~at:(now t) ~pid (Uldma_obs.Trace.Iotlb_miss { vpage });
      trace t ~at:(now t) ~pid (Uldma_obs.Trace.Iotlb_fill { vpage })
    end;
    Some pte
  | `Fault ->
    Clock.advance t.clock t.iotlb_walk_ps;
    if tracing t then trace t ~at:(now t) ~pid (Uldma_obs.Trace.Iotlb_miss { vpage });
    None

(* Resolve a virtual range to one physical base: every page must be
   present with the required right ([Not_present] otherwise), and the
   physical image must be contiguous — the copy unit takes a single
   base+length ([Bad_range] otherwise). *)
let iommu_resolve t ~table ~vaddr ~size ~access ~pid =
  if size <= 0 || vaddr < 0 then Error Bad_range
  else begin
    let first = Layout.page_of vaddr and last = Layout.page_of (vaddr + size - 1) in
    let permitted (pte : Pte.t) =
      match access with
      | `Read -> Perms.allows_read pte.Pte.perms
      | `Write -> Perms.allows_write pte.Pte.perms
    in
    let rec walk page expected base =
      if page > last then Ok base
      else
        match iotlb_lookup t ~table ~vpage:page ~pid with
        | None -> Error Not_present
        | Some pte ->
          if not (permitted pte) then Error Not_present
          else begin
            let page_base = pte.Pte.frame lsl Layout.page_shift in
            match expected with
            | Some e when page_base <> e -> Error Bad_range
            | _ ->
              let base =
                if page = first then page_base lor Layout.page_offset vaddr else base
              in
              walk (page + 1) (Some (page_base + Layout.page_size)) base
          end
    in
    walk first None 0
  end

let fire_iommu t ~context ~vsrc ~vdst ~size ~pid =
  match List.assoc_opt context t.iommu_tables with
  | None -> reject t ~reason:Not_present ~pid
  | Some table -> (
    match iommu_resolve t ~table ~vaddr:vsrc ~size ~access:`Read ~pid with
    | Error reason -> reject t ~reason ~pid
    | Ok src -> (
      match iommu_resolve t ~table ~vaddr:vdst ~size ~access:`Write ~pid with
      | Error reason -> reject t ~reason ~pid
      | Ok dst -> start_transfer t ~src ~dst ~size ~context:(Some context) ~pid))

(* ------------------------------------------------------------------ *)
(* CAPIO: capability-checked initiation *)

let cap_check t ~value ~context ~size ~access ~pid =
  let verdict ok = if tracing t then trace t ~at:(now t) ~pid (Uldma_obs.Trace.Cap_check { cap = value; ok }) in
  match Capability.find t.caps ~value with
  | None ->
    verdict false;
    Error Bad_capability
  | Some cap ->
    if cap.Capability.revoked then begin
      verdict false;
      Error Revoked_capability
    end
    else if cap.Capability.ctx <> context then begin
      (* a capability laundered into a context it was not granted to
         (e.g. an accomplice replaying a victim's value) is as bad as a
         forged one *)
      verdict false;
      Error Bad_capability
    end
    else if
      not
        (match access with
        | `Read -> Perms.allows_read cap.Capability.rights
        | `Write -> Perms.allows_write cap.Capability.rights)
    then begin
      verdict false;
      Error Bad_capability
    end
    else if size <= 0 || size > cap.Capability.len then begin
      verdict false;
      Error Bad_range
    end
    else begin
      verdict true;
      Ok cap.Capability.base
    end

let fire_capio t ~context ~cap_src ~cap_dst ~size ~pid =
  match cap_check t ~value:cap_src ~context ~size ~access:`Read ~pid with
  | Error reason -> reject t ~reason ~pid
  | Ok src -> (
    match cap_check t ~value:cap_dst ~context ~size ~access:`Write ~pid with
    | Error reason -> reject t ~reason ~pid
    | Ok dst -> start_transfer t ~src ~dst ~size ~context:(Some context) ~pid)

let revoke_caps_pid t ~pid = Capability.revoke_pid t.caps ~pid
let revoke_caps_range t ~base ~len = Capability.revoke_range t.caps ~base ~len
let capabilities t = t.caps

(* ------------------------------------------------------------------ *)
(* Atomic unit *)

let run_atomic t ~op ~target ~context ~pid =
  if not (Layout.is_word_aligned target) then reject t ~reason:Bad_range ~pid
  else if in_ram_range t target Layout.word_size then begin
    let result =
      Atomic_op.execute op ~read:t.backend.Transfer.read_word ~write:t.backend.Transfer.write_word
        ~target
    in
    t.counters.atomics <- t.counters.atomics + 1;
    result
  end
  else if in_remote_range target Layout.word_size then begin
    (* Telegraphos-style remote atomic: ship the operation; the old
       value comes back later into the context's kernel-set mailbox.
       Without a mailbox there is nowhere to deliver the reply. *)
    let mailbox =
      match context with
      | Some i -> (Context_file.get t.contexts i).Context_file.mailbox
      | None -> None
    in
    match mailbox with
    | None -> reject t ~reason:Incomplete_arguments ~pid
    | Some reply_paddr ->
      send_remote t ~remote_paddr:target ~payload:Bytes.empty
        ~kind:(Remote_atomic { op; reply_paddr });
      t.counters.atomics <- t.counters.atomics + 1;
      Status.in_progress
  end
  else reject t ~reason:Bad_range ~pid

let context_atomic_store c paddr_opt value =
  (match paddr_opt with
  | Some paddr -> Context_file.set_atomic_target c (Some paddr)
  | None -> ());
  Context_file.set_atomic_pending c (Atomic_op.accumulate c.Context_file.atomic_pending value)

let context_atomic_exec t c ~expected_target ~pid =
  let target_ok =
    match (c.Context_file.atomic_target, expected_target) with
    | Some tgt, Some expect -> if tgt = expect then Some tgt else None
    | Some tgt, None -> Some tgt
    | None, _ -> None
  in
  let finish result =
    Context_file.set_atomic_target c None;
    Context_file.set_atomic_pending c Atomic_op.P_none;
    result
  in
  match (target_ok, c.Context_file.atomic_pending) with
  | Some target, Atomic_op.P_ready op ->
    finish (run_atomic t ~op ~target ~context:(Some c.Context_file.index) ~pid)
  | Some _, (Atomic_op.P_none | Atomic_op.P_cas_expected _) | None, _ ->
    finish (reject t ~reason:Incomplete_arguments ~pid)

(* ------------------------------------------------------------------ *)
(* Kernel control page *)

let kernel_store t offset value ~pid =
  if offset = Regmap.k_source then set_k_src t value
  else if offset = Regmap.k_dest then set_k_dst t value
  else if offset = Regmap.k_size then
    set_k_status t (start_transfer t ~src:t.k_src ~dst:t.k_dst ~size:value ~context:None ~pid)
  else if offset = Regmap.k_current_pid then set_current_pid t value
  else if offset = Regmap.k_invalidate then begin
    set_pending t None;
    set_g_atomic t None Atomic_op.P_none
  end
  else if offset = Regmap.k_map_out_src then set_map_out_staged t (Some (Layout.page_base value))
  else if offset = Regmap.k_map_out_dst then begin
    match t.map_out_staged with
    | Some src_page ->
      t.mapped_out <- Imap.add src_page (Layout.page_base value) t.mapped_out;
      set_map_out_staged t None
    | None -> ()
  end
  else if offset = Regmap.k_atomic_target then set_k_atomic_target t value
  else if offset = Regmap.k_atomic_op then
    set_k_atomic_pending t (Atomic_op.accumulate t.k_atomic_pending value)
  else if offset = Regmap.k_cap_value then set_cap_stage_value t value
  else if offset = Regmap.k_cap_base then set_cap_stage_base t value
  else if offset = Regmap.k_cap_len then set_cap_stage_len t value
  else if offset = Regmap.k_cap_commit then begin
    let ctx = value land 0xff in
    let rights =
      {
        Perms.read = value land 0x100 <> 0;
        write = value land 0x200 <> 0;
      }
    in
    let owner = value asr 16 in
    if t.cap_stage_value <> 0 then
      Capability.install t.caps
        {
          Capability.value = t.cap_stage_value;
          ctx;
          pid = owner;
          base = t.cap_stage_base;
          len = t.cap_stage_len;
          rights;
          revoked = false;
        };
    set_cap_stage_value t 0;
    set_cap_stage_base t 0;
    set_cap_stage_len t 0
  end
  else if offset = Regmap.k_cap_revoke then Capability.revoke_value t.caps ~value
  else if offset = Regmap.k_iotlb_invalidate then begin
    if value < 0 then Iotlb.flush t.iotlb else Iotlb.invalidate t.iotlb ~vpage:value
  end
  else if
    offset >= Regmap.k_mailbox_base
    && offset < Regmap.k_mailbox_base + (8 * Context_file.length t.contexts)
  then begin
    let context = (offset - Regmap.k_mailbox_base) / 8 in
    Context_file.set_mailbox (Context_file.get t.contexts context)
      (if value = 0 then None else Some value)
  end
  else if offset >= Regmap.k_key_base && offset < Regmap.k_key_base + (8 * Context_file.length t.contexts)
  then begin
    (* a key change is a change of ownership: wipe any argument state
       the previous owner left behind, or the new owner's size+go could
       fire a transfer with the old owner's physical addresses *)
    let context = (offset - Regmap.k_key_base) / 8 in
    Context_file.reset (Context_file.get t.contexts context);
    Context_file.set_key t.contexts ~context ~key:value;
    (* and for the same reason, capabilities granted to the previous
       owner of the context die with the ownership change *)
    Capability.revoke_ctx t.caps ~ctx:context
  end

let kernel_load t offset ~pid =
  if offset = Regmap.k_status then
    if Status.is_failure t.k_status then t.k_status
    else
      match t.last_transfer with
      | Some tr -> Transfer.remaining tr ~now:(now t)
      | None -> t.k_status
  else if offset = Regmap.k_atomic_op then begin
    let pending = t.k_atomic_pending in
    set_k_atomic_pending t Atomic_op.P_none;
    match pending with
    | Atomic_op.P_ready op -> run_atomic t ~op ~target:t.k_atomic_target ~context:None ~pid
    | Atomic_op.P_none | Atomic_op.P_cas_expected _ ->
      reject t ~reason:Incomplete_arguments ~pid
  end
  else 0

(* ------------------------------------------------------------------ *)
(* Register context pages *)

(* Only the Iommu and Capio protocols decode the explicit argument
   registers; under the paper's mechanisms every non-atomic store keeps
   its historical any-offset-goes-to-size semantics. *)
let decodes_arg_regs t = match t.mechanism with Iommu | Capio -> true | _ -> false

let context_page_store t context offset value ~pid =
  if not (Context_file.mem t.contexts context) then ignore (reject t ~reason:No_context ~pid : int)
  else
    let c = Context_file.get t.contexts context in
    if offset = Regmap.c_atomic then context_atomic_store c None value
    else if decodes_arg_regs t && offset = Regmap.c_arg_src then Context_file.set_src c (Some value)
    else if decodes_arg_regs t && offset = Regmap.c_arg_dst then Context_file.set_dest c (Some value)
    else Context_file.set_size c (Some value)

let context_page_load t context offset ~pid =
  if not (Context_file.mem t.contexts context) then reject t ~reason:No_context ~pid
  else
    let c = Context_file.get t.contexts context in
    if offset = Regmap.c_atomic then context_atomic_exec t c ~expected_target:None ~pid
    else begin
      match Context_file.args_ready c with
      | Some (src, dest, size) ->
        let status =
          match t.mechanism with
          | Iommu -> fire_iommu t ~context ~vsrc:src ~vdst:dest ~size ~pid
          | Capio -> fire_capio t ~context ~cap_src:src ~cap_dst:dest ~size ~pid
          | Shrimp_mapped | Shrimp_two_step | Flash | Key_based | Ext_shadow
          | Ext_shadow_stateless | Rep_args _ ->
            start_transfer t ~src ~dst:dest ~size ~context:(Some context) ~pid
        in
        Context_file.clear_args c;
        Context_file.set_status c status;
        status
      | None ->
        if c.Context_file.dest <> None || c.Context_file.src <> None || c.Context_file.size <> None
        then begin
          Context_file.clear_args c;
          let status = reject t ~reason:Incomplete_arguments ~pid in
          Context_file.set_status c status;
          status
        end
        else context_status t context
    end

(* ------------------------------------------------------------------ *)
(* Shadow window: atomic accesses (§3.5) *)

(* A key-carrying store's value: the key above four bits of context id. *)
let value_key value = value asr 4
let value_context value = value land 0xf

(* A shadow access names a context id [context] and, stripped of its
   tags, a real physical address [arg]. *)
let shadow_atomic t ~context ~arg (op : Txn.op) value ~pid =
  match (t.mechanism, op) with
  | Ext_shadow, Txn.Store ->
    if Context_file.mem t.contexts context then
      context_atomic_store (Context_file.get t.contexts context) (Some arg) value
    else ignore (reject t ~reason:No_context ~pid : int);
    0
  | Ext_shadow, Txn.Load ->
    if Context_file.mem t.contexts context then
      context_atomic_exec t (Context_file.get t.contexts context) ~expected_target:(Some arg) ~pid
    else reject t ~reason:No_context ~pid
  | Key_based, Txn.Store ->
    let context = value_context value in
    (if not (Context_file.mem t.contexts context) then
       ignore (reject t ~reason:No_context ~pid : int)
     else
       let c = Context_file.get t.contexts context in
       if c.Context_file.key = value_key value then Context_file.set_atomic_target c (Some arg)
       else ignore (reject t ~reason:Bad_key ~pid : int));
    0
  | Key_based, Txn.Load -> reject t ~reason:Unsupported ~pid
  | (Shrimp_two_step | Flash | Ext_shadow_stateless), Txn.Store ->
    (* the shared atomic slot: one (target, op) pair for the whole
       engine. Safe only when the two accesses cannot be interleaved,
       i.e. when issued from PAL mode (sec. 2.7 + 3.5). *)
    set_g_atomic t (Some arg) (Atomic_op.accumulate t.g_atomic_pending value);
    0
  | (Shrimp_two_step | Flash | Ext_shadow_stateless), Txn.Load -> (
    let target = t.g_atomic_target and pending = t.g_atomic_pending in
    set_g_atomic t None Atomic_op.P_none;
    match (target, pending) with
    | Some target, Atomic_op.P_ready op when target = arg ->
      run_atomic t ~op ~target ~context:None ~pid
    | _, _ -> reject t ~reason:Incomplete_arguments ~pid)
  | (Shrimp_mapped | Rep_args _ | Iommu | Capio), Txn.Load -> reject t ~reason:Unsupported ~pid
  | (Shrimp_mapped | Rep_args _ | Iommu | Capio), Txn.Store ->
    ignore (reject t ~reason:Unsupported ~pid : int);
    0

(* ------------------------------------------------------------------ *)
(* Shadow window: DMA argument passing *)

let shadow_store t ~context ~arg value ~pid =
  let discard r = ignore (r : int) in
  match t.mechanism with
  | Shrimp_mapped -> (
    let src = arg in
    match Imap.find_opt (Layout.page_base src) t.mapped_out with
    | Some dst_page ->
      let dst = dst_page lor Layout.page_offset src in
      set_last_status t (start_transfer t ~src ~dst ~size:value ~context:None ~pid)
    | None ->
      set_last_status t Status.failure;
      discard (reject t ~reason:Not_mapped_out ~pid))
  | Shrimp_two_step | Flash ->
    set_pending t
      (Some { p_dest = arg; p_size = value; p_pid = t.current_pid; p_ctx = 0 })
  | Ext_shadow_stateless ->
    (* sec. 3.2, no-register-context engine: remember the context id
       carried in the shadow physical address itself *)
    set_pending t
      (Some { p_dest = arg; p_size = value; p_pid = 0; p_ctx = context })
  | Key_based ->
    let context = value_context value in
    if not (Context_file.mem t.contexts context) then discard (reject t ~reason:No_context ~pid)
    else
      let c = Context_file.get t.contexts context in
      if c.Context_file.key = value_key value then Context_file.push_address c arg
      else discard (reject t ~reason:Bad_key ~pid)
  | Ext_shadow ->
    if not (Context_file.mem t.contexts context) then discard (reject t ~reason:No_context ~pid)
    else
      let c = Context_file.get t.contexts context in
      Context_file.set_dest c (Some arg);
      Context_file.set_size c (Some value)
  | Rep_args _ -> (
    match Seq_matcher.feed t.matcher Txn.Store ~paddr:arg ~value with
    | Seq_matcher.Accepted ->
      if tracing t then
        trace t ~at:(now t) ~pid
          (Uldma_obs.Trace.Engine_match { step = Seq_matcher.position t.matcher })
    | Seq_matcher.Rejected -> ()
    | Seq_matcher.Fired { src; dst; size } ->
      (* cannot happen: all patterns end on a load; fire anyway *)
      set_last_status t (start_transfer t ~src ~dst ~size ~context:None ~pid))
  | Iommu | Capio ->
    (* arguments travel through the register context page only; the
       shadow window is not decoded by these mechanisms *)
    discard (reject t ~reason:Unsupported ~pid)

let shadow_load t ~context ~arg ~pid =
  match t.mechanism with
  | Shrimp_mapped -> two_step_status t
  | Shrimp_two_step -> (
    match t.pending with
    | Some { p_dest; p_size; _ } ->
      set_pending t None;
      let status = start_transfer t ~src:arg ~dst:p_dest ~size:p_size ~context:None ~pid in
      set_last_status t status;
      status
    | None ->
      set_last_status t Status.failure;
      reject t ~reason:Incomplete_arguments ~pid)
  | Ext_shadow_stateless -> (
    match t.pending with
    | Some { p_dest; p_size; p_ctx; _ } ->
      set_pending t None;
      if p_ctx <> context then begin
        set_last_status t Status.failure;
        reject t ~reason:Wrong_context ~pid
      end
      else begin
        let status =
          start_transfer t ~src:arg ~dst:p_dest ~size:p_size ~context:None ~pid
        in
        set_last_status t status;
        status
      end
    | None ->
      set_last_status t Status.failure;
      reject t ~reason:Incomplete_arguments ~pid)
  | Flash -> (
    match t.pending with
    | Some { p_dest; p_size; p_pid; _ } ->
      set_pending t None;
      if p_pid <> t.current_pid then begin
        set_last_status t Status.failure;
        reject t ~reason:Wrong_pid ~pid
      end
      else begin
        let status =
          start_transfer t ~src:arg ~dst:p_dest ~size:p_size ~context:None ~pid
        in
        set_last_status t status;
        status
      end
    | None ->
      set_last_status t Status.failure;
      reject t ~reason:Incomplete_arguments ~pid)
  | Key_based ->
    (* the key-based protocol never loads from the shadow window *)
    reject t ~reason:Unsupported ~pid
  | Ext_shadow -> (
    if not (Context_file.mem t.contexts context) then reject t ~reason:No_context ~pid
    else
      let c = Context_file.get t.contexts context in
      match (c.Context_file.dest, c.Context_file.size) with
      | Some dest, Some size ->
        let status = start_transfer t ~src:arg ~dst:dest ~size ~context:(Some context) ~pid in
        Context_file.clear_args c;
        Context_file.set_status c status;
        status
      | None, _ | _, None ->
        Context_file.clear_args c;
        let status = reject t ~reason:Incomplete_arguments ~pid in
        Context_file.set_status c status;
        status)
  | Rep_args _ -> (
    match Seq_matcher.feed t.matcher Txn.Load ~paddr:arg ~value:0 with
    | Seq_matcher.Accepted ->
      if tracing t then
        trace t ~at:(now t) ~pid
          (Uldma_obs.Trace.Engine_match { step = Seq_matcher.position t.matcher });
      Status.in_progress
    | Seq_matcher.Rejected -> reject t ~reason:Broken_sequence ~pid
    | Seq_matcher.Fired { src; dst; size } ->
      let status = start_transfer t ~src ~dst ~size ~context:None ~pid in
      set_last_status t status;
      status)
  | Iommu | Capio -> reject t ~reason:Unsupported ~pid

(* ------------------------------------------------------------------ *)

(* Telegraphos remote write: an ordinary uncached store to a
   remote-window page becomes a single-word packet. Remote loads would
   need a round trip; like Telegraphos, we reject them. *)
let handle_remote t (op : Txn.op) ~paddr ~value ~pid =
  match op with
  | Txn.Store ->
    let payload = Bytes.create Layout.word_size in
    Bytes.set_int64_le payload 0 (Int64.of_int value);
    send_remote t ~remote_paddr:paddr ~payload;
    0
  | Txn.Load -> reject t ~reason:Unsupported ~pid

(* One bus access, decoded from its fields without allocating: a page
   of the MMIO window past the control page is register context
   [page index - 1]. *)
let handle t (op : Txn.op) ~paddr ~value ~pid =
  if Layout.in_remote paddr then handle_remote t op ~paddr ~value ~pid
  else if Layout.in_mmio paddr then begin
    let page = Layout.page_base paddr and offset = Layout.page_offset paddr in
    if page = Layout.kernel_control_page then
      match op with
      | Txn.Store ->
        kernel_store t offset value ~pid;
        0
      | Txn.Load -> kernel_load t offset ~pid
    else
      let context = ((page - Layout.kernel_control_page) lsr Layout.page_shift) - 1 in
      match op with
      | Txn.Store ->
        context_page_store t context offset value ~pid;
        0
      | Txn.Load -> context_page_load t context offset ~pid
  end
  else if Shadow.is_shadow paddr then begin
    if tracing t then trace t ~at:(now t) ~pid (Uldma_obs.Trace.Engine_decode { paddr });
    let context = Shadow.context_of paddr and arg = Shadow.strip paddr in
    if Shadow.is_atomic paddr then shadow_atomic t ~context ~arg op value ~pid
    else
      match op with
      | Txn.Store ->
        shadow_store t ~context ~arg value ~pid;
        0
      | Txn.Load -> shadow_load t ~context ~arg ~pid
  end
  else 0

(* Canonical encoding of the engine's observable state, for the
   explorer's state fingerprint. Includes everything a future load can
   reveal: matcher/context registers, the pending two-step deposit, the
   kernel-page registers, atomic slots, started transfers (src/dst/
   size/pid/context plus the clock-relative in-flight view:
   remaining-wire-time-at-now and total duration — remaining bytes are
   a pure function of size/duration/remaining_ps, so two states that
   agree on those agree on every future status load however the
   absolute clock differs; under the zero-duration Null backend both
   extra fields are constant 0 and the encoding is as before, merging
   exactly the same states), mapped-out entries (sorted for canonicity)
   and the outbound network queue. Excludes diagnostics the simulated
   programs cannot read back: counters, trace sink, absolute
   timestamps. Note the remaining time is encoded *exactly*: bucketing
   it (e.g. to the timed backend's tick) would be unsound, because two
   states in the same bucket can diverge observably one tick later —
   quantisation belongs in the backend's duration_ps, where it shrinks
   the set of deadlines without ever merging distinct ones.

   [Buf] streams every register. [Fp] takes the two lanes of the
   matcher's, the contexts' and the engine's own digests in place of
   their registers and of the transfers' static fields, and feeds only
   what depends on the clock, and only while a transfer is in flight:
   the statuses as loads see them now, the last transfer's remaining
   bytes and each in-flight transfer's (ordinal, remaining wire time).
   With nothing in flight every remaining count is 0, so a status is
   its context's status register unless that holds no failure and a
   transfer was started through the context (then 0), and the last
   transfer's remaining bytes are 0 unless no transfer was ever started
   (then [min_int]): functions of digested fields, fed by the digests.
   The capability table, the mapped-out map and the outbound queue are
   usually empty and are walked in both modes. *)
let encode enc t =
  let module E = Uldma_util.Enc in
  let i v = E.int enc v in
  let ch c = E.char enc c in
  let opt = function None -> min_int | Some v -> v in
  let paranoid = match enc with E.Buf _ -> true | E.Fp _ -> false in
  let live = match enc with E.Fp _ -> live_transfers t | E.Buf _ -> [] in
  E.string enc "E:";
  Seq_matcher.encode enc t.matcher;
  Context_file.encode enc t.contexts;
  (match enc with
  | E.Fp fp ->
    (* No status and no remaining bytes: a context's status is its
       digested failure code or its newest transfer's remaining bytes,
       the two-step status is the newest transfer's, and which transfer
       is newest is digested (static fields by ordinal, the count, the
       contexts' started flags); the in-flight ones' remaining wire
       times follow below, and a completed one has no bytes left. *)
    build_digest t;
    Fp128.add_int fp t.dg.(0);
    Fp128.add_int fp t.dg.(1)
  | E.Buf _ ->
    (* what a status load on each context, and a two-step status load,
       would see right now *)
    ch 's';
    for c = 0 to Context_file.length t.contexts - 1 do
      i (context_status t c)
    done;
    ch 'p';
    (match t.pending with
    | None -> ()
    | Some { p_dest; p_size; p_pid; p_ctx } ->
      i p_dest;
      i p_size;
      i p_pid;
      i p_ctx);
    ch 'k';
    i t.current_pid;
    i t.k_src;
    i t.k_dst;
    i t.k_status;
    i t.k_atomic_target;
    Atomic_op.encode_pending enc t.k_atomic_pending;
    ch 'g';
    i (opt t.g_atomic_target);
    Atomic_op.encode_pending enc t.g_atomic_pending;
    ch 'l';
    i t.last_status;
    i
      (match t.last_transfer with None -> min_int | Some tr -> Transfer.remaining tr ~now:(now t)));
  (* IOTLB contents + victim cursors and the capability table are
     engine-visible state: they decide future hit/miss charges and
     grant/reject outcomes. Under the paper's mechanisms both are
     empty/constant and the encoding partitions states as before. *)
  ch 'I';
  Iotlb.encode enc t.iotlb;
  ch 'C';
  Capability.encode enc t.caps;
  if paranoid then begin
    i t.cap_stage_value;
    i t.cap_stage_base;
    i t.cap_stage_len;
    List.iter
      (fun (tr : Transfer.t) ->
        ch 't';
        i tr.Transfer.src;
        i tr.Transfer.dst;
        i tr.Transfer.size;
        i tr.Transfer.pid;
        i (opt tr.Transfer.context);
        i (Transfer.remaining_ps tr ~now:(now t));
        i tr.Transfer.duration)
      t.transfers;
    match t.map_out_staged with
    | None -> ()
    | Some p ->
      ch 'M';
      i p;
      ch ';'
  end
  else
    List.iter
      (fun (k, tr) ->
        ch 't';
        i k;
        i (Transfer.remaining_ps tr ~now:(now t)))
      live;
  Imap.iter
    (fun k v ->
      ch 'o';
      i k;
      i v;
      ch ';')
    t.mapped_out;
  List.iter
    (fun p ->
      ch 'w';
      i p.remote_addr;
      E.string enc (Bytes.to_string p.payload |> String.escaped);
      ch ',';
      match p.kind with
      | Remote_write -> ch ';'
      | Remote_atomic { op; reply_paddr } ->
        Atomic_op.encode_value enc op;
        ch '@';
        i reply_paddr;
        ch ';')
    t.outbound

(* Earliest future completion among in-flight transfers, if any. Under
   a zero-duration backend no transfer is ever in flight, so this is
   always None there. *)
let next_transfer_deadline t =
  match live_transfers t with
  | [] -> None
  | (_, tr) :: rest ->
    Some
      (List.fold_left
         (fun best (_, tr) -> min best (Transfer.end_time tr))
         (Transfer.end_time tr) rest)

let device =
  {
    Bus.claims =
      (fun paddr -> Layout.in_mmio paddr || Layout.is_shadow paddr || Layout.in_remote paddr);
    Bus.handle = handle;
  }

let set_context_owner t ~context ~pid = Context_file.set_owner t.contexts ~context ~pid

let map_out t ~src_page ~dst_page =
  t.mapped_out <- Imap.add (Layout.page_base src_page) (Layout.page_base dst_page) t.mapped_out

let mapped_out_dst t ~src_page = Imap.find_opt (Layout.page_base src_page) t.mapped_out

let transfers t = List.rev t.transfers
let n_transfers t = t.n_transfers

let take_outbound t =
  let packets = List.rev t.outbound in
  t.outbound <- [];
  packets

let counters t = t.counters
