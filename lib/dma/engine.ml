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
  mutable caps : Capability.cap list; (* Capio: the engine's capability table *)
  mutable cap_stage_value : int; (* staged grant (committed by k_cap_commit) *)
  mutable cap_stage_base : int;
  mutable cap_stage_len : int;
  mutable last_transfer : Transfer.t option; (* for two-step status loads *)
  mutable last_status : int;
  mutable transfers : Transfer.t list; (* newest first *)
  mutable n_transfers : int; (* length of [transfers] *)
  mutable by_key : Transfer.t list;
      (* the keyed view: the oldest [n_keyed] started transfers sorted by
         their static fields, equal ones in start order; brought up to
         date by [sync] when a key reads it *)
  mutable n_keyed : int;
  mutable history_a : int; (* the two lane sums of [by_key]'s terms *)
  mutable history_b : int;
  mutable in_flight : Transfer.t list;
      (* the started transfers whose wire time had not elapsed when last
         looked at, newest first; pruned lazily by [live_transfers].
         Always empty under a zero-duration backend. *)
  mutable outbound : outbound_packet list; (* newest first *)
  mutable outbound_len : int; (* length of the queue's word sequence *)
  mutable outbound_a : int; (* the two lane sums of the queued packets' terms *)
  mutable outbound_b : int;
  counters : counters;
  mutable sink : Uldma_obs.Trace.t;
  mutable machine : int;
  dg : int array; (* the machine's digest cell *)
}

let create ~clock ~backend ~ram_size ~mechanism ?(n_contexts = 4) ?(iotlb_walk_ps = 0) ~dg () =
  {
    clock;
    backend;
    ram_size;
    mechanism;
    contexts = Context_file.create ~n:n_contexts ~dg;
    matcher =
      Seq_matcher.create ~dg (match mechanism with Rep_args v -> v | _ -> Seq_matcher.Five);
    mapped_out = Imap.empty;
    map_out_staged = None;
    pending = None;
    iotlb = Iotlb.create ~dg ();
    iotlb_walk_ps;
    iommu_tables = [];
    caps = [];
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
    by_key = [];
    n_keyed = 0;
    history_a = 0;
    history_b = 0;
    in_flight = [];
    counters = { rejected = 0; key_rejected = 0; atomics = 0; remote_sends = 0 };
    outbound = [];
    outbound_len = 0;
    outbound_a = 0;
    outbound_b = 0;
    sink = Uldma_obs.Trace.null;
    machine = 0;
    dg;
  }

let mechanism t = t.mechanism
let contexts t = t.contexts

let set_sink t ~machine sink =
  t.sink <- sink;
  t.machine <- machine

let tracing t = Uldma_obs.Trace.enabled t.sink

let trace t ~at ~pid kind = Uldma_obs.Trace.emit t.sink ~at ~machine:t.machine ~pid kind

(* Engine snapshot for kernel forks. The register contexts, matcher
   and counters are duplicated, and every part writes its terms into
   the copied cell [dg]; the IOTLB is shared copy-on-write (Iotlb.copy
   flags both sides, and the first write copies); transfers, the
   in-flight list, the keyed view and the three tables are immutable and
   are shared. *)
let copy t ~dg ~clock ~backend =
  {
    t with
    clock;
    backend;
    contexts = Context_file.copy t.contexts ~dg;
    matcher = Seq_matcher.copy t.matcher ~dg;
    iotlb = Iotlb.copy t.iotlb ~dg;
    (* the bindings still point at the parent's page tables here; the
       kernel fork re-binds each live context to its copied table
       immediately after copying the processes *)
    iommu_tables = t.iommu_tables;
    counters = { t.counters with rejected = t.counters.rejected }; (* a fresh record *)
    dg;
  }

let now t = Clock.now t.clock

(* ------------------------------------------------------------------ *)
(* Register writes and the engine's digest terms *)

(* Digest slots of the engine's own registers, and six slots per
   started transfer from 32, by rank in the keyed view (see [sync]), in
   slot domain 2. The register contexts, the matcher and the IOTLB put
   their terms in domains of their own. Every value enters as value xor
   its reset value, so a fresh engine adds nothing. Every setter moves
   its register's terms in the machine's cell [t.dg]; the transfers'
   terms are summed apart ([add_history]). *)
let s_current_pid = Fp128.domain 2
let s_k_src = s_current_pid + 1
let s_k_dst = s_current_pid + 2
let s_k_status = s_current_pid + 3
let s_k_atomic_target = s_current_pid + 4
let s_k_atomic_pending = s_current_pid + 5 (* three slots *)
let s_g_atomic_target = s_current_pid + 8
let s_g_atomic_pending = s_current_pid + 9 (* three slots *)
let s_last_status = s_current_pid + 12
let s_cap_stage_value = s_current_pid + 13
let s_cap_stage_base = s_current_pid + 14
let s_cap_stage_len = s_current_pid + 15
let s_map_out_staged = s_current_pid + 16
let s_pending = s_current_pid + 17 (* five slots: present, dest, size, pid, context *)
let s_n_transfers = s_current_pid + 22
let s_transfer k = s_current_pid + 32 + (8 * k) (* six slots *)

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
  note t s_current_pid (lnot t.current_pid) (lnot v);
  t.current_pid <- v

let set_k_src t v =
  note t s_k_src t.k_src v;
  t.k_src <- v

let set_k_dst t v =
  note t s_k_dst t.k_dst v;
  t.k_dst <- v

let set_k_status t v =
  note t s_k_status (t.k_status lxor Status.complete) (v lxor Status.complete);
  t.k_status <- v

let set_k_atomic_target t v =
  note t s_k_atomic_target t.k_atomic_target v;
  t.k_atomic_target <- v

let set_k_atomic_pending t p =
  note_atomic t s_k_atomic_pending t.k_atomic_pending p;
  t.k_atomic_pending <- p

let set_g_atomic t target p =
  note t s_g_atomic_target (Fp128.opt_value t.g_atomic_target) (Fp128.opt_value target);
  note_atomic t s_g_atomic_pending t.g_atomic_pending p;
  t.g_atomic_target <- target;
  t.g_atomic_pending <- p

let set_last_status t v =
  note t s_last_status (t.last_status lxor Status.failure) (v lxor Status.failure);
  t.last_status <- v

let set_cap_stage_value t v =
  note t s_cap_stage_value t.cap_stage_value v;
  t.cap_stage_value <- v

let set_cap_stage_base t v =
  note t s_cap_stage_base t.cap_stage_base v;
  t.cap_stage_base <- v

let set_cap_stage_len t v =
  note t s_cap_stage_len t.cap_stage_len v;
  t.cap_stage_len <- v

let set_map_out_staged t v =
  note t s_map_out_staged (Fp128.opt_value t.map_out_staged) (Fp128.opt_value v);
  t.map_out_staged <- v

let set_pending t p =
  for w = 0 to 4 do
    note t (s_pending + w) (deposit_word t.pending w) (deposit_word p w)
  done;
  t.pending <- p

let push_transfer t tr =
  t.transfers <- tr :: t.transfers;
  t.n_transfers <- t.n_transfers + 1;
  if Transfer.end_time tr > Clock.now t.clock then t.in_flight <- tr :: t.in_flight

(* The started transfers as a key holds them: a multiset. No program
   and no oracle check can tell in which order two transfers started
   (DESIGN.md 5c), so the keyed view holds them sorted by their static
   fields, and its terms sit at slots by rank; states that differ only
   in which process's transfer started first share a key. The view is
   synced lazily: a key inserts the transfers started since the last
   key and re-sums the view's terms, so a machine that is never keyed
   pays nothing for them. *)
let rec compare_from f a b =
  if f > 5 then 0
  else
    let c = Int.compare (transfer_word a f) (transfer_word b f) in
    if c <> 0 then c else compare_from (f + 1) a b

(* [tr] into the sorted [l], after every transfer equal to it *)
let rec insert l tr =
  match l with x :: rest when compare_from 0 x tr <= 0 -> x :: insert rest tr | _ -> tr :: l

(* the first [n] of the newest-first [l], oldest first, onto [acc] *)
let rec oldest_first n l acc =
  match l with x :: rest when n > 0 -> oldest_first (n - 1) rest (x :: acc) | _ -> acc

let iter_history f t =
  f s_n_transfers t.n_keyed;
  List.iteri
    (fun r tr ->
      for fld = 0 to 5 do
        f (s_transfer r + fld) (transfer_word tr fld)
      done)
    t.by_key

let sync t =
  if t.n_keyed < t.n_transfers then begin
    t.by_key <-
      List.fold_left insert t.by_key (oldest_first (t.n_transfers - t.n_keyed) t.transfers []);
    t.n_keyed <- t.n_transfers;
    let a, b = Fp128.sum_terms iter_history t in
    t.history_a <- a;
    t.history_b <- b
  end

let add_history t acc =
  sync t;
  acc.(0) <- acc.(0) + t.history_a;
  acc.(1) <- acc.(1) + t.history_b

(* The tables' terms: each table is a sequence (as Fp128.iter_seq lays
   one out) in a domain of its own. Domain 9 holds the capabilities,
   newest first, seven words each: value, context, pid, base, length,
   rights code and the revoked flag (which decides between two reject
   paths). Domain 10 holds the mapped-out entries as (source,
   destination) pairs in page order, and domain 11 the outbound
   packets, oldest first. The capabilities and the mapped-out map
   change only at set-up and at revocation, and their setters re-sum
   them; a send adds one packet's terms, to the cell and to the queue's
   own lane sums, and a drain subtracts those sums. *)
let caps_base = Fp128.domain 9
let mapped_out_base = Fp128.domain 10
let outbound_base = Fp128.domain 11

let cap_words (c : Capability.cap) rest =
  let rights = Bool.to_int c.rights.Perms.read lor (2 * Bool.to_int c.rights.Perms.write) in
  c.value :: c.ctx :: c.pid :: c.base :: c.len :: rights :: Bool.to_int c.revoked :: rest

let caps_words caps = List.fold_right cap_words caps []
let mapped_out_words m = List.concat_map (fun (src, dst) -> [ src; dst ]) (Imap.bindings m)

(* [k]-th 32-bit little-endian word of [b], zero-padded past its end *)
let payload_word b k =
  let w = ref 0 in
  for j = min 3 (Bytes.length b - 1 - (4 * k)) downto 0 do
    w := (!w lsl 8) lor Bytes.get_uint8 b ((4 * k) + j)
  done;
  !w

(* Packet [p]'s words as terms from queue position [k] on (the queue
   is one sequence): remote address, the atomic op's kind and operands
   (all 0 for a write), reply address, byte length, then the payload's
   32-bit words, so no bit is dropped; the send time is not keyed.
   Returns the position after the packet. *)
let packet_terms f k p =
  let w i v = f (outbound_base + 1 + k + i) v in
  w 0 p.remote_addr;
  (match p.kind with
  | Remote_write -> ()
  | Remote_atomic { op; reply_paddr } ->
    for i = 0 to 2 do
      w (1 + i) (Atomic_op.pending_word (Atomic_op.P_ready op) i)
    done;
    w 4 reply_paddr);
  let len = Bytes.length p.payload in
  w 5 len;
  for j = 0 to ((len + 3) / 4) - 1 do
    w (6 + j) (payload_word p.payload j)
  done;
  k + 6 + ((len + 3) / 4)

let set_caps t caps =
  if caps != t.caps then begin
    Fp128.replace_seq t.dg 0 caps_base (caps_words t.caps) (caps_words caps);
    t.caps <- caps
  end

let set_mapped_out t m =
  Fp128.replace_seq t.dg 0 mapped_out_base (mapped_out_words t.mapped_out) (mapped_out_words m);
  t.mapped_out <- m

(* The in-flight list with the transfers completed by now dropped. It is
   rebuilt only when one has completed, so a walk that finds every entry
   still live allocates nothing. *)
let rec all_live now = function
  | [] -> true
  | tr :: rest -> Transfer.end_time tr > now && all_live now rest

let rec live now = function
  | [] -> []
  | tr :: rest -> if Transfer.end_time tr > now then tr :: live now rest else live now rest

let live_transfers t =
  let now = Clock.now t.clock in
  if not (all_live now t.in_flight) then t.in_flight <- live now t.in_flight;
  t.in_flight

let transfer_in_flight t =
  match t.in_flight with [] -> false | _ :: _ -> live_transfers t <> []

(* The engine's keyed words, in slot order: its own registers and
   started transfers, then its contexts, matcher and IOTLB; then the
   tables. *)
let iter_register_terms f t =
  f s_current_pid (lnot t.current_pid);
  f s_k_src t.k_src;
  f s_k_dst t.k_dst;
  f s_k_status (t.k_status lxor Status.complete);
  f s_k_atomic_target t.k_atomic_target;
  for w = 0 to 2 do
    f (s_k_atomic_pending + w) (Atomic_op.pending_word t.k_atomic_pending w)
  done;
  f s_g_atomic_target (Fp128.opt_value t.g_atomic_target);
  for w = 0 to 2 do
    f (s_g_atomic_pending + w) (Atomic_op.pending_word t.g_atomic_pending w)
  done;
  f s_last_status (t.last_status lxor Status.failure);
  f s_cap_stage_value t.cap_stage_value;
  f s_cap_stage_base t.cap_stage_base;
  f s_cap_stage_len t.cap_stage_len;
  f s_map_out_staged (Fp128.opt_value t.map_out_staged);
  for w = 0 to 4 do
    f (s_pending + w) (deposit_word t.pending w)
  done;
  sync t;
  iter_history f t;
  Context_file.iter_terms f t.contexts;
  Seq_matcher.iter_terms f t.matcher;
  Iotlb.iter_terms f t.iotlb

let iter_table_terms f t =
  Fp128.iter_seq caps_base f (caps_words t.caps);
  Fp128.iter_seq mapped_out_base f (mapped_out_words t.mapped_out);
  f outbound_base t.outbound_len;
  ignore (List.fold_left (packet_terms f) 0 (List.rev t.outbound) : int)

let iter_terms f t =
  iter_register_terms f t;
  iter_table_terms f t

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

(* [addr, addr + size) within the RAM or the remote window, compared
   without computing [addr + size], which wraps for a huge size *)
let in_ram_range t addr size = addr >= 0 && size >= 0 && addr <= t.ram_size - size

let in_remote_range addr size =
  Layout.in_remote addr && size >= 0 && addr <= Layout.remote_limit - size

let send_remote ?(kind = Remote_write) t ~remote_paddr ~payload =
  let p = { remote_addr = Layout.remote_offset remote_paddr; payload; sent_at = now t; kind } in
  let n = t.outbound_len and a = t.outbound_a and b = t.outbound_b in
  let m =
    packet_terms
      (fun slot v ->
        t.outbound_a <- t.outbound_a + Fp128.int_term_a slot v;
        t.outbound_b <- t.outbound_b + Fp128.int_term_b slot v)
      n p
  in
  t.dg.(0) <- t.dg.(0) + t.outbound_a - a;
  t.dg.(1) <- t.dg.(1) + t.outbound_b - b;
  Fp128.replace_int t.dg 0 outbound_base n m;
  t.outbound_len <- m;
  t.outbound <- p :: t.outbound;
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
  Option.map Transfer.end_time (Context_file.get t.contexts i).Context_file.last_transfer

let last_transfer_end t = Option.map Transfer.end_time t.last_transfer

(* A status as loads read it, for a register context, the two-step
   engine and the kernel page alike: a failure code stands; otherwise
   the newest transfer's remaining bytes, or the code when there is
   none. *)
let status_of t code last =
  if Status.is_failure code then code
  else match last with Some tr -> Transfer.remaining tr ~now:(now t) | None -> code

let context_status t i =
  let c = Context_file.get t.contexts i in
  status_of t c.Context_file.status c.Context_file.last_transfer

(* A fire or a reject through a register context ends its argument set
   and leaves the outcome as its status. *)
let settle c status =
  Context_file.clear_args c;
  Context_file.set_status c status;
  status

(* The outcome of a context-free fire is the engine's last status. *)
let fired t status =
  set_last_status t status;
  status

let allows access perms =
  match access with `Read -> Perms.allows_read perms | `Write -> Perms.allows_write perms

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
    let rec walk page expected base =
      if page > last then Ok base
      else
        match iotlb_lookup t ~table ~vpage:page ~pid with
        | None -> Error Not_present
        | Some pte when not (allows access pte.Pte.perms) -> Error Not_present
        | Some pte -> (
          let page_base = pte.Pte.frame lsl Layout.page_shift in
          match expected with
          | Some e when page_base <> e -> Error Bad_range
          | _ ->
            let base = if page = first then page_base lor Layout.page_offset vaddr else base in
            walk (page + 1) (Some (page_base + Layout.page_size)) base)
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
  let verdict =
    match Capability.find t.caps ~value with
    | None -> Error Bad_capability
    | Some (cap : Capability.cap) ->
      if cap.revoked then Error Revoked_capability
      else if cap.ctx <> context || not (allows access cap.rights) then
        (* a capability laundered into a context it was not granted to
           (e.g. an accomplice replaying a victim's value) is as bad as
           a forged one *)
        Error Bad_capability
      else if size <= 0 || size > cap.len then Error Bad_range
      else Ok cap.base
  in
  if tracing t then
    trace t ~at:(now t) ~pid (Uldma_obs.Trace.Cap_check { cap = value; ok = Result.is_ok verdict });
  verdict

let fire_capio t ~context ~cap_src ~cap_dst ~size ~pid =
  match cap_check t ~value:cap_src ~context ~size ~access:`Read ~pid with
  | Error reason -> reject t ~reason ~pid
  | Ok src -> (
    match cap_check t ~value:cap_dst ~context ~size ~access:`Write ~pid with
    | Error reason -> reject t ~reason ~pid
    | Ok dst -> start_transfer t ~src ~dst ~size ~context:(Some context) ~pid)

let revoke_caps_pid t ~pid = set_caps t (Capability.revoke_pid t.caps ~pid)
let revoke_caps_range t ~base ~len = set_caps t (Capability.revoke_range t.caps ~base ~len)
let capabilities t = t.caps

let map_out t ~src_page ~dst_page =
  set_mapped_out t
    (Imap.add (Layout.page_base src_page) (Layout.page_base dst_page) t.mapped_out)

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
  Context_file.set_atomic_pending c (Atomic_op.accumulate c.Context_file.atomic_pending value);
  Status.in_progress

let context_atomic_exec t c ~expected_target ~pid =
  let target_ok =
    match (c.Context_file.atomic_target, expected_target) with
    | Some tgt, Some expect -> if tgt = expect then Some tgt else None
    | Some tgt, None -> Some tgt
    | None, _ -> None
  in
  let pending = c.Context_file.atomic_pending in
  Context_file.set_atomic_target c None;
  Context_file.set_atomic_pending c Atomic_op.P_none;
  match (target_ok, pending) with
  | Some target, Atomic_op.P_ready op ->
    run_atomic t ~op ~target ~context:(Some c.Context_file.index) ~pid
  | Some _, (Atomic_op.P_none | Atomic_op.P_cas_expected _) | None, _ ->
    reject t ~reason:Incomplete_arguments ~pid

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
      map_out t ~src_page ~dst_page:value;
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
    (* the commit word: context in bits 0-7, rights in bits 8-9, the
       granting pid from bit 16 *)
    let rights = { Perms.read = value land 0x100 <> 0; write = value land 0x200 <> 0 } in
    if t.cap_stage_value <> 0 then
      set_caps t
        (Capability.install t.caps
           {
             Capability.value = t.cap_stage_value;
             ctx = value land 0xff;
             pid = value asr 16;
             base = t.cap_stage_base;
             len = t.cap_stage_len;
             rights;
             revoked = false;
           });
    set_cap_stage_value t 0;
    set_cap_stage_base t 0;
    set_cap_stage_len t 0
  end
  else if offset = Regmap.k_cap_revoke then set_caps t (Capability.revoke_value t.caps ~value)
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
    set_caps t (Capability.revoke_ctx t.caps ~ctx:context)
  end;
  t.k_status

let kernel_load t offset ~pid =
  if offset = Regmap.k_status then status_of t t.k_status t.last_transfer
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
(* Register context pages (§3.1) *)

(* A store stages the atomic word or an argument. Only the Iommu and
   Capio protocols decode the explicit argument registers; under the
   paper's mechanisms every other store keeps its historical
   any-offset-goes-to-size semantics. A load at the atomic register runs
   the staged atomic; any other load fires a complete argument set,
   rejects a partial one, and reads the status of an empty one. *)
let context_page t context offset (op : Txn.op) value ~pid =
  if not (Context_file.mem t.contexts context) then reject t ~reason:No_context ~pid
  else
    let c = Context_file.get t.contexts context in
    let arg_regs = match t.mechanism with Iommu | Capio -> true | _ -> false in
    match op with
    | Txn.Store when offset = Regmap.c_atomic -> context_atomic_store c None value
    | Txn.Store ->
      if arg_regs && offset = Regmap.c_arg_src then Context_file.set_src c (Some value)
      else if arg_regs && offset = Regmap.c_arg_dst then Context_file.set_dest c (Some value)
      else Context_file.set_size c (Some value);
      Status.in_progress
    | Txn.Load when offset = Regmap.c_atomic -> context_atomic_exec t c ~expected_target:None ~pid
    | Txn.Load -> (
      match Context_file.args_ready c with
      | Some (src, dst, size) ->
        settle c
          (match t.mechanism with
          | Iommu -> fire_iommu t ~context ~vsrc:src ~vdst:dst ~size ~pid
          | Capio -> fire_capio t ~context ~cap_src:src ~cap_dst:dst ~size ~pid
          | _ -> start_transfer t ~src ~dst ~size ~context:(Some context) ~pid)
      | None ->
        if c.Context_file.dest = None && c.Context_file.src = None && c.Context_file.size = None
        then context_status t context
        else settle c (reject t ~reason:Incomplete_arguments ~pid))

(* ------------------------------------------------------------------ *)
(* The shadow window (DESIGN.md §8a's decode table) *)

(* What a two-step load checks of the deposit it fires: FLASH the pid
   register the modified kernel keeps, the stateless extended-shadow
   engine the context ids of the two addresses (§3.2). *)
let deposit_check t p ~context =
  match t.mechanism with
  | Flash when p.p_pid <> t.current_pid -> Some Wrong_pid
  | Ext_shadow_stateless when p.p_ctx <> context -> Some Wrong_context
  | _ -> None

(* One arm group per mechanism. A shadow access names a context id
   [context] and, stripped of its tags, a real physical address [arg];
   [atomic] is the atomic-window tag (§3.5). Every combination no group
   lists is [Unsupported]: key-based loads, the atomic window under
   SHRIMP-1 and repeated passing, and the whole window under Iommu and
   Capio, whose arguments travel through the register context page. *)
let shadow t ~atomic ~context ~arg (op : Txn.op) value ~pid =
  match (t.mechanism, atomic, op) with
  (* §2.4 SHRIMP-1: a store sends its page to the mapped-out twin *)
  | Shrimp_mapped, false, Txn.Store -> (
    match Imap.find_opt (Layout.page_base arg) t.mapped_out with
    | Some dst_page ->
      let dst = dst_page lor Layout.page_offset arg in
      fired t (start_transfer t ~src:arg ~dst ~size:value ~context:None ~pid)
    | None -> fired t (reject t ~reason:Not_mapped_out ~pid))
  | Shrimp_mapped, false, Txn.Load -> status_of t t.last_status t.last_transfer
  (* §2.5-2.7 two-step: a store deposits destination and size, a load
     fires the deposit from its address. The stateless engine keeps the
     context id of the depositing address instead of a pid. *)
  | (Shrimp_two_step | Flash | Ext_shadow_stateless), false, Txn.Store ->
    let stateless = match t.mechanism with Ext_shadow_stateless -> true | _ -> false in
    set_pending t
      (Some
         {
           p_dest = arg;
           p_size = value;
           p_pid = (if stateless then 0 else t.current_pid);
           p_ctx = (if stateless then context else 0);
         });
    Status.in_progress
  | (Shrimp_two_step | Flash | Ext_shadow_stateless), false, Txn.Load -> (
    match t.pending with
    | None -> fired t (reject t ~reason:Incomplete_arguments ~pid)
    | Some p -> (
      set_pending t None;
      match deposit_check t p ~context with
      | Some reason -> fired t (reject t ~reason ~pid)
      | None ->
        fired t (start_transfer t ~src:arg ~dst:p.p_dest ~size:p.p_size ~context:None ~pid)))
  (* the shared atomic slot: one (target, op) pair for the whole engine.
     Safe only when the two accesses cannot be interleaved, i.e. when
     issued from PAL mode (§2.7, §3.5). *)
  | (Shrimp_two_step | Flash | Ext_shadow_stateless), true, Txn.Store ->
    set_g_atomic t (Some arg) (Atomic_op.accumulate t.g_atomic_pending value);
    Status.in_progress
  | (Shrimp_two_step | Flash | Ext_shadow_stateless), true, Txn.Load -> (
    let target = t.g_atomic_target and pending = t.g_atomic_pending in
    set_g_atomic t None Atomic_op.P_none;
    match (target, pending) with
    | Some target, Atomic_op.P_ready op when target = arg ->
      run_atomic t ~op ~target ~context:None ~pid
    | _, _ -> reject t ~reason:Incomplete_arguments ~pid)
  (* §3.1 key-based: a store's value is KEY#CONTEXT_ID; it passes an
     address argument, or through the atomic window the atomic target *)
  | Key_based, _, Txn.Store ->
    let context = Regmap.context_of_word value in
    if not (Context_file.mem t.contexts context) then reject t ~reason:No_context ~pid
    else
      let c = Context_file.get t.contexts context in
      if c.Context_file.key <> Regmap.key_of_word value then reject t ~reason:Bad_key ~pid
      else begin
        if atomic then Context_file.set_atomic_target c (Some arg)
        else Context_file.push_address c arg;
        Status.in_progress
      end
  (* §3.2 extended shadow: the context id rides in the address *)
  | Ext_shadow, _, _ when not (Context_file.mem t.contexts context) ->
    reject t ~reason:No_context ~pid
  | Ext_shadow, false, Txn.Store ->
    let c = Context_file.get t.contexts context in
    Context_file.set_dest c (Some arg);
    Context_file.set_size c (Some value);
    Status.in_progress
  | Ext_shadow, false, Txn.Load -> (
    let c = Context_file.get t.contexts context in
    match (c.Context_file.dest, c.Context_file.size) with
    | Some dest, Some size ->
      settle c (start_transfer t ~src:arg ~dst:dest ~size ~context:(Some context) ~pid)
    | None, _ | _, None -> settle c (reject t ~reason:Incomplete_arguments ~pid))
  | Ext_shadow, true, Txn.Store ->
    context_atomic_store (Context_file.get t.contexts context) (Some arg) value
  | Ext_shadow, true, Txn.Load ->
    context_atomic_exec t (Context_file.get t.contexts context) ~expected_target:(Some arg) ~pid
  (* §3.3 repeated passing: every pattern ends on a load, and only a
     load reports a broken sequence *)
  | Rep_args _, false, _ -> (
    match Seq_matcher.feed t.matcher op ~paddr:arg ~value with
    | Seq_matcher.Accepted ->
      if tracing t then
        trace t ~at:(now t) ~pid
          (Uldma_obs.Trace.Engine_match { step = Seq_matcher.position t.matcher });
      Status.in_progress
    | Seq_matcher.Rejected -> (
      match op with
      | Txn.Load -> reject t ~reason:Broken_sequence ~pid
      | Txn.Store -> Status.in_progress)
    | Seq_matcher.Fired { src; dst; size } ->
      fired t (start_transfer t ~src ~dst ~size ~context:None ~pid))
  | _ -> reject t ~reason:Unsupported ~pid

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
    Status.in_progress
  | Txn.Load -> reject t ~reason:Unsupported ~pid

(* One bus access, decoded from its fields without allocating: the
   window picks the decoder. A page of the MMIO window past the control
   page is register context [page index - 1]. *)
let handle t (op : Txn.op) ~paddr ~value ~pid =
  if Layout.in_remote paddr then handle_remote t op ~paddr ~value ~pid
  else if Layout.in_mmio paddr then begin
    let page = Layout.page_base paddr and offset = Layout.page_offset paddr in
    if page <> Layout.kernel_control_page then
      let context = ((page - Layout.kernel_control_page) lsr Layout.page_shift) - 1 in
      context_page t context offset op value ~pid
    else
      match op with
      | Txn.Store -> kernel_store t offset value ~pid
      | Txn.Load -> kernel_load t offset ~pid
  end
  else if Shadow.is_shadow paddr then begin
    if tracing t then trace t ~at:(now t) ~pid (Uldma_obs.Trace.Engine_decode { paddr });
    shadow t ~atomic:(Shadow.is_atomic paddr) ~context:(Shadow.context_of paddr)
      ~arg:(Shadow.strip paddr) op value ~pid
  end
  else 0

(* What a key writes beyond the engine's terms: what depends on the
   clock. A context's status as loads see it is its keyed failure code
   or its newest transfer's remaining bytes, the two-step status is the
   engine's newest transfer's, and [sys_dma_wait] waits for one of the
   two; a completed transfer has no bytes or time left, and whether
   there is a newest transfer at all is keyed (the count, the contexts'
   started flags). So each in-flight transfer is written, in rank order,
   as its rank with two flags below it (bit 0: the engine's newest, bit
   1: its context's newest) and its remaining wire time. The remaining
   time is exact: bucketing it would merge states that diverge one tick
   later. *)
let is_newest tr = function Some l -> l == tr | None -> false

let newest_flags t tr =
  Bool.to_int (is_newest tr t.last_transfer)
  lor
  match tr.Transfer.context with
  | Some i -> 2 * Bool.to_int (is_newest tr (Context_file.get t.contexts i).Context_file.last_transfer)
  | None -> 0

let rec add_in_flight enc t now r = function
  | [] -> ()
  | tr :: rest ->
    if Transfer.end_time tr > now then begin
      Enc.tag enc 't';
      Enc.int enc ((r lsl 2) lor newest_flags t tr);
      Enc.int enc (Transfer.remaining_ps tr ~now)
    end;
    add_in_flight enc t now (r + 1) rest

let add_live enc t =
  if transfer_in_flight t then begin
    sync t;
    add_in_flight enc t (now t) 0 t.by_key
  end

(* Earliest future completion among in-flight transfers, if any. Under
   a zero-duration backend no transfer is ever in flight, so this is
   always None there. *)
let next_transfer_deadline t =
  match live_transfers t with
  | [] -> None
  | tr :: rest ->
    Some (List.fold_left (fun best tr -> min best (Transfer.end_time tr)) (Transfer.end_time tr) rest)

let device =
  {
    Bus.claims =
      (fun paddr -> Layout.in_mmio paddr || Layout.is_shadow paddr || Layout.in_remote paddr);
    Bus.handle = handle;
  }

let set_context_owner t ~context ~pid = Context_file.set_owner t.contexts ~context ~pid

let mapped_out_dst t ~src_page = Imap.find_opt (Layout.page_base src_page) t.mapped_out

let transfers t = List.rev t.transfers
let n_transfers t = t.n_transfers

let take_outbound t =
  match t.outbound with
  | [] -> []
  | queue ->
    t.dg.(0) <- t.dg.(0) - t.outbound_a;
    t.dg.(1) <- t.dg.(1) - t.outbound_b;
    Fp128.replace_int t.dg 0 outbound_base t.outbound_len 0;
    t.outbound <- [];
    t.outbound_len <- 0;
    t.outbound_a <- 0;
    t.outbound_b <- 0;
    List.rev queue

let counters t = t.counters
