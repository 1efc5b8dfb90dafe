(* An executable specification of what each mechanism's network
   interface accepts, written from the paper (§2–3) and DESIGN.md §7–8
   (whose decode table is DESIGN.md §8a), not from lib/dma/engine.ml.
   For every bus access to the NI it predicts the reject reason, if
   any, and the transfer the access starts, if any.

   It shares with the engine only what a program on the bus sees: the
   address layout ([Layout], [Shadow]), the register offsets and the
   KEY#CONTEXT_ID word ([Regmap]) and the §3.5 atomic-op words
   ([Atomic_op]). It ignores time and memory contents, which no
   mechanism's accept or reject decision reads. Its state is plain
   options and lists; nothing is keyed. *)

open Uldma_mem
module Shadow = Uldma_mmu.Shadow
module Page_table = Uldma_mmu.Page_table
module Pte = Uldma_mmu.Pte
module Txn = Uldma_bus.Txn
module Regmap = Uldma_dma.Regmap
module Atomic_op = Uldma_dma.Atomic_op
module Engine = Uldma_dma.Engine
module Seq_matcher = Uldma_dma.Seq_matcher

type transfer = { src : int; dst : int; size : int; context : int option; pid : int }

(* [reject] is the reason's trace name ("bad_key", ...) *)
type outcome = { reject : string option; start : transfer option }

let ok = { reject = None; start = None }
let rejected reason = { reject = Some reason; start = None }

(* §3.1: a register context's source, destination and size registers,
   its key, and the §3.5 atomic registers and remote-reply mailbox *)
type context = {
  mutable key : int;
  mutable dest : int option;
  mutable src : int option;
  mutable size : int option;
  mutable src_next : bool; (* key-based: the next address store names the source *)
  mutable a_target : int option;
  mutable a_op : Atomic_op.pending;
  mutable mailbox : int option;
}

(* DESIGN.md §8: a capability names its value, context, owner, physical
   range and rights, and survives revocation flagged *)
type cap = {
  value : int;
  ctx : int;
  owner : int;
  base : int;
  len : int;
  read : bool;
  write : bool;
  revoked : bool;
}

type t = {
  mech : Engine.mechanism;
  ram_size : int;
  contexts : context array;
  tables : (int * Page_table.t) list; (* IOMMU: the page table bound to each context *)
  (* the kernel control page (Fig. 1, the modified kernels' hooks, §3.5) *)
  mutable k_src : int;
  mutable k_dst : int;
  mutable k_target : int;
  mutable k_op : Atomic_op.pending;
  mutable current_pid : int; (* FLASH: stored by the modified kernel at every switch *)
  mutable mapped_out : (int * int) list; (* SHRIMP-1: source page -> destination page *)
  mutable map_stage : int option;
  mutable caps : cap list;
  mutable cap_stage : int * int * int; (* value, base, length *)
  (* the two-step deposit (§2.5-2.7): destination, size, the pid
     register and the address's context id when it was stored *)
  mutable deposit : (int * int * int * int) option;
  mutable shared_target : int option; (* the engine-wide atomic slot (§2.7, §3.5) *)
  mutable shared_op : Atomic_op.pending;
  mutable seq : (Txn.op * int * int) list; (* Fig. 7: the sequence so far, oldest first *)
}

let fresh_context () =
  {
    key = 0;
    dest = None;
    src = None;
    size = None;
    src_next = false;
    a_target = None;
    a_op = Atomic_op.P_none;
    mailbox = None;
  }

let create ~mechanism ~ram_size ~n_contexts ~tables =
  {
    mech = mechanism;
    ram_size;
    contexts = Array.init n_contexts (fun _ -> fresh_context ());
    tables;
    k_src = 0;
    k_dst = 0;
    k_target = 0;
    k_op = Atomic_op.P_none;
    current_pid = -1;
    mapped_out = [];
    map_stage = None;
    caps = [];
    cap_stage = (0, 0, 0);
    deposit = None;
    shared_target = None;
    shared_op = Atomic_op.P_none;
    seq = [];
  }

let ctx_of t i = if i >= 0 && i < Array.length t.contexts then Some t.contexts.(i) else None

let clear c =
  c.dest <- None;
  c.src <- None;
  c.size <- None;
  c.src_next <- false

(* [addr, addr + size) lies in [base, limit), computed without overflow *)
let within ~base ~limit addr size = size >= 0 && addr >= base && addr <= limit - size
let in_ram t addr size = within ~base:0 ~limit:t.ram_size addr size
let in_remote addr size = within ~base:Layout.remote_base ~limit:Layout.remote_limit addr size


(* The copy unit takes one physical source, destination and length: a
   positive length, a source in RAM and a destination in RAM or in the
   remote window (Telegraphos-style remote DMA). *)
let start t ~pid ~context src dst size =
  if size > 0 && in_ram t src size && (in_ram t dst size || in_remote dst size) then
    { reject = None; start = Some { src; dst; size; context; pid } }
  else rejected "bad_range"

(* §3.5: the atomic unit runs on an aligned word in RAM, or ships the
   operation to a remote word when the context has a reply mailbox *)
let run_atomic t ~context target =
  if not (Layout.is_word_aligned target) then rejected "bad_range"
  else if in_ram t target Layout.word_size then ok
  else if in_remote target Layout.word_size then
    match Option.bind context (fun i -> t.contexts.(i).mailbox) with
    | Some _ -> ok
    | None -> rejected "incomplete_arguments"
  else rejected "bad_range"

(* an atomic load runs the staged operation once, on its staged target *)
let atomic_load t ~context ~target op =
  match (target, op) with
  | Some target, Atomic_op.P_ready _ -> run_atomic t ~context target
  | _ -> rejected "incomplete_arguments"

(* ------------------------------------------------------------------ *)
(* The kernel control page: Fig. 1's path, the modified kernels' hooks
   (SHRIMP-2 invalidate, FLASH current pid, SHRIMP-1 map-out), keys and
   mailboxes, and the IOMMU/CAPIO tables *)

let revoke_if p caps = List.map (fun c -> if p c then { c with revoked = true } else c) caps

let kernel_store t offset v ~pid =
  let n = Array.length t.contexts in
  if offset = Regmap.k_source then t.k_src <- v
  else if offset = Regmap.k_dest then t.k_dst <- v
  else if offset = Regmap.k_current_pid then t.current_pid <- v
  else if offset = Regmap.k_invalidate then begin
    t.deposit <- None;
    t.shared_target <- None;
    t.shared_op <- Atomic_op.P_none
  end
  else if offset = Regmap.k_map_out_src then t.map_stage <- Some (Layout.page_base v)
  else if offset = Regmap.k_map_out_dst then begin
    match t.map_stage with
    | Some src ->
      t.mapped_out <- (src, Layout.page_base v) :: List.remove_assoc src t.mapped_out;
      t.map_stage <- None
    | None -> ()
  end
  else if offset = Regmap.k_atomic_target then t.k_target <- v
  else if offset = Regmap.k_atomic_op then t.k_op <- Atomic_op.accumulate t.k_op v
  else if offset = Regmap.k_cap_value then (let _, b, l = t.cap_stage in t.cap_stage <- (v, b, l))
  else if offset = Regmap.k_cap_base then (let c, _, l = t.cap_stage in t.cap_stage <- (c, v, l))
  else if offset = Regmap.k_cap_len then (let c, b, _ = t.cap_stage in t.cap_stage <- (c, b, v))
  else if offset = Regmap.k_cap_commit then begin
    (* the commit word: context in bits 0-7, read bit 8, write bit 9,
       granting pid from bit 16; value 0 mints nothing *)
    let value, base, len = t.cap_stage in
    if value <> 0 then begin
      let cap =
        { value; ctx = v land 0xff; owner = v asr 16; base; len; read = v land 0x100 <> 0;
          write = v land 0x200 <> 0; revoked = false }
      in
      t.caps <- cap :: List.filter (fun c -> c.value <> value) t.caps
    end;
    t.cap_stage <- (0, 0, 0)
  end
  else if offset = Regmap.k_cap_revoke then t.caps <- revoke_if (fun c -> c.value = v) t.caps
  else if offset >= Regmap.mailbox_offset ~context:0 && offset < Regmap.mailbox_offset ~context:n
  then
    t.contexts.((offset - Regmap.mailbox_offset ~context:0) / 8).mailbox <-
      (if v = 0 then None else Some v)
  else if offset >= Regmap.key_offset ~context:0 && offset < Regmap.key_offset ~context:n then begin
    (* a new key is a new owner: the old owner's arguments, atomics,
       mailbox and capabilities die with it *)
    let i = (offset - Regmap.key_offset ~context:0) / 8 in
    t.contexts.(i) <- { (fresh_context ()) with key = v };
    t.caps <- revoke_if (fun c -> c.ctx = i) t.caps
  end;
  if offset = Regmap.k_size then start t ~pid ~context:None t.k_src t.k_dst v else ok

let kernel_load t offset =
  if offset = Regmap.k_atomic_op then begin
    let op = t.k_op in
    t.k_op <- Atomic_op.P_none;
    atomic_load t ~context:None ~target:(Some t.k_target) op
  end
  else ok

(* ------------------------------------------------------------------ *)
(* A register context page (§3.1): a store goes to the size register
   (to the explicit argument registers under IOMMU and CAPIO, DESIGN.md
   §7-8), a load fires a complete argument set *)

let explicit_args t = match t.mech with Engine.Iommu | Engine.Capio -> true | _ -> false

(* DESIGN.md §7: every page of the virtual range is present with the
   needed right, and the physical image is one contiguous range *)
let translate table ~vaddr ~size ~right =
  if size <= 0 || vaddr < 0 then Error "bad_range"
  else
    let first = Layout.page_of vaddr in
    let last = first + ((Layout.page_offset vaddr + (size - 1)) / Layout.page_size) in
    let rec walk vpage base =
      if vpage > last then Ok (base + Layout.page_offset vaddr)
      else
        match Page_table.find table ~vpage with
        | Some pte when right pte.Pte.perms ->
          let frame_base = pte.Pte.frame * Layout.page_size in
          let expected = base + ((vpage - first) * Layout.page_size) in
          if vpage > first && frame_base <> expected then Error "bad_range"
          else walk (vpage + 1) (if vpage = first then frame_base else base)
        | Some _ | None -> Error "not_present"
    in
    walk first 0

(* DESIGN.md §8, in order: unknown, revoked, foreign context or missing
   right, then a length beyond the grant *)
let check_cap t ~context ~size ~right value =
  match List.find_opt (fun c -> c.value = value) t.caps with
  | None -> Error "bad_capability"
  | Some c when c.revoked -> Error "revoked_capability"
  | Some c when c.ctx <> context || not (right c) -> Error "bad_capability"
  | Some c when size <= 0 || size > c.len -> Error "bad_range"
  | Some c -> Ok c.base

let fire t ~pid ~context src dst size =
  let via resolve =
    match resolve src `Read with
    | Error r -> rejected r
    | Ok s -> (
      match resolve dst `Write with
      | Error r -> rejected r
      | Ok d -> start t ~pid ~context:(Some context) s d size)
  in
  match t.mech with
  | Engine.Iommu -> (
    match List.assoc_opt context t.tables with
    | None -> rejected "not_present"
    | Some table ->
      via (fun vaddr access ->
          translate table ~vaddr ~size ~right:(fun p ->
              match access with `Read -> p.Perms.read | `Write -> p.Perms.write)))
  | Engine.Capio ->
    via (fun value access ->
        check_cap t ~context ~size value ~right:(fun c ->
            match access with `Read -> c.read | `Write -> c.write))
  | _ -> start t ~pid ~context:(Some context) src dst size

let context_page t i offset (op : Txn.op) value ~pid =
  match ctx_of t i with
  | None -> rejected "no_context"
  | Some c -> (
    match op with
    | Txn.Store ->
      if offset = Regmap.c_atomic then c.a_op <- Atomic_op.accumulate c.a_op value
      else if explicit_args t && offset = Regmap.c_arg_src then c.src <- Some value
      else if explicit_args t && offset = Regmap.c_arg_dst then c.dest <- Some value
      else c.size <- Some value;
      ok
    | Txn.Load when offset = Regmap.c_atomic ->
      let target = c.a_target and op = c.a_op in
      c.a_target <- None;
      c.a_op <- Atomic_op.P_none;
      atomic_load t ~context:(Some i) ~target op
    | Txn.Load -> (
      match (c.src, c.dest, c.size) with
      | None, None, None -> ok
      | Some s, Some d, Some n ->
        clear c;
        fire t ~pid ~context:i s d n
      | _ ->
        clear c;
        rejected "incomplete_arguments"))

(* ------------------------------------------------------------------ *)
(* The shadow window *)

(* Fig. 7's self-validating sequences. Every access names the
   destination or the source; every store carries the size. *)
let pattern = function
  | Seq_matcher.Three -> [ (Txn.Load, `Src); (Txn.Store, `Dst); (Txn.Load, `Src) ]
  | Seq_matcher.Four -> [ (Txn.Store, `Dst); (Txn.Load, `Src); (Txn.Store, `Dst); (Txn.Load, `Src) ]
  | Seq_matcher.Five ->
    [ (Txn.Store, `Dst); (Txn.Load, `Src); (Txn.Store, `Dst); (Txn.Load, `Src); (Txn.Load, `Dst) ]

(* The pattern's steps against the accesses [seq] (oldest first); the
   address the first access of a role names, and the size the first
   store carries. *)
let steps variant seq =
  let rec pairs p s = match (p, s) with x :: p, y :: s -> (x, y) :: pairs p s | _ -> [] in
  pairs (pattern variant) seq

let role_addr role st =
  List.find_map (fun ((_, r), (_, a, _)) -> if r = role then Some a else None) st

let store_size st =
  List.find_map (fun (_, (op, _, v)) -> if op = Txn.Store then Some v else None) st

(* [seq] follows the pattern's operations, every access of a role names
   that role's first address, and every store carries the first store's
   size *)
let follows variant seq =
  let st = steps variant seq in
  List.length seq <= List.length (pattern variant)
  && List.for_all
       (fun ((op, role), (op', a, v)) ->
         op = op' && role_addr role st = Some a && (op = Txn.Load || store_size st = Some v))
       st

(* "If it sees anything out of this order, the DMA engine resets
   itself", and the offending access may begin a new sequence; only a
   load reports the break *)
let repeated t variant ~pid (op : Txn.op) addr value =
  let seq = t.seq @ [ (op, addr, value) ] in
  if not (follows variant seq) then begin
    t.seq <- (if follows variant [ (op, addr, value) ] then [ (op, addr, value) ] else []);
    match op with Txn.Load -> rejected "broken_sequence" | Txn.Store -> ok
  end
  else if List.length seq < List.length (pattern variant) then begin
    t.seq <- seq;
    ok
  end
  else begin
    t.seq <- [];
    let st = steps variant seq in
    match (role_addr `Src st, role_addr `Dst st, store_size st) with
    | Some s, Some d, Some n -> start t ~pid ~context:None s d n
    | _ -> assert false (* every pattern names both roles and has a store *)
  end

let shadow t ~pid (op : Txn.op) ~atomic ~context ~addr value =
  let two_step =
    match t.mech with Engine.(Shrimp_two_step | Flash | Ext_shadow_stateless) -> true | _ -> false
  in
  match (t.mech, atomic, op) with
  (* §2.4 SHRIMP-1: a store to a mapped-out page sends it to its twin *)
  | Engine.Shrimp_mapped, false, Txn.Store -> (
    match List.assoc_opt (Layout.page_base addr) t.mapped_out with
    | Some twin -> start t ~pid ~context:None addr (twin + Layout.page_offset addr) value
    | None -> rejected "not_mapped_out")
  | Engine.Shrimp_mapped, false, Txn.Load -> ok
  (* §2.5-2.7 two-step: STORE size TO shadow(dst), LOAD FROM shadow(src);
     FLASH checks the pid register, the stateless engine the context
     ids of the two addresses (§3.2) *)
  | _, false, Txn.Store when two_step ->
    t.deposit <- Some (addr, value, t.current_pid, context);
    ok
  | _, false, Txn.Load when two_step -> (
    let deposit = t.deposit in
    t.deposit <- None;
    match deposit with
    | None -> rejected "incomplete_arguments"
    | Some (_, _, pid_reg, _) when t.mech = Engine.Flash && pid_reg <> t.current_pid ->
      rejected "wrong_pid"
    | Some (_, _, _, ctx) when t.mech = Engine.Ext_shadow_stateless && ctx <> context ->
      rejected "wrong_context"
    | Some (dst, size, _, _) -> start t ~pid ~context:None addr dst size)
  (* the engine-wide atomic slot, safe only in PAL mode (§2.7, §3.5) *)
  | _, true, Txn.Store when two_step ->
    t.shared_target <- Some addr;
    t.shared_op <- Atomic_op.accumulate t.shared_op value;
    ok
  | _, true, Txn.Load when two_step ->
    let target = t.shared_target and op = t.shared_op in
    t.shared_target <- None;
    t.shared_op <- Atomic_op.P_none;
    atomic_load t ~context:None ~target:(if target = Some addr then target else None) op
  (* §3.1 key-based: STORE KEY#CONTEXT_ID TO shadow(dst), then shadow(src);
     an atomic-window store names the atomic target the same way *)
  | Engine.Key_based, _, Txn.Store -> (
    match ctx_of t (Regmap.context_of_word value) with
    | None -> rejected "no_context"
    | Some c when c.key <> Regmap.key_of_word value -> rejected "bad_key"
    | Some c ->
      if atomic then c.a_target <- Some addr
      else if c.src_next then c.src <- Some addr
      else c.dest <- Some addr;
      if not atomic then c.src_next <- not c.src_next;
      ok)
  (* §3.2 extended shadow: the context id rides in the address *)
  | Engine.Ext_shadow, _, _ -> (
    match ctx_of t context with
    | None -> rejected "no_context"
    | Some c -> (
      match (atomic, op) with
      | false, Txn.Store ->
        c.dest <- Some addr;
        c.size <- Some value;
        ok
      | false, Txn.Load -> (
        let dest = c.dest and size = c.size in
        clear c;
        match (dest, size) with
        | Some d, Some n -> start t ~pid ~context:(Some context) addr d n
        | _ -> rejected "incomplete_arguments")
      | true, Txn.Store ->
        c.a_target <- Some addr;
        c.a_op <- Atomic_op.accumulate c.a_op value;
        ok
      | true, Txn.Load ->
        let target = c.a_target and op = c.a_op in
        c.a_target <- None;
        c.a_op <- Atomic_op.P_none;
        atomic_load t ~context:(Some context)
          ~target:(if target = Some addr then target else None)
          op))
  (* §3.3 repeated passing of arguments *)
  | Engine.Rep_args v, false, _ -> repeated t v ~pid op addr value
  (* key-based loads, the atomic window without an atomic unit behind
     it, and the whole window under IOMMU and CAPIO (DESIGN.md §7-8) *)
  | _ -> rejected "unsupported"

(* One access on the bus, by its address: the remote window, the
   kernel control page, a register context page, the shadow window. *)
let step t ~pid (op : Txn.op) ~paddr ~value =
  if Layout.in_remote paddr then match op with Txn.Store -> ok | Txn.Load -> rejected "unsupported"
  else if Layout.in_mmio paddr then
    match (Layout.context_of_mmio paddr, op) with
    | Some i, _ -> context_page t i (Layout.page_offset paddr) op value ~pid
    | None, Txn.Store -> kernel_store t (Layout.page_offset paddr) value ~pid
    | None, Txn.Load -> kernel_load t (Layout.page_offset paddr)
  else
    match Shadow.decode paddr with
    | Some d ->
      shadow t ~pid op ~atomic:d.Shadow.atomic ~context:d.Shadow.context ~addr:d.Shadow.paddr value
    | None -> ok
