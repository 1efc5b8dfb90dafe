module Fp128 = Uldma_util.Fp128

type slot = Dest | Src

type context = {
  index : int;
  mutable key : int;
  mutable owner_pid : int option;
  mutable dest : int option;
  mutable src : int option;
  mutable size : int option;
  mutable next_slot : slot;
  mutable status : int;
  mutable last_transfer : Transfer.t option;
  mutable atomic_target : int option;
  mutable atomic_pending : Atomic_op.pending;
  mutable mailbox : int option;
  dg : int array;
}

type t = context array

(* The contexts' terms in the machine's digest cell [dg], which every
   context holds: each setter moves its field's term. Field [f] of
   context [i] sits at slot [16 i + f] of slot domain 3 and enters as
   value xor its reset value, so a fresh context contributes nothing. *)
let f_key = 0
let f_owner = 1
let f_dest = 2
let f_src = 3
let f_size = 4
let f_next_slot = 5
let f_status = 6
let f_atomic_target = 7
let f_mailbox = 8
let f_atomic_pending = 9 (* three slots *)
let f_started = 12 (* 1 once a transfer was started through the context *)
let n_fields = 13

let slot_word = function Dest -> 0 | Src -> 1

let slot_base = Fp128.domain 3
let[@inline] slot c f = slot_base + (16 * c.index) + f
let[@inline] note c f old v = Fp128.replace_int c.dg 0 (slot c f) old v

let fresh dg index =
  {
    index;
    key = 0;
    owner_pid = None;
    dest = None;
    src = None;
    size = None;
    next_slot = Dest;
    status = Status.complete;
    last_transfer = None;
    atomic_target = None;
    atomic_pending = Atomic_op.P_none;
    mailbox = None;
    dg;
  }

let create ~n ~dg =
  if n < 1 || n > Uldma_mem.Layout.max_contexts then
    invalid_arg (Printf.sprintf "Context_file.create: %d contexts" n);
  Array.init n (fresh dg)

let copy t ~dg = Array.map (fun c -> { c with dg }) t

let length = Array.length

let get t i =
  if i < 0 || i >= Array.length t then
    invalid_arg (Printf.sprintf "Context_file.get: context %d" i);
  t.(i)

let mem t i = i >= 0 && i < Array.length t

let set_key t ~context ~key =
  let c = get t context in
  note c f_key c.key key;
  c.key <- key

let set_owner t ~context ~pid =
  let c = get t context in
  note c f_owner (Fp128.opt_value c.owner_pid) (Fp128.opt_value pid);
  c.owner_pid <- pid

let set_dest c v =
  note c f_dest (Fp128.opt_value c.dest) (Fp128.opt_value v);
  c.dest <- v

let set_src c v =
  note c f_src (Fp128.opt_value c.src) (Fp128.opt_value v);
  c.src <- v

let set_size c v =
  note c f_size (Fp128.opt_value c.size) (Fp128.opt_value v);
  c.size <- v

let set_next_slot c v =
  note c f_next_slot (slot_word c.next_slot) (slot_word v);
  c.next_slot <- v

let set_status c v =
  note c f_status (c.status lxor Status.complete) (v lxor Status.complete);
  c.status <- v

let started_word = function None -> 0 | Some _ -> 1

let set_last_transfer c tr =
  note c f_started (started_word c.last_transfer) (started_word tr);
  c.last_transfer <- tr

let set_atomic_target c v =
  note c f_atomic_target (Fp128.opt_value c.atomic_target) (Fp128.opt_value v);
  c.atomic_target <- v

let set_atomic_pending c p =
  for w = 0 to 2 do
    note c (f_atomic_pending + w)
      (Atomic_op.pending_word c.atomic_pending w)
      (Atomic_op.pending_word p w)
  done;
  c.atomic_pending <- p

let set_mailbox c v =
  note c f_mailbox (Fp128.opt_value c.mailbox) (Fp128.opt_value v);
  c.mailbox <- v

let push_address c paddr =
  match c.next_slot with
  | Dest ->
    set_dest c (Some paddr);
    set_next_slot c Src
  | Src ->
    set_src c (Some paddr);
    set_next_slot c Dest

let args_ready c =
  match (c.src, c.dest, c.size) with
  | Some src, Some dest, Some size -> Some (src, dest, size)
  | _, _, _ -> None

let clear_args c =
  set_dest c None;
  set_src c None;
  set_size c None;
  set_next_slot c Dest

let reset c =
  clear_args c;
  set_status c Status.complete;
  set_last_transfer c None;
  set_atomic_target c None;
  set_atomic_pending c Atomic_op.P_none;
  set_mailbox c None

(* Field [f] of [c] as the key sees it; the setters above compute the
   same values. *)
let word c f =
  if f = f_key then c.key
  else if f = f_owner then Fp128.opt_value c.owner_pid
  else if f = f_dest then Fp128.opt_value c.dest
  else if f = f_src then Fp128.opt_value c.src
  else if f = f_size then Fp128.opt_value c.size
  else if f = f_next_slot then slot_word c.next_slot
  else if f = f_status then c.status lxor Status.complete
  else if f = f_atomic_target then Fp128.opt_value c.atomic_target
  else if f = f_mailbox then Fp128.opt_value c.mailbox
  else if f = f_started then started_word c.last_transfer
  else Atomic_op.pending_word c.atomic_pending (f - f_atomic_pending)

let iter_terms f t =
  Array.iter
    (fun c ->
      for fld = 0 to n_fields - 1 do
        f (slot c fld) (word c fld)
      done)
    t
