open Uldma_bus

type variant = Three | Four | Five

type fire = { src : int; dst : int; size : int }

type reply = Accepted | Fired of fire | Rejected

(* What each step of a pattern expects. [Dest_set]/[Src_set] bind the
   address role; the [_match] forms require equality with the binding. *)
type addr_role = Dest_set | Dest_match | Src_set | Src_match

type step = { op : Txn.op; role : addr_role; carries_size : bool }

let pattern = function
  | Three ->
    [|
      { op = Txn.Load; role = Src_set; carries_size = false };
      { op = Txn.Store; role = Dest_set; carries_size = true };
      { op = Txn.Load; role = Src_match; carries_size = false };
    |]
  | Four ->
    [|
      { op = Txn.Store; role = Dest_set; carries_size = true };
      { op = Txn.Load; role = Src_set; carries_size = false };
      { op = Txn.Store; role = Dest_match; carries_size = true };
      { op = Txn.Load; role = Src_match; carries_size = false };
    |]
  | Five ->
    [|
      { op = Txn.Store; role = Dest_set; carries_size = true };
      { op = Txn.Load; role = Src_set; carries_size = false };
      { op = Txn.Store; role = Dest_match; carries_size = true };
      { op = Txn.Load; role = Src_match; carries_size = false };
      { op = Txn.Load; role = Dest_match; carries_size = false };
    |]

type t = {
  variant : variant;
  steps : step array;
  mutable index : int;
  mutable dest : int;
  mutable src : int;
  mutable size : int;
  dg : int array; (* the machine's digest cell *)
}

(* The matcher's terms in the machine's digest cell: variant, index,
   dest, src and size at slots 0..4 of slot domain 4, each as value xor
   its reset value (variant [Five], the engine's default matcher;
   index 0; bindings -1), so a fresh [Five] matcher adds nothing. *)
let s_variant = Uldma_util.Fp128.domain 4
let s_index = s_variant + 1
let s_dest = s_variant + 2
let s_src = s_variant + 3
let s_size = s_variant + 4

let variant_code = function Three -> 3 | Four -> 4 | Five -> 5

let[@inline] note t slot old v = Uldma_util.Fp128.replace_int t.dg 0 slot old v

let set_index t v =
  note t s_index t.index v;
  t.index <- v

let set_dest t v =
  note t s_dest (lnot t.dest) (lnot v);
  t.dest <- v

let set_src t v =
  note t s_src (lnot t.src) (lnot v);
  t.src <- v

let set_size t v =
  note t s_size (lnot t.size) (lnot v);
  t.size <- v

(* only the variant differs from its reset value at creation *)
let create ~dg variant =
  Uldma_util.Fp128.replace_int dg 0 s_variant 0 (variant_code variant lxor 5);
  { variant; steps = pattern variant; index = 0; dest = -1; src = -1; size = -1; dg }

let copy t ~dg = { t with dg }

let variant t = t.variant

let sequence_length v = Array.length (pattern v)

let reset t =
  set_index t 0;
  set_dest t (-1);
  set_src t (-1);
  set_size t (-1)

let position t = t.index

let iter_terms f t =
  f s_variant (variant_code t.variant lxor 5);
  f s_index t.index;
  f s_dest (lnot t.dest);
  f s_src (lnot t.src);
  f s_size (lnot t.size)

(* Try to accept [op/paddr/value] as step [t.index]. *)
let accept t op paddr value =
  let step = t.steps.(t.index) in
  if step.op <> op then false
  else
    let addr_ok =
      match step.role with
      | Dest_set ->
        set_dest t paddr;
        true
      | Src_set ->
        set_src t paddr;
        true
      | Dest_match -> paddr = t.dest
      | Src_match -> paddr = t.src
    in
    (* the store that binds the destination binds the size; every later
       store must repeat it, whatever its sign *)
    let size_ok =
      if not step.carries_size then true
      else if step.role = Dest_set then begin
        set_size t value;
        true
      end
      else value = t.size
    in
    if addr_ok && size_ok then begin
      set_index t (t.index + 1);
      true
    end
    else false

let feed t op ~paddr ~value =
  if accept t op paddr value then
    if t.index = Array.length t.steps then begin
      let fire = { src = t.src; dst = t.dest; size = t.size } in
      reset t;
      Fired fire
    end
    else Accepted
  else begin
    (* "If it sees anything out of this order, the DMA engine resets
       itself" — and the offending access may begin a new sequence. *)
    reset t;
    ignore (accept t op paddr value : bool);
    Rejected
  end
