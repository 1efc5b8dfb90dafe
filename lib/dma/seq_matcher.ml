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
  dg : int array;
}

(* The matcher's additive digest: cells 0 and 1 are the lanes, cell 2
   is 1 once built (see [digest]). Variant, index, dest, src and size
   sit at slots 0..4 of slot domain 4, each as value xor its reset
   value (variant [Five], the engine's default matcher; index 0;
   bindings -1), so a fresh [Five] matcher digests to (0, 0). *)
let s_variant = Uldma_util.Fp128.domain 4
let s_index = s_variant + 1
let s_dest = s_variant + 2
let s_src = s_variant + 3
let s_size = s_variant + 4

let variant_code = function Three -> 3 | Four -> 4 | Five -> 5

(* Setters test [built] before computing any digest value, so until
   the digest is built a write costs one load and compare. *)
let[@inline] built t = t.dg.(2) <> 0

let[@inline] note t slot old v = Uldma_util.Fp128.replace_int t.dg 0 slot old v

let set_index t v =
  if built t then note t s_index t.index v;
  t.index <- v

let set_dest t v =
  if built t then note t s_dest (lnot t.dest) (lnot v);
  t.dest <- v

let set_src t v =
  if built t then note t s_src (lnot t.src) (lnot v);
  t.src <- v

let set_size t v =
  if built t then note t s_size (lnot t.size) (lnot v);
  t.size <- v

let create variant =
  { variant; steps = pattern variant; index = 0; dest = -1; src = -1; size = -1; dg = [| 0; 0; 0 |] }

let copy t = { t with dg = Array.copy t.dg }

let variant t = t.variant

let sequence_length v = Array.length (pattern v)

let reset t =
  set_index t 0;
  set_dest t (-1);
  set_src t (-1);
  set_size t (-1)

let position t = t.index

let scratch_digest t =
  let d = [| 0; 0 |] in
  List.iter
    (fun (slot, v) -> Uldma_util.Fp128.replace_int d 0 slot 0 v)
    [
      (s_variant, variant_code t.variant lxor 5);
      (s_index, t.index);
      (s_dest, lnot t.dest);
      (s_src, lnot t.src);
      (s_size, lnot t.size);
    ];
  (d.(0), d.(1))

let build t =
  if t.dg.(2) = 0 then begin
    let a, b = scratch_digest t in
    t.dg.(0) <- a;
    t.dg.(1) <- b;
    t.dg.(2) <- 1
  end

let digest t =
  build t;
  (t.dg.(0), t.dg.(1))

let add_digest t acc =
  build t;
  acc.(0) <- acc.(0) + t.dg.(0);
  acc.(1) <- acc.(1) + t.dg.(1)

(* Canonical encoding of the matcher's mutable registers. [steps] is a
   pure function of [variant]. *)
let encode enc t =
  let module E = Uldma_util.Enc in
  let i v = E.int enc v in
  E.char enc 'm';
  i (variant_code t.variant);
  i t.index;
  i t.dest;
  i t.src;
  i t.size;
  E.char enc ';'

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
    let size_ok =
      if not step.carries_size then true
      else if t.size < 0 then begin
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
