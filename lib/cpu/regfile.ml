(* Registers live in cells [0, num_regs); the two cells after them hold
   the lanes of the file's additive digest (Fp128.int_term over the
   registers, register r at digest slot [base + r]), which [set] keeps
   current, and the next one holds [base]. One flat array keeps [copy]
   a single block copy. *)
type t = int array

let zero_reg = 31

let lane_a = Isa.num_regs
let base_cell = Isa.num_regs + 2
let n_aux = 32

let create ?(slot_base = 0) () =
  let t = Array.make (Isa.num_regs + 3) 0 in
  t.(base_cell) <- slot_base;
  t

let copy = Array.copy

let check r = if r < 0 || r >= Isa.num_regs then invalid_arg (Printf.sprintf "Regfile: r%d" r)

let get t r =
  check r;
  if r = zero_reg then 0 else t.(r)

let set t r v =
  check r;
  if r <> zero_reg then begin
    Uldma_util.Fp128.replace_int t lane_a (t.(base_cell) + r) t.(r) v;
    t.(r) <- v
  end

let slot_base t = t.(base_cell)

let replace_aux t k old v =
  if k < 0 || k >= n_aux then invalid_arg (Printf.sprintf "Regfile.replace_aux: slot %d" k);
  Uldma_util.Fp128.replace_int t lane_a (t.(base_cell) + Isa.num_regs + k) old v

let to_list t = List.init Isa.num_regs (fun r -> t.(r))

let digest t = (t.(lane_a), t.(lane_a + 1))

let add_digest t acc =
  acc.(0) <- acc.(0) + t.(lane_a);
  acc.(1) <- acc.(1) + t.(lane_a + 1)

let iter_terms f t =
  for r = 0 to Isa.num_regs - 1 do
    f (t.(base_cell) + r) t.(r)
  done

let pp ppf t =
  for r = 0 to Isa.num_regs - 1 do
    if t.(r) <> 0 then Format.fprintf ppf "r%d=%#x " r t.(r)
  done
