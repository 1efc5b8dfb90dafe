(* Registers live in slots [0, num_regs); the two slots after them hold
   the lanes of the file's additive digest (Fp128.int_term over the
   registers, slot = register number), which [set] keeps current. One
   flat array keeps [copy] a single block copy. *)
type t = int array

let zero_reg = 31

let lane_a = Isa.num_regs

let create () = Array.make (Isa.num_regs + 2) 0

let copy = Array.copy

let check r = if r < 0 || r >= Isa.num_regs then invalid_arg (Printf.sprintf "Regfile: r%d" r)

let get t r =
  check r;
  if r = zero_reg then 0 else t.(r)

let set t r v =
  check r;
  if r <> zero_reg then begin
    Uldma_util.Fp128.replace_int t lane_a r t.(r) v;
    t.(r) <- v
  end

let to_list t = List.init Isa.num_regs (fun r -> t.(r))

let digest t = (t.(lane_a), t.(lane_a + 1))

let encode enc t =
  let module E = Uldma_util.Enc in
  match enc with
  | E.Buf _ ->
    for r = 0 to Isa.num_regs - 1 do
      E.int enc t.(r)
    done
  | E.Fp fp ->
    Uldma_util.Fp128.add_int fp t.(lane_a);
    Uldma_util.Fp128.add_int fp t.(lane_a + 1)

let pp ppf t =
  for r = 0 to Isa.num_regs - 1 do
    if t.(r) <> 0 then Format.fprintf ppf "r%d=%#x " r t.(r)
  done
