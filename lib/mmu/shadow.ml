open Uldma_mem

let tag = 1 lsl Layout.shadow_bit_index
let atomic_tag = 1 lsl (Layout.shadow_bit_index + 1)
let ctx_shift = Layout.context_field_shift
let max_context = (1 lsl Layout.context_field_width) - 1
let ctx_mask = max_context lsl ctx_shift

type decoded = { context : int; paddr : int; atomic : bool }

let is_shadow a = a land tag <> 0

let encode_with ~tags ~context paddr =
  if paddr < 0 || paddr >= 1 lsl ctx_shift then
    invalid_arg (Printf.sprintf "Shadow.encode: paddr %#x out of range" paddr);
  if context < 0 || context > max_context then
    invalid_arg (Printf.sprintf "Shadow.encode: context %d out of range" context);
  tags lor (context lsl ctx_shift) lor paddr

let encode_ctx ~context paddr = encode_with ~tags:tag ~context paddr

let encode paddr = encode_ctx ~context:0 paddr

let encode_atomic ~context paddr = encode_with ~tags:(tag lor atomic_tag) ~context paddr

let context_of a = (a land ctx_mask) lsr ctx_shift
let strip a = a land lnot (tag lor atomic_tag lor ctx_mask)
let is_atomic a = a land atomic_tag <> 0

let decode a =
  if not (is_shadow a) then None
  else Some { context = context_of a; paddr = strip a; atomic = is_atomic a }

let decode_exn a =
  match decode a with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Shadow.decode_exn: %#x is not a shadow address" a)

let shadow_frame_of_frame ~context frame =
  let paddr = frame lsl Layout.page_shift in
  encode_ctx ~context paddr lsr Layout.page_shift
