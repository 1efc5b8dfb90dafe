let k_source = 0x00
let k_dest = 0x08
let k_size = 0x10
let k_status = 0x18
let k_current_pid = 0x20
let k_invalidate = 0x28
let k_map_out_src = 0x30
let k_map_out_dst = 0x38
let k_atomic_target = 0x40
let k_atomic_op = 0x48

(* CAPIO capability install (value/base/len staged, meta commits) and
   revocation-by-value; IOMMU IOTLB shootdown. Kernel-only, like the
   rest of the control page. *)
let k_cap_value = 0x50
let k_cap_base = 0x58
let k_cap_len = 0x60
let k_cap_commit = 0x68
let k_cap_revoke = 0x70
let k_iotlb_invalidate = 0x78

let k_key_base = 0x80

let key_offset ~context = k_key_base + (8 * context)

let key_word ~key ~context = (key lsl 4) lor context
let key_of_word w = w asr 4
let context_of_word w = w land 0xf

let k_mailbox_base = 0x100

let mailbox_offset ~context = k_mailbox_base + (8 * context)

let c_size = 0x00
let c_atomic = 0x08
let c_arg_src = 0x10
let c_arg_dst = 0x18
