let word_size = 8
let page_shift = 13
let page_size = 1 lsl page_shift

let page_of addr = addr lsr page_shift
let page_base addr = addr land lnot (page_size - 1)
let page_offset addr = addr land (page_size - 1)
let is_page_aligned addr = page_offset addr = 0
let is_word_aligned addr = addr land (word_size - 1) = 0

let max_contexts = 8

let mmio_base = 1 lsl 32
(* one page per register context plus one kernel-only control page *)
let mmio_pages = max_contexts + 1
let mmio_limit = mmio_base + (mmio_pages * page_size)

let kernel_control_page = mmio_base

let context_page i =
  if i < 0 || i >= max_contexts then
    invalid_arg (Printf.sprintf "Layout.context_page: %d" i);
  mmio_base + ((i + 1) * page_size)

let context_of_mmio paddr =
  if paddr < mmio_base + page_size || paddr >= mmio_limit then None
  else Some (((paddr - mmio_base) lsr page_shift) - 1)

let shadow_bit_index = 40
let context_field_shift = 34
let context_field_width = 2
let max_ram_size = 1 lsl context_field_shift

let remote_base = 1 lsl 33
let remote_limit = remote_base + (1 lsl 32)
let in_remote paddr = paddr >= remote_base && paddr < remote_limit
let remote_offset paddr = paddr - remote_base

let in_mmio paddr = paddr >= mmio_base && paddr < mmio_limit
let is_shadow paddr = paddr land (1 lsl shadow_bit_index) <> 0
let in_ram ~ram_size paddr = paddr >= 0 && paddr < ram_size
