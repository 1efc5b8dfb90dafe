(* Text sink for the canonical kernel-state walk (paranoid keys,
   debugging, the differential checks): ints are decimal with a
   trailing ',', tags and raw bytes verbatim. The fingerprint key reads
   the machine's write-maintained digests instead (Kernel.state_key). *)

type t = Buffer.t

let int b v =
  Buffer.add_string b (string_of_int v);
  Buffer.add_char b ','

let char = Buffer.add_char
let string = Buffer.add_string
let bytes = Buffer.add_bytes
