(* One sink for what a state key streams: the fingerprint's Fp128 lanes
   or the paranoid key's text (ints decimal with a trailing ',', tags
   verbatim, strings after their length). *)

type t = Fp of Fp128.t | Buf of Buffer.t

let int t v =
  match t with
  | Fp fp -> Fp128.add_int fp v
  | Buf b ->
    Buffer.add_string b (string_of_int v);
    Buffer.add_char b ','

let tag t c = match t with Fp fp -> Fp128.add_tag fp c | Buf b -> Buffer.add_char b c

let string t s =
  match t with
  | Fp fp -> Fp128.add_string fp s
  | Buf b ->
    int t (String.length s);
    Buffer.add_string b s

let terms t iter x =
  iter
    (fun slot v ->
      if v <> 0 then begin
        int t slot;
        int t v
      end)
    x
