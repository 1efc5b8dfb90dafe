type t = { counters : (string, int ref) Hashtbl.t }

let create () = { counters = Hashtbl.create 32 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let incr t name = Stdlib.incr (counter t name)
let add t name n = counter t name := !(counter t name) + n
let value t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counter_names t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.counters [])

let merge_into ~dst src = Hashtbl.iter (fun name r -> add dst name !r) src.counters
let rows t = List.map (fun name -> (name, string_of_int (value t name))) (counter_names t)
