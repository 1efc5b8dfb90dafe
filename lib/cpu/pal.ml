(* The slot array is never written in place: [install] replaces it, so
   copies share it freely. *)
type t = { mutable slots : Isa.instr array option array }

let max_instructions = 16
let num_slots = 32

let create () = { slots = Array.make num_slots None }

let copy t = { slots = t.slots }

let check_instr len i =
  match i with
  | Isa.Syscall -> Error "PAL body may not contain Syscall"
  | Isa.Call_pal _ -> Error "PAL body may not contain Call_pal"
  | Isa.Halt -> Error "PAL body may not contain Halt"
  | Isa.Beq (_, _, tgt) | Isa.Bne (_, _, tgt) | Isa.Blt (_, _, tgt) | Isa.Jmp tgt ->
    if tgt < 0 || tgt > len then Error "PAL branch target outside body" else Ok ()
  | Isa.Li _ | Isa.Mov _ | Isa.Add _ | Isa.Sub _ | Isa.And_ _ | Isa.Or_ _ | Isa.Xor _
  | Isa.Shl _ | Isa.Shr _ | Isa.Load _ | Isa.Store _ | Isa.Mb | Isa.Nop ->
    Ok ()

let install t ~index body =
  if index < 0 || index >= num_slots then Error (Printf.sprintf "PAL index %d out of range" index)
  else if Array.length body > max_instructions then
    Error
      (Printf.sprintf "PAL body of %d instructions exceeds the %d-instruction limit"
         (Array.length body) max_instructions)
  else
    let len = Array.length body in
    let rec check i =
      if i >= len then Ok ()
      else
        match check_instr len body.(i) with Ok () -> check (i + 1) | Error _ as e -> e
    in
    match check 0 with
    | Ok () ->
      let slots = Array.copy t.slots in
      slots.(index) <- Some (Array.copy body);
      t.slots <- slots;
      Ok ()
    | Error _ as e -> e

let get t index =
  if index < 0 || index >= num_slots then None else t.slots.(index)

let invoke t ~index ~sink ~machine ~pid ~now ~run =
  match get t index with
  | None -> None
  | Some body ->
    if Uldma_obs.Trace.enabled sink then
      Uldma_obs.Trace.emit sink ~at:(now ()) ~machine ~pid (Uldma_obs.Trace.Pal_enter { index });
    let result = run body in
    if Uldma_obs.Trace.enabled sink then
      Uldma_obs.Trace.emit sink ~at:(now ()) ~machine ~pid (Uldma_obs.Trace.Pal_exit { index });
    Some result

let installed t =
  let acc = ref [] in
  Array.iteri (fun i s -> if s <> None then acc := i :: !acc) t.slots;
  List.rev !acc
