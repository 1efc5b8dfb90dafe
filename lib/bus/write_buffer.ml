type mode = Ordered | Bypass of { forward : bool; collapse : bool }

type event = Collapsed of { paddr : int } | Drained of { count : int }

type t = {
  mode : mode;
  capacity : int;
  mutable queue : (int * int) list; (* oldest first *)
  mutable observer : (event -> unit) option;
}

let create ?(capacity = 4) mode =
  if capacity < 1 then invalid_arg "Write_buffer.create: capacity < 1";
  { mode; capacity; queue = []; observer = None }

let copy t = { t with queue = t.queue; observer = None }

let set_observer t f = t.observer <- Some f

let notify t ev = match t.observer with Some f -> f ev | None -> ()

let mode t = t.mode

let pending t = t.queue

let rec emit_all emit m n = function
  | [] -> n
  | (paddr, value) :: rest ->
    emit m ~paddr ~value;
    emit_all emit m (n + 1) rest

let drain_all t emit m =
  match t.queue with
  | [] -> ()
  | queue ->
    t.queue <- [];
    notify t (Drained { count = emit_all emit m 0 queue })

let store t ~emit m ~paddr ~value =
  match t.mode with
  | Ordered -> emit m ~paddr ~value
  | Bypass { collapse; _ } ->
    let collapsed =
      collapse && List.exists (fun (p, _) -> p = paddr) t.queue
    in
    if collapsed then begin
      t.queue <- List.map (fun (p, v) -> if p = paddr then (p, value) else (p, v)) t.queue;
      notify t (Collapsed { paddr })
    end
    else begin
      t.queue <- t.queue @ [ (paddr, value) ];
      if List.length t.queue > t.capacity then
        match t.queue with
        | (p, v) :: rest ->
          t.queue <- rest;
          emit m ~paddr:p ~value:v
        | [] -> ()
    end

let load t ~paddr =
  match t.mode with
  | Ordered -> `To_bus
  | Bypass { forward; _ } ->
    if not forward then `To_bus
    else begin
      (* most recent buffered store to this address wins *)
      let hit =
        List.fold_left
          (fun acc (p, v) -> if p = paddr then Some v else acc)
          None t.queue
      in
      match hit with Some v -> `Forwarded v | None -> `To_bus
    end

let barrier t ~emit m = drain_all t emit m

let flush t ~emit m = drain_all t emit m
