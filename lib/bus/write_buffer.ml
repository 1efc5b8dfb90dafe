type mode = Ordered | Bypass of { forward : bool; collapse : bool }

type event = Collapsed of { paddr : int } | Drained of { count : int }

type t = {
  mode : mode;
  capacity : int;
  mutable queue : (int * int) list; (* oldest first *)
  mutable observer : (event -> unit) option;
  dg : int array; (* the machine's digest cell *)
}

let create ?(capacity = 4) ~dg mode =
  if capacity < 1 then invalid_arg "Write_buffer.create: capacity < 1";
  { mode; capacity; queue = []; observer = None; dg }

(* The queue's terms, in slot domain 6: the sequence of its entries'
   paddrs and values, oldest first. The queue holds at most [capacity]
   entries; a change re-sums it in the machine's digest cell. *)
let queue_base = Uldma_util.Fp128.domain 6
let queue_words queue = List.concat_map (fun (paddr, value) -> [ paddr; value ]) queue
let iter_terms f t = Uldma_util.Fp128.iter_seq queue_base f (queue_words t.queue)

let set_queue t q =
  Uldma_util.Fp128.replace_seq t.dg 0 queue_base (queue_words t.queue) (queue_words q);
  t.queue <- q

let copy t ~dg = { t with observer = None; dg }

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
    set_queue t [];
    notify t (Drained { count = emit_all emit m 0 queue })

let store t ~emit m ~paddr ~value =
  match t.mode with
  | Ordered -> emit m ~paddr ~value
  | Bypass { collapse; _ } ->
    let collapsed =
      collapse && List.exists (fun (p, _) -> p = paddr) t.queue
    in
    if collapsed then begin
      set_queue t (List.map (fun (p, v) -> if p = paddr then (p, value) else (p, v)) t.queue);
      notify t (Collapsed { paddr })
    end
    else begin
      set_queue t (t.queue @ [ (paddr, value) ]);
      if List.length t.queue > t.capacity then
        match t.queue with
        | (p, v) :: rest ->
          set_queue t rest;
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
