open Uldma_mem

exception Bus_error of int

type 'd device = {
  claims : int -> bool;
  handle : 'd -> Txn.op -> paddr:int -> value:int -> pid:int -> int;
}

(* Per-pid uncached-access counters, indexed by [pid + 1] so the
   kernel's pid -1 lands in slot 0. Maintained unconditionally (cheap),
   unlike the sink's events which are recorded only while it is enabled. *)
type 'd t = {
  clock : Clock.t;
  timing : Timing.t;
  ram : Phys_mem.t;
  state : 'd; (* passed to every device handler *)
  mutable devices : 'd device array; (* registration order; never written in place *)
  mutable busy_ps : int; (* cumulative uncached-crossing time *)
  mutable counts : int array; (* counts.(pid + 1) = uncached accesses *)
  mutable sink : Uldma_obs.Trace.t;
  mutable machine : int;
}

let create ~clock ~timing ~ram state =
  {
    clock;
    timing;
    ram;
    state;
    devices = [||];
    busy_ps = 0;
    counts = Array.make 8 0;
    sink = Uldma_obs.Trace.null;
    machine = 0;
  }

let clock t = t.clock
let set_sink t ~machine sink =
  t.sink <- sink;
  t.machine <- machine
let timing t = t.timing
let ram t = t.ram

let register_device t d = t.devices <- Array.append t.devices [| d |]

(* The index of the first device claiming [paddr]; -1 when none does. *)
let find_device t paddr =
  let n = Array.length t.devices in
  let rec probe i =
    if i >= n then -1 else if (Array.unsafe_get t.devices i).claims paddr then i else probe (i + 1)
  in
  probe 0

let bump_count t pid =
  let slot = pid + 1 in
  if slot >= Array.length t.counts then begin
    let fresh = Array.make (max (slot + 1) (2 * Array.length t.counts)) 0 in
    Array.blit t.counts 0 fresh 0 (Array.length t.counts);
    t.counts <- fresh
  end;
  t.counts.(slot) <- t.counts.(slot) + 1

let pid_access_count t pid =
  let slot = pid + 1 in
  if slot < 0 || slot >= Array.length t.counts then 0 else t.counts.(slot)

let uncached_access t ~pid op paddr value =
  let price =
    match op with
    | Txn.Store -> t.timing.Timing.uncached_store_ps
    | Txn.Load -> t.timing.Timing.uncached_load_ps
  in
  t.busy_ps <- t.busy_ps + price;
  Clock.advance t.clock price;
  bump_count t pid;
  if Uldma_obs.Trace.enabled t.sink then
    Uldma_obs.Trace.emit t.sink ~at:(Clock.now t.clock) ~machine:t.machine ~pid
      (Uldma_obs.Trace.Uncached_access
         { op = (match op with Txn.Load -> `Load | Txn.Store -> `Store); paddr; value });
  let d = find_device t paddr in
  if d >= 0 then t.devices.(d).handle t.state op ~paddr ~value ~pid
  else if paddr >= 0 && paddr + Layout.word_size <= Phys_mem.size t.ram then begin
    match op with
    | Txn.Load -> Phys_mem.load_word t.ram paddr
    | Txn.Store ->
      Phys_mem.store_word t.ram paddr value;
      0
  end
  else raise (Bus_error paddr)

let load t ~pid ~cacheable paddr =
  if cacheable then begin
    Clock.advance t.clock t.timing.Timing.cached_access_ps;
    if paddr >= 0 && paddr + Layout.word_size <= Phys_mem.size t.ram then
      Phys_mem.load_word t.ram paddr
    else raise (Bus_error paddr)
  end
  else uncached_access t ~pid Txn.Load paddr 0

let store t ~pid ~cacheable paddr value =
  if cacheable then begin
    Clock.advance t.clock t.timing.Timing.cached_access_ps;
    if paddr >= 0 && paddr + Layout.word_size <= Phys_mem.size t.ram then
      Phys_mem.store_word t.ram paddr value
    else raise (Bus_error paddr)
  end
  else ignore (uncached_access t ~pid Txn.Store paddr value)

let busy_ps t = t.busy_ps

let copy t ~ram ~clock state =
  {
    clock;
    timing = t.timing;
    ram;
    state;
    devices = t.devices;
    busy_ps = t.busy_ps;
    counts = Array.copy t.counts;
    sink = t.sink;
    machine = t.machine;
  }
