open Uldma_util
open Uldma_mem
open Uldma_mmu
open Uldma_bus
open Uldma_cpu
open Uldma_dma

type backend_spec =
  | Null
  | Local of { bytes_per_s : float }
  | Timed of { label : string; duration_of_bytes : int -> int }

type config = {
  timing : Timing.t;
  ram_size : int;
  mechanism : Engine.mechanism;
  n_contexts : int;
  backend : backend_spec;
  write_buffer : Write_buffer.mode;
  sched : Sched.policy;
  seed : int;
  disk : Uldma_io.Disk.geometry option;
}

let default_config =
  {
    timing = Timing.alpha3000_300;
    ram_size = 4 * 1024 * 1024;
    mechanism = Engine.Ext_shadow;
    n_contexts = 4;
    backend = Null;
    write_buffer = Write_buffer.Ordered;
    sched = Sched.Run_to_completion;
    seed = 42;
    disk = None;
  }

type hook = Shrimp_invalidate | Flash_inform

type t = {
  config : config;
  clock : Clock.t;
  ram : Phys_mem.t;
  bus : Engine.t Bus.t; (* its device state is [engine] *)
  engine : Engine.t;
  write_buffer : Write_buffer.t;
  mutable sched : Sched.t;
  vm : Vm.t;
  pal : Pal.t;
  rng : Rng.t;
  mutable procs : Process.t list; (* ascending pid *)
  mutable next_pid : int;
  mutable current : Process.t option; (* the running process, one of [procs] *)
  mutable force_switch : bool;
  mutable hooks : hook list;
  mutable console : (int * int) list; (* newest first *)
  mutable context_switches : int;
  mutable contexts_free : int list;
  disk : Uldma_io.Disk.t option;
  mutable trace : Uldma_obs.Trace.t;
  mutable machine : int;
}

let kernel_pid = -1

let build_backend spec ram =
  match spec with
  | Null -> Transfer.null_backend
  | Local { bytes_per_s } -> Transfer.local_backend ram ~setup_ps:(Units.ns 400.0) ~bytes_per_s
  | Timed { duration_of_bytes; _ } ->
    (* Null's no-data-movement semantics (Table 1 methodology), but
       with a real wire time: status loads taken before the deadline
       see bytes remaining, and sys_dma_wait genuinely blocks. The
       closure is pure in RAM so sharing it across kernel copies is
       fine. *)
    { Transfer.null_backend with Transfer.duration_ps = duration_of_bytes }

(* The machine emits trace events on behalf of whichever process is
   running; [kernel_pid] when none is. *)
let trace_pid t = match t.current with Some p -> p.Process.pid | None -> kernel_pid

(* A caller that builds its payload first tests [Trace.enabled]
   itself, so a disabled probe costs one load-and-branch. *)
let emit t kind =
  if Uldma_obs.Trace.enabled t.trace then
    Uldma_obs.Trace.emit t.trace ~at:(Clock.now t.clock) ~machine:t.machine ~pid:(trace_pid t) kind

let install_wbuf_observer t =
  Write_buffer.set_observer t.write_buffer (fun ev ->
      if Uldma_obs.Trace.enabled t.trace then
        emit t
          (match ev with
          | Write_buffer.Collapsed { paddr } -> Uldma_obs.Trace.Wbuf_collapse { paddr }
          | Write_buffer.Drained { count } -> Uldma_obs.Trace.Wbuf_flush { drained = count }))

let set_trace t sink =
  let machine = Uldma_obs.Trace.register_machine sink in
  t.trace <- sink;
  t.machine <- machine;
  Bus.set_sink t.bus ~machine sink;
  Engine.set_sink t.engine ~machine sink;
  install_wbuf_observer t

let trace t = t.trace
let machine_id t = t.machine

let create config =
  let clock = Clock.create () in
  let ram = Phys_mem.create ~size:config.ram_size in
  let backend = build_backend config.backend ram in
  let engine =
    Engine.create ~clock ~backend ~ram_size:config.ram_size ~mechanism:config.mechanism
      ~n_contexts:config.n_contexts
      ~iotlb_walk_ps:(Timing.iotlb_walk_ps config.timing) ()
  in
  let bus = Bus.create ~clock ~timing:config.timing ~ram engine in
  Bus.register_device bus Engine.device;
  let rec range i n = if i >= n then [] else i :: range (i + 1) n in
  let t =
    {
      config;
      clock;
      ram;
      bus;
      engine;
      write_buffer = Write_buffer.create config.write_buffer;
      sched = Sched.create config.sched;
      vm = Vm.create ~ram_size:config.ram_size;
      pal = Pal.create ();
      rng = Rng.create ~seed:config.seed;
      procs = [];
      next_pid = 1;
      current = None;
      force_switch = false;
      hooks = [];
      console = [];
      context_switches = 0;
      contexts_free = range 0 config.n_contexts;
      disk = Option.map Uldma_io.Disk.create config.disk;
      trace = Uldma_obs.Trace.null;
      machine = 0;
    }
  in
  (* pick up the process-global ambient sink so that kernels built deep
     inside experiment harnesses are traced without parameter threading;
     on the (disabled) null sink this is all free *)
  set_trace t (Uldma_obs.Trace.ambient ());
  t

(* The process with [pid]; raises [Not_found]. A direct walk, so the
   per-instruction callers allocate no closure and no option. *)
let rec process_of_pid pid = function
  | [] -> raise Not_found
  | (p : Process.t) :: rest -> if p.Process.pid = pid then p else process_of_pid pid rest

(* Snapshot for explorer forks: a fully independent kernel whose
   construction cost is proportional to the live bookkeeping, not to
   RAM size or table capacity. What the next leg rarely writes is
   shared, not copied: RAM copy-on-write by 512 B chunk (Phys_mem.copy
   is O(#pages)); page tables as persistent maps inside Process.copy;
   the per-process TLBs and the engine's IOTLB copy-on-write (both
   sides flagged, since the explorer goes on writing the parent); the
   PAL table, which [Pal.install] replaces rather than writes. The bus
   carries its timing model, its devices and per-pid access counters. *)
let copy t =
  let clock = Clock.copy t.clock in
  let ram = Phys_mem.copy t.ram in
  let backend = build_backend t.config.backend ram in
  let engine = Engine.copy t.engine ~clock ~backend in
  let bus = Bus.copy t.bus ~ram ~clock engine in
  let procs = List.map Process.copy t.procs in
  let fork =
    {
      t with
      clock;
      ram;
      bus;
      engine;
      write_buffer = Write_buffer.copy t.write_buffer;
      sched = Sched.copy t.sched;
      vm = Vm.copy t.vm;
      pal = Pal.copy t.pal;
      rng = Rng.copy t.rng;
      procs;
      current =
        (match t.current with Some p -> Some (process_of_pid p.Process.pid procs) | None -> None);
      disk = Option.map Uldma_io.Disk.copy t.disk;
    }
  in
  (* forks share the parent's sink and machine id (the copied bus and
     engine already carry them); the write-buffer observer must capture
     the fork, not the parent *)
  install_wbuf_observer fork;
  (* the engine was copied before the processes, so its IOMMU bindings
     still point at the parent's page tables — re-bind each context to
     the freshly copied process's table *)
  (match t.config.mechanism with
  | Engine.Iommu ->
    List.iter
      (fun (p : Process.t) ->
        match p.Process.dma_context with
        | Some context ->
          Engine.iommu_bind fork.engine ~context
            ~table:(Addr_space.page_table p.Process.addr_space)
        | None -> ())
      fork.procs
  | _ -> ());
  fork

let snapshot = copy

(* ------------------------------------------------------------------ *)
(* Accessors *)

let config t = t.config
let clock t = t.clock
let now_ps t = Clock.now t.clock
let bus t = t.bus
let engine t = t.engine
let timing t = Bus.timing t.bus
let ram t = t.ram
let processes t = t.procs

let find_process t pid = try Some (process_of_pid pid t.procs) with Not_found -> None

(* The pids of the runnable processes other than [except], in process
   order. A direct walk, so a step allocates no closure. *)
let rec runnable_except except = function
  | [] -> []
  | (p : Process.t) :: rest ->
    if Process.is_runnable p && p.Process.pid <> except then
      p.Process.pid :: runnable_except except rest
    else runnable_except except rest

(* no process has the kernel's pid *)
let runnable_pids t = runnable_except kernel_pid t.procs

let running t = match t.current with Some p -> Some p.Process.pid | None -> None
let console t = List.rev t.console
let context_switches t = t.context_switches

let set_sched_policy t policy = t.sched <- Sched.create policy

let charge t ps = Clock.advance t.clock ps

(* privileged uncached access, charged bus time, issued as the kernel *)
let kstore t paddr value = Bus.store t.bus ~pid:kernel_pid ~cacheable:false paddr value

(* ------------------------------------------------------------------ *)
(* Setup services *)

let spawn t ~name ~program ?(superuser = false) () =
  let p = Process.make ~pid:t.next_pid ~name ~program ~superuser in
  t.next_pid <- t.next_pid + 1;
  t.procs <- t.procs @ [ p ];
  p

let alloc_pages t (p : Process.t) ~n ~perms =
  if n <= 0 then invalid_arg "Kernel.alloc_pages: n <= 0";
  let base = p.Process.next_va in
  if base + (n * Layout.page_size) > Vm.shadow_va_offset then
    failwith "Kernel.alloc_pages: user data region exhausted";
  for i = 0 to n - 1 do
    match Vm.alloc_frame t.vm with
    | None -> failwith "Kernel.alloc_pages: out of physical frames"
    | Some frame ->
      Phys_mem.fill t.ram ~addr:(frame * Layout.page_size) ~len:Layout.page_size ~byte:0;
      Addr_space.map_page p.Process.addr_space
        ~vpage:(Layout.page_of (base + (i * Layout.page_size)))
        (Pte.make ~frame ~perms ())
  done;
  p.Process.next_va <- base + (n * Layout.page_size);
  base

let share_pages t ~from_process ~vaddr ~n ~into ~perms =
  ignore t;
  let base = into.Process.next_va in
  for i = 0 to n - 1 do
    let src_page = Layout.page_of (vaddr + (i * Layout.page_size)) in
    match Addr_space.find_page from_process.Process.addr_space ~vpage:src_page with
    | None -> failwith "Kernel.share_pages: source page unmapped"
    | Some pte ->
      Addr_space.map_page into.Process.addr_space
        ~vpage:(Layout.page_of (base + (i * Layout.page_size)))
        (Pte.make ~frame:pte.Pte.frame ~perms ())
  done;
  into.Process.next_va <- base + (n * Layout.page_size);
  base

let map_remote_pages t (p : Process.t) ~remote_paddr ~n ~perms =
  ignore t;
  if not (Layout.is_page_aligned remote_paddr) || n <= 0 then
    invalid_arg "Kernel.map_remote_pages: unaligned or empty";
  if not (Layout.in_remote (Layout.remote_base + remote_paddr)) then
    invalid_arg "Kernel.map_remote_pages: peer address outside the remote window";
  let base = p.Process.next_va in
  for i = 0 to n - 1 do
    let frame = (Layout.remote_base + remote_paddr + (i * Layout.page_size)) lsr Layout.page_shift in
    Addr_space.map_page p.Process.addr_space
      ~vpage:(Layout.page_of (base + (i * Layout.page_size)))
      (Pte.make ~cacheable:false ~frame ~perms ())
  done;
  p.Process.next_va <- base + (n * Layout.page_size);
  base

let shadow_context t (p : Process.t) =
  match (t.config.mechanism, p.Process.dma_context) with
  | (Engine.Ext_shadow | Engine.Ext_shadow_stateless), Some context -> context
  | (Engine.Ext_shadow | Engine.Ext_shadow_stateless), None ->
    failwith "Kernel.map_shadow_alias: extended shadow addressing requires an allocated DMA context"
  | _, _ -> 0

let map_shadow_alias t (p : Process.t) ~vaddr ~n ~window =
  let context = shadow_context t p in
  let va_offset =
    match window with `Dma -> Vm.shadow_va_offset | `Atomic -> Vm.atomic_va_offset
  in
  for i = 0 to n - 1 do
    let va = vaddr + (i * Layout.page_size) in
    match Addr_space.find_page p.Process.addr_space ~vpage:(Layout.page_of va) with
    | None -> failwith "Kernel.map_shadow_alias: data page unmapped"
    | Some pte ->
      let paddr = pte.Pte.frame lsl Layout.page_shift in
      let shadow_paddr =
        match window with
        | `Dma -> Shadow.encode_ctx ~context paddr
        | `Atomic -> Shadow.encode_atomic ~context paddr
      in
      Addr_space.map_page p.Process.addr_space
        ~vpage:(Layout.page_of (va + va_offset))
        (Pte.make ~cacheable:false ~frame:(shadow_paddr lsr Layout.page_shift)
           ~perms:pte.Pte.perms ())
  done;
  vaddr + va_offset

let alloc_dma_context t (p : Process.t) =
  match t.contexts_free with
  | [] -> None
  | context :: rest ->
    t.contexts_free <- rest;
    let key = Rng.dma_key t.rng in
    kstore t (Layout.kernel_control_page + Regmap.key_offset ~context) key;
    Engine.set_context_owner t.engine ~context ~pid:(Some p.Process.pid);
    let frame = Layout.context_page context lsr Layout.page_shift in
    Addr_space.map_page p.Process.addr_space
      ~vpage:(Layout.page_of Vm.context_page_va)
      (Pte.make ~cacheable:false ~frame ~perms:Perms.read_write ());
    (match t.config.mechanism with
    | Engine.Iommu ->
      Engine.iommu_bind t.engine ~context ~table:(Addr_space.page_table p.Process.addr_space)
    | _ -> ());
    Process.set_dma p ~context:(Some context) ~key:(Some key);
    Some (context, key, Vm.context_page_va)

let set_atomic_mailbox t (p : Process.t) ~vaddr =
  match p.Process.dma_context with
  | None -> invalid_arg "Kernel.set_atomic_mailbox: process has no DMA context"
  | Some context ->
    if not (Layout.is_word_aligned vaddr) then
      invalid_arg "Kernel.set_atomic_mailbox: unaligned mailbox";
    if
      not
        (Addr_space.check_range p.Process.addr_space ~vaddr ~len:Layout.word_size
           ~perms:Perms.read_write)
    then invalid_arg "Kernel.set_atomic_mailbox: mailbox not writable by the process";
    (match Addr_space.peek_paddr p.Process.addr_space vaddr with
    | Some paddr -> kstore t (Layout.kernel_control_page + Regmap.mailbox_offset ~context) paddr
    | None -> invalid_arg "Kernel.set_atomic_mailbox: mailbox unmapped")

let free_dma_context t (p : Process.t) =
  match p.Process.dma_context with
  | None -> ()
  | Some context ->
    t.contexts_free <- context :: t.contexts_free;
    (* rotate the key immediately: the engine wipes the context's
       argument state and any copy of the old key becomes worthless
       (under CAPIO the rotation also revokes the context's
       capabilities engine-side) *)
    kstore t (Layout.kernel_control_page + Regmap.key_offset ~context) (Rng.dma_key t.rng);
    (match t.config.mechanism with
    | Engine.Iommu ->
      Engine.iommu_unbind t.engine ~context;
      kstore t (Layout.kernel_control_page + Regmap.k_iotlb_invalidate) (-1)
    | _ -> ());
    Engine.set_context_owner t.engine ~context ~pid:None;
    Addr_space.unmap_page p.Process.addr_space ~vpage:(Layout.page_of Vm.context_page_va);
    Process.set_dma p ~context:None ~key:None

(* CAPIO: mint an unforgeable capability over [len] bytes at [vaddr]
   and install it in the engine through the control page (value, base,
   length, then a commit word carrying context | rights | owning pid).
   The engine fires from one physical base, so the region must be
   physically contiguous page by page — discontiguous ranges are
   refused rather than silently covering the wrong frames. *)
let grant_dma_cap t (p : Process.t) ~vaddr ~len ~rights =
  match p.Process.dma_context with
  | None -> None
  | Some context ->
    if len <= 0 then None
    else if not (Addr_space.check_range p.Process.addr_space ~vaddr ~len ~perms:rights) then None
    else (
      match Addr_space.peek_paddr p.Process.addr_space vaddr with
      | None -> None
      | Some base ->
        let contiguous = ref true in
        let first_page = Layout.page_of vaddr and last_page = Layout.page_of (vaddr + len - 1) in
        for vpage = first_page + 1 to last_page do
          let va = vpage lsl Layout.page_shift in
          match Addr_space.peek_paddr p.Process.addr_space va with
          | Some paddr when paddr = base + (va - vaddr) -> ()
          | Some _ | None -> contiguous := false
        done;
        if not !contiguous then None
        else begin
          let value = Rng.dma_key t.rng in
          kstore t (Layout.kernel_control_page + Regmap.k_cap_value) value;
          kstore t (Layout.kernel_control_page + Regmap.k_cap_base) base;
          kstore t (Layout.kernel_control_page + Regmap.k_cap_len) len;
          let meta =
            context
            lor (if rights.Perms.read then 0x100 else 0)
            lor (if rights.Perms.write then 0x200 else 0)
            lor (p.Process.pid lsl 16)
          in
          kstore t (Layout.kernel_control_page + Regmap.k_cap_commit) meta;
          Some value
        end)

(* Tear down [n] pages of a process mapping with the DMA-protection
   shootdowns each mechanism needs: IOMMU translations die in the IOTLB
   (a charged control-page store per page), CAPIO capabilities over the
   freed frames are revoked, and only then does the PTE go away. *)
let unmap_pages t (p : Process.t) ~vaddr ~n =
  for i = 0 to n - 1 do
    let va = vaddr + (i * Layout.page_size) in
    let vpage = Layout.page_of va in
    (match t.config.mechanism with
    | Engine.Iommu -> kstore t (Layout.kernel_control_page + Regmap.k_iotlb_invalidate) vpage
    | Engine.Capio -> (
      match Addr_space.find_page p.Process.addr_space ~vpage with
      | Some pte ->
        Engine.revoke_caps_range t.engine ~base:(pte.Pte.frame lsl Layout.page_shift)
          ~len:Layout.page_size
      | None -> ())
    | _ -> ());
    Addr_space.unmap_page p.Process.addr_space ~vpage
  done

let install_pal t ~index body = Pal.install t.pal ~index body

let map_out_page t (p : Process.t) ~vaddr ~dst_paddr =
  match Addr_space.find_page p.Process.addr_space ~vpage:(Layout.page_of vaddr) with
  | None -> failwith "Kernel.map_out_page: source page unmapped"
  | Some pte ->
    kstore t (Layout.kernel_control_page + Regmap.k_map_out_src) (pte.Pte.frame lsl Layout.page_shift);
    kstore t (Layout.kernel_control_page + Regmap.k_map_out_dst) dst_paddr

let install_shrimp_hook t = if not (List.mem Shrimp_invalidate t.hooks) then t.hooks <- Shrimp_invalidate :: t.hooks
let install_flash_hook t = if not (List.mem Flash_inform t.hooks) then t.hooks <- Flash_inform :: t.hooks
let kernel_modified t = t.hooks <> []

(* ------------------------------------------------------------------ *)
(* Execution *)

(* Buffered stores drain as the running process (the kernel when none
   is): a store is always drained before the process that issued it
   stops running, at a trap, an exit or a switch. *)
let wbuf_emit t ~paddr ~value = Bus.store t.bus ~pid:(trace_pid t) ~cacheable:false paddr value

let flush_write_buffer t = Write_buffer.flush t.write_buffer ~emit:wbuf_emit t

(* A direct walk, so a switch builds no closure. *)
let rec run_hooks t (next : Process.t) = function
  | [] -> ()
  | hook :: rest ->
    (match hook with
    | Shrimp_invalidate -> kstore t (Layout.kernel_control_page + Regmap.k_invalidate) 0
    | Flash_inform -> kstore t (Layout.kernel_control_page + Regmap.k_current_pid) next.Process.pid);
    run_hooks t next rest

let context_switch t (next : Process.t) =
  let prev_pid = trace_pid t in
  charge t t.config.timing.Timing.context_switch_ps;
  flush_write_buffer t;
  Addr_space.flush_tlb next.Process.addr_space;
  run_hooks t next t.hooks;
  (* the IOTLB is untagged, so a switch must flush it — part of the
     IOMMU mechanism's (kernel-modifying) context-switch cost *)
  (match t.config.mechanism with
  | Engine.Iommu -> kstore t (Layout.kernel_control_page + Regmap.k_iotlb_invalidate) (-1)
  | _ -> ());
  Sched.note_switch t.sched;
  t.context_switches <- t.context_switches + 1;
  t.current <- Some next;
  if Uldma_obs.Trace.enabled t.trace then
    emit t (Uldma_obs.Trace.Ctx_switch { from_pid = prev_pid; to_pid = next.Process.pid })

(* The CPU's view of the machine, on behalf of the running process:
   one static record of functions of the kernel, so neither an
   instruction nor an access builds a closure. A data access is one
   call: translate for the running process, charge a TLB miss, then
   serve it from cached RAM, the write buffer or the bus. *)
let running_space t =
  match t.current with
  | Some p -> p.Process.addr_space
  | None -> invalid_arg "Kernel: no running process"

(* The translation word of a data access at [vaddr], charging a TLB
   miss; a fault leaves through [Cpu.Access_fault], charging nothing. *)
let translate t access vaddr =
  let w = Addr_space.translate_word (running_space t) access vaddr in
  if w < 0 then raise_notrace (Cpu.Access_fault w);
  if Addr_space.word_missed w then charge t t.config.timing.Timing.tlb_miss_ps;
  w

let host : t Cpu.host =
  {
    Cpu.load =
      (fun t vaddr ->
        let w = translate t Addr_space.Read vaddr in
        let paddr = Addr_space.word_paddr w in
        if Addr_space.word_cacheable w then Bus.load t.bus ~pid:(trace_pid t) ~cacheable:true paddr
        else
          match Write_buffer.load t.write_buffer ~paddr with
          | `Forwarded v ->
            charge t t.config.timing.Timing.cached_access_ps;
            v
          | `To_bus -> Bus.load t.bus ~pid:(trace_pid t) ~cacheable:false paddr);
    store =
      (fun t vaddr value ->
        let w = translate t Addr_space.Write vaddr in
        let paddr = Addr_space.word_paddr w in
        if Addr_space.word_cacheable w then
          Bus.store t.bus ~pid:(trace_pid t) ~cacheable:true paddr value
        else Write_buffer.store t.write_buffer ~emit:wbuf_emit t ~paddr ~value);
    barrier =
      (fun t ->
        charge t t.config.timing.Timing.memory_barrier_ps;
        Write_buffer.barrier t.write_buffer ~emit:wbuf_emit t);
  }

let regs (p : Process.t) = p.Process.ctx.Cpu.regs
let reg p i = Regfile.get (regs p) i
let set_reg p i v = Regfile.set (regs p) i v

let control_reg offset = Layout.kernel_control_page + offset

let sys_dma_impl t (p : Process.t) =
  let tm = timing t in
  let vsrc = reg p 1 and vdst = reg p 2 and size = reg p 3 in
  charge t (2 * Timing.translate_ps tm);
  charge t (Timing.check_size_ps tm);
  let space = p.Process.addr_space in
  let ok =
    size > 0
    && Addr_space.check_range space ~vaddr:vsrc ~len:size ~perms:Perms.read_only
    && Addr_space.check_range space ~vaddr:vdst ~len:size ~perms:Perms.write_only
  in
  if not ok then set_reg p 0 Status.failure
  else
    match (Addr_space.peek_paddr space vsrc, Addr_space.peek_paddr space vdst) with
    | Some psrc, Some pdst ->
      (* Fig. 1: three stores then a status load, all uninterrupted in
         kernel mode. *)
      Bus.store t.bus ~pid:p.Process.pid ~cacheable:false (control_reg Regmap.k_source) psrc;
      Bus.store t.bus ~pid:p.Process.pid ~cacheable:false (control_reg Regmap.k_dest) pdst;
      Bus.store t.bus ~pid:p.Process.pid ~cacheable:false (control_reg Regmap.k_size) size;
      set_reg p 0 (Bus.load t.bus ~pid:p.Process.pid ~cacheable:false (control_reg Regmap.k_status))
    | None, _ | _, None -> set_reg p 0 Status.failure

let sys_atomic_impl t (p : Process.t) =
  let tm = timing t in
  let vtarget = reg p 1 and op = reg p 2 and arg1 = reg p 3 and arg2 = reg p 4 in
  charge t (Timing.translate_ps tm);
  charge t (Timing.check_size_ps tm);
  let space = p.Process.addr_space in
  let ok =
    Addr_space.check_range space ~vaddr:vtarget ~len:Layout.word_size ~perms:Perms.read_write
  in
  match (ok, Addr_space.peek_paddr space vtarget) with
  | true, Some ptarget ->
    let pid = p.Process.pid in
    Bus.store t.bus ~pid ~cacheable:false (control_reg Regmap.k_atomic_target) ptarget;
    if op = Sysno.atomic_add then
      Bus.store t.bus ~pid ~cacheable:false (control_reg Regmap.k_atomic_op)
        (Atomic_op.encode_add arg1)
    else if op = Sysno.atomic_fetch_store then
      Bus.store t.bus ~pid ~cacheable:false (control_reg Regmap.k_atomic_op)
        (Atomic_op.encode_fetch_store arg1)
    else if op = Sysno.atomic_cas then begin
      Bus.store t.bus ~pid ~cacheable:false (control_reg Regmap.k_atomic_op)
        (Atomic_op.encode_cas_expected arg1);
      Bus.store t.bus ~pid ~cacheable:false (control_reg Regmap.k_atomic_op)
        (Atomic_op.encode_cas_new arg2)
    end;
    if op = Sysno.atomic_add || op = Sysno.atomic_fetch_store || op = Sysno.atomic_cas then
      set_reg p 0 (Bus.load t.bus ~pid ~cacheable:false (control_reg Regmap.k_atomic_op))
    else set_reg p 0 Status.failure
  | false, _ | _, None -> set_reg p 0 Status.failure

let block_until t (p : Process.t) at = Process.set_state p (Process.Blocked_until (max at (now_ps t)))

(* Centralised teardown for every exit path (sys_exit, halt, fault, bad
   syscall, missing PAL function): under CAPIO each capability minted
   for the process dies with it, so a dead victim's capabilities cannot
   be replayed by an accomplice. *)
let kill_process t (p : Process.t) reason =
  (match t.config.mechanism with
  | Engine.Capio -> Engine.revoke_caps_pid t.engine ~pid:p.Process.pid
  | _ -> ());
  Process.kill p reason

let sys_dma_wait_impl t (p : Process.t) =
  let completion =
    match p.Process.dma_context with
    | Some context -> Engine.context_transfer_end t.engine context
    | None -> Engine.last_transfer_end t.engine
  in
  match completion with
  | Some at ->
    set_reg p 0 0;
    if at > now_ps t then block_until t p at
  | None -> set_reg p 0 (-1)

(* Disk DMA, the classic way: the kernel checks and translates, the
   controller moves a block while the process sleeps and others run. *)
let sys_disk_impl t (p : Process.t) ~write =
  let tm = timing t in
  charge t (Timing.translate_ps tm);
  charge t (Timing.check_size_ps tm);
  match t.disk with
  | None -> set_reg p 0 (-1)
  | Some disk ->
    let block = reg p 1 and vaddr = reg p 2 in
    let block_size = (Uldma_io.Disk.geometry disk).Uldma_io.Disk.block_size in
    let perms = if write then Perms.read_only else Perms.write_only in
    let ok = Addr_space.check_range p.Process.addr_space ~vaddr ~len:block_size ~perms in
    (match (ok, Addr_space.peek_paddr p.Process.addr_space vaddr) with
    | true, Some paddr ->
      let outcome =
        if write then begin
          let data = Bytes.create block_size in
          for i = 0 to block_size - 1 do
            Bytes.set data i (Char.chr (Phys_mem.load_byte t.ram (paddr + i)))
          done;
          Uldma_io.Disk.write_block disk ~block data
        end
        else
          match Uldma_io.Disk.read_block disk ~block with
          | Ok (data, time) ->
            for i = 0 to block_size - 1 do
              Phys_mem.store_byte t.ram (paddr + i) (Char.code (Bytes.get data i))
            done;
            Ok time
          | Error message -> Error message
      in
      (match outcome with
      | Ok service ->
        set_reg p 0 0;
        block_until t p (now_ps t + service)
      | Error _ -> set_reg p 0 (-1))
    | false, _ | _, None -> set_reg p 0 (-1))

let rec handle_syscall t (p : Process.t) =
  charge t (Timing.syscall_ps (timing t));
  flush_write_buffer t;
  p.Process.syscalls <- p.Process.syscalls + 1;
  let number = reg p 0 in
  if Uldma_obs.Trace.enabled t.trace then emit t (Uldma_obs.Trace.Syscall_enter { sysno = number });
  dispatch_syscall t p number;
  if Uldma_obs.Trace.enabled t.trace then emit t (Uldma_obs.Trace.Syscall_exit { sysno = number })

and sys_grant_dma_cap_impl t (p : Process.t) =
  let tm = timing t in
  let vaddr = reg p 1 and len = reg p 2 and bits = reg p 3 in
  charge t (Timing.translate_ps tm);
  charge t (Timing.check_size_ps tm);
  let rights =
    { Perms.read = bits land Sysno.cap_read <> 0; write = bits land Sysno.cap_write <> 0 }
  in
  if (not rights.Perms.read) && not rights.Perms.write then set_reg p 0 Status.failure
  else
    match grant_dma_cap t p ~vaddr ~len ~rights with
    | Some value -> set_reg p 0 value
    | None -> set_reg p 0 Status.failure

and dispatch_syscall t (p : Process.t) number =
  if number = Sysno.sys_exit then kill_process t p Process.Normal
  else if number = Sysno.sys_yield then t.force_switch <- true
  else if number = Sysno.sys_dma then sys_dma_impl t p
  else if number = Sysno.sys_atomic then sys_atomic_impl t p
  else if number = Sysno.sys_get_time then
    set_reg p 0 (now_ps t / Units.ps_per_ns)
  else if number = Sysno.sys_print then t.console <- (p.Process.pid, reg p 1) :: t.console
  else if number = Sysno.sys_disk_read then sys_disk_impl t p ~write:false
  else if number = Sysno.sys_disk_write then sys_disk_impl t p ~write:true
  else if number = Sysno.sys_sleep then
    block_until t p (now_ps t + (reg p 1 * Units.ps_per_ns))
  else if number = Sysno.sys_dma_wait then sys_dma_wait_impl t p
  else if number = Sysno.sys_grant_dma_cap then sys_grant_dma_cap_impl t p
  else if number = Sysno.sys_sbrk then begin
    let n = reg p 1 in
    match alloc_pages t p ~n ~perms:Perms.read_write with
    | va -> set_reg p 0 va
    | exception (Failure _ | Invalid_argument _) -> set_reg p 0 (-1)
  end
  else kill_process t p (Process.Killed (Printf.sprintf "bad syscall %d" number))

let handle_pal t (p : Process.t) index =
  charge t (Timing.pal_call_ps (timing t));
  (* PAL mode: the whole body executes with interrupts off. *)
  match
    Pal.invoke t.pal ~index ~sink:t.trace ~machine:t.machine ~pid:p.Process.pid
      ~now:(fun () -> now_ps t)
      ~run:(fun body ->
        Cpu.run_subprogram (regs p) body t.clock ~instr_ps:t.config.timing.Timing.instruction_ps
          host t)
  with
  | None -> kill_process t p (Process.Killed (Printf.sprintf "PAL function %d not installed" index))
  | Some Cpu.Halted -> ()
  | Some (Cpu.Fault f) ->
    flush_write_buffer t;
    kill_process t p (Process.Killed_fault f)
  | Some (Cpu.Continue | Cpu.Syscall_trap | Cpu.Pal_trap _) -> assert false

let mnemonic : Isa.instr -> string = function
  | Isa.Li _ -> "li"
  | Isa.Mov _ -> "mov"
  | Isa.Add _ -> "add"
  | Isa.Sub _ -> "sub"
  | Isa.And_ _ -> "and"
  | Isa.Or_ _ -> "or"
  | Isa.Xor _ -> "xor"
  | Isa.Shl _ -> "shl"
  | Isa.Shr _ -> "shr"
  | Isa.Load _ -> "load"
  | Isa.Store _ -> "store"
  | Isa.Mb -> "mb"
  | Isa.Beq _ -> "beq"
  | Isa.Bne _ -> "bne"
  | Isa.Blt _ -> "blt"
  | Isa.Jmp _ -> "jmp"
  | Isa.Syscall -> "syscall"
  | Isa.Call_pal _ -> "call_pal"
  | Isa.Nop -> "nop"
  | Isa.Halt -> "halt"

let exec_one t (p : Process.t) =
  let t0 = now_ps t in
  let fetched =
    (* sample the opcode before the step moves pc; only when tracing *)
    if Uldma_obs.Trace.enabled t.trace then begin
      let ctx = p.Process.ctx in
      if ctx.Cpu.pc >= 0 && ctx.Cpu.pc < Array.length ctx.Cpu.program then
        Some ctx.Cpu.program.(ctx.Cpu.pc)
      else None
    end
    else None
  in
  let outcome =
    Cpu.step p.Process.ctx t.clock ~instr_ps:t.config.timing.Timing.instruction_ps host t
  in
  p.Process.instructions_retired <- p.Process.instructions_retired + 1;
  (match fetched with
  | Some instr -> emit t (Uldma_obs.Trace.Instr_retired { opcode = mnemonic instr })
  | None -> ());
  (match outcome with
  | Cpu.Continue -> ()
  | Cpu.Halted ->
    flush_write_buffer t;
    kill_process t p Process.Normal
  | Cpu.Fault f ->
    flush_write_buffer t;
    kill_process t p (Process.Killed_fault f)
  | Cpu.Syscall_trap -> handle_syscall t p
  | Cpu.Pal_trap index -> handle_pal t p index);
  p.Process.cpu_time_ps <- p.Process.cpu_time_ps + (now_ps t - t0)

let rec wake_until now = function
  | [] -> ()
  | (p : Process.t) :: rest ->
    (match p.Process.state with
    | Process.Blocked_until at when at <= now -> Process.set_state p Process.Ready
    | Process.Blocked_until _ | Process.Ready | Process.Exited _ -> ());
    wake_until now rest

let wake_sleepers t = wake_until (now_ps t) t.procs

(* Next instant at which pure waiting changes an observable: the
   earliest in-flight transfer completion. Always None under the
   zero-duration Null backend. *)
let next_transfer_deadline t = Engine.next_transfer_deadline t.engine

(* Idle the machine forward to the next transfer completion. Explored
   as a scheduling leg of its own (Explorer.wait_leg): at NI-access
   granularity "let the wire drain" is a scheduling decision just like
   "run pid p next". Wakes sys_dma_wait sleepers whose deadline has
   now passed. *)
let advance_to_next_completion t =
  match next_transfer_deadline t with
  | Some at ->
    charge t (at - now_ps t);
    wake_sleepers t;
    true
  | None -> false

let soonest_wake t =
  List.fold_left
    (fun acc (p : Process.t) ->
      match p.Process.state with
      | Process.Blocked_until at -> (
        match acc with Some best -> Some (min best at) | None -> Some at)
      | Process.Ready | Process.Exited _ -> acc)
    None t.procs

let is_running t pid = match t.current with Some p -> p.Process.pid = pid | None -> false

(* Under [Run_to_completion], and under [Round_robin] before the quantum
   expires, a runnable running process runs again whatever else is
   runnable, so [step] asks the scheduler only that ([Sched.keeps_current])
   and lists no runnable pids. [Scripted] and [Random_preempt] consume
   their script or RNG on every pick, so they always take the list. *)
let rec step t =
  wake_sleepers t;
  match t.current with
  | Some p when (not t.force_switch) && Process.is_runnable p && Sched.keeps_current t.sched ->
    exec_one t p;
    `Stepped p.Process.pid
  | Some _ | None -> pick_and_step t

and pick_and_step t =
  let running = running t in
  let runnable =
    match running with
    | Some cur when t.force_switch -> (
      (* a forced switch passes over the running process unless it is
         the only runnable one *)
      match runnable_except cur t.procs with [] -> runnable_pids t | others -> others)
    | Some _ | None -> runnable_pids t
  in
  t.force_switch <- false;
  match Sched.pick t.sched ~current:running ~runnable with
  | None -> (
    (* nothing runnable: if someone is sleeping, idle the machine
       forward to the next wake time *)
    match soonest_wake t with
    | Some at ->
      charge t (at - now_ps t);
      step t
    | None -> `Idle)
  | Some pid -> (
    match process_of_pid pid t.procs with
    | exception Not_found -> `Idle
    | p ->
      if not (is_running t pid) then context_switch t p;
      exec_one t p;
      `Stepped pid)

let step_pid t pid =
  match process_of_pid pid t.procs with
  | p when Process.is_runnable p ->
    if not (is_running t pid) then context_switch t p;
    exec_one t p;
    `Ok
  | _ | (exception Not_found) -> `Not_runnable

(* The explorer's leg in one call: the process is found and switched to
   once, then runs instruction by instruction until its uncached-access
   count grows ([`Progress]), the budget is spent ([`Stuck]) or it stops
   being runnable ([`Exited]), tested in that order after each
   instruction. Nothing in [exec_one] changes the running process, so
   the result equals [step_pid] repeated under the same tests. The loop
   is a top-level function, so a leg allocates no closure. *)
let rec leg_steps t (p : Process.t) ~start ~max_instructions n =
  exec_one t p;
  if Bus.pid_access_count t.bus p.Process.pid > start then `Progress
  else if n >= max_instructions then `Stuck
  else if not (Process.is_runnable p) then `Exited
  else leg_steps t p ~start ~max_instructions (n + 1)

let run_leg t pid ~max_instructions =
  let start = Bus.pid_access_count t.bus pid in
  if max_instructions <= 0 then `Stuck
  else
    match process_of_pid pid t.procs with
    | exception Not_found -> `Exited
    | p when not (Process.is_runnable p) -> `Exited
    | p ->
      if not (is_running t pid) then context_switch t p;
      leg_steps t p ~start ~max_instructions 1

type run_result = All_exited | Max_steps | Predicate

let run_until t ?(max_steps = 20_000_000) pred =
  let rec loop n =
    if pred t then Predicate
    else if n >= max_steps then Max_steps
    else match step t with `Idle -> All_exited | `Stepped _ -> loop (n + 1)
  in
  loop 0

let run t ?max_steps () =
  match run_until t ?max_steps (fun _ -> false) with
  | Predicate -> assert false
  | (All_exited | Max_steps) as r -> r

(* ------------------------------------------------------------------ *)
(* Harness access *)

let user_paddr _t (p : Process.t) vaddr =
  match Addr_space.peek_paddr p.Process.addr_space vaddr with
  | Some paddr -> paddr
  | None -> failwith (Printf.sprintf "Kernel.user_paddr: %#x unmapped" vaddr)

let read_user t p vaddr = Phys_mem.load_word t.ram (user_paddr t p vaddr)

let write_user t p vaddr value = Phys_mem.store_word t.ram (user_paddr t p vaddr) value

(* ------------------------------------------------------------------ *)
(* Engine-visible state fingerprint (explorer dedup support) *)

(* Canonical encoding of everything the simulated programs and the
   Fig. 8 oracle can observe: the running pid and pending force-switch,
   installed hooks, per-process control state (state tag, pc, register
   file, DMA context/key, uncached-access progress), the write-buffer
   drain frontier, console output, the context free list, the DMA
   engine's observable registers and the RAM pages dirtied since the
   root snapshot (O(dirtied) via Phys_mem.iter_touched). Deliberately
   *excluded*: clocks, charged bus time, context-switch and
   instruction counters, trace state — pure cost bookkeeping that
   differs between commuting schedule prefixes but cannot influence
   any future observable step. Time-dependent observables are folded
   in *relative to now* rather than excluded: in-flight transfers by
   their exact remaining-wire-time and duration (Engine.encode), and a
   blocked process by its remaining sleep. Thus two kernels that
   differ only by an absolute clock offset but agree on every pending
   deadline still merge — the offset cannot influence any future
   observable — while states whose deadlines genuinely differ never
   do. Under the zero-duration Null backend all these relative fields
   are constants and the encoding partitions states exactly as it did
   before timed backends existed. Two kernels with equal encodings
   evolve identically under identical future schedules.

   [relative_to] (the explorer's root snapshot) restricts the RAM part
   to pages that physically diverged from the root: pages still shared
   with the root are byte-identical in every fork, so skipping them is
   exact and keeps encodings proportional to the work done since the
   root rather than to setup-time writes. Program text is covered the
   same way (see [encode_text]). *)

let rec from_pid pid = function
  | (b : Process.t) :: rest when b.Process.pid < pid -> from_pid pid rest
  | procs -> procs

(* Program text joins the encoding relative to the baseline, as RAM
   does: a process whose program array is physically its baseline
   process's feeds nothing, nor does an exited one; any other feeds
   its residual text (Process.encode_text) behind a 'T' tag. Without a
   baseline every live process's text is fed. Both process tables
   ascend by pid, so [base] (the baseline's, from this pid's position
   on) is walked once alongside them: the rest is returned for the next
   process. *)
let encode_text enc base (p : Process.t) =
  let base = from_pid p.Process.pid base in
  (match (p.Process.state, base) with
  | Process.Exited _, _ -> ()
  | _, b :: _
    when b.Process.pid = p.Process.pid && b.Process.ctx.Cpu.program == p.Process.ctx.Cpu.program
    ->
    ()
  | _ ->
    Uldma_util.Enc.char enc 'T';
    Process.encode_text enc p);
  base

(* remaining sleep, not the absolute wake instant *)
let encode_sleep enc t (p : Process.t) =
  match p.Process.state with
  | Process.Blocked_until at -> Uldma_util.Enc.int enc (max 0 (at - now_ps t))
  | Process.Ready | Process.Exited _ -> ()

(* Fingerprint mode's per-process tokens: pc, access count, remaining
   sleep and program text. *)
let rec encode_procs_fp enc t base = function
  | [] -> ()
  | (p : Process.t) :: rest ->
    Uldma_util.Enc.int enc p.Process.ctx.Cpu.pc;
    Uldma_util.Enc.int enc (Bus.pid_access_count t.bus p.Process.pid);
    encode_sleep enc t p;
    encode_procs_fp enc t (encode_text enc base p) rest

let encode_state enc ?relative_to t =
  let module E = Uldma_util.Enc in
  let i v = E.int enc v in
  let ch c = E.char enc c in
  ch 'K';
  i (match t.current with None -> min_int | Some p -> p.Process.pid);
  if t.force_switch then ch 'F';
  List.iter (fun h -> ch (match h with Shrimp_invalidate -> 'S' | Flash_inform -> 'I')) t.hooks;
  let base = match relative_to with Some root -> root.procs | None -> [] in
  (match enc with
  | E.Buf _ ->
    ignore
      (List.fold_left
         (fun base (p : Process.t) ->
           ch 'P';
           i p.Process.pid;
           i (Process.state_code p.Process.state);
           encode_sleep enc t p;
           i p.Process.ctx.Cpu.pc;
           i (match p.Process.dma_context with None -> min_int | Some c -> c);
           i (match p.Process.dma_key with None -> min_int | Some k -> k);
           i (Bus.pid_access_count t.bus p.Process.pid);
           Regfile.encode enc p.Process.ctx.Cpu.regs;
           encode_text enc base p)
         base t.procs
        : Process.t list)
  | E.Fp fp ->
    (* The process table as one digest: the lane sums of the processes'
       pid-salted register-file digests, which cover registers, state
       codes, DMA contexts and keys (Process.digest). Then only what the
       digest does not hold, per process: pc and access count, which are
       never negative, so the 'W' tag below ends the list, a sleeper's
       remaining time, whose presence the digest's state codes tell, and
       any program text behind its 'T' tag. *)
    ch 'P';
    let rec lanes a b = function
      | [] ->
        Fp128.add_int fp a;
        Fp128.add_int fp b
      | (p : Process.t) :: rest ->
        let regs = p.Process.ctx.Cpu.regs in
        lanes (a + Regfile.digest_lane regs 0) (b + Regfile.digest_lane regs 1) rest
    in
    lanes 0 0 t.procs;
    encode_procs_fp enc t base t.procs);
  ch 'W';
  List.iter
    (fun (paddr, value) ->
      i paddr;
      i value)
    (Write_buffer.pending t.write_buffer);
  ch 'o';
  List.iter
    (fun (pid, value) ->
      i pid;
      i value)
    t.console;
  ch 'f';
  List.iter i t.contexts_free;
  Engine.encode enc t.engine;
  ch 'R';
  (* Text mode embeds the raw page bytes (the key *is* the state);
     fingerprint mode feeds the page's write-maintained content digest
     instead — equal bytes give equal digests, so both modes observe the
     same page partition. *)
  let add_page idx =
    i idx;
    Phys_mem.encode_page enc t.ram idx
  in
  match relative_to with
  | Some root -> Phys_mem.iter_diverged t.ram ~baseline:root.ram add_page
  | None -> Phys_mem.iter_touched t.ram add_page

let state_encoding ?relative_to t =
  let buf = Buffer.create 1024 in
  encode_state (Uldma_util.Enc.Buf buf) ?relative_to t;
  Buffer.contents buf

(* Memo key for the explorer. Fingerprint mode streams the token walk
   into one two-lane 126-bit hash and returns its 16-byte packed key —
   nothing is materialised; page contents, the process table, the IOTLB,
   the DMA engine's registers and program text enter as their digests —
   and reports how many bytes were streamed. Paranoid mode returns the
   full textual encoding, under which key equality is exactly state
   equality. *)
let state_key ?relative_to ~paranoid t =
  if paranoid then begin
    let buf = Buffer.create 1024 in
    encode_state (Uldma_util.Enc.Buf buf) ?relative_to t;
    (Buffer.contents buf, Buffer.length buf)
  end
  else begin
    let fp = Uldma_util.Fp128.create () in
    encode_state (Uldma_util.Enc.Fp fp) ?relative_to t;
    (Uldma_util.Fp128.key fp, Uldma_util.Fp128.fed fp)
  end

(* ------------------------------------------------------------------ *)
(* Uniform named-counter snapshot *)

let counter_snapshot t =
  let module C = Uldma_obs.Counters in
  let c = C.create () in
  C.add c "os.elapsed_ps" (now_ps t);
  C.add c "os.context_switches" t.context_switches;
  List.iter
    (fun (p : Process.t) ->
      C.add c "os.instructions" p.Process.instructions_retired;
      C.add c "os.syscalls" p.Process.syscalls)
    t.procs;
  C.add c "bus.busy_ps" (Bus.busy_ps t.bus);
  C.add c "bus.uncached.kernel" (Bus.pid_access_count t.bus kernel_pid);
  List.iter
    (fun (p : Process.t) ->
      C.add c
        (Printf.sprintf "bus.uncached.pid%d" p.Process.pid)
        (Bus.pid_access_count t.bus p.Process.pid))
    t.procs;
  let e = Engine.counters t.engine in
  C.add c "dma.transfers_started" (Engine.n_transfers t.engine);
  C.add c "dma.rejected" e.Engine.rejected;
  C.add c "dma.key_rejected" e.Engine.key_rejected;
  C.add c "dma.atomics" e.Engine.atomics;
  C.add c "dma.remote_sends" e.Engine.remote_sends;
  c
