open Uldma_mem
open Uldma_mmu
open Uldma_dma
open Uldma_os

type intent = {
  pid : int;
  vsrc : int;
  vdst : int;
  psrc : int;
  pdst : int;
  size : int;
  requests : int;
}

type violation =
  | Unattributed_transfer of Transfer.t
  | Rights_violation of { intent : intent; missing : string }
  | Phantom_success of { pid : int; reported : int; started : int }
  | Lost_transfer of { pid : int; reported : int; started : int }

type report = {
  violations : violation list;
  transfers_checked : int;
  intents_checked : int;
}

let kind_name = function
  | Unattributed_transfer _ -> "unattributed"
  | Rights_violation _ -> "rights"
  | Phantom_success _ -> "phantom"
  | Lost_transfer _ -> "lost"

let pp_violation ppf = function
  | Unattributed_transfer tr ->
    Format.fprintf ppf "unattributed transfer (mixed/forged arguments): %a" Transfer.pp tr
  | Rights_violation { intent; missing } ->
    Format.fprintf ppf "rights violation by pid %d (%s): %#x -> %#x (%d bytes)" intent.pid missing
      intent.psrc intent.pdst intent.size
  | Phantom_success { pid; reported; started } ->
    Format.fprintf ppf "pid %d observed %d successes but only %d transfers started" pid reported
      started
  | Lost_transfer { pid; reported; started } ->
    Format.fprintf ppf
      "pid %d: %d transfers started but the stub observed only %d successes (started-but-reported-failed)"
      pid started reported

let matches intent (tr : Transfer.t) =
  tr.Transfer.src = intent.psrc && tr.Transfer.dst = intent.pdst && tr.Transfer.size = intent.size

let rights_violation kernel intent =
  match Kernel.find_process kernel intent.pid with
  | None -> Some "process does not exist"
  | Some p ->
    let space = p.Process.addr_space in
    if not (Addr_space.check_range space ~vaddr:intent.vsrc ~len:intent.size ~perms:Perms.read_only)
    then Some "no read right on source range"
    else if
      not (Addr_space.check_range space ~vaddr:intent.vdst ~len:intent.size ~perms:Perms.write_only)
    then Some "no write right on destination range"
    else None

let check ~kernel ~intents ~reported_successes =
  let transfers = Engine.transfers (Kernel.engine kernel) in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* 1 + 2: every started transfer must match a declared intent *)
  List.iter
    (fun tr -> if not (List.exists (fun i -> matches i tr) intents) then add (Unattributed_transfer tr))
    transfers;
  (* declared intents must themselves be within the declarer's rights *)
  List.iter
    (fun intent ->
      match rights_violation kernel intent with
      | Some missing -> add (Rights_violation { intent; missing })
      | None -> ())
    intents;
  (* 3: per process, successes observed = transfers started for it *)
  let started_for pid =
    List.length
      (List.filter
         (fun tr -> List.exists (fun i -> i.pid = pid && matches i tr) intents)
         transfers)
  in
  List.iter
    (fun (pid, reported) ->
      let started = started_for pid in
      if reported > started then add (Phantom_success { pid; reported; started })
      else if started > reported then add (Lost_transfer { pid; reported; started }))
    reported_successes;
  let violations = List.rev !violations in
  (* mirror every violation into the kernel's structured trace *)
  let sink = Kernel.trace kernel in
  if Uldma_obs.Trace.enabled sink then
    List.iter
      (fun v ->
        Uldma_obs.Trace.emit sink ~at:(Kernel.now_ps kernel)
          ~machine:(Kernel.machine_id kernel) ~pid:(-1)
          (Uldma_obs.Trace.Oracle_violation { detail = Format.asprintf "%a" pp_violation v }))
      violations;
  {
    violations;
    transfers_checked = List.length transfers;
    intents_checked = List.length intents;
  }

let ok report = report.violations = []

let pp_report ppf r =
  if r.violations = [] then
    Format.fprintf ppf "oracle: OK (%d transfers, %d intents)" r.transfers_checked r.intents_checked
  else begin
    Format.fprintf ppf "oracle: %d violation(s):" (List.length r.violations);
    List.iter (fun v -> Format.fprintf ppf "@\n  - %a" pp_violation v) r.violations
  end

let intent_of_regions kernel p ~vsrc ~vdst ~size ~requests =
  {
    pid = p.Process.pid;
    vsrc;
    vdst;
    psrc = Kernel.user_paddr kernel p vsrc;
    pdst = Kernel.user_paddr kernel p vdst;
    size;
    requests;
  }
