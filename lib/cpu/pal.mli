(** PALcode registry (paper §2.7).

    The DEC Alpha's PAL mode executes short routines uninterruptibly.
    "PAL code is organized in 16-instruction long PAL calls. A PAL call
    is executed uninterrupted. To ensure protection, only super-users
    are allowed to write and install PAL functions. However, once a PAL
    function is installed, any ordinary user is allowed to invoke it."

    The machine consults this registry on [Call_pal n] and executes the
    body with preemption disabled. Installation is a privileged kernel
    operation. *)

type t

val max_instructions : int
(** 16, as on the Alpha. *)

val num_slots : int

val create : unit -> t

val copy : t -> t
(** An independent registry in O(1): the copy shares [t]'s slot array,
    which [install] replaces rather than writes. *)

val install : t -> index:int -> Isa.instr array -> (unit, string) result
(** Validates: index in range, body length within [max_instructions],
    no [Syscall] / [Call_pal] / [Halt] inside, and branch targets
    within the body. Copies the slot array (installs are rare and
    privileged, forks are frequent). *)

val get : t -> int -> Isa.instr array option
val installed : t -> int list

val invoke :
  t ->
  index:int ->
  sink:Uldma_obs.Trace.t ->
  machine:int ->
  pid:int ->
  now:(unit -> Uldma_util.Units.ps) ->
  run:(Isa.instr array -> 'a) ->
  'a option
(** Look up slot [index] and execute its body through [run], bracketed
    by [Pal_enter]/[Pal_exit] trace events ([now] is sampled before and
    after so the exit carries the post-execution time). [None] if the
    slot is empty. *)
