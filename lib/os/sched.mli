(** The kernel scheduler.

    Preemption granularity is the single instruction: the scheduler is
    consulted before every user instruction, which is exactly the
    adversarial power the paper's atomicity arguments must survive
    ("if a process is interrupted while trying to start a DMA ...").

    - [Run_to_completion]: no preemption (single-process latency runs).
    - [Round_robin]: preempt every [quantum] instructions, cycling
      through runnable pids in pid order.
    - [Random_preempt]: before each instruction, switch to a uniformly
      random runnable process with probability [probability]
      (deterministic in [seed]) — the randomized attack campaigns. *)

type policy =
  | Run_to_completion
  | Round_robin of { quantum : int }
  | Random_preempt of { probability : float; seed : int }

type t

val create : policy -> t
val copy : t -> t
val policy : t -> policy

val pick : t -> current:int option -> runnable:int list -> int option
(** Choose the pid to execute the next instruction; [None] iff
    [runnable] is empty. [runnable] must be sorted ascending. *)

val keeps_current : t -> bool
(** Whether the policy runs the current process again, provided it is
    still runnable and no switch is forced, without looking at what
    else is runnable: always under [Run_to_completion], before the
    quantum expires under [Round_robin], never under [Random_preempt],
    whose picks consume its RNG. When it
    does, the instruction is counted as [pick] would count it. *)

val note_switch : t -> unit
(** Inform the scheduler a context switch took place (the quantum
    counter starts at the switched-to process's first instruction). *)
