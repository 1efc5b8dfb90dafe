(** Engine status words, following §3.1: "A read operation from a
    register context returns the number of bytes that need to be
    transferred yet (-1 means failure, 0 means completed DMA
    operation)."

    The repeated-passing recogniser needs one more code: a load that
    was merely *accepted* as part of a not-yet-complete sequence must
    not be confusable with "transfer started", or a victim's final load
    spliced into another process's partial sequence would read as a
    phantom success (a status-truthfulness violation of exactly the
    kind Fig. 6 criticises). Hence [in_progress] = -2: initiation still
    incomplete. Fig. 7's retry tests specifically for [failure]. *)

val failure : int
(** -1: rejected initiation / broken sequence — Fig. 7 retries on this. *)

val complete : int
(** 0: transfer finished (or started with zero remaining). *)

val in_progress : int
(** -2: access accepted, sequence not yet complete; no transfer has
    started on account of this access. *)

val is_failure : int -> bool
(** True for [failure] and [in_progress] — no transfer started. *)
