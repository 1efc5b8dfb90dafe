(** Bit tricks shared by the histograms. *)

val msb : int -> int
(** [msb v] is the position of the highest set bit of [v > 0]
    ([msb 1 = 0], [msb 1024 = 10]), in six shift-and-test steps rather
    than one step per bit. Undefined for [v <= 0]. *)
