(** Words a computation allocates, split by where they land.

    OCaml allocates objects above 256 words straight into the major
    heap; everything smaller starts in the minor heap and is promoted
    only if it survives a minor collection. [direct_major] counts the
    first kind (major-heap words minus promoted words), so promotion
    does not inflate it. Both counts are exact for the calling domain,
    net of the measurement's own allocation. *)

type t = { minor : int; direct_major : int }

val measure : (unit -> 'a) -> 'a * t
