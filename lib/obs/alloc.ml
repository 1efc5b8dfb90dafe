type t = { minor : int; direct_major : int }

(* Gc.minor_words is exact at any instant, where Gc.quick_stat's minor
   count moves only at a minor collection. Gc.counters' promoted and
   major totals include every word promoted or allocated so far. *)
let sample () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), major -. promoted)

let delta f =
  let m0, d0 = sample () in
  let r = f () in
  let m1, d1 = sample () in
  (r, m1 -. m0, d1 -. d0)

let measure f =
  (* the samples' own allocation, taken the same way *)
  let (), m_probe, d_probe = delta ignore in
  let r, m, d = delta f in
  (r, { minor = int_of_float (m -. m_probe); direct_major = int_of_float (d -. d_probe) })
