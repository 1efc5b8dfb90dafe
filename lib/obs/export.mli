(** Trace exporters.

    Three formats:
    - JSONL — one JSON object per line per event, in emission order;
    - Chrome [trace_event] — a ["traceEvents"] array loadable in
      chrome://tracing or Perfetto (machine id becomes the Chrome
      "pid", the simulated pid the "tid", the layer the category;
      transfers become duration ["X"] events, everything else instant
      ["i"] events). Events are stably sorted by timestamp first, so
      future-stamped completions keep per-machine timestamps monotone;
    - an ASCII per-layer summary table. *)

val to_file : [ `Jsonl | `Chrome ] -> string -> Trace.t -> unit
(** Write the trace to a fresh file at the given path. *)

val summary : Trace.t -> Uldma_util.Tbl.t
(** Per-layer event-kind counts, plus a dropped-events row when the
    ring overflowed. *)
