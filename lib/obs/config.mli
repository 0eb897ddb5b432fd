(** Global on/off switch and export-format selection for the
    observability layer.

    Telemetry is configured once per process, either from the
    environment ([QAOA_TRACE=<format>], optional [QAOA_TRACE_FILE=path])
    or programmatically via {!set} (e.g. from the shared [--trace] /
    [--trace-file] CLI flags).  Every instrumentation call site guards
    on {!enabled}, a single [bool ref] dereference, so the disabled path
    costs a few nanoseconds and allocates nothing. *)

type format =
  | Report  (** human-readable aggregated span tree *)
  | Jsonl  (** one JSON object per span/counter/histogram, one per line *)
  | Chrome
      (** Chrome [trace_event] JSON, loadable in [chrome://tracing] or
          {{:https://ui.perfetto.dev}Perfetto} *)
  | Folded
      (** folded stacks ("a;b;c <self-time-us>" lines) for
          [flamegraph.pl] / speedscope, self-time per span path *)
  | Prometheus  (** Prometheus/OpenMetrics text exposition *)
  | Json  (** self-describing JSON document of counters, histograms and
              per-name span roll-ups *)

val format_of_string : string -> format option
(** ["report" | "jsonl" | "chrome" | "folded" | "prometheus" | "json"]
    (case-insensitive). *)

val format_name : format -> string

val set : ?out:string -> format option -> unit
(** [set (Some format)] enables recording and selects the export
    format; [set None] disables both (recorded data stays until
    [Trace.reset]). [?out] sets the output path (default stderr, or
    [QAOA_TRACE_FILE]). *)

val enabled : unit -> bool
(** The fast-path guard used by every instrumentation call site: true
    when an export format is configured. *)

val format : unit -> format option
val out_path : unit -> string option
(** Explicit output path, when one was given. *)

val epoch : float
(** Wall-clock process start (module load) — the zero of exported
    trace timestamps. *)
