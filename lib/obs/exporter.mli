(** Render a {!Snapshot} of everything {!Trace} and {!Metrics_registry}
    recorded — merged across all domains — in one of the six
    {!Config.format}s selected by [QAOA_TRACE] / [--trace]:

    - {b report}: human-readable aggregated span tree (grouped by name
      within each nesting level, execution order preserved) followed by
      counters and histogram summaries;
    - {b jsonl}: one JSON object per line — spans in completion order
      (each carrying its domain id), then counters, then histograms;
    - {b chrome}: a [trace_event] JSON document with one complete
      ("ph":"X") event per span, loadable in [chrome://tracing] or
      Perfetto; each OCaml domain renders as its own named thread lane
      ([tid] = domain id), counters/histograms ride along under
      ["otherData"];
    - {b folded}: one ["root;child;leaf <self-us>"] line per distinct
      span path, sorted, for
      {{:https://github.com/brendangregg/FlameGraph}flamegraph.pl} or
      {{:https://www.speedscope.app}speedscope}; self time is wall time
      minus direct children's, paths under 1 µs are omitted, and
      multi-domain streams root each path under a ["domain-<id>"] frame;
    - {b prometheus}: text exposition — counters as [counter] families
      ([qaoa_<name>], non-[a-zA-Z0-9_:] mapped to ['_']), histograms as
      [summary] families (quantiles 0.5/0.9/0.99 over the merged
      retained windows, exact [_sum]/[_count], plus [_min]/[_max]
      gauges), and per-name span roll-ups in [qaoa_span_count],
      [qaoa_span_wall_seconds_total] and [qaoa_span_cpu_seconds_total];
    - {b json}: one self-describing document of counters, histogram
      summaries and the same per-name span roll-ups.

    Timestamps in [jsonl] and [chrome] are relative to {!Config.epoch}.

    A successful process exit writes the configured format once
    ([at_exit]) when anything was recorded; {!write} exports earlier. *)

val render : Config.format -> Snapshot.t -> string

val write : unit -> unit
(** Render a fresh {!Snapshot.capture} in [Config.format ()] to
    [Config.out_path ()], else to stderr. No-op when no format is
    configured. Marks the automatic at-exit flush as done. *)
