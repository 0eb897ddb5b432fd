(** Shared Cmdliner terms for the observability layer, wired uniformly
    into every CLI ([qaoa-compile], [qaoa-verify], [qaoa-lint],
    [qaoa-resilience], [qaoa-experiments], [qaoa-solve], [qaoa-serve]):
    [--trace report|jsonl|chrome|folded|prometheus|json] and
    [--trace-file PATH] select the telemetry format written at process
    exit and its output file (default stderr), like [QAOA_TRACE] /
    [QAOA_TRACE_FILE].

    Evaluating {!setup} applies the configuration as a side effect;
    compose it in front of the command's main term:
    [Term.(const run $ Qaoa_cli.setup $ ...)] with
    [let run () ... = ...]. *)

open Cmdliner

val setup : unit Term.t
