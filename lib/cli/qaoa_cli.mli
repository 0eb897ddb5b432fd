(** The shared front of the command-line tools.

    The [--strategy] converter of [qaoa-compile], [qaoa-verify] and
    [qaoa-solve], and the [--device] converter of [qaoa-compile],
    [qaoa-lint] and [qaoa-solve]: each error message lists exactly what
    its parser accepts.

    The terms for the observability layer, wired uniformly
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

val strategy_conv : Qaoa_core.Compile.strategy Arg.conv
(** One of {!Qaoa_core.Compile.strategy_names}, in any case. *)

val device_conv : Qaoa_hardware.Device.t Arg.conv
(** A {!Qaoa_hardware.Topologies.by_name} device. *)

val setup : unit Term.t

val guard : tool:string -> (unit -> int) -> int
(** [guard ~tool run] is [run ()], except that malformed input or a
    structured compile failure ({!Qaoa_core.Compile.Error},
    [Invalid_argument], [Failure]) prints one ["<tool>: <message>"]
    line on stderr and exits 2, never a backtrace.  qaoa-compile,
    -experiments, -resilience, -solve and -verify run under it. *)

val journaled :
  journal_dir:string option ->
  resume:bool ->
  (Qaoa_journal.Journal.t option -> 'a) ->
  'a
(** The journaled-run front of qaoa-experiments and qaoa-resilience
    ([--journal DIR] and [--resume]): refuse [--resume] without a
    journal, install a [QAOA_CHAOS] plan, open the journal
    ({!Qaoa_journal.Journal.open_}; a non-empty one is refused unless
    [resume]) and install the SIGINT/SIGTERM handlers that print the
    [--resume] command, run [f], then print the journal's ["journal: "]
    summary line and close it.
    @raise Failure on [resume] without [journal_dir]. *)
