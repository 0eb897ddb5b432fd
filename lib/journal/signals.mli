(** SIGINT/SIGTERM finalization for journaled sweeps.

    A journaled sweep is safe to kill at any instant - records are
    flushed as trials complete - but a plain default-action SIGINT
    would skip [at_exit], losing the trace exporter's flush and the
    journal's final fsync, and the operator would have to remember the
    resume incantation.  Installing the handler turns both signals into
    an orderly [exit 130/143] (so every [at_exit] finalizer runs,
    including {!Journal.open_}'s close) after printing the exact
    command that resumes the sweep. *)

val resume_hint_of_argv : unit -> string
(** The current command line ([Sys.argv]) with [--resume] appended
    unless already present - a copy-pasteable resume command. *)

val install_drain : unit -> int Atomic.t
(** Graceful-drain variant for long-lived servers: handlers for SIGINT
    and SIGTERM that {e record} the conventional exit code (130/143,
    first signal wins) in the returned atomic instead of exiting.  The
    serving loop polls the flag ([0] = no signal yet), stops accepting
    new work, finishes in-flight requests, flushes its cache journal,
    and exits with the recorded code itself.  Platforms without a
    signal are skipped silently. *)

val install : resume_hint:string -> unit
(** Install handlers for SIGINT and SIGTERM that print
    ["interrupted; resume with: <hint>"] to stderr and [exit]
    ([130] for SIGINT, [143] for SIGTERM, the conventional
    [128 + signal] codes).  Platforms without a signal (e.g. SIGTERM
    on Windows) are skipped silently. *)
