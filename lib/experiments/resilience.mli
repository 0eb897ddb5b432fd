(** Fault-sweep recompilation experiment: how gracefully does the
    compiler degrade when the device breaks underneath it?

    The Fig. 10 workload shapes (ER(0.5) and 6-regular MaxCut instances,
    n = 13..15) are recompiled with
    {!Qaoa_core.Compile.compile_with_fallback} on a calibrated register
    perturbed by each scenario of {!Qaoa_resilience.Faultspace.default}.
    The default register is 20-qubit tokyo rather than the paper's
    melbourne: with two qubits retired, melbourne's 15-qubit register
    can no longer host the n = 15 instances at all, which would conflate
    "degraded" with "impossible". *)

val columns : string list
(** instances, compiled, recovered (compiled, but not by the chain's
    first attempt), exhausted (the whole chain failed), mean attempts
    per instance, then depth, SWAPs and success probability of the
    compiled instances as ratios to the healthy baseline ([nan] when
    either side compiled nothing), then one ["<strategy> wins"] count
    per {!Qaoa_core.Compile.default_chain} entry, which sum to
    compiled.  Success is measured against the degraded calibration,
    charging each coupling it no longer records
    {!Qaoa_hardware.Calibration.unrecorded_error}. *)

val experiment :
  ?seed:int ->
  ?device:Qaoa_hardware.Device.t ->
  ?deadline_s:float ->
  ?verify:bool ->
  ?retries:int ->
  unit ->
  Experiment.t
(** The sweep on one device as a record with id
    ["resilience-<device name>"] and {!columns}: one row per scenario x
    workload, labelled ["<scenario> <workload>"] (e.g.
    ["dead*2 ER(p=0.5) n=14"]).  [device] defaults to tokyo; an
    uncalibrated device gets a synthetic calibration drawn from [seed]
    (default 13000), since VIC and the success metric need one.
    [deadline_s], [verify] and [retries] (default 1) are passed to the
    fallback chain.

    Each (workload, scenario) cell is one {!Sweep.row} under the key
    ["resilience/<device>/<workload>/<scenario>"], and the healthy
    baseline, compiled once per workload to anchor the ratios, under
    [".../baseline"].  A cell journals its raw means, so a resumed
    sweep prints the uninterrupted rows bit for bit.  Under a journal a
    quarantined scenario cell drops its row and a quarantined baseline
    drops its whole workload; without one, a failure propagates. *)

type summary = {
  instances : int;
  compiled : int;
  recovered : int;
  exhausted : int;
}

val summary : Experiment.row list -> summary
(** The sums of the first four {!columns} over rows of {!experiment}. *)

val summary_to_string : summary -> string
(** ["<compiled>/<instances> compiled, <recovered> recovered by
    fallback, <exhausted> exhausted"]. *)
