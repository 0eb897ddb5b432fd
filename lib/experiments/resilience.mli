(** Fault-sweep recompilation experiment: how gracefully does the
    compiler degrade when the device breaks underneath it?

    The Fig. 10 workload shapes (ER(0.5) and 6-regular MaxCut instances,
    n = 13..15) are recompiled with {!Qaoa_core.Compile.compile_with_fallback}
    on a calibrated 20-qubit tokyo register perturbed by each scenario of
    a {!Qaoa_resilience.Faultspace} sweep (tokyo rather than the paper's
    melbourne: with two qubits retired, melbourne's 15-qubit register can
    no longer host the n = 15 instances at all, which would conflate
    "degraded" with "impossible").  Every row reports compile survival,
    fallback behaviour, and depth/SWAP/success degradation relative to
    the healthy device. *)

type row = {
  scenario : string;  (** {!Qaoa_resilience.Faultspace.scenario} label *)
  workload : string;  (** e.g. ["ER(p=0.5) n=14"] *)
  instances : int;
  compiled : int;  (** instances the fallback chain compiled *)
  fallback_recovered : int;
      (** compiled instances whose winner was not the first attempt *)
  exhausted : int;  (** instances where the whole chain failed *)
  mean_attempts : float;  (** compile attempts per instance *)
  mean_depth : float;  (** over compiled instances; [nan] if none *)
  mean_swaps : float;
  mean_success : float;
      (** success probability against the degraded calibration, with
          each coupling it no longer records charged
          {!Qaoa_hardware.Calibration.unrecorded_error} *)
  depth_ratio : float;  (** vs the healthy baseline; [nan] if unavailable *)
  swap_ratio : float;
  success_ratio : float;
  winners : (string * int) list;
      (** winning strategy name -> instances won, descending *)
}

val run :
  ?scale:Experiment.scale ->
  ?journal:Qaoa_journal.Journal.t ->
  ?seed:int ->
  ?device:Qaoa_hardware.Device.t ->
  ?deadline_s:float ->
  ?verify:bool ->
  ?retries:int ->
  unit ->
  row list
(** Run the {!Qaoa_resilience.Faultspace.default} scenario sweep and
    print one table row per scenario x workload.
    [device] defaults to tokyo; an uncalibrated device gets a fixed-seed
    synthetic calibration attached (VIC and the success metric need
    one).  Registers smaller than the largest workload would conflate
    "degraded" with "impossible" - use a >= 16-qubit topology.  [deadline_s], [verify] and [retries] are
    passed through to the fallback chain; the healthy baseline is
    compiled once per workload to anchor the ratios.

    [journal] makes the sweep resumable at cell granularity: each
    (device, workload, scenario) cell is one supervised trial (key
    ["resilience/<device>/<workload>/<scenario>"], baseline cells under
    [".../baseline"]), so an interrupted sweep resumed with the same
    seed reproduces the uninterrupted row set bit for bit.  A
    quarantined scenario cell drops that row; a quarantined baseline
    drops its whole workload (no anchor for the ratios). *)
