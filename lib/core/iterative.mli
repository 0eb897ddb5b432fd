(** Iterative recompilation (paper Sec. VII, the contemporary works
    [70, 71]): re-compile the QAOA circuit with updated gate orders and
    keep the shallowest result, stopping when several consecutive rounds bring
    no improvement.

    The paper cites a 10x-600x compilation-time penalty for this family
    with a qiskit backend; this module exists to quantify the same
    quality/time trade-off against single-shot IP/IC on our backend (see
    the ablation bench). *)

type result = {
  best : Compile.result;
  rounds : int;  (** compilations performed *)
  improvements : int;  (** rounds that lowered the depth *)
  total_wall_s : float;  (** wall-clock seconds across all rounds *)
  total_cpu_s : float;  (** CPU seconds across all rounds *)
}

val compile :
  ?patience:int ->
  ?max_rounds:int ->
  ?base:Compile.options ->
  strategy:Compile.strategy ->
  Qaoa_hardware.Device.t ->
  Problem.t ->
  Ansatz.params ->
  result
(** Repeatedly invoke {!Compile.compile} with fresh seeds (seed, seed+1,
    ...), keeping the first circuit of least depth.  Stops after
    [patience] consecutive non-improving rounds (default 5) or
    [max_rounds] total (default 50). *)
