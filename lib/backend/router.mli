(** Layer-partitioned greedy SWAP-insertion router - the backend compiler
    standing in for qiskit (see DESIGN.md, substitution 1).

    The algorithm follows the structure the paper ascribes to conventional
    compilers (Sec. III "SWAP Insertion"): the logical circuit is
    partitioned into layers of concurrently executable gates, and SWAPs
    are inserted until the layer's two-qubit gates act on coupled
    physical pairs.  Within a layer, each gate is emitted as soon as its
    pair becomes coupled (gates of a layer touch disjoint qubits, so
    emission order does not change semantics, and the ASAP re-layering of
    the output recovers the parallelism).  SWAP selection is greedy:
    among the coupling edges touching a qubit of a pending gate, apply
    the swap that strictly decreases the summed distance of pending
    pairs (ties broken by a lookahead term over the next layer, then by
    seeded randomness); when no swap strictly improves, the closest
    pending pair takes one step along a hop-shortest path.  A safety
    budget bounds the loop, past which pending gates are routed one at a
    time - so routing always terminates.

    A SWAP is scored by what it changes.  The gates of a layer touch
    disjoint qubits, so exchanging physical p and q moves at most two
    pending pairs and two lookahead pairs: the router keeps each
    layer's pairs as arrays of physical ends, with a per-qubit array
    naming the pair each qubit hosts, adds the pending and lookahead
    sums once per decision in pair order, and scores each candidate as
    those sums plus its change, walking the coupling edges in edge
    order.  On hop distances (small integers) that is exactly the float
    the pair-order sum after the SWAP gives, so every comparison and
    every seed-17 coin flip is the one full re-summation gives; on
    reliability-weighted distances, whose sums round, a comparison whose
    margin lies within a rounding bound of its 1e-12 window is redone on
    pair-order sums, so those decisions are exact too.  A candidate
    allocates nothing (distance reads are inlined and unboxed).

    The mapping lives in two arrays updated in place by each SWAP, and
    one {!Mapping.t} is built at the end of the call; a pending pair is
    satisfied when its hosts sit at hop distance 1.  The sorted coupling
    edges (as arrays) and the hop matrix come from
    {!Qaoa_hardware.Profile}'s per-device memos, so a call does no
    per-device set-up.

    The compiled circuit acts on physical qubit indices; the result carries
    the final logical-to-physical mapping so callers can interpret
    measurement outcomes (or stitch further partial circuits - the IC/VIC
    use case).

    Routing holds no module-level mutable state: the tie-break RNG (a
    fixed seed-17 stream, restarted by every call and created at its
    first tie) and all work queues live in a per-[route] call record,
    and the shared distance matrices and edge lists
    ({!Qaoa_hardware.Profile}) are read-only after construction - so
    concurrent [route] calls from multiple domains are safe and
    deterministic.

    [Measure] gates are deferred: they are stripped from the layers and
    re-emitted after all routing, on each logical qubit's final physical
    wire.  Emitting them in place was unsound - a SWAP inserted for a
    still-pending gate could move (or even re-use) an already-measured
    wire, making final-mapping readout silently wrong; the translation
    validator ({!Qaoa_verify.Check}) rejects such circuits.  This assumes
    terminal measurement: the ansatz builders only produce it, and
    OpenQASM programs routed for [qaoa-serve] must measure terminally
    (a gate after a measurement is refused as a [bad_request] before it
    reaches the router, see {!Qaoa_serve.Request}). *)

type config = {
  lookahead_weight : float;
      (** Weight of next-layer distances in tie-breaking (default 0.5). *)
  reliability_aware : bool;
      (** Score swaps with the calibration-weighted distance matrix
          (VQM-style router extension; default false = hop distances). *)
  deadline : Qaoa_obs.Deadline.t option;
      (** Cooperative cancellation: the routing loops check this once per
          swap decision and raise {!Qaoa_obs.Deadline.Exceeded} past the
          budget (default [None] = route to completion). *)
}

val default_config : config

exception Unroutable of string
(** A two-qubit gate's operands are mapped to disconnected components of
    the coupling graph (e.g. after fault injection severed the only
    bridge), so no SWAP sequence can ever satisfy it.  Raised eagerly
    when the gate first becomes pending, on an infinite entry of the
    memoized hop matrix; the message names the logical pair, the
    physical hosts and the device. *)

type result = {
  circuit : Qaoa_circuit.Circuit.t;
      (** Hardware-compliant circuit on physical qubits (CPHASE/SWAP not
          yet decomposed; use {!Qaoa_circuit.Decompose} for native form). *)
  final_mapping : Mapping.t;
  swap_count : int;  (** SWAP gates inserted. *)
}

val route :
  ?config:config ->
  device:Qaoa_hardware.Device.t ->
  initial:Mapping.t ->
  Qaoa_circuit.Circuit.t ->
  result
(** [route ~device ~initial circuit] compiles the logical [circuit].
    @raise Invalid_argument if the mapping's logical count is smaller than
    the circuit's qubit count or sized for a different device, or if a
    two-qubit gate names one qubit twice.
    @raise Unroutable if a two-qubit gate's operands can never be brought
    together (disconnected coupling components).
    @raise Qaoa_obs.Deadline.Exceeded past [config.deadline]. *)

val route_layers :
  ?config:config ->
  device:Qaoa_hardware.Device.t ->
  initial:Mapping.t ->
  num_logical:int ->
  Qaoa_circuit.Gate.t list list ->
  result
(** Lower-level entry point taking pre-formed layers.  IC (and VIC) is
    its only strategy caller: it forms each layer against the live
    mapping.  IP's packed layers are flattened into a gate order and
    re-layered by {!route}'s ASAP pass, like every other whole-circuit
    strategy.
    The two-qubit gates of each layer must act on disjoint qubits, as
    {!Qaoa_circuit.Layering.layers} and IC's [form_layer] guarantee:
    the scorer relies on it.
    @raise Invalid_argument if one qubit carries two of a layer's
    two-qubit gates, or a two-qubit gate names one qubit twice (checked
    in O(pairs) when the layer is routed, and when it is the next layer
    looked ahead to), besides {!route}'s cases. *)
