(** Concrete device topologies used in the paper's evaluation (Sec. V.B):
    the 20-qubit ibmq_20_tokyo, the 15-qubit ibmq_16_melbourne, a
    hypothetical 36-qubit 6x6 grid, plus the linear and ring architectures
    used in the worked examples and the Sec. VI comparison. *)

val ibmq_20_tokyo : unit -> Device.t
(** 20 qubits in a 4x5 lattice with diagonal couplings.  The edge list is
    reconstructed from the literature and validated in the test suite
    against the paper's Fig. 3(b) connectivity-strength profile (e.g.
    strength(qubit 0) = 7, strength(qubit 7) = strength(qubit 12) = 18). *)

val ibmq_16_melbourne : unit -> Device.t
(** 15-qubit ladder, shipped with the CNOT-error calibration snapshot of
    4/8/2020 transcribed from Fig. 10(a).  The per-edge placement of the
    transcribed rates is a best-effort reading of the figure; only the
    rate multiset, not its exact placement, affects aggregate results. *)

val grid : rows:int -> cols:int -> Device.t
val grid_6x6 : unit -> Device.t
(** The hypothetical 36-qubit architecture of Fig. 12. *)

val linear : int -> Device.t
(** [n] qubits coupled in a chain (Fig. 1(d)). *)

val ring : int -> Device.t
(** [n >= 3] qubits coupled cyclically (the 8-qubit architecture of the
    Sec. VI comparison against the temporal planner). *)

val heavy_hex_27 : unit -> Device.t
(** 27-qubit heavy-hex lattice (IBM Falcon class, e.g. ibmq_montreal):
    sparser than tokyo (degree <= 3), the architecture family IBM moved
    to after the paper's devices - useful to study how the methodologies
    behave when connectivity drops. *)

val hypothetical_6q : unit -> Device.t
(** The 6-qubit ring of Fig. 6(a) with the hypothetical CPHASE success
    rates of Fig. 6(b), used in documentation examples and tests of the
    variation-aware distance matrix. *)

val max_qubits : int
(** The largest device {!by_name} builds: 256 qubits.  Names arrive
    from outside the program (CLI flags, serve requests), and a
    ["linear<N>"] or ["ring<N>"] device allocates in [N], so the bound
    keeps one name from exhausting memory.  The largest fixed device
    is 36 qubits. *)

val by_name : string -> Device.t option
(** Lookup by name ("tokyo", "melbourne", "grid6x6", "linear<N>",
    "ring<N>"); used by the CLIs.  [N] must be written in canonical
    decimal (["linear8"], not ["linear08"] or ["linear0x8"]), so each
    device has one spelling.  [None] for an unknown name and for
    ["linear<N>"] / ["ring<N>"] with [N] above {!max_qubits}. *)

val known_names : string list
