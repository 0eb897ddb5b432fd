(** Workload generation for the evaluation experiments (paper Sec. V.B):
    randomly chosen Erdos-Renyi graphs with varied edge probabilities and
    random regular graphs with varied edges/node, turned into
    QAOA-MaxCut problems. *)

type graph_kind =
  | Erdos_renyi of float  (** edge probability *)
  | Regular of int  (** edges per node *)
  | Gnm of int  (** exact edge count (the Sec. VI ring-8 workload) *)
  | Barabasi_albert of int  (** attachments per node (scale-free hubs) *)
  | Watts_strogatz of int * float  (** (k, beta) small-world lattice *)

val kind_name : graph_kind -> string
(** e.g. "ER(p=0.5)", "6-regular", "G(n,m=8)". *)

val kind_of_string : string -> (graph_kind, [> `Msg of string ]) result
(** The [--kind] grammar of qaoa-compile, qaoa-solve and qaoa-verify:
    ["er:<p>"] with 0 <= p <= 1, ["regular:<d>"] with d >= 1, or
    ["ba:<m>"] with m >= 1.  The error message names the expected form;
    the result type fits a Cmdliner [Arg.conv] parser. *)

val graph : Qaoa_util.Rng.t -> graph_kind -> n:int -> Qaoa_graph.Graph.t
(** One random graph of the kind.  Regular kinds with odd [n * d] raise
    [Invalid_argument] (the paper's parameter grid never hits this). *)

val problems :
  Qaoa_util.Rng.t -> graph_kind -> n:int -> count:int -> Qaoa_core.Problem.t list
(** [count] independent MaxCut instances.  Graphs with no edges are
    redrawn (an edgeless instance has no cost layer to compile). *)

val default_params : Qaoa_core.Ansatz.params
(** Fixed p=1 angles used by the compilation-quality experiments; the
    circuit structure - all the compiler sees - does not depend on the
    angle values. *)
