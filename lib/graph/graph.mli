(** Undirected simple graphs over vertices [0..n-1].

    Used both for problem graphs (QAOA-MaxCut instances) and hardware
    coupling graphs.  The representation favours the access patterns of the
    compilation heuristics: O(1) adjacency tests, cheap neighbor lists, and
    stable (sorted) edge enumeration so that seeded runs are reproducible.

    There is no structural (isomorphism-invariant) hash: the serving
    layer's cache keys a problem by its exact normalized edge list, so
    a relabeled copy of a graph is a different problem there. *)

type t

val create : int -> t
(** [create n] is the empty graph on [n] vertices.
    @raise Invalid_argument if [n < 0]. *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] builds a graph on [n] vertices with the given edges.
    Self-loops raise [Invalid_argument]; duplicate edges are collapsed. *)

val num_vertices : t -> int
val num_edges : t -> int

val add_edge : t -> int -> int -> t
(** Functional edge addition (the graph is persistent).  Adding an existing
    edge is a no-op.  @raise Invalid_argument on self-loops or out-of-range
    vertices. *)

val remove_edge : t -> int -> int -> t

val has_edge : t -> int -> int -> bool
val degree : t -> int -> int

val neighbors : t -> int -> int list
(** Sorted list of neighbors. *)

val edges : t -> (int * int) list
(** All edges [(u, v)] with [u < v], sorted lexicographically. *)

val vertices : t -> int list
(** [0; 1; ...; n-1]. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over edges in the [edges] order. *)

val max_degree : t -> int
(** 0 for the empty graph. *)

val common_neighbors : t -> int -> int -> int list
(** Vertices adjacent to both arguments (used by the analytic p=1 MaxCut
    expectation, which depends on triangle counts). *)

val is_connected : t -> bool
(** True iff the graph has one connected component ([true] for n <= 1). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
