(** JSONL compile-request parsing, normalization and cache keying.

    One request per line.  Schema (unknown fields are rejected so typos
    fail loudly):

    {v
    {"id": "r0",                      // required; string (or int, stringified)
     "graph": {"n": 12,               // XOR "qasm": "<OpenQASM 2.0>"
               "edges": [[0,1], ...]},
     "device": "tokyo",               // default "tokyo"
     "policy": "ic",                  // naive|greedyv|greedye|vqa|qaim|ip|ic|vic
     "seed": 42, "p": 1,
     "gamma": 0.7, "beta": 0.4,
     "packing_limit": 11,             // IC/VIC only; optional
     "measure": true, "verify": false,
     "analyze": false,                // attach the commutation-DAG static record
     "qasm_out": false}               // include compiled OpenQASM in response
    v}

    Graph requests compile the QAOA-MaxCut ansatz of the edge list with
    the requested policy ({!Qaoa_core.Compile}).  Qasm requests parse
    the program with {!Qaoa_circuit.Qasm.of_string} and route it
    directly through the backend router under the trivial initial
    mapping.  They ignore [policy] (and [packing_limit]), [seed], [p],
    [gamma], [beta], [measure] and [verify]; only [device], [analyze]
    and [qasm_out] shape the answer.  The ignored fields still enter
    the {!fingerprint}, so two such requests that differ only there
    are cached apart, with identical bodies.  The program must
    measure terminally: the router defers every measurement to the end
    ({!Qaoa_backend.Router}), so a gate after a measurement (lint rule
    QL003) is answered [bad_request] with the lint finding's message.

    Edges are normalized at parse time ((min, max), sorted, deduplicated),
    so every textual spelling of the same graph produces the same
    {!fingerprint} and the same compiled artifact.  The fingerprint is
    the whole cache key ({!cache_key}); a relabeled copy of a graph is
    a different key. *)

type source =
  | Graph of { n : int; edges : (int * int) list }
      (** normalized: pairs as [(min, max)], sorted, no duplicates *)
  | Qasm of string

type t = {
  id : string;
  source : source;
  device : string;
  policy : Qaoa_core.Compile.strategy;
      (** [packing_limit], when given, is already folded in *)
  seed : int;
  p : int;
  gamma : float;
  beta : float;
  measure : bool;
  verify : bool;
  analyze : bool;
      (** attach the {!Qaoa_analysis.Dataflow} static record (depth
          lower bound, critical path, slack, live pressure) to the
          response as ["static"]; part of the fingerprint, so cached
          hits replay the same analysis byte-identically *)
  qasm_out : bool;
}

type control = Ping | Stats
(** Control verbs beside the compile schema: [{"op":"ping"}] is a
    liveness probe (the reply proves the whole submit-compute-respond
    path, not just the process), [{"op":"stats"}] asks for the
    cache-lookup taxonomy and the in-flight gauge.  Strict like
    requests: any field besides ["op"] is rejected. *)

val control_of_json : Qaoa_obs.Json.t -> (control, string) result option
(** [None] when the parsed line is not a control request at all (no
    ["op"] field, or not an object - it should flow to {!of_json});
    [Some (Error _)] when it names an unknown op or carries extra
    fields. *)

val of_json : Qaoa_obs.Json.t -> (t, string) result
(** Validate one parsed line.  [Error msg] describes the first problem
    (not an object, missing/unknown field, bad edge, unknown policy, a
    [graph.n] above {!Qaoa_hardware.Topologies.max_qubits}, ...). *)

val of_line : string -> (t, string) result
(** {!of_json} of the parsed line, or [Error "malformed JSON"]. *)

val to_json : t -> Qaoa_obs.Json.t
(** Re-serialize (normalized form; used by the corpus generator and
    round-trip tests). *)

val fingerprint : t -> string
(** Canonical rendering of every field except [id] - exact edge list
    (or qasm text), device, policy, seed, p, angles (hex floats, so no
    decimal rounding), measure/verify/analyze/qasm_out.  Equal
    fingerprints imply byte-identical response bodies. *)

val cache_key : t -> Cache.key
(** The {!fingerprint}: two requests share a cache entry exactly when
    they parse to the same fields apart from [id]. *)
