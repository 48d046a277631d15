(** Name-keyed registry of assignment algorithms (mirrors the binder
    registry). See DESIGN.md §14.

    Every registered matcher solves min-cost row-perfect assignment on
    a sparse {!Cost_graph.t} and returns optimal dual potentials with
    the primal. The duals serve two purposes: they certify optimality
    (checked property-wise in tests), and they let the registry
    normalize tied optima to one canonical assignment
    ({!Canonical.lex_min}), so binder output is byte-identical
    whichever matcher is selected.

    The "hungarian" reference is always registered; "auction" and "jv"
    join via {!Matchers.ensure_registered}. *)

exception Infeasible of string
(** No row-perfect matching exists within the graph's candidate arcs
    (a Hall violation, e.g. an arc-free row). Raised before the
    selected algorithm runs. *)

type solution = {
  assignment : int array;  (** [assignment.(r)] = column matched to row [r] *)
  row_duals : float array;
  col_duals : float array;
      (** Optimal duals: [w(i,j) >= u.(i) +. v.(j)] on every arc,
          equality on matched arcs, [v.(j) <= 0.] with equality on
          unmatched columns. *)
  phases : int;  (** augmenting phases / ε-phases, algorithm-defined *)
  scans : int;  (** relaxation scans / bids, algorithm-defined *)
}

module type S = sig
  val name : string
  val description : string

  val phase_metric : string
  (** Name of the per-algorithm phase counter
      (["augmenting_phases"] or ["epsilon_phases"]). *)

  val solve : Cost_graph.t -> solution
  (** Exact min-cost solve of a feasible graph with [rows >= 1]
      (the registry pre-checks both). *)
end

(** {1 Registry} *)

val register : (module S) -> unit
val names : unit -> string list
(** Sorted registered names. *)

val describe : string -> string
(** Raises [Invalid_argument] on an unknown name, like {!use}. *)

val use : string -> unit
(** Select the process-wide default matcher ([--matcher] on
    bindlock/bench). Deliberately not part of [Rb_service] job
    descriptions: matchers are output-equivalent by construction, so
    the selection must not perturb job digests. *)

val default : unit -> string
(** Currently selected default; ["hungarian"] at startup. *)

(** {1 Solving}

    All entry points: instrument under both the legacy ["matching/*"]
    totals and per-algorithm ["matching/<name>/*"] counters; pre-check
    feasibility on incomplete graphs (raising {!Infeasible}); return
    [[||]] for 0-row graphs. [?matcher] overrides the default.

    The [_assignment] variants canonicalize ties (lex-min over the
    optimal face) and are what binders use; the [_total] variants skip
    canonicalization — optimal totals are matcher-invariant already —
    for callers that only rank candidates. *)

val solve : ?matcher:string -> Cost_graph.t -> solution
(** Raw instrumented solve; duals as produced by the algorithm,
    assignment not canonicalized. *)

val min_cost_assignment : ?matcher:string -> Cost_graph.t -> int array
val min_cost_total : ?matcher:string -> Cost_graph.t -> float
val max_weight_assignment : ?matcher:string -> Cost_graph.t -> int array
val max_weight_total : ?matcher:string -> Cost_graph.t -> float

val min_cost_dense : ?matcher:string -> float array array -> int array
val max_weight_dense : ?matcher:string -> float array array -> int array
val max_weight_total_dense : ?matcher:string -> float array array -> float
