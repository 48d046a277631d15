(** Obfuscation-aware binding — paper Sec. IV-B.

    Given a locking configuration whose locked minterms are already
    fixed, bind each cycle's concurrent operations to FUs by a
    max-weight bipartite matching whose edge weights are Eqn. 3
    ([w(i,j)] = occurrences of FU [i]'s locked minterms in operation
    [j]). Per-cycle matchings are independent (separability), so the
    concatenation is the binding with the maximum expected application
    errors (Thm. 2), in O(s |Nm| |R| log |R|) time. *)

val bind :
  Rb_sim.Kmatrix.t ->
  Rb_locking.Config.t ->
  Rb_sched.Schedule.t ->
  Rb_hls.Allocation.t ->
  Rb_hls.Binding.t
(** The public algorithm: always returns a valid, complete binding
    (Thm. 1) maximizing Eqn. 2 for the given configuration. *)

(** Allocation-light fast path used by the co-design enumerators: the
    locked minterm sets are given as candidate-index subsets per locked
    FU over a prebuilt {!Cost.cand_table}. *)
module Fast : sig
  type t
  (** Preprocessed (schedule, allocation, table) state reused across
      millions of assignments. *)

  val prepare :
    Cost.cand_table ->
    Rb_sched.Schedule.t ->
    Rb_hls.Allocation.t ->
    kind:Rb_dfg.Dfg.op_kind ->
    t
  (** Specialize to one operation kind (the paper binds kinds
      separately; only FUs of [kind] can be locked in this state). *)

  val best_errors : t -> locks:(int * int array) list -> int
  (** Maximum Eqn. 2 value over bindings of this kind's operations,
      where [locks] gives (FU id, candidate-index subset) pairs.
      Does not materialize the binding. *)

  type tops
  (** Per-(cycle, subset) lists of each cycle's heaviest operations
      under a candidate subset's weight. Holds scratch space for
      {!tuple_errors}: use a value from one domain at a time. *)

  val tops : t -> depth:int -> int array array -> tops
  (** [tops t ~depth subsets] keeps, for every cycle and every subset
      in [subsets], the cycle's [depth] heaviest operations. Built once,
      it scores any assignment of those subsets to at most [depth]
      locked FUs by lookups ({!tuple_errors}). *)

  val tuple_errors : tops -> int array -> int
  (** [tuple_errors tops tuple] is {!best_errors} for distinct FUs of
      this kind locking [subsets.(tuple.(0))], [subsets.(tuple.(1))],
      ... — which FU locks which subset does not change the value.
      Raises [Invalid_argument] when [tuple] is longer than the depth. *)
end
