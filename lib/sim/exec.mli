(** Trace-driven execution of (possibly bound and locked) DFGs.

    Two execution modes back the whole evaluation:

    - {!eval_clean}: the golden run. Per sample, every operation's
      operand pair and result — the raw material of the K matrix
      (Sec. IV-A) and of the switching model.
    - {!eval_locked}: the wrong-key run. Operations bound to a locked
      FU produce corrupted output whenever their (possibly already
      corrupted) operands form a locked minterm, and the corruption
      propagates through the dataflow — the application-level error the
      paper is engineering. *)

module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm

type op_eval = { a : int; b : int; result : int }
(** One operation's operand pair and result in one sample. *)

(** Zero-allocation evaluation for sample loops.

    [make] compiles the trace's DFG once — operand sources flattened
    to int arrays, input names resolved to sample columns — and
    allocates result buffers that every subsequent {!Fast.eval_clean}
    reuses. Callers that sweep a whole trace (the K-matrix build, the
    operand profile, the RTL trace check, the error aggregation) pay
    the interpretive cost per trace instead of per sample and allocate
    nothing inside the loop. The one-shot {!eval_clean}/{!eval_locked}
    functions below stay as conveniences for single-sample callers. *)
module Fast : sig
  type t

  val make : Trace.t -> t
  (** Compile the trace's DFG. O(ops), including the per-input name
      lookups the evaluation loop then never repeats. *)

  val n_ops : t -> int

  val eval_clean : t -> sample:int -> unit
  (** Golden evaluation of one sample into the internal buffers. *)

  val a : t -> int array
  (** Left operands of the last evaluation, indexed by op id. The
      buffer is owned by [t] and overwritten by the next evaluation —
      read, don't keep. *)

  val b : t -> int array
  (** Right operands; same ownership rules as {!a}. *)

  val results : t -> int array
  (** Results; same ownership rules as {!a}. *)
end

val eval_clean : Trace.t -> sample:int -> op_eval array
(** Golden evaluation of one sample, indexed by operation id.

    One-shot helper: every call compiles the DFG with {!Fast.make}
    and allocates one record per operation, so a loop over a trace's
    samples should compile one {!Fast} plan and call
    {!Fast.eval_clean} instead. Kept as the by-hand reference the
    tests compare against. *)

val eval_locked :
  Trace.t ->
  sample:int ->
  fu_of_op:int array ->
  config:Rb_locking.Config.t ->
  op_eval array * int
(** Wrong-key evaluation of one sample under a binding ([fu_of_op]
    maps operation id to FU id) and a locking configuration. Returns
    the per-operation evaluations (with corruption propagated) and the
    number of error-injection events (locked-FU executions whose
    operand minterm was locked).

    One-shot helper like {!eval_clean}: it compiles the DFG and
    builds the locked-minterm tables on every call. Whole-trace
    callers use {!application_errors}. *)

type error_report = {
  samples : int;  (** trace length *)
  error_events : int;  (** locked-input hits during faulty execution *)
  clean_hits : int;  (** locked-input hits during golden execution — the realized value of cost Eqn. 2 *)
  corrupted_output_words : int;  (** output words differing from golden, summed over samples *)
  corrupted_samples : int;  (** samples with at least one wrong output *)
  corrupted_cycles : int;  (** (sample, cycle) pairs with >= 1 injection *)
  max_consecutive_cycles : int;  (** longest error burst within a sample — the "quality" notion of Sec. III *)
}

val application_errors :
  Rb_sched.Schedule.t ->
  Trace.t ->
  fu_of_op:int array ->
  config:Rb_locking.Config.t ->
  error_report
(** Run the whole trace both clean and locked and aggregate the
    application-level error metrics. Raises [Invalid_argument] if the
    trace and schedule wrap different DFGs or the binding array length
    differs from the operation count. *)
