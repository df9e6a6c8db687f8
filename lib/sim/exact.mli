open Circuit

(** Exact evaluation of circuits with mid-circuit measurement and
    active reset, by enumerating measurement branches with their Born
    probabilities.  This is the distribution a shot-based simulator
    (the paper uses AER with 1024 shots) converges to, computed without
    sampling noise — the basis of the functional-equivalence checks. *)

(** A leaf of the branching execution, holding the engine's state. *)
type 's branch = {
  probability : float;
  register : int;  (** classical register at the end *)
  state : 's;  (** final (normalized) quantum state *)
}

(** A leaf of the dense enumeration. *)
type leaf = Statevector.t branch

(** The enumerator, over any {!Engine.S}: a depth-first walk of the
    compiled program that forks at every measure/reset into the
    outcomes whose Born probability (times the path's) exceeds
    [prune] (default 1e-12).  It holds at most one state per open
    fork, so memory grows with the branching depth, not the leaf
    count.  Each leaf bumps [sim.exact.leaves]; the walk runs under an
    [exact.enumerate] span with [qubits] and [engine] attributes.
    The engines mirror each other's kernels, so dense and sparse
    enumerations agree to rounding noise. *)
module Make (E : Engine.S) : sig
  (** All leaves, in depth-first order.
      @raise Invalid_argument when [prune] is negative or NaN. *)
  val leaves : ?prune:float -> Circ.t -> E.state branch list

  (** Exact distribution over the classical register.  Streams: each
      leaf's state is dropped once its register is read. *)
  val register_distribution : ?prune:float -> Circ.t -> Dist.t
end

(** The dense instance ([2^n] amplitudes per live state). *)
module Dense : module type of Make (Statevector.Dense_engine)

(** The sparse instance (memory per nonzero amplitude) — what
    {!Backend} enumerates on when every analyzer segment plans
    sparse. *)
module Sparse : module type of Make (Sparse.Sparse_engine)

(** [Dense.leaves].
    @raise Invalid_argument when [prune] is negative or NaN. *)
val leaves : ?prune:float -> Circ.t -> leaf list

(** [Dense.register_distribution]. *)
val register_distribution : ?prune:float -> Circ.t -> Dist.t

(** [plan_distribution ~plan c] instruments [c] with the plan's
    terminal measurements ({!Measurement_plan.instrument}) and returns
    the exact register distribution. *)
val plan_distribution :
  ?prune:float -> plan:Measurement_plan.t -> Circ.t -> Dist.t

(** [measured_distribution ~measures c] is
    [plan_distribution ~plan:(Measurement_plan.of_pairs measures) c]. *)
val measured_distribution :
  ?prune:float -> measures:(int * int) list -> Circ.t -> Dist.t

(** [measure_all_distribution c] measures every qubit at the end,
    qubit [q] into bit [q]; requires [num_bits >= num_qubits] or widens
    the register. *)
val measure_all_distribution : ?prune:float -> Circ.t -> Dist.t
