open Circuit

(** Static sparsity / resource analyzer.

    Walks a circuit segment-by-segment — segments are aligned with the
    {!Sim.Program.split_prefix} boundary rule: a new segment starts at
    every measure/reset instruction that follows a non-measure/reset
    instruction — and derives, from the relational abstract
    interpretation ({!Reldom} threaded through {!Trace}), a summary a
    backend can select an engine from without touching the simulator.

    Everything here is {e sound}: the amplitude bound over-approximates
    every reachable branch state, the Clifford witness is
    observationally equivalent to the original circuit (statically-dead
    conditioned gates and phase gates on provably-|0> qubits are
    dropped, provably-decided controls are resolved), and the
    nondeterministic branch count under-counts nothing. *)

type segment = {
  start : int;  (** first instruction index of the segment *)
  stop : int;  (** one past the last instruction index *)
  clifford : bool;
      (** every witness instruction of the segment is representable in
          the CHP stabilizer gate set *)
  t_count : int;  (** uncontrolled T/T† gates surviving in the witness *)
  non_clifford : int;
      (** witness instructions outside the stabilizer set, T count
          excluded (rotations, V, multi-controlled gates, ...) *)
  log2_bound_end : int;
      (** sound upper bound on log2(nonzero amplitudes) after the
          segment's last instruction *)
  log2_bound_peak : int;  (** the same bound, maximized over the segment *)
  log2_bound_body : int;
      (** the same bound, maximized over the segment's body: the states
          after its opening measure/reset run (if any) collapsed them,
          which is every state its gates act on — what an engine
          replaying the segment pays per op.  [<= log2_bound_peak] *)
  nondet : int;
      (** measure/reset instructions whose outcome the analysis cannot
          pin — the segment's true branch points *)
}

type live_range = { first : int; last : int }
    (** instruction indices of the first and last reference *)

type summary = {
  num_qubits : int;
  num_bits : int;
  instructions : int;
  segments : segment list;  (** ascending by [start]; empty iff no instrs *)
  clifford : bool;  (** all segments Clifford *)
  witness : Circ.t;
      (** the simplified, observationally-equivalent circuit backing
          the [clifford] verdicts — a stabilizer backend may execute it
          in place of the original *)
  t_count : int;  (** sum over segments *)
  non_clifford : int;  (** sum over segments *)
  log2_bound_peak : int;  (** max over segments *)
  nondet_branches : int;  (** sum over segments *)
  dynamic_depth : int;
      (** critical path counting quantum and classical dependencies *)
  feedforward_depth : int;
      (** maximum number of measurement->conditioned-gate hops on any
          dependency path *)
  usage_counts : int array;
      (** per qubit, the number of instructions referencing it — the
          retirement counts {!Dqc.Reuse.rewire}'s scheduler consumes *)
  live_ranges : live_range option array;
      (** per qubit; [None] when the qubit is never referenced *)
}

(** Analyze a circuit (one [analyze.resources] span; one
    [analyze.segment] counter bump per segment).  Pass [trace] to reuse
    an existing interpreter run; it must belong to [c].
    @raise Invalid_argument on a foreign trace. *)
val analyze : ?trace:Trace.t -> Circ.t -> summary

(** [dqc.analyze/1] JSON document. *)
val to_json : ?name:string -> summary -> Obs.Json.t

val pp : Format.formatter -> summary -> unit
val to_string : summary -> string
