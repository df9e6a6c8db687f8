open Circuit

(** First-class execution backends behind one entry point.

    [Backend.run] replaces ad-hoc calls to the individual engines: it
    picks an execution strategy for the circuit (or honours an explicit
    [policy]), shards the shots across domains through {!Parallel} and
    returns an ordinary {!Runner.histogram}.

    Backends:
    - {e dense statevector} — the general engine, one replay per shot;
    - {e sparse statevector} — basis-amplitude storage ({!Sparse}):
      memory and per-op work scale with the nonzero count, which is
      what lets basis-sparse dynamic circuits (the paper's dyn2
      scheme) run past the dense 24-qubit cap;
    - {e stabilizer} — CHP tableau when the circuit is Clifford
      ({!Stabilizer.supports}); scales to hundreds of qubits;
    - {e exact branch} — when the measurement/reset count is small the
      exact branching distribution ({!Exact}) is computed once — on
      the sparse engine when every planned segment is sparse, densely
      otherwise — and shots are drawn from it with the O(1) alias
      sampler.

    [Auto] additionally plans {e per segment} (see {!segment_plan}):
    when the analyzer proves only part of the circuit basis-sparse,
    each segment runs on its best engine and the state representation
    is converted at the handoffs.

    Dense, sparse and hybrid runs share one executor: a list of
    [(engine, program)] segments (a single one for dense and sparse)
    whose deterministic leading prefix is simulated once per dispatch
    (see {!Prefix}); each shot copies that state — or converts it,
    when the next segment runs on the other engine — and replays the
    remaining segments.

    Determinism: for a fixed [seed] the histogram is byte-identical
    regardless of [domains] and of the prefix cache, because every
    shot owns a split RNG state (see {!Parallel}); and dense and
    sparse replays consume randomness identically, so engine choice
    does not perturb the shot stream. *)

type policy =
  | Auto
      (** inspect the circuit: stabilizer > exact branch > per-segment
          dense/sparse plan *)
  | Statevector_dense
  | Sparse_statevector
  | Stabilizer
  | Exact_branch

val policy_to_string : policy -> string

(** Parses ["auto" | "dense" | "sparse" | "stabilizer" | "exact"]
    (plus the ["statevector"], ["sparse-statevector"], ["chp"],
    ["exact-branch"] aliases), case-insensitively. *)
val policy_of_string : string -> policy option

val pp_policy : Format.formatter -> policy -> unit

(** {1 Shared-prefix cache}

    Every instruction before the first measurement/reset is
    deterministic (unitaries, barriers, and conditioned gates reading
    the still-all-zero register), so {!run} simulates that prefix once
    per dispatch — on whichever statevector engine the first segment
    runs on — and replays only the suffix per shot.  On
    terminal-measurement workloads (the paper's Tables I–II benchmarks
    run through a {!Measurement_plan}) the whole circuit is prefix and
    a shot collapses to copy + measure. *)
module Prefix : sig
  (** Split at the first measurement/reset: [(prefix, suffix)]. *)
  val split : Circ.t -> Instruction.t list * Instruction.t list

  (** Share of the circuit's non-branching (unitary/barrier/conditioned)
      instructions that fall in the cached prefix — [1.0] exactly when
      every measurement is terminal.  Also published as the
      [backend.prefix.fraction] telemetry gauge by a prefix-cached
      {!run}. *)
  val fraction : Circ.t -> float
end

(** The circuit's static resource summary ({!Lint.Resource.analyze}),
    memoized per physical circuit value alongside the compiled program
    — repeated [select]/[run] calls on the same circuit analyze it
    once. *)
val resource_summary : Circ.t -> Lint.Resource.summary

(** {1 Per-segment engine planning}

    The analyzer's segments (see {!Lint.Resource}: a new segment
    starts at every measure/reset following a non-measure/reset, the
    same boundary {!Program.split_prefix} cuts at) each carry a
    certified [log2] bound on reachable nonzero amplitudes.  A segment
    is charged its body bound — the states after its opening
    measure/reset run, which are the ones its gates act on — and is
    planned sparse when that bound leaves a comfortable margin under
    the dense dimension, or unconditionally past the dense qubit cap,
    where sparse is the only statevector that fits. *)

type segment_engine = {
  seg_start : int;  (** first instruction index of the segment *)
  seg_stop : int;  (** one past the last instruction index *)
  seg_engine : [ `Dense | `Sparse ];
  seg_log2_bound : int;
      (** the analyzer's certified [log2] nonzero-amplitude bound over
          the segment's body ({!Lint.Resource.segment.log2_bound_body})
          — the bound its engine was picked by *)
  seg_clifford : bool;
}

(** The per-segment engine assignment [Auto] executes when it picks
    [`Sparse] (all segments sparse) or [`Hybrid] (mixed).  Reported by
    [dqc_cli analyze] and the sparsity experiment. *)
val segment_plan : Circ.t -> segment_engine list

(** The representation the exact-branch backend enumerates on:
    [`Sparse] when every {!segment_plan} segment is sparse, [`Dense]
    otherwise.  A dispatch bumps [backend.exact.<dense|sparse>] and
    records it as the [exact_repr] field of the [backend.run] flight
    event. *)
val exact_representation : Circ.t -> [ `Dense | `Sparse ]

(** ["dense" | "sparse" | "hybrid" | "stabilizer" | "exact"]: an engine's
    name in telemetry ([backend.select.<engine>], [backend.run.<engine>])
    and reports. *)
val engine_name :
  [< `Dense | `Sparse | `Hybrid | `Stabilizer | `Exact ] -> string

(** ["dense,sparse,..."] — the plan's engines, comma-joined. *)
val segment_plan_string : segment_engine list -> string

(** The backend [run] would dispatch to.  [Auto] consults the
    per-segment resource summary: stabilizer when every segment is
    Clifford — by the whole-circuit scan or by the analyzer's
    observationally-equivalent witness circuit (so provably-dead
    non-Clifford gates don't force the dense engine); exact branching
    when the leaf bound [2^nondet_branches] is small relative to
    [shots] and either the circuit is narrow or the static amplitude
    bound is; otherwise the per-segment {!segment_plan} — all-dense
    plans run dense, all-sparse plans run {!Sparse}, mixed plans run
    the hybrid executor with representation conversions at segment
    handoffs.  Selection bumps the [backend.select.<engine>] counter
    ([dense]/[sparse]/[hybrid]/[stabilizer]/[exact]).
    @raise Stabilizer.Unsupported when the [Stabilizer] policy is
    forced on a non-Clifford circuit.
    @raise Invalid_argument when [Statevector_dense]/[Exact_branch] is
    forced beyond {!Statevector.max_qubits}, or [Sparse_statevector]
    beyond {!Sparse.max_qubits}. *)
val select :
  ?policy:policy ->
  shots:int ->
  Circ.t ->
  [ `Dense | `Stabilizer | `Exact | `Sparse | `Hybrid ]

(** [run ?policy ?seed ?domains ?plan ?prefix_cache ~shots c] executes
    [shots] shots of [c] (instrumented with [plan]'s terminal
    measurements when given) on the selected backend, sharded across
    [domains] workers (default [Domain.recommended_domain_count ()]).
    [prefix_cache] (default [true]) enables the shared-prefix cache on
    the dense, sparse and hybrid backends; disabling it replays the
    full circuit per shot and yields the same histogram bit-for-bit.

    [seed] defaults to {!Runner.default_seed} — the constant shared
    with the serial engine.

    Under [Auto], a dense dispatch that raises
    {!State.Dense_cap_exceeded} is caught and rerun on the sparse
    engine ([backend.fallback.sparse] counter + flight event); forced
    policies propagate their failures.

    Telemetry (when an [Obs] collector is installed): a [backend.run]
    span (attrs: engine, shots, qubits) around the dispatch, counters
    [backend.run.<engine>] and [backend.shots].  Dense, sparse and
    hybrid dispatches execute compiled kernel programs ({!Program}),
    additionally bump [backend.run.program], count every shot into
    [backend.prefix.hit] / [backend.prefix.miss], and, with the cache
    on, run a [backend.prefix.prepare] span and set the
    [backend.prefix.fraction] gauge.  Hybrid dispatches count
    per-shot representation conversions into
    [backend.handoff.dense_to_sparse] /
    [backend.handoff.sparse_to_dense] and record a
    [backend.hybrid.plan] flight event with the segment-engine string.
    The histogram itself is byte-identical whether or not telemetry is
    on. *)
val run :
  ?policy:policy ->
  ?seed:int ->
  ?domains:int ->
  ?plan:Measurement_plan.t ->
  ?prefix_cache:bool ->
  shots:int ->
  Circ.t ->
  Runner.histogram

(** [run_measured] is {!run} with [Measurement_plan.of_pairs measures]
    — the drop-in replacement for {!Runner.run_shots_measured}. *)
val run_measured :
  ?policy:policy ->
  ?seed:int ->
  ?domains:int ->
  ?prefix_cache:bool ->
  shots:int ->
  measures:(int * int) list ->
  Circ.t ->
  Runner.histogram
