open Circuit

type policy = Auto | Statevector_dense | Sparse_statevector | Stabilizer | Exact_branch

let policy_to_string = function
  | Auto -> "auto"
  | Statevector_dense -> "dense"
  | Sparse_statevector -> "sparse"
  | Stabilizer -> "stabilizer"
  | Exact_branch -> "exact"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "auto" -> Some Auto
  | "dense" | "statevector" -> Some Statevector_dense
  | "sparse" | "sparse-statevector" -> Some Sparse_statevector
  | "stabilizer" | "chp" -> Some Stabilizer
  | "exact" | "exact-branch" -> Some Exact_branch
  | _ -> None

let pp_policy fmt p = Format.pp_print_string fmt (policy_to_string p)

let engine_name = function
  | `Stabilizer -> "stabilizer"
  | `Exact -> "exact"
  | `Dense -> "dense"
  | `Sparse -> "sparse"
  | `Hybrid -> "hybrid"

(* Per-circuit memo of the compiled program and the static resource
   summary, keyed on the physical circuit value: repeated [run]s of the
   same circuit pay for compilation and analysis once.  Keys are weak
   (ephemerons), so the cache never outlives its circuits. *)
module Cache = Ephemeron.K1.Make (struct
  type t = Circ.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type cached = {
  mutable program : Program.t option;
  mutable summary : Lint.Resource.summary option;
}

let cache : cached Cache.t = Cache.create 32

let cache_entry c =
  match Cache.find_opt cache c with
  | Some e -> e
  | None ->
      let e = { program = None; summary = None } in
      Cache.add cache c e;
      e

let compiled c =
  let e = cache_entry c in
  match e.program with
  | Some p -> p
  | None ->
      let p = Program.compile c in
      e.program <- Some p;
      p

let resource_summary c =
  let e = cache_entry c in
  match e.summary with
  | Some s -> s
  | None ->
      let s = Lint.Resource.analyze c in
      e.summary <- Some s;
      s

module Prefix = struct
  let is_branch = function
    | Instruction.Measure _ | Instruction.Reset _ -> true
    | Instruction.Unitary _ | Instruction.Conditioned _
    | Instruction.Barrier _ -> false

  let split c =
    let rec go acc = function
      | i :: rest when not (is_branch i) -> go (i :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    go [] (Circ.instructions c)

  (* Share of the circuit's non-branching instructions simulated once by
     the cache: 1.0 on terminal-measurement workloads (the whole unitary
     part is prefix), lower when mid-circuit measure/reset cuts it off.
     An all-branching circuit caches everything cacheable, hence 1.0. *)
  let fraction c =
    let prefix, suffix = split c in
    let cached = List.length prefix in
    let unitary =
      cached + List.length (List.filter (fun i -> not (is_branch i)) suffix)
    in
    if unitary = 0 then 1.0 else float_of_int cached /. float_of_int unitary
end

(* The exact backend pays ~2^k statevector replays up front and then
   O(1) per shot, where k is the analyzer's count of measure/reset
   points with statically unknown outcomes (deterministic collapses
   don't fork the branch tree) rather than the syntactic count; worth
   it only when that bound is comfortably below the shot count.  The
   old hard qubit cutoff stays for wide circuits unless the analyzer
   proves the live amplitude set itself is small. *)
let exact_auto_max_qubits = 16

let exact_tractable ~shots ~extra_branches c =
  Circ.num_qubits c <= Statevector.max_qubits
  &&
  let s = resource_summary c in
  let k = s.Lint.Resource.nondet_branches + extra_branches in
  (Circ.num_qubits c <= exact_auto_max_qubits
  || s.Lint.Resource.log2_bound_peak <= exact_auto_max_qubits)
  && k < Sys.int_size - 2
  && 1 lsl k <= max 64 (shots / 4)

(* ------------------------------------------------------------------ *)
(* Per-segment engine planning                                        *)

(* A segment goes sparse when the analyzer's certified amplitude bound
   leaves a comfortable margin under the dense dimension: with at most
   2^b nonzeros against 2^n dense amplitudes, sparse replay wins once
   the hash-table constant factor (~2^margin) is covered.  Past the
   dense cap there is no choice — every segment is sparse, which is
   the planning-time face of the [State.Dense_cap_exceeded] fallback. *)
let sparse_margin = 6

(* Beyond this bound the hash-map state is dense-like (2^b entries)
   and the dense kernels' linear scans win on locality. *)
let sparse_log2_cap = 16

(* A segment is charged its body bound: when it opens with a
   measure/reset run, only that run sees the superposition it enters
   with, and every later op sees the collapsed state. *)
let sparse_worthwhile ~n (g : Lint.Resource.segment) =
  n > Statevector.max_qubits
  || (g.Lint.Resource.log2_bound_body <= sparse_log2_cap
     && n - g.Lint.Resource.log2_bound_body >= sparse_margin)

type segment_engine = {
  seg_start : int;
  seg_stop : int;
  seg_engine : [ `Dense | `Sparse ];
  seg_log2_bound : int;
  seg_clifford : bool;
}

let segment_plan c =
  let n = Circ.num_qubits c in
  let s = resource_summary c in
  List.map
    (fun (g : Lint.Resource.segment) ->
      {
        seg_start = g.Lint.Resource.start;
        seg_stop = g.Lint.Resource.stop;
        seg_engine = (if sparse_worthwhile ~n g then `Sparse else `Dense);
        seg_log2_bound = g.Lint.Resource.log2_bound_body;
        seg_clifford = g.Lint.Resource.clifford;
      })
    s.Lint.Resource.segments

(* The exact enumerator runs on the representation the plan would run
   shots on: sparse when every segment is, dense otherwise (a mixed
   plan has a segment whose states are too full for the hash table). *)
let exact_representation c =
  let plan = segment_plan c in
  if plan <> [] && List.for_all (fun p -> p.seg_engine = `Sparse) plan then
    `Sparse
  else `Dense

let segment_plan_string plan =
  String.concat "," (List.map (fun p -> engine_name p.seg_engine) plan)

(* Clifford routing under [Auto]: the whole-circuit scan is the cheap
   path; failing that, the analyzer's witness — the same circuit minus
   statically-dead gates — is consulted, so a per-segment-Clifford
   dynamic circuit whose only non-Clifford gates are provably dead
   still lands on the tableau engine. *)
let stabilizer_circuit c =
  if Stabilizer.supports c then Some c
  else
    let s = resource_summary c in
    if s.Lint.Resource.clifford && Stabilizer.supports s.Lint.Resource.witness
    then Some s.Lint.Resource.witness
    else None

(* [extra_branches] accounts for terminal measurements a measurement
   plan appends after selection (each at most one branch point). *)
let select_gen ?(policy = Auto) ~shots ~extra_branches c =
  let engine =
    match policy with
    | Statevector_dense -> `Dense
    | Sparse_statevector -> `Sparse
    | Stabilizer ->
        if not (Stabilizer.supports c) then
          raise
            (Stabilizer.Unsupported
               "Backend.run: stabilizer policy on a non-Clifford circuit");
        `Stabilizer
    | Exact_branch -> `Exact
    | Auto ->
        if stabilizer_circuit c <> None then `Stabilizer
        else if exact_tractable ~shots ~extra_branches c then `Exact
        else
          (* per-segment planning: all-dense plans run dense, all-sparse
             plans sparse, mixed plans hybrid with representation
             handoffs *)
          let plan = segment_plan c in
          let sparse p = p.seg_engine = `Sparse in
          if plan <> [] && List.for_all sparse plan then `Sparse
          else if List.exists sparse plan then `Hybrid
          else `Dense
  in
  let fits who cap =
    if Circ.num_qubits c > cap then
      invalid_arg
        (Printf.sprintf "Backend.run: %s backend capped at %d qubits (got %d)"
           who cap (Circ.num_qubits c))
  in
  (match engine with
  | `Dense -> fits "dense" Statevector.max_qubits
  | `Exact -> fits "exact-branch" Statevector.max_qubits
  | `Sparse -> fits "sparse" Sparse.max_qubits
  | `Stabilizer | `Hybrid -> ());
  Obs.incr ("backend.select." ^ engine_name engine);
  engine

let select ?policy ~shots c = select_gen ?policy ~shots ~extra_branches:0 c

(* ------------------------------------------------------------------ *)
(* The statevector executor                                           *)

(* Every dense, sparse and hybrid dispatch threads one state through a
   list of [(engine, program)] segments, converting representation at
   engine boundaries.  The deterministic prefix of the first segment
   ({!Program.split_prefix}) is executed once, and converted once if
   the first per-shot segment runs on the other engine; each shot
   copies that state and replays only what follows it. *)
type hstate = Hdense of State.t | Hsparse of Sparse.t

let hcopy = function
  | Hdense d -> Hdense (State.copy d)
  | Hsparse s -> Hsparse (Sparse.copy s)

let hregister = function
  | Hdense d -> State.register d
  | Hsparse s -> Sparse.register s

let hconvert h tag =
  match (h, tag) with
  | Hdense _, `Dense | Hsparse _, `Sparse -> h
  | Hdense d, `Sparse -> Hsparse (Sparse.of_state d)
  | Hsparse s, `Dense -> Hdense (Sparse.to_state s)

let hexec ~random h prog =
  match h with
  | Hdense d -> Program.exec ~random d prog
  | Hsparse s -> Sparse.exec ~random s prog

let rec replay ~random h = function
  | [] -> hregister h
  | (tag, prog) :: rest ->
      let h = hconvert h tag in
      hexec ~random h prog;
      replay ~random h rest

let execute ?domains ~seed ~width ~shots ~prefix_cache base segs =
  let fresh tag =
    let n = Circ.num_qubits base and num_bits = Circ.num_bits base in
    match tag with
    | `Dense -> Hdense (State.create n ~num_bits)
    | `Sparse -> Hsparse (Sparse.create n ~num_bits)
  in
  let tag0, prog0, rest =
    match segs with
    | (tag, prog) :: rest -> (tag, prog, rest)
    | [] -> invalid_arg "Backend.execute: empty segment list"
  in
  let cached, per_shot =
    if prefix_cache then
      Obs.with_span "backend.prefix.prepare" (fun () ->
          let prefix, suffix = Program.split_prefix prog0 in
          let h = fresh tag0 in
          hexec ~random:Program.no_random h prefix;
          if Obs.enabled () || Obs.Flight.enabled () then begin
            let f = Prefix.fraction base in
            Obs.set_gauge "backend.prefix.fraction" f;
            if Obs.Flight.enabled () then
              Obs.Flight.record ~kind:"backend.prefix.prepared"
                [ ("fraction", Obs.Json.Float f) ]
          end;
          (* counted once per dispatch, not per shot: a counter bump is a
             name lookup in the domain buffer, too expensive for the
             per-shot path under the <2% telemetry budget *)
          Obs.incr ~n:shots "backend.prefix.hit";
          let per_shot =
            if Program.length suffix = 0 then rest
            else (tag0, suffix) :: rest
          in
          (* when the first per-shot segment runs on the other engine,
             the cached state is converted here, once per dispatch, and
             every shot copies the converted state *)
          match per_shot with
          | (tag, _) :: _ -> (hconvert h tag, per_shot)
          | [] -> (h, per_shot))
    else begin
      if Obs.Flight.enabled () then
        Obs.Flight.record ~kind:"backend.prefix.bypassed" [];
      Obs.incr ~n:shots "backend.prefix.miss";
      (fresh tag0, segs)
    end
  in
  (* a shot's private state: with nothing left to replay, a shot only
     reads the cached state's register *)
  let shot_state =
    match per_shot with
    | [] -> fun () -> cached
    | _ :: _ -> fun () -> hcopy cached
  in
  Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
      replay ~random:(fun () -> Random.State.float rng 1.0) (shot_state ())
        per_shot)

(* Hybrid segments: the analyzer's plan with adjacent same-engine
   segments compiled together.  Their boundaries are measure/reset ops,
   which fusion never crosses, so the op streams are unchanged; every
   remaining boundary is a representation handoff, counted once per
   shot per boundary crossed, whether a conversion serves it or (at a
   boundary right after the cached prefix) a copy of the prefix state
   [execute] converted once.  Every replay crosses the same boundaries,
   so the counters are bumped once per dispatch. *)
let hybrid_segments ~shots base =
  let n = Circ.num_qubits base and num_bits = Circ.num_bits base in
  let plan = segment_plan base in
  let instrs = Array.of_list (Circ.instructions base) in
  let rec merge = function
    | a :: b :: rest when a.seg_engine = b.seg_engine ->
        merge ({ a with seg_stop = b.seg_stop } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  let segs =
    List.map
      (fun p ->
        ( p.seg_engine,
          Program.compile_instructions ~num_qubits:n ~num_bits
            (Array.to_list
               (Array.sub instrs p.seg_start (p.seg_stop - p.seg_start))) ))
      (merge plan)
  in
  (* merged, the engines alternate: each later segment is one handoff
     into its engine *)
  let into tag =
    match segs with
    | [] -> 0
    | _ :: later -> List.length (List.filter (fun (t, _) -> t = tag) later)
  in
  let d2s = into `Sparse and s2d = into `Dense in
  if d2s > 0 then Obs.incr ~n:(d2s * shots) "backend.handoff.dense_to_sparse";
  if s2d > 0 then Obs.incr ~n:(s2d * shots) "backend.handoff.sparse_to_dense";
  if Obs.Flight.enabled () then
    Obs.Flight.record ~kind:"backend.hybrid.plan"
      [
        ("segments", Obs.Json.String (segment_plan_string plan));
        ("handoffs_per_shot", Obs.Json.Int (d2s + s2d));
      ];
  segs

let run ?policy ?(seed = Runner.default_seed) ?domains ?plan
    ?(prefix_cache = true) ~shots c =
  (* selection happens on the un-instrumented circuit (the plan's
     terminal measurements change neither the gate set nor the qubit
     count; their branch points are accounted separately), so the
     per-circuit analysis memo keys on the caller's stable value *)
  let extra_branches =
    match plan with
    | None -> 0
    | Some plan ->
        List.length
          (Measurement_plan.to_pairs ~num_qubits:(Circ.num_qubits c) plan)
  in
  let engine = select_gen ?policy ~shots ~extra_branches c in
  let instrument circuit =
    match plan with
    | None -> circuit
    | Some plan -> Measurement_plan.instrument plan circuit
  in
  let base = instrument c in
  let width = Circ.num_bits base in
  (* planned on the un-instrumented circuit, like the selection: the
     plan's terminal measurements never widen the amplitude set *)
  let exact_repr =
    match engine with
    | `Exact -> Some (exact_representation c)
    | `Stabilizer | `Dense | `Sparse | `Hybrid -> None
  in
  if Obs.Flight.enabled () then
    Obs.Flight.record ~kind:"backend.run"
      ([
         ("engine", Obs.Json.String (engine_name engine));
         ("seed", Obs.Json.Int seed);
         ("shots", Obs.Json.Int shots);
         ("qubits", Obs.Json.Int (Circ.num_qubits base));
         ("prefix_cache", Obs.Json.Bool prefix_cache);
       ]
      @
      match exact_repr with
      | Some r -> [ ("exact_repr", Obs.Json.String (engine_name r)) ]
      | None -> []);
  let execute = execute ?domains ~seed ~width ~shots ~prefix_cache base in
  let dispatch_inner () =
    match engine with
    | `Stabilizer ->
        (* an Auto selection may be backed by the analyzer's witness —
           run that circuit: it is observationally equivalent and inside
           the tableau gate set *)
        let cs =
          match stabilizer_circuit c with
          | Some w -> instrument w
          | None -> base
        in
        Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
            Stabilizer.register (Stabilizer.run ~rng cs))
    | `Exact ->
        let dist =
          match exact_repr with
          | Some `Sparse ->
              Obs.incr "backend.exact.sparse";
              Exact.Sparse.register_distribution base
          | Some `Dense | None ->
              Obs.incr "backend.exact.dense";
              Exact.Dense.register_distribution base
        in
        let sampler = Dist.sampler dist in
        Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
            Dist.sample sampler rng)
    | `Dense -> execute [ (`Dense, compiled base) ]
    | `Sparse -> execute [ (`Sparse, compiled base) ]
    | `Hybrid -> execute (hybrid_segments ~shots base)
  in
  (* Under [Auto] the typed dense-cap signal is a routing event, not an
     error: a dense attempt that outgrows [State.max_qubits] falls back
     to the sparse engine.  (Selection already plans around the cap;
     this is the catch the escape hatch documents.)  A forced policy
     keeps its failure. *)
  let dispatch () =
    match policy with
    | None | Some Auto -> (
        try dispatch_inner ()
        with State.Dense_cap_exceeded _ ->
          Obs.incr "backend.fallback.sparse";
          if Obs.Flight.enabled () then
            Obs.Flight.record ~kind:"backend.fallback.sparse"
              [ ("qubits", Obs.Json.Int (Circ.num_qubits base)) ];
          execute [ (`Sparse, compiled base) ])
    | Some (Statevector_dense | Sparse_statevector | Stabilizer | Exact_branch)
      ->
        dispatch_inner ()
  in
  if not (Obs.enabled ()) then dispatch ()
  else begin
    let name = engine_name engine in
    Obs.incr ("backend.run." ^ name);
    (* dense dispatches execute compiled programs: count them under the
       program engine as well so the compiled/interpreted split is
       visible in the metrics JSON *)
    (match engine with
    | `Dense | `Sparse | `Hybrid -> Obs.incr "backend.run.program"
    | `Stabilizer | `Exact -> ());
    Obs.incr ~n:shots "backend.shots";
    let r =
      Obs.with_span "backend.run"
        ~attrs:
          [
            ("engine", name);
            ("shots", string_of_int shots);
            ("qubits", string_of_int (Circ.num_qubits base));
          ]
        dispatch
    in
    (* the main domain's buffer (workers flushed at join) *)
    Obs.flush ();
    r
  end

let run_measured ?policy ?seed ?domains ?prefix_cache ~shots ~measures c =
  run ?policy ?seed ?domains ~plan:(Measurement_plan.of_pairs measures)
    ?prefix_cache ~shots c
