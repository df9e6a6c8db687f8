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
  type t = {
    state : Statevector.t;
    suffix : Instruction.t list;
    suffix_program : Program.t;
  }

  let split c =
    let rec go acc = function
      | (Instruction.Measure _ | Instruction.Reset _) :: _ as rest ->
          (List.rev acc, rest)
      | ((Instruction.Unitary _ | Instruction.Conditioned _
         | Instruction.Barrier _) as i)
        :: rest -> go (i :: acc) rest
      | [] -> (List.rev acc, [])
    in
    go [] (Circ.instructions c)

  (* Share of the circuit's non-branching instructions simulated once by
     the cache: 1.0 on terminal-measurement workloads (the whole unitary
     part is prefix), lower when mid-circuit measure/reset cuts it off.
     An all-branching circuit caches everything cacheable, hence 1.0. *)
  let fraction c =
    let prefix, suffix = split c in
    let unitary =
      List.length prefix
      + List.length
          (List.filter
             (function
               | Instruction.Measure _ | Instruction.Reset _ -> false
               | Instruction.Unitary _ | Instruction.Conditioned _
               | Instruction.Barrier _ -> true)
             suffix)
    in
    if unitary = 0 then 1.0
    else float_of_int (List.length prefix) /. float_of_int unitary

  (* The cache keys on compiled program segments: the whole circuit is
     lowered once (through the per-circuit memo) and split at the first
     measure/reset op (the same boundary as the instruction-level
     [split] — fusion never crosses it), the prefix segment is executed
     once here, and [run_shot] replays only the compiled suffix. *)
  let prepare c =
    Obs.with_span "backend.prefix.prepare" (fun () ->
        let _, suffix = split c in
        let program = compiled c in
        let prefix_program, suffix_program = Program.split_prefix program in
        let st = Program.fresh_state program in
        Program.exec ~random:Program.no_random st prefix_program;
        Obs.set_gauge "backend.prefix.fraction" (fraction c);
        if Obs.Flight.enabled () then
          Obs.Flight.record ~kind:"backend.prefix.prepared"
            [ ("fraction", Obs.Json.Float (fraction c)) ];
        { state = st; suffix; suffix_program })

  let state t = t.state
  let suffix t = t.suffix

  let run_shot t ~rng =
    let st = Statevector.copy t.state in
    let random () = Random.State.float rng 1.0 in
    Program.exec ~random st t.suffix_program;
    Statevector.register st
end

let branch_points c =
  List.fold_left
    (fun acc i ->
      match i with
      | Instruction.Measure _ | Instruction.Reset _ -> acc + 1
      | Instruction.Unitary _ | Instruction.Conditioned _
      | Instruction.Barrier _ -> acc)
    0 (Circ.instructions c)

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

let check_dense_fits ~who c =
  if Circ.num_qubits c > Statevector.max_qubits then
    invalid_arg
      (Printf.sprintf "Backend.run: %s backend capped at %d qubits (got %d)"
         who Statevector.max_qubits (Circ.num_qubits c))

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
  String.concat ","
    (List.map
       (fun p ->
         match p.seg_engine with `Dense -> "dense" | `Sparse -> "sparse")
       plan)

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

let check_sparse_fits c =
  if Circ.num_qubits c > Sparse.max_qubits then
    invalid_arg
      (Printf.sprintf "Backend.run: sparse backend capped at %d qubits (got %d)"
         Sparse.max_qubits (Circ.num_qubits c))

(* [extra_branches] accounts for terminal measurements a measurement
   plan appends after selection (each at most one branch point). *)
let select_gen ?(policy = Auto) ~shots ~extra_branches c =
  let engine =
    match policy with
    | Statevector_dense ->
        check_dense_fits ~who:"dense" c;
        `Dense
    | Sparse_statevector ->
        check_sparse_fits c;
        `Sparse
    | Stabilizer ->
        if not (Stabilizer.supports c) then
          raise
            (Stabilizer.Unsupported
               "Backend.run: stabilizer policy on a non-Clifford circuit");
        `Stabilizer
    | Exact_branch ->
        check_dense_fits ~who:"exact-branch" c;
        `Exact
    | Auto ->
        if stabilizer_circuit c <> None then `Stabilizer
        else if exact_tractable ~shots ~extra_branches c then `Exact
        else begin
          (* per-segment planning: all-dense plans run the classic
             dense path, all-sparse plans the sparse engine, mixed
             plans the hybrid executor with representation handoffs *)
          let plan = segment_plan c in
          let sparse_segs =
            List.length (List.filter (fun p -> p.seg_engine = `Sparse) plan)
          in
          if plan <> [] && sparse_segs = List.length plan then begin
            check_sparse_fits c;
            `Sparse
          end
          else if sparse_segs > 0 then `Hybrid
          else begin
            check_dense_fits ~who:"dense" c;
            `Dense
          end
        end
  in
  (match engine with
  | `Stabilizer -> Obs.incr "backend.select.stabilizer"
  | `Exact -> Obs.incr "backend.select.exact"
  | `Dense -> Obs.incr "backend.select.dense"
  | `Sparse -> Obs.incr "backend.select.sparse"
  | `Hybrid -> Obs.incr "backend.select.hybrid");
  engine

let select ?policy ~shots c = select_gen ?policy ~shots ~extra_branches:0 c

let engine_name = function
  | `Stabilizer -> "stabilizer"
  | `Exact -> "exact"
  | `Dense -> "dense"
  | `Sparse -> "sparse"
  | `Hybrid -> "hybrid"

(* ------------------------------------------------------------------ *)
(* Sparse and hybrid dispatch                                         *)

(* Sparse twin of the dense prefix-cached dispatch: execute the
   deterministic compiled prefix once on the sparse engine, replay
   only the suffix per shot. *)
let run_sparse ?domains ~seed ~width ~shots ~prefix_cache base =
  let program = compiled base in
  if prefix_cache then begin
    let prefix_program, suffix_program = Program.split_prefix program in
    let cached =
      Sparse.create (Circ.num_qubits base) ~num_bits:(Circ.num_bits base)
    in
    Sparse.exec ~random:Program.no_random cached prefix_program;
    Obs.incr ~n:shots "backend.prefix.hit";
    Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
        let st = Sparse.copy cached in
        Sparse.exec ~random:(fun () -> Random.State.float rng 1.0) st
          suffix_program;
        Sparse.register st)
  end
  else begin
    Obs.incr ~n:shots "backend.prefix.miss";
    Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
        Sparse.register (Sparse.run ~rng program))
  end

(* Hybrid execution threads one state through the analyzer's segments,
   converting representation at engine boundaries.  Segments are
   compiled from the instruction ranges of [Lint.Resource.analyze] —
   the same boundary rule as [Program.split_prefix], so segment 0 is
   exactly the deterministic prefix whenever the circuit opens with a
   unitary run, and it is then executed once and shared across shots. *)
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

let run_hybrid ?domains ~seed ~width ~shots base =
  let n = Circ.num_qubits base and nbits = Circ.num_bits base in
  let plan = segment_plan base in
  let instrs = Array.of_list (Circ.instructions base) in
  let segs =
    List.map
      (fun p ->
        ( p.seg_engine,
          Program.compile_instructions ~num_qubits:n ~num_bits:nbits
            (Array.to_list
               (Array.sub instrs p.seg_start (p.seg_stop - p.seg_start))) ))
      plan
  in
  let fresh () =
    match segs with
    | (`Sparse, _) :: _ -> Hsparse (Sparse.create n ~num_bits:nbits)
    | (`Dense, _) :: _ | [] -> Hdense (State.create n ~num_bits:nbits)
  in
  (* segment 0 is cacheable iff it contains no measure/reset op *)
  let cached, per_shot_segs =
    match segs with
    | (tag, prog0) :: rest
      when Program.length (snd (Program.split_prefix prog0))
           = 0 ->
        let h = hconvert (fresh ()) tag in
        hexec ~random:Program.no_random h prog0;
        (h, rest)
    | (_, _) :: _ | [] -> (fresh (), segs)
  in
  (* handoff accounting is static per shot: conversions happen at the
     same boundaries every replay, so the counters are bumped once per
     dispatch (the per-shot path stays counter-free) *)
  let cached_tag =
    match cached with Hdense _ -> `Dense | Hsparse _ -> `Sparse
  in
  let d2s, s2d =
    List.fold_left
      (fun (cur, (d2s, s2d)) (tag, _) ->
        ( tag,
          match (cur, tag) with
          | `Dense, `Sparse -> (d2s + 1, s2d)
          | `Sparse, `Dense -> (d2s, s2d + 1)
          | `Dense, `Dense | `Sparse, `Sparse -> (d2s, s2d) ))
      (cached_tag, (0, 0))
      per_shot_segs
    |> snd
  in
  if d2s > 0 then Obs.incr ~n:(d2s * shots) "backend.handoff.dense_to_sparse";
  if s2d > 0 then Obs.incr ~n:(s2d * shots) "backend.handoff.sparse_to_dense";
  if Obs.Flight.enabled () then
    Obs.Flight.record ~kind:"backend.hybrid.plan"
      [
        ("segments", Obs.Json.String (segment_plan_string plan));
        ("handoffs_per_shot", Obs.Json.Int (d2s + s2d));
      ];
  (* a shot's private state: when the first per-shot segment runs on
     the other engine, the conversion reads the cached state without
     mutating it, so it doubles as the copy *)
  let shot_state =
    match per_shot_segs with
    | (tag, _) :: _ when tag <> cached_tag -> fun () -> hconvert cached tag
    | _ -> fun () -> hcopy cached
  in
  Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
      let random () = Random.State.float rng 1.0 in
      let h =
        List.fold_left
          (fun h (tag, prog) ->
            let h = hconvert h tag in
            hexec ~random h prog;
            h)
          (shot_state ()) per_shot_segs
      in
      hregister h)

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
      | Some `Dense -> [ ("exact_repr", Obs.Json.String "dense") ]
      | Some `Sparse -> [ ("exact_repr", Obs.Json.String "sparse") ]
      | None -> []);
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
    | `Dense ->
        if prefix_cache then begin
          let cached = Prefix.prepare base in
          (* counted once per dispatch, not per shot: a counter bump is
             a name lookup in the domain buffer, too expensive for the
             per-shot path under the <2% telemetry budget *)
          Obs.incr ~n:shots "backend.prefix.hit";
          Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
              Prefix.run_shot cached ~rng)
        end
        else begin
          (* still compiled — one whole-circuit program replayed per
             shot, bit-identical to the prefix-cached execution *)
          if Obs.Flight.enabled () then
            Obs.Flight.record ~kind:"backend.prefix.bypassed" [];
          let program = compiled base in
          Obs.incr ~n:shots "backend.prefix.miss";
          Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
              Statevector.register (Program.run ~rng program))
        end
    | `Sparse -> run_sparse ?domains ~seed ~width ~shots ~prefix_cache base
    | `Hybrid -> run_hybrid ?domains ~seed ~width ~shots base
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
          run_sparse ?domains ~seed ~width ~shots ~prefix_cache base)
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
