(* Differential validation of the sparse basis-amplitude engine
   (Sim.Sparse) against the dense engine: amplitude-for-amplitude
   agreement over hundreds of random dynamic circuits, identical
   seed-deterministic shot streams through the engine-polymorphic
   runner, and the over-the-dense-cap basis-sparse acceptance
   workload (a >= 28-qubit dyn2-substituted Toffoli ladder). *)

open Circuit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let hist_pairs = Alcotest.(list (pair int int))

let check_hist msg a b =
  Alcotest.check hist_pairs msg (Sim.Runner.to_list a) (Sim.Runner.to_list b)

let dense_engine = (module Sim.Statevector.Dense_engine : Sim.Engine.S)
let sparse_engine = (module Sim.Sparse.Sparse_engine : Sim.Engine.S)

(* Random dynamic circuits from the same family as the analyze-gate
   differential suite: Clifford+T 1-qubit gates, CX/CZ, Toffolis,
   mid-circuit measures, resets and conditioned gates. *)
let random_dynamic_circuit rng =
  let nq = 2 + Random.State.int rng 7 in
  let nb = 1 + Random.State.int rng 2 in
  let m = 5 + Random.State.int rng 28 in
  let gates = Gate.[ H; X; Y; Z; S; Sdg; T; Tdg; V; Rz 0.37 ] in
  let any_gate () = List.nth gates (Random.State.int rng (List.length gates)) in
  let instr _ =
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        Instruction.Unitary
          (Instruction.app (any_gate ()) (Random.State.int rng nq))
    | 4 | 5 ->
        let c = Random.State.int rng nq and t = Random.State.int rng nq in
        let g = if Random.State.bool rng then Gate.X else Gate.Z in
        if c = t then Instruction.Unitary (Instruction.app g t)
        else Instruction.Unitary (Instruction.app ~controls:[ c ] g t)
    | 6 ->
        let c1 = Random.State.int rng nq
        and c2 = Random.State.int rng nq
        and t = Random.State.int rng nq in
        if c1 = t || c2 = t || c1 = c2 then
          Instruction.Unitary (Instruction.app Gate.X t)
        else Instruction.Unitary (Instruction.app ~controls:[ c1; c2 ] Gate.X t)
    | 7 ->
        Instruction.Measure
          { qubit = Random.State.int rng nq; bit = Random.State.int rng nb }
    | 8 -> Instruction.Reset (Random.State.int rng nq)
    | _ ->
        Instruction.Conditioned
          ( Instruction.cond_bit (Random.State.int rng nb)
              (Random.State.bool rng),
            Instruction.app (any_gate ()) (Random.State.int rng nq) )
  in
  let roles = Array.make nq Circ.Data in
  Circ.create ~roles ~num_bits:nb (List.init m instr)

(* Sparse kernels mirror the dense float expressions term for term, so
   the engines agree to rounding noise; the pruning threshold
   (|amp|^2 <= 1e-24) is far below this tolerance. *)
let tolerance = 1e-9

(* Replay one circuit on both engines from the same seed and compare
   the final states amplitude for amplitude, plus the classical
   register.  Randomness is consumed only at measure/reset, in source
   order, so a shared seed drives identical branch choices. *)
let engines_agree ~seed c =
  let p = Sim.Program.compile c in
  let dense = Sim.Program.run ~rng:(Random.State.make [| seed |]) p in
  let sparse = Sim.Sparse.run ~rng:(Random.State.make [| seed |]) p in
  let amps = Sim.State.amplitudes dense in
  let ok = ref (Sim.State.register dense = Sim.Sparse.register sparse) in
  for k = 0 to Linalg.Cvec.dim amps - 1 do
    let a = Linalg.Cvec.get amps k and b = Sim.Sparse.amplitude sparse k in
    if
      abs_float (a.Complex.re -. b.Complex.re) > tolerance
      || abs_float (a.Complex.im -. b.Complex.im) > tolerance
    then ok := false
  done;
  !ok

let test_differential_random_circuits () =
  let rng = Random.State.make [| 0x5AB5E |] in
  let failures = ref 0 in
  for k = 0 to 219 do
    let c = random_dynamic_circuit rng in
    List.iter
      (fun seed -> if not (engines_agree ~seed c) then incr failures)
      [ 11; 12 + k; 4242 ]
  done;
  check_int "amplitude mismatches over 220 circuits x 3 seeds" 0 !failures

(* The engine-polymorphic runner must produce byte-identical
   histograms on both engines for a fixed seed: shot i's register
   depends only on (seed, i), never on the state representation. *)
let test_shot_streams_deterministic_across_engines () =
  let rng = Random.State.make [| 0xBEEF |] in
  for k = 0 to 9 do
    let c = random_dynamic_circuit rng in
    let dense = Sim.Runner.run_shots ~seed:(100 + k) ~engine:dense_engine ~shots:150 c in
    let sparse = Sim.Runner.run_shots ~seed:(100 + k) ~engine:sparse_engine ~shots:150 c in
    check_hist (Printf.sprintf "circuit %d" k) dense sparse
  done

(* ------------------------------------------------------------------ *)
(* The basis-sparse acceptance workload: a Toffoli ladder computing
   the AND of its inputs, substituted with the paper's ancilla-
   unrolled dynamic-2 netlist.  Inputs are prepared with X gates, so
   every per-shot state stays within a handful of basis amplitudes
   regardless of width.                                               *)

(* [inputs] X-prepared input qubits 0..k-1, ladder ancillas k..2k-3;
   the last ancilla holds AND of all inputs, measured into bit 0. *)
let toffoli_ladder ~inputs ~ones =
  let k = inputs in
  let nq = (2 * k) - 1 in
  let b = Circ.Builder.make ~roles:(Array.make nq Circ.Data) ~num_bits:1 () in
  List.iter (fun q -> Circ.Builder.x b q) ones;
  Circ.Builder.ccx b 0 1 k;
  for j = 1 to k - 2 do
    Circ.Builder.ccx b (k + j - 1) (j + 1) (k + j)
  done;
  Circ.Builder.measure b ~qubit:(nq - 1) ~bit:0;
  Circ.Builder.build b

let dyn2_ladder ~inputs ~ones =
  Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_2
    (toffoli_ladder ~inputs ~ones)

(* Ground truth at a dense-simulable width: the dyn2 ladder computes
   AND on every input combination, identically on both engines. *)
let test_dyn2_ladder_small_width () =
  let k = 4 in
  for assignment = 0 to (1 lsl k) - 1 do
    let ones =
      List.filter (fun q -> assignment land (1 lsl q) <> 0)
        (List.init k (fun q -> q))
    in
    let c = dyn2_ladder ~inputs:k ~ones in
    check_bool
      (Printf.sprintf "engines agree on assignment %d" assignment)
      true
      (engines_agree ~seed:assignment c);
    let st =
      Sim.Sparse.run
        ~rng:(Random.State.make [| 7 |])
        (Sim.Program.compile c)
    in
    check_bool
      (Printf.sprintf "AND on assignment %d" assignment)
      (assignment = (1 lsl k) - 1)
      (Sim.Sparse.get_bit st 0)
  done

let wide_inputs = 15

let test_dense_cap_exceeded () =
  let c = dyn2_ladder ~inputs:wide_inputs ~ones:(List.init wide_inputs Fun.id) in
  let nq = Circ.num_qubits c in
  check_bool "at least 28 qubits" true (nq >= 28);
  Alcotest.check_raises "dense create"
    (Sim.State.Dense_cap_exceeded
       { qubits = nq; max_qubits = Sim.State.max_qubits })
    (fun () -> ignore (Sim.State.create nq ~num_bits:1))

let test_wide_basis_sparse_acceptance () =
  let all = List.init wide_inputs Fun.id in
  let run ones =
    let c = dyn2_ladder ~inputs:wide_inputs ~ones in
    Sim.Sparse.run ~rng:(Random.State.make [| 3 |]) (Sim.Program.compile c)
  in
  let st = run all in
  check_bool "AND of all-ones inputs" true (Sim.Sparse.get_bit st 0);
  check_bool "state stays basis-sparse" true (Sim.Sparse.nnz st <= 4);
  let st0 = run (List.filter (fun q -> q <> 7) all) in
  check_bool "AND with a zero input" false (Sim.Sparse.get_bit st0 0)

(* Backend integration over the cap: Auto must plan the whole circuit
   sparse (dense cannot even allocate), the run must be deterministic,
   and the forced sparse policy must agree with it. *)
let test_wide_backend_auto () =
  let c = dyn2_ladder ~inputs:wide_inputs ~ones:(List.init wide_inputs Fun.id) in
  (match Sim.Backend.select ~shots:64 c with
  | `Sparse -> ()
  | `Dense | `Stabilizer | `Exact | `Hybrid ->
      Alcotest.fail "expected the sparse plan over the dense cap");
  let auto = Sim.Backend.run ~seed:5 ~shots:64 c in
  let forced =
    Sim.Backend.run ~policy:Sim.Backend.Sparse_statevector ~seed:5 ~shots:64 c
  in
  check_hist "auto = forced sparse" auto forced;
  check_int "deterministic outcome" 64
    (List.fold_left max 0 (List.map snd (Sim.Runner.to_list auto)))

(* Conversions: densify/sparsify roundtrips preserve amplitudes and
   the classical register. *)
let test_conversions_roundtrip () =
  let rng = Random.State.make [| 0xC0FFEE |] in
  for k = 0 to 19 do
    let c = random_dynamic_circuit rng in
    let p = Sim.Program.compile c in
    let sp = Sim.Sparse.run ~rng:(Random.State.make [| k |]) p in
    let round = Sim.Sparse.of_state (Sim.Sparse.to_state sp) in
    let ok = ref (Sim.Sparse.register sp = Sim.Sparse.register round) in
    let dim = 1 lsl Sim.Sparse.num_qubits sp in
    for i = 0 to dim - 1 do
      let a = Sim.Sparse.amplitude sp i and b = Sim.Sparse.amplitude round i in
      if
        abs_float (a.Complex.re -. b.Complex.re) > tolerance
        || abs_float (a.Complex.im -. b.Complex.im) > tolerance
      then ok := false
    done;
    check_bool (Printf.sprintf "roundtrip %d" k) true !ok
  done

(* ------------------------------------------------------------------ *)
(* Exact branch enumeration on the sparse representation               *)

(* A Table-I-style AND network under the dyn2 substitution: inputs
   0..k-1, ladder ancillas k..2k-3.  The first [superposed] inputs are
   H-prepared and measured mid-circuit into bits 1..superposed, the
   rest X-prepared; the AND of all inputs is measured into bit 0. *)
let and_ladder ~inputs ~superposed =
  let k = inputs and h = superposed in
  let nq = (2 * k) - 1 in
  let b =
    Circ.Builder.make ~roles:(Array.make nq Circ.Data) ~num_bits:(h + 1) ()
  in
  for q = 0 to h - 1 do
    Circ.Builder.h b q
  done;
  for q = h to k - 1 do
    Circ.Builder.x b q
  done;
  for q = 0 to h - 1 do
    Circ.Builder.measure b ~qubit:q ~bit:(q + 1)
  done;
  Circ.Builder.ccx b 0 1 k;
  for j = 1 to k - 2 do
    Circ.Builder.ccx b (k + j - 1) (j + 1) (k + j)
  done;
  Circ.Builder.measure b ~qubit:(nq - 1) ~bit:0;
  Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_2 (Circ.Builder.build b)

(* Mixed sparsity: 12 qubits in uniform superposition measured up
   front, then a basis Toffoli with measure / reset / feed-forward on
   the other 3. *)
let hybrid_witness () =
  let b = Circ.Builder.make ~roles:(Array.make 15 Circ.Data) ~num_bits:13 () in
  for q = 0 to 11 do
    Circ.Builder.h b q
  done;
  for q = 0 to 11 do
    Circ.Builder.measure b ~qubit:q ~bit:(q + 1)
  done;
  Circ.Builder.x b 12;
  Circ.Builder.x b 13;
  Circ.Builder.ccx b 12 13 14;
  Circ.Builder.measure b ~qubit:14 ~bit:0;
  Circ.Builder.reset b 14;
  Circ.Builder.conditioned b ~bit:0 Gate.X 14;
  Circ.Builder.measure b ~qubit:14 ~bit:0;
  Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_2 (Circ.Builder.build b)

(* The narrow ladders Auto routes to the exact engine. *)
let exact_ladders =
  [ (5, 0); (5, 3); (5, 5); (6, 1); (6, 3); (7, 0); (7, 2) ]

let ladder_name (inputs, superposed) =
  Printf.sprintf "AND-%d/%d" inputs superposed

let check_exact_agree msg c =
  let dense = Sim.Exact.Dense.register_distribution c
  and sparse = Sim.Exact.Sparse.register_distribution c in
  check_bool (msg ^ ": |dense - sparse| <= 1e-12") true
    (Sim.Dist.approx_equal ~eps:1e-12 dense sparse)

let test_exact_sparse_random_circuits () =
  let rng = Random.State.make [| 0x5AB5E |] in
  for k = 0 to 219 do
    check_exact_agree
      (Printf.sprintf "random circuit %d" k)
      (random_dynamic_circuit rng)
  done

let test_exact_sparse_ladders () =
  List.iter
    (fun l ->
      let inputs, superposed = l in
      check_exact_agree (ladder_name l) (and_ladder ~inputs ~superposed))
    exact_ladders

let test_exact_sparse_leaves () =
  let c = and_ladder ~inputs:5 ~superposed:3 in
  let dense = Sim.Exact.Dense.leaves c and sparse = Sim.Exact.Sparse.leaves c in
  check_int "same leaf count" (List.length dense) (List.length sparse);
  List.iter2
    (fun (d : Sim.Exact.leaf) (s : Sim.Sparse.t Sim.Exact.branch) ->
      check_int "same register, in the same order" d.register s.register;
      check_bool "same probability" true
        (abs_float (d.probability -. s.probability) <= 1e-12);
      check_bool "basis-sparse leaf" true (Sim.Sparse.nnz s.state <= 4))
    dense sparse

(* Auto picks the exact engine on the narrow ladders, and enumerates on
   the sparse representation: every planned segment is sparse. *)
let test_ladders_select_exact_sparse () =
  List.iter
    (fun l ->
      let inputs, superposed = l in
      let c = and_ladder ~inputs ~superposed in
      let name = ladder_name l in
      (match Sim.Backend.select ~shots:256 c with
      | `Exact -> ()
      | `Dense | `Sparse | `Hybrid | `Stabilizer ->
          Alcotest.failf "%s: expected the exact engine" name);
      (match Sim.Backend.exact_representation c with
      | `Sparse -> ()
      | `Dense -> Alcotest.failf "%s: expected the sparse representation" name);
      let flight, (collector, _) =
        Obs.Flight.with_recorder (fun () ->
            Obs.with_collector (fun () -> Sim.Backend.run ~seed:3 ~shots:256 c))
      in
      check_int (name ^ ": backend.exact.sparse") 1
        (Obs.Collector.counter collector "backend.exact.sparse");
      check_int (name ^ ": backend.exact.dense") 0
        (Obs.Collector.counter collector "backend.exact.dense");
      check_bool (name ^ ": backend.run flight event exact_repr") true
        (List.exists
           (fun (e : Obs.Flight.event) ->
             e.kind = "backend.run"
             && List.assoc_opt "exact_repr" e.data
                = Some (Obs.Json.String "sparse"))
           (Obs.Flight.events flight)))
    exact_ladders

(* The witness opens its second segment with 12 measurements of a
   uniform superposition.  Charged at the body bound (the state those
   measurements leave), that segment plans sparse; only the
   superposing prefix stays dense. *)
let test_hybrid_witness_plan () =
  let c = hybrid_witness () in
  Alcotest.(check string)
    "segment plan" "dense,sparse,sparse,sparse"
    (Sim.Backend.segment_plan_string (Sim.Backend.segment_plan c));
  (match Sim.Backend.select ~shots:64 c with
  | `Hybrid -> ()
  | `Dense | `Sparse | `Exact | `Stabilizer ->
      Alcotest.fail "expected the hybrid executor");
  let collector, auto =
    Obs.with_collector (fun () -> Sim.Backend.run ~seed:3 ~shots:64 c)
  in
  check_int "one dense->sparse handoff per shot" 64
    (Obs.Collector.counter collector "backend.handoff.dense_to_sparse");
  let dense =
    Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~seed:3 ~shots:64 c
  in
  check_hist "auto = forced dense" auto dense

(* Body bounds never exceed peaks, and a segment opening with a
   collapse run is charged the collapsed state. *)
let test_body_bounds () =
  let s = Lint.Resource.analyze (hybrid_witness ()) in
  List.iter
    (fun (g : Lint.Resource.segment) ->
      check_bool "body <= peak" true
        (g.Lint.Resource.log2_bound_body <= g.Lint.Resource.log2_bound_peak))
    s.Lint.Resource.segments;
  match s.Lint.Resource.segments with
  | _ :: g :: _ ->
      check_int "collapse-opened segment peak" 12 g.Lint.Resource.log2_bound_peak;
      check_bool "collapse-opened segment body" true
        (g.Lint.Resource.log2_bound_body <= 1)
  | [] | [ _ ] -> Alcotest.fail "expected at least two segments"

(* Body bounds are sound: replaying densely, every state from the end
   of a segment's opening collapse run to the segment's end has at most
   2^body nonzero amplitudes. *)
let test_body_bounds_sound () =
  let rng = Random.State.make [| 0x5AB5E |] in
  for k = 0 to 199 do
    let c = random_dynamic_circuit rng in
    let instrs = Array.of_list (Circ.instructions c) in
    let is_collapse i =
      match instrs.(i) with
      | Instruction.Measure _ | Instruction.Reset _ -> true
      | Instruction.Unitary _ | Instruction.Conditioned _
      | Instruction.Barrier _ ->
          false
    in
    (* body_bound.(i): the bound the state after instruction [i] must
       meet, when that state is inside some segment's body *)
    let body_bound = Array.make (Array.length instrs) None in
    List.iter
      (fun (g : Lint.Resource.segment) ->
        let b = ref g.Lint.Resource.start in
        while !b < g.Lint.Resource.stop && is_collapse !b do
          incr b
        done;
        for i = max 0 (!b - 1) to g.Lint.Resource.stop - 1 do
          body_bound.(i) <- Some g.Lint.Resource.log2_bound_body
        done)
      (Lint.Resource.analyze c).Lint.Resource.segments;
    let nq = Circ.num_qubits c and nb = Circ.num_bits c in
    List.iter
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let random () = Random.State.float rng 1.0 in
        let st = Sim.State.create nq ~num_bits:nb in
        Array.iteri
          (fun i instr ->
            Sim.Program.exec ~random st
              (Sim.Program.compile_instructions ~fuse:false ~num_qubits:nq
                 ~num_bits:nb [ instr ]);
            match body_bound.(i) with
            | None -> ()
            | Some b ->
                let v = Sim.State.amplitudes st in
                let nz = ref 0 in
                for j = 0 to Linalg.Cvec.dim v - 1 do
                  if Complex.norm2 (Linalg.Cvec.get v j) > 1e-18 then incr nz
                done;
                if !nz > 1 lsl b then
                  Alcotest.failf
                    "circuit %d, seed %d: %d nonzeros after instruction %d, \
                     body bound 2^%d"
                    k seed !nz i b)
          instrs)
      [ 1; 7 ]
  done

(* The distribution path keeps one state per open fork, not one per
   leaf: 10 superposed measurements on 14 qubits give 1024 leaves of
   256 KB each (268 MB if all were kept), against 11 live states. *)
let test_streaming_heap_top () =
  let n = 14 and measured = 10 in
  let b =
    Circ.Builder.make ~roles:(Array.make n Circ.Data) ~num_bits:measured ()
  in
  for q = 0 to measured - 1 do
    Circ.Builder.h b q
  done;
  for q = 0 to measured - 1 do
    Circ.Builder.measure b ~qubit:q ~bit:q
  done;
  let c = Circ.Builder.build b in
  Gc.compact ();
  let top_bytes () = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  let before = top_bytes () in
  let d = Sim.Exact.register_distribution c in
  let grown_mb = float_of_int (top_bytes () - before) /. 1e6 in
  check_int "1024 outcomes" 1024 (List.length (Sim.Dist.to_list d));
  check_bool
    (Printf.sprintf "heap top grew %.1f MB (< 64 MB)" grown_mb)
    true (grown_mb < 64.)

let () =
  Alcotest.run "sparse"
    [
      (* first, so the heap top it reads is not an earlier test's *)
      ( "exact streaming",
        [
          Alcotest.test_case "heap top" `Quick test_streaming_heap_top;
        ] );
      ( "exact on sparse",
        [
          Alcotest.test_case "220 random dynamic circuits" `Quick
            test_exact_sparse_random_circuits;
          Alcotest.test_case "AND ladders" `Quick test_exact_sparse_ladders;
          Alcotest.test_case "leaves" `Quick test_exact_sparse_leaves;
          Alcotest.test_case "ladders select exact on sparse" `Quick
            test_ladders_select_exact_sparse;
        ] );
      ( "hybrid plan",
        [
          Alcotest.test_case "body bounds" `Quick test_body_bounds;
          Alcotest.test_case "body bounds sound" `Quick test_body_bounds_sound;
          Alcotest.test_case "witness plan and histogram" `Quick
            test_hybrid_witness_plan;
        ] );
      ( "differential",
        [
          Alcotest.test_case "220 random dynamic circuits" `Slow
            test_differential_random_circuits;
          Alcotest.test_case "shot streams across engines" `Slow
            test_shot_streams_deterministic_across_engines;
          Alcotest.test_case "conversions roundtrip" `Quick
            test_conversions_roundtrip;
        ] );
      ( "dyn2 ladder",
        [
          Alcotest.test_case "small-width ground truth" `Quick
            test_dyn2_ladder_small_width;
          Alcotest.test_case "dense cap exceeded" `Quick
            test_dense_cap_exceeded;
          Alcotest.test_case "wide basis-sparse acceptance" `Quick
            test_wide_basis_sparse_acceptance;
          Alcotest.test_case "wide backend auto" `Quick test_wide_backend_auto;
        ] );
    ]
