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

(* The dyn2 AND ladder and the mixed-sparsity hybrid witness, shared
   with the bench (see Algorithms.Mct_bench). *)
let and_ladder = Algorithms.Mct_bench.and_ladder_dyn2
let hybrid_witness = Algorithms.Mct_bench.hybrid_witness

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

(* ------------------------------------------------------------------ *)
(* The flat index: differential, collisions, allocation                *)

(* Every basis index of a <= 10-qubit sparse state against the dense
   state, plus the register: lookups go through the index, so a stale
   or corrupt index shows up as a wrong or missing amplitude. *)
let agrees_with_dense msg dense sp =
  check_int (msg ^ ": register") (Sim.State.register dense)
    (Sim.Sparse.register sp);
  let amps = Sim.State.amplitudes dense in
  for k = 0 to Linalg.Cvec.dim amps - 1 do
    let a = Linalg.Cvec.get amps k and b = Sim.Sparse.amplitude sp k in
    if
      abs_float (a.Complex.re -. b.Complex.re) > tolerance
      || abs_float (a.Complex.im -. b.Complex.im) > tolerance
    then
      Alcotest.failf "%s: amplitude of %d is %g%+gi, dense %g%+gi" msg k
        b.Complex.re b.Complex.im a.Complex.re a.Complex.im
  done

(* One step of a random op sequence: a group of instructions replayed
   as one program on both engines, or a copy / conversion of the
   sparse state. *)
type index_step =
  | Group of Instruction.t list
  | Copy_then_mutate of Instruction.t
  | Round_trip

let random_index_step rng ~nq ~nb =
  let q () = Random.State.int rng nq in
  let distinct k =
    let rec go acc =
      if List.length acc = k then acc
      else
        let x = q () in
        go (if List.mem x acc then acc else x :: acc)
    in
    go []
  in
  let collapse () =
    if Random.State.bool rng then
      Instruction.Measure { qubit = q (); bit = Random.State.int rng nb }
    else Instruction.Reset (q ())
  in
  let gate () =
    Instruction.Unitary
      (Instruction.app
         (List.nth Gate.[ H; T; S; Y; Rz 0.61 ] (Random.State.int rng 5))
         (q ()))
  in
  match Random.State.int rng 7 with
  | 0 ->
      (* H.H: the second H cancels the partner entries the first made *)
      let t = q () in
      let h = Instruction.Unitary (Instruction.app Gate.H t) in
      Group [ h; h ]
  | 1 -> (
      (* X under 0..2 controls: a key remap *)
      match distinct (1 + Random.State.int rng (min 3 nq)) with
      | t :: controls ->
          Group [ Instruction.Unitary (Instruction.app ~controls Gate.X t) ]
      | [] -> assert false)
  | 2 ->
      (* a collapse run, then a lookup-driven op right after it *)
      let run = List.init (1 + Random.State.int rng 4) (fun _ -> collapse ()) in
      Group (run @ [ Instruction.Unitary (Instruction.app Gate.H (q ())) ])
  | 3 -> Group (List.init (1 + Random.State.int rng 4) (fun _ -> collapse ()))
  | 4 -> Copy_then_mutate (if Random.State.bool rng then gate () else collapse ())
  | 5 -> Round_trip
  | _ -> Group [ gate () ]

let test_index_differential () =
  let rng = Random.State.make [| 0x1DE5 |] in
  for case = 0 to 59 do
    let nq = 1 + Random.State.int rng 10 and nb = 2 in
    let seed = 1000 + case in
    let rd = Random.State.make [| seed |] and rs = Random.State.make [| seed |] in
    let random_d () = Random.State.float rd 1.0
    and random_s () = Random.State.float rs 1.0 in
    let dense = Sim.State.create nq ~num_bits:nb in
    let sp = ref (Sim.Sparse.create nq ~num_bits:nb) in
    let compile instrs =
      Sim.Program.compile_instructions ~fuse:false ~num_qubits:nq ~num_bits:nb
        instrs
    in
    for step = 0 to 39 do
      let msg = Printf.sprintf "case %d (%d qubits), step %d" case nq step in
      (match random_index_step rng ~nq ~nb with
      | Group instrs ->
          let p = compile instrs in
          Sim.Program.exec ~random:random_d dense p;
          Sim.Sparse.exec ~random:random_s !sp p
      | Copy_then_mutate instr ->
          let c = Sim.Sparse.copy !sp in
          agrees_with_dense (msg ^ ", copy") dense c;
          let r = Random.State.make [| step |] in
          Sim.Sparse.exec
            ~random:(fun () -> Random.State.float r 1.0)
            c (compile [ instr ])
      | Round_trip -> sp := Sim.Sparse.of_state (Sim.Sparse.to_state !sp));
      agrees_with_dense msg dense !sp
    done
  done

(* Conversions at the extremes: no entry, one entry, every entry. *)
let test_round_trip_extremes () =
  let n = 6 in
  let dim = 1 lsl n in
  let check msg d =
    let sp = Sim.Sparse.of_state d in
    let nz = ref 0 in
    let v = Sim.State.amplitudes d in
    for k = 0 to dim - 1 do
      if Complex.norm2 (Linalg.Cvec.get v k) > 0. then incr nz
    done;
    check_int (msg ^ ": nnz") !nz (Sim.Sparse.nnz sp);
    agrees_with_dense msg d sp;
    agrees_with_dense (msg ^ ", back") (Sim.Sparse.to_state sp)
      (Sim.Sparse.of_state (Sim.Sparse.to_state sp))
  in
  let zero = Sim.State.create n ~num_bits:1 in
  (Linalg.Cvec.re (Sim.State.raw zero)).(0) <- 0.;
  check "0 nonzeros" zero;
  let one = Sim.State.create n ~num_bits:1 in
  Sim.State.set_register one 1;
  check "1 nonzero" one;
  let full =
    Sim.Program.run ~rng:(Random.State.make [| 1 |])
      (Sim.Program.compile_instructions ~num_qubits:n ~num_bits:1
         (List.init n (fun q ->
              Instruction.Unitary (Instruction.app Gate.H q))))
  in
  check "2^n nonzeros" full

(* Wide states whose stored indices differ only in their top bits —
   the bits a hash that ignored them would send to one bucket — and a
   deletion in the middle of the probe chains: with 2^11 keys at load
   <= 1/2 the table is full of chains, and a controlled H on one
   uniform pair cancels exactly one key, which pruning then drops. *)
let test_index_collisions () =
  List.iter
    (fun n ->
      let high = List.init 10 (fun j -> n - 10 + j) in
      let sp = Sim.Sparse.create n ~num_bits:1 in
      List.iter (fun q -> Sim.Sparse.apply_gate sp Gate.H q) (0 :: high);
      check_int (Printf.sprintf "%d qubits: 2^11 entries" n) 2048
        (Sim.Sparse.nnz sp);
      let key x low =
        List.fold_left
          (fun (acc, j) q ->
            ((if (x lsr j) land 1 = 1 then acc lor (1 lsl q) else acc), j + 1))
          (low, 0) high
        |> fst
      in
      let expect msg f =
        for x = 0 to 1023 do
          for low = 0 to 3 do
            let want = f x low in
            let got = (Sim.Sparse.amplitude sp (key x low)).Complex.re in
            if abs_float (got -. want) > 1e-12 then
              Alcotest.failf "%d qubits, %s: amplitude of high %d low %d is \
                              %g, want %g"
                n msg x low got want
          done
        done
      in
      let a = 1. /. sqrt 2048. in
      expect "uniform" (fun _ low -> if low <= 1 then a else 0.);
      (* H on qubit 0 controlled by every high bit: that one pair
         (x = 1023) interferes, and its |1> entry cancels and is pruned *)
      let ch =
        Sim.Program.compile_instructions ~num_qubits:n ~num_bits:1
          [ Instruction.Unitary (Instruction.app ~controls:high Gate.H 0) ]
      in
      Sim.Sparse.exec ~random:Sim.Program.no_random sp ch;
      check_int "one key deleted" 2047 (Sim.Sparse.nnz sp);
      expect "after the deletion" (fun x low ->
          match (x, low) with
          | 1023, 0 -> sqrt 2. *. a
          | 1023, _ -> 0.
          | _, (0 | 1) -> a
          | _ -> 0.);
      (* a collapse on a top bit drops half the keys; X on another
         remaps every key *)
      ignore (Sim.Sparse.project sp (n - 1) true);
      Sim.Sparse.flip sp (n - 2);
      let b = a *. sqrt 2. in
      expect "after collapse and X" (fun x low ->
          if (x lsr 9) land 1 = 0 then 0.
          else
            let x = x lxor (1 lsl 8) in
            match (x, low) with
            | 1023, 0 -> sqrt 2. *. b
            | 1023, _ -> 0.
            | _, (0 | 1) -> b
            | _ -> 0.))
    [ 58; 59; 60 ]

(* Allocation, read off the GC counters (deterministic).  Arrays past
   256 words go straight to the major heap, so with 4096 entries every
   flat array lands there and any per-entry block would show up in
   [Gc.minor_words]. *)
let test_index_allocation () =
  let n = 16 in
  let d =
    Sim.Program.run ~rng:(Random.State.make [| 1 |])
      (Sim.Program.compile_instructions ~num_qubits:n ~num_bits:13
         (List.init 12 (fun q -> Instruction.Unitary (Instruction.app Gate.H q))))
  in
  let minor f =
    let before = Gc.minor_words () in
    let r = f () in
    (r, Gc.minor_words () -. before)
  in
  let bytes f =
    let before = Gc.allocated_bytes () in
    let r = f () in
    (r, Gc.allocated_bytes () -. before)
  in
  let word = float_of_int (Sys.word_size / 8) in
  let sp, of_state_minor = minor (fun () -> Sim.Sparse.of_state d) in
  check_int "4096 entries" 4096 (Sim.Sparse.nnz sp);
  check_bool
    (Printf.sprintf "of_state: %.0f minor words, fewer than one per entry"
       of_state_minor)
    true
    (of_state_minor < 4096.);
  let c, copy_minor = minor (fun () -> Sim.Sparse.copy sp) in
  check_bool
    (Printf.sprintf "copy: %.0f minor words (the record only)" copy_minor)
    true (copy_minor <= 16.);
  let _, copy_bytes = bytes (fun () -> Sim.Sparse.copy sp) in
  let footprint = float_of_int (Obj.reachable_words (Obj.repr c)) *. word in
  check_bool
    (Printf.sprintf "copy: %.0f bytes allocated for a %.0f-byte state"
       copy_bytes footprint)
    true
    (copy_bytes <= footprint +. 64.);
  let randoms = Array.init 12 (fun k -> float_of_int ((7 * k) mod 12) /. 12.) in
  let (), measure_bytes =
    bytes (fun () ->
        for q = 0 to 11 do
          ignore
            (Sim.Sparse.measure ~random:randoms.(q) c ~qubit:q ~bit:(q + 1))
        done)
  in
  check_int "collapsed to one entry" 1 (Sim.Sparse.nnz c);
  check_bool
    (Printf.sprintf "12 measurements: %.0f bytes (< 4 KB)" measure_bytes)
    true (measure_bytes < 4096.)

(* ------------------------------------------------------------------ *)
(* One Born scan per collapse                                          *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let branch f =
  match f () with
  | p -> Ok p
  | exception (Sim.State.Zero_probability_branch _ as e) -> Error e

let same_branch msg a b =
  match (a, b) with
  | Ok pa, Ok pb ->
      check_bool (Printf.sprintf "%s: %h = %h" msg pa pb) true (same_float pa pb)
  | Error ea, Error eb ->
      check_bool (msg ^ ": same exception") true (ea = eb)
  | Ok _, Error _ | Error _, Ok _ -> Alcotest.fail (msg ^ ": one raised")

(* [collapse st q outcome (prob_one st q)] is [project st q outcome]
   bit for bit on both representations: the same returned probability,
   amplitudes and register, and the same [Zero_probability_branch] on
   an impossible outcome.  The states are random dynamic circuits'
   final states, so every qubit is tried both in superposition and in
   a definite basis state. *)
let test_collapse_matches_project () =
  let rng = Random.State.make [| 0xC011A95E |] in
  let impossible = ref 0 in
  for k = 0 to 79 do
    let c = random_dynamic_circuit rng in
    let p = Sim.Program.compile c in
    let d = Sim.Program.run ~rng:(Random.State.make [| k |]) p in
    let sp = Sim.Sparse.run ~rng:(Random.State.make [| k |]) p in
    let n = Circ.num_qubits c in
    for q = 0 to n - 1 do
      List.iter
        (fun outcome ->
          let msg = Printf.sprintf "circuit %d, qubit %d -> %b" k q outcome in
          let a = Sim.State.copy d and b = Sim.State.copy d in
          let ra = branch (fun () -> Sim.State.project a q outcome) in
          let rb =
            branch (fun () ->
                Sim.State.collapse b q outcome (Sim.State.prob_one b q))
          in
          if Result.is_error ra then incr impossible;
          same_branch ("dense " ^ msg) ra rb;
          let va = Sim.State.amplitudes a and vb = Sim.State.amplitudes b in
          let same part = Array.for_all2 same_float (part va) (part vb) in
          check_bool ("dense amplitudes " ^ msg) true
            (same Linalg.Cvec.re && same Linalg.Cvec.im);
          check_int ("dense register " ^ msg) (Sim.State.register a)
            (Sim.State.register b);
          let a = Sim.Sparse.copy sp and b = Sim.Sparse.copy sp in
          same_branch ("sparse " ^ msg)
            (branch (fun () -> Sim.Sparse.project a q outcome))
            (branch (fun () ->
                 Sim.Sparse.collapse b q outcome (Sim.Sparse.prob_one b q)));
          check_int ("sparse nnz " ^ msg) (Sim.Sparse.nnz a) (Sim.Sparse.nnz b);
          let ok = ref true in
          for i = 0 to (1 lsl n) - 1 do
            let x = Sim.Sparse.amplitude a i and y = Sim.Sparse.amplitude b i in
            if
              not
                (same_float x.Complex.re y.Complex.re
                && same_float x.Complex.im y.Complex.im)
            then ok := false
          done;
          check_bool ("sparse amplitudes " ^ msg) true !ok;
          check_int ("sparse register " ^ msg) (Sim.Sparse.register a)
            (Sim.Sparse.register b))
        [ false; true ]
    done
  done;
  check_bool
    (Printf.sprintf "%d impossible outcomes exercised" !impossible)
    true (!impossible > 0)

(* The hybrid witness's dense prefix is converted to sparse once per
   dispatch and every shot copies the converted state, so a shot's
   marginal allocation stays near one [Sparse.copy] of that state.  A
   per-shot [Sparse.of_state] allocates about twice as much: it grows
   its slot arrays by doubling. *)
let test_hybrid_witness_allocation () =
  let c = hybrid_witness () in
  let alloc shots =
    let before = Gc.allocated_bytes () in
    ignore (Sim.Backend.run ~seed:3 ~domains:1 ~shots c);
    Gc.allocated_bytes () -. before
  in
  (* warm the per-circuit compile and analysis memo *)
  ignore (alloc 64);
  let a64 = alloc 64 in
  let per_shot = (alloc 256 -. a64) /. 192. in
  let n = Circ.num_qubits c and num_bits = Circ.num_bits c in
  let first =
    match Sim.Backend.segment_plan c with
    | p :: _ -> p
    | [] -> Alcotest.fail "empty segment plan"
  in
  let prefix, _ =
    Sim.Program.split_prefix
      (Sim.Program.compile_instructions ~num_qubits:n ~num_bits
         (List.filteri
            (fun i _ ->
              i >= first.Sim.Backend.seg_start && i < first.Sim.Backend.seg_stop)
            (Circ.instructions c)))
  in
  let d = Sim.State.create n ~num_bits in
  Sim.Program.exec ~random:Sim.Program.no_random d prefix;
  let converted = Sim.Sparse.of_state d in
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Sim.Sparse.copy converted));
  let copy_bytes = Gc.allocated_bytes () -. before in
  check_int "converted prefix entries" 4096 (Sim.Sparse.nnz converted);
  check_bool
    (Printf.sprintf "%.0f bytes per shot <= 1.25 x %.0f (one Sparse.copy)"
       per_shot copy_bytes)
    true
    (per_shot <= 1.25 *. copy_bytes)

(* ------------------------------------------------------------------ *)
(* Golden shot streams                                                 *)

(* Auto's histograms at seed 3, recorded on the hash-table-indexed
   engine before the flat index replaced it.  The index only maps a
   basis index to its slot: slot order and every kernel's arithmetic
   are unchanged, so these streams must match exactly.  Each row is
   (name, shots, circuit, Runner.to_list). *)
let golden_streams =
  [
    ( "hybrid witness", 64, (fun () -> hybrid_witness ()),
      [
        (303, 1); (473, 1); (661, 1); (747, 1); (1265, 1); (1331, 1);
        (1355, 1); (1433, 1); (1487, 1); (1585, 1); (1841, 1); (1845, 1);
        (2013, 1); (2015, 1); (2039, 1); (2093, 1); (2227, 1); (2473, 1);
        (2543, 1); (2615, 1); (2939, 1); (2943, 1); (2963, 1); (3117, 1);
        (3301, 1); (3549, 1); (3607, 1); (3651, 1); (3657, 1); (3889, 1);
        (3909, 1); (3961, 1); (4023, 1); (4035, 1); (4055, 1); (4179, 1);
        (4185, 1); (4375, 1); (4523, 1); (4575, 1); (4773, 1); (4791, 1);
        (5295, 1); (5445, 1); (5667, 1); (5693, 1); (5705, 1); (5707, 1);
        (5853, 1); (6103, 1); (6199, 1); (6201, 1); (6407, 1); (6647, 1);
        (6669, 1); (6895, 1); (6975, 1); (7083, 1); (7117, 1); (7527, 1);
        (7559, 1); (7621, 1); (7913, 1); (7953, 1);
      ] );
    ( "hybrid witness", 256, (fun () -> hybrid_witness ()),
      [
        (1, 1); (19, 2); (29, 1); (103, 1); (115, 1); (181, 1);
        (185, 1); (303, 2); (403, 1); (429, 1); (473, 1); (557, 1);
        (591, 1); (647, 1); (661, 1); (675, 1); (747, 1); (791, 1);
        (839, 1); (927, 1); (931, 1); (1009, 1); (1023, 1); (1031, 1);
        (1049, 1); (1059, 1); (1073, 1); (1095, 1); (1145, 1); (1189, 1);
        (1207, 1); (1257, 1); (1265, 1); (1331, 1); (1353, 1); (1355, 2);
        (1433, 1); (1487, 1); (1549, 2); (1585, 1); (1587, 1); (1605, 1);
        (1665, 1); (1687, 1); (1739, 1); (1813, 1); (1839, 1); (1841, 1);
        (1845, 1); (1873, 1); (1963, 1); (2003, 1); (2013, 1); (2015, 1);
        (2039, 1); (2055, 1); (2069, 1); (2093, 1); (2099, 1); (2115, 1);
        (2117, 1); (2137, 1); (2151, 1); (2153, 1); (2227, 2); (2263, 1);
        (2285, 1); (2317, 1); (2343, 1); (2355, 1); (2473, 1); (2499, 1);
        (2541, 1); (2543, 1); (2593, 1); (2615, 1); (2619, 1); (2641, 1);
        (2649, 1); (2657, 1); (2663, 1); (2685, 1); (2689, 1); (2709, 1);
        (2725, 1); (2777, 1); (2779, 1); (2809, 1); (2849, 1); (2867, 1);
        (2883, 1); (2901, 1); (2903, 1); (2917, 1); (2937, 1); (2939, 1);
        (2943, 1); (2963, 1); (3035, 1); (3091, 1); (3117, 1); (3163, 1);
        (3209, 1); (3223, 1); (3287, 1); (3301, 1); (3381, 1); (3409, 1);
        (3417, 1); (3421, 1); (3451, 1); (3477, 1); (3533, 1); (3549, 1);
        (3551, 1); (3597, 1); (3599, 1); (3607, 1); (3627, 1); (3651, 1);
        (3657, 1); (3689, 1); (3693, 1); (3697, 1); (3769, 1); (3785, 1);
        (3831, 1); (3843, 1); (3889, 1); (3909, 1); (3961, 1); (4023, 1);
        (4035, 1); (4055, 1); (4179, 1); (4185, 1); (4275, 1); (4347, 1);
        (4375, 1); (4385, 1); (4391, 1); (4427, 1); (4431, 1); (4473, 1);
        (4517, 1); (4523, 1); (4575, 2); (4597, 1); (4773, 1); (4791, 1);
        (4817, 1); (4827, 1); (4969, 1); (4989, 1); (4993, 1); (5057, 1);
        (5085, 1); (5129, 1); (5149, 1); (5189, 1); (5195, 1); (5215, 1);
        (5251, 1); (5279, 1); (5295, 1); (5445, 1); (5499, 1); (5567, 1);
        (5595, 1); (5605, 1); (5621, 1); (5625, 1); (5649, 2); (5667, 1);
        (5693, 1); (5695, 1); (5705, 1); (5707, 1); (5751, 1); (5763, 1);
        (5793, 1); (5799, 1); (5801, 1); (5813, 1); (5853, 1); (5855, 1);
        (6015, 1); (6025, 1); (6039, 1); (6103, 2); (6115, 1); (6139, 1);
        (6143, 1); (6165, 1); (6181, 1); (6189, 1); (6199, 1); (6201, 1);
        (6299, 1); (6323, 1); (6407, 1); (6417, 1); (6419, 1); (6521, 1);
        (6557, 1); (6579, 1); (6647, 1); (6669, 1); (6739, 1); (6829, 1);
        (6895, 1); (6921, 2); (6945, 1); (6961, 1); (6975, 1); (6989, 1);
        (7083, 1); (7117, 1); (7121, 1); (7149, 1); (7181, 1); (7185, 1);
        (7189, 1); (7221, 1); (7311, 1); (7341, 1); (7387, 1); (7417, 1);
        (7435, 1); (7441, 1); (7527, 1); (7559, 1); (7581, 1); (7611, 1);
        (7621, 1); (7625, 1); (7641, 1); (7645, 1); (7705, 1); (7735, 1);
        (7799, 1); (7913, 1); (7953, 1); (7965, 1); (8041, 1); (8047, 1);
        (8057, 1);
      ] );
    ( "AND-9/0", 256, (fun () -> and_ladder ~inputs:9 ~superposed:0),
      [ (1, 256) ] );
    ( "AND-12/3", 256, (fun () -> and_ladder ~inputs:12 ~superposed:3),
      [
        (0, 30); (2, 33); (4, 29); (6, 37); (8, 40); (10, 26);
        (12, 34); (15, 27);
      ] );
    ( "AND-15/6", 256, (fun () -> and_ladder ~inputs:15 ~superposed:6),
      [
        (0, 4); (2, 3); (6, 5); (8, 5); (10, 1); (12, 6);
        (14, 2); (16, 6); (18, 6); (20, 7); (22, 6); (24, 3);
        (26, 1); (28, 5); (30, 2); (32, 5); (34, 4); (36, 5);
        (38, 3); (40, 2); (42, 4); (44, 7); (46, 4); (48, 5);
        (50, 10); (52, 5); (54, 6); (56, 3); (58, 2); (60, 1);
        (62, 3); (64, 1); (66, 5); (68, 6); (70, 2); (72, 5);
        (74, 6); (76, 3); (78, 3); (80, 5); (82, 3); (84, 1);
        (86, 6); (88, 7); (90, 6); (92, 6); (94, 6); (96, 1);
        (98, 1); (100, 3); (102, 4); (104, 6); (106, 1); (108, 4);
        (110, 3); (112, 3); (114, 1); (116, 2); (118, 5); (120, 9);
        (122, 5); (124, 2); (127, 4);
      ] );
    ( "AND-20/6", 256, (fun () -> and_ladder ~inputs:20 ~superposed:6),
      [
        (0, 4); (2, 3); (6, 5); (8, 5); (10, 1); (12, 6);
        (14, 2); (16, 6); (18, 6); (20, 7); (22, 6); (24, 3);
        (26, 1); (28, 5); (30, 2); (32, 5); (34, 4); (36, 5);
        (38, 3); (40, 2); (42, 4); (44, 7); (46, 4); (48, 5);
        (50, 10); (52, 5); (54, 6); (56, 3); (58, 2); (60, 1);
        (62, 3); (64, 1); (66, 5); (68, 6); (70, 2); (72, 5);
        (74, 6); (76, 3); (78, 3); (80, 5); (82, 3); (84, 1);
        (86, 6); (88, 7); (90, 6); (92, 6); (94, 6); (96, 1);
        (98, 1); (100, 3); (102, 4); (104, 6); (106, 1); (108, 4);
        (110, 3); (112, 3); (114, 1); (116, 2); (118, 5); (120, 9);
        (122, 5); (124, 2); (127, 4);
      ] );
    ( "AND-7/2", 256, (fun () -> and_ladder ~inputs:7 ~superposed:2),
      [ (0, 64); (2, 70); (4, 51); (7, 71) ] );
  ]

let test_golden_shot_streams () =
  List.iter
    (fun (name, shots, circuit, expected) ->
      Alcotest.check hist_pairs
        (Printf.sprintf "%s, %d shots" name shots)
        expected
        (Sim.Runner.to_list (Sim.Backend.run ~seed:3 ~shots (circuit ()))))
    golden_streams

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
          Alcotest.test_case "witness allocation per shot" `Quick
            test_hybrid_witness_allocation;
        ] );
      ( "collapse",
        [
          Alcotest.test_case "collapse = project, dense and sparse" `Quick
            test_collapse_matches_project;
        ] );
      ( "index",
        [
          Alcotest.test_case "differential against dense" `Quick
            test_index_differential;
          Alcotest.test_case "round trips at 0, 1 and 2^n nonzeros" `Quick
            test_round_trip_extremes;
          Alcotest.test_case "collision corpus" `Quick test_index_collisions;
          Alcotest.test_case "allocation" `Quick test_index_allocation;
        ] );
      ( "golden",
        [
          Alcotest.test_case "shot streams" `Quick test_golden_shot_streams;
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
