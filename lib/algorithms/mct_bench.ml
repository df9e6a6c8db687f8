open Circuit

(* 12 keeps the truth-table synthesis and the exact checkers tractable
   while reaching the 10-qubit (arity-9) stats/bench workloads *)
let check_n n =
  if n < 1 || n > 12 then invalid_arg "Mct_bench: arity outside 1..12"

let popcount k =
  let rec go acc k = if k = 0 then acc else go (acc + (k land 1)) (k lsr 1) in
  go 0 k

let and_n n =
  check_n n;
  let truth =
    Boolean_fun.of_fun ~arity:n (fun k -> k = (1 lsl n) - 1)
  in
  let controls = List.init n (fun v -> v) in
  Oracle.make
    ~name:(Printf.sprintf "AND_%d" n)
    ~arity:n ~truth
    [ Instruction.Unitary (Instruction.app ~controls Gate.X n) ]

let nand_n n =
  check_n n;
  let truth = Boolean_fun.of_fun ~arity:n (fun k -> k <> (1 lsl n) - 1) in
  let controls = List.init n (fun v -> v) in
  Oracle.make
    ~name:(Printf.sprintf "NAND_%d" n)
    ~arity:n ~truth
    [
      Instruction.Unitary (Instruction.app ~controls Gate.X n);
      Instruction.Unitary (Instruction.app Gate.X n);
    ]

let or_n n =
  check_n n;
  Oracle.synthesize
    ~name:(Printf.sprintf "OR_%d" n)
    (Boolean_fun.of_fun ~arity:n (fun k -> k <> 0))

let majority_n n =
  check_n n;
  if n mod 2 = 0 then invalid_arg "Mct_bench.majority_n: even arity";
  Oracle.synthesize
    ~name:(Printf.sprintf "MAJ_%d" n)
    (Boolean_fun.of_fun ~arity:n (fun k -> 2 * popcount k > n))

(* Parity needs no MCT at all — a chain of CXs — so it scales far past
   the truth-table synthesis limit.  It is the wide-circuit workload
   for the symbolic certifier (XOR_16 is 17 qubits, well beyond the
   exact checkers). *)
let xor_n n =
  if n < 1 || n > 20 then invalid_arg "Mct_bench.xor_n: arity outside 1..20";
  let truth =
    Boolean_fun.of_fun ~arity:n (fun k -> popcount k land 1 = 1)
  in
  Oracle.make
    ~name:(Printf.sprintf "XOR_%d" n)
    ~arity:n ~truth
    (List.init n (fun i ->
         Instruction.Unitary (Instruction.app ~controls:[ i ] Gate.X n)))

(* Adaptive parity: the per-segment-Clifford selection workload.  The
   only non-Clifford gate is a T correction conditioned on the syndrome
   readout, and the syndrome ancilla is provably |0>, so the condition
   statically fails: the circuit is observationally Clifford even
   though a whole-circuit gate scan rejects it.  At n = 15 it spans 17
   qubits — past the exact engine's auto cutoff — so a selector without
   the analyzer's witness can only land on the dense engine. *)
let adaptive_parity n =
  if n < 1 || n > 20 then
    invalid_arg "Mct_bench.adaptive_parity: arity outside 1..20";
  let parity = n and syndrome = n + 1 in
  let roles =
    Array.init (n + 2) (fun q ->
        if q < n then Circ.Data
        else if q = parity then Circ.Answer
        else Circ.Ancilla)
  in
  let b = Circ.Builder.make ~roles ~num_bits:2 () in
  for q = 0 to n - 1 do
    Circ.Builder.h b q
  done;
  for q = 0 to n - 1 do
    Circ.Builder.cx b q parity
  done;
  Circ.Builder.measure b ~qubit:syndrome ~bit:0;
  (* the syndrome reads 0 on every branch: both corrections are
     statically dead, and the T never fires *)
  Circ.Builder.conditioned b ~bit:0 Gate.T parity;
  Circ.Builder.conditioned b ~bit:0 Gate.X parity;
  Circ.Builder.measure b ~qubit:parity ~bit:1;
  Circ.Builder.build b

let and_ladder_dyn2 ~inputs ~superposed =
  let k = inputs in
  let nq = (2 * k) - 1 in
  let h = min superposed k in
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

let suite =
  [ and_n 2; and_n 3; and_n 4; and_n 5; majority_n 3; majority_n 5 ]
