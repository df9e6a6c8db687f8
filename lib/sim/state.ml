(* Mutable simulator state: SoA amplitudes plus the classical register.
   This is the storage layer under both execution paths — the compiled
   kernels of [Program] and the generic interpreter of [Statevector] —
   split out so [Program] and [Statevector] can share it without a
   dependency cycle.  [Statevector] is the public face, which is why
   the error messages below say "Statevector". *)

type t = {
  n : int;
  num_bits : int;
  amps : Linalg.Cvec.t;
  mutable reg : int;
}

let max_qubits = 24

exception Dense_cap_exceeded of { qubits : int; max_qubits : int }

let () =
  Printexc.register_printer (function
    | Dense_cap_exceeded { qubits; max_qubits } ->
        Some
          (Printf.sprintf
             "Sim.State.Dense_cap_exceeded: %d qubits (dense cap %d)" qubits
             max_qubits)
    | _ -> None)

let create n ~num_bits =
  if n < 0 then invalid_arg (Printf.sprintf "Statevector.create: %d qubits" n);
  if n > max_qubits then raise (Dense_cap_exceeded { qubits = n; max_qubits });
  let amps = Linalg.Cvec.make (1 lsl n) in
  (Linalg.Cvec.re amps).(0) <- 1.;
  { n; num_bits; amps; reg = 0 }

let num_qubits st = st.n
let num_bits st = st.num_bits
let copy st = { st with amps = Linalg.Cvec.copy st.amps }
let amplitudes st = Linalg.Cvec.copy st.amps
let raw st = st.amps
let register st = st.reg
let set_register st reg = st.reg <- reg
let set_bit st k b = st.reg <- Bits.set st.reg k b
let get_bit st k = Bits.get st.reg k

let norm2 st = Linalg.Cvec.norm2 st.amps

let renormalize st =
  let n2 = norm2 st in
  if n2 <= 1e-18 then invalid_arg "Statevector: zero-norm state";
  let s = 1. /. sqrt n2 in
  let re = Linalg.Cvec.re st.amps and im = Linalg.Cvec.im st.amps in
  for k = 0 to Array.length re - 1 do
    re.(k) <- re.(k) *. s;
    im.(k) <- im.(k) *. s
  done

let prob_one st q =
  let bit = 1 lsl q in
  let re = Linalg.Cvec.re st.amps and im = Linalg.Cvec.im st.amps in
  let dim = Array.length re in
  let acc = ref 0. in
  let base = ref bit in
  while !base < dim do
    for i1 = !base to !base + bit - 1 do
      let r = Array.unsafe_get re i1 and i = Array.unsafe_get im i1 in
      acc := !acc +. ((r *. r) +. (i *. i))
    done;
    base := !base + bit + bit
  done;
  !acc

exception Zero_probability_branch of { qubit : int; outcome : bool }

let collapse st q outcome p1 =
  let bit = 1 lsl q in
  let p = if outcome then p1 else 1. -. p1 in
  if p <= 1e-15 then raise (Zero_probability_branch { qubit = q; outcome });
  let s = 1. /. sqrt p in
  let re = Linalg.Cvec.re st.amps and im = Linalg.Cvec.im st.amps in
  for idx = 0 to Array.length re - 1 do
    if (idx land bit <> 0) = outcome then begin
      re.(idx) <- re.(idx) *. s;
      im.(idx) <- im.(idx) *. s
    end
    else begin
      re.(idx) <- 0.;
      im.(idx) <- 0.
    end
  done;
  p

let project st q outcome = collapse st q outcome (prob_one st q)

(* In-place Pauli-X on qubit [q]: exact amplitude swap, used by reset
   (and as the [Program] X kernel's uncontrolled fast path). *)
let flip st q =
  let bit = 1 lsl q in
  let re = Linalg.Cvec.re st.amps and im = Linalg.Cvec.im st.amps in
  let dim = Array.length re in
  let base = ref 0 in
  while !base < dim do
    for i0 = !base to !base + bit - 1 do
      let i1 = i0 lor bit in
      let r = Array.unsafe_get re i0 in
      Array.unsafe_set re i0 (Array.unsafe_get re i1);
      Array.unsafe_set re i1 r;
      let i = Array.unsafe_get im i0 in
      Array.unsafe_set im i0 (Array.unsafe_get im i1);
      Array.unsafe_set im i1 i
    done;
    base := !base + bit + bit
  done

let measure ~random st ~qubit ~bit =
  Obs.incr "sim.statevector.measure";
  let p1 = prob_one st qubit in
  let outcome = random < p1 in
  ignore (collapse st qubit outcome p1);
  set_bit st bit outcome;
  outcome

let reset ~random st q =
  Obs.incr "sim.statevector.reset";
  let p1 = prob_one st q in
  let outcome = random < p1 in
  ignore (collapse st q outcome p1);
  if outcome then flip st q

let probabilities st =
  let re = Linalg.Cvec.re st.amps and im = Linalg.Cvec.im st.amps in
  Array.init (Array.length re) (fun k ->
      (re.(k) *. re.(k)) +. (im.(k) *. im.(k)))
