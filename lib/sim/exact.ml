open Circuit

type 's branch = {
  probability : float;
  register : int;
  state : 's;
}

type leaf = Statevector.t branch

let default_prune = 1e-12

module Make (E : Engine.S) = struct
  (* Depth-first enumeration over the compiled op array ([Program]):
     unitaries and conditioned gates act in place through the engine's
     kernels; measure and reset ops fork into the outcomes with
     non-negligible Born probability.  [on_leaf] sees each leaf state
     once, in depth-first order; the walk keeps at most one state per
     open fork alive, so memory is bounded by the branching depth,
     not by the number of leaves. *)
  let enumerate ~prune c ~on_leaf =
    if not (prune >= 0.) then
      invalid_arg "Exact.leaves: negative prune threshold";
    let program = Program.compile c in
    let len = Program.length program in
    let n = Circ.num_qubits c in
    let rec go st prob k =
      if prob > prune then
        if k = len then begin
          Obs.incr "sim.exact.leaves";
          on_leaf st prob
        end
        else step st prob (Program.get program k) (k + 1)
    and step st prob op rest =
      match Program.view ~n op with
      | Program.Unitary _ | Program.Conditional _ ->
          E.apply st op;
          go st prob rest
      | Program.Measurement { qubit; bit } ->
          fork st prob qubit rest ~on_branch:(fun st' outcome ->
              E.set_bit st' bit outcome)
      | Program.Reset q ->
          fork st prob q rest ~on_branch:(fun st' outcome ->
              if outcome then E.flip st' q)
    and fork st prob qubit rest ~on_branch =
      let p1 = E.prob_one st qubit in
      let branch outcome p st' =
        if p *. prob > prune then begin
          ignore (E.collapse st' qubit outcome p1);
          on_branch st' outcome;
          go st' (prob *. p) rest
        end
      in
      (* reuse [st] for the second branch to halve copying *)
      if p1 *. prob > prune && (1. -. p1) *. prob > prune then begin
        branch false (1. -. p1) (E.copy st);
        branch true p1 st
      end
      else if p1 *. prob > prune then branch true p1 st
      else branch false (1. -. p1) st
    in
    let st0 = E.create n ~num_bits:(Circ.num_bits c) in
    Obs.with_span "exact.enumerate"
      ~attrs:[ ("qubits", string_of_int n); ("engine", E.name) ]
      (fun () -> go st0 1.0 0)

  let leaves ?(prune = default_prune) c =
    let acc = ref [] in
    enumerate ~prune c ~on_leaf:(fun st prob ->
        acc :=
          { probability = prob; register = E.register st; state = st } :: !acc);
    List.rev !acc

  (* Only the register's probability mass survives a leaf: each leaf
     state is garbage as soon as its register is read.  Masses add in
     depth-first order, as [Dist.create] over [leaves] would add them. *)
  let register_distribution ?(prune = default_prune) c =
    let mass = Hashtbl.create 16 in
    enumerate ~prune c ~on_leaf:(fun st prob ->
        let r = E.register st in
        Hashtbl.replace mass r
          (match Hashtbl.find_opt mass r with
          | Some p -> p +. prob
          | None -> prob));
    Dist.create ~width:(Circ.num_bits c)
      (Hashtbl.fold (fun r p acc -> (r, p) :: acc) mass [])
end

module Dense = Make (Statevector.Dense_engine)
module Sparse = Make (Sparse.Sparse_engine)

let leaves = Dense.leaves
let register_distribution = Dense.register_distribution

let plan_distribution ?prune ~plan c =
  register_distribution ?prune (Measurement_plan.instrument plan c)

let measured_distribution ?prune ~measures c =
  plan_distribution ?prune ~plan:(Measurement_plan.of_pairs measures) c

let measure_all_distribution ?prune c =
  plan_distribution ?prune ~plan:Measurement_plan.measure_all c
