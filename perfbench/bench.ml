(* End-to-end request benchmark for the DQC toolchain.

   One closed-loop client, one request in flight, shot engines pinned
   to one domain.  A request is what a user of the toolchain sends:
   QASM text plus the qubit roles, the Toffoli scheme and the shot
   count.  The benchmark generates those inputs from the workload
   seed, sends them through the public entry points (Qasm.parse,
   Pipeline.compile, Lint.run, Backend.run) and checks every answer.

   --trace 1 alternates untraced passes with traced ones.  A traced
   request makes the public layer calls that Pipeline.compile's default
   schedule makes, one by one, and times each from outside; nothing
   inside the library is instrumented for it.  The only library
   telemetry read is the backend.run.<engine> counter, which names the
   engine Backend.run_measured dispatched to.

   Times are scaled by a host-speed probe taken between requests (see
   "Host-speed probe" below and perfbench/WORKLOADS.md).

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1
   Workloads: dj-paper, dj-shots, wide-sparse; BENCHMARK.json runs
   dj-paper and wide-sparse. *)

open Circuit

(* ------------------------------------------------------------------ *)
(* Clocks and process counters                                        *)

let now_ns () = Obs.Clock.now_ns ()
let cpu_ns () = Obs.Clock.now_cpu_ns ()
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

(* VmHWM of this process, in MB (10^6 bytes). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some line -> (
            try
              Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                  float_of_int kb *. 1024. /. 1e6)
            with Scanf.Scan_failure _ | End_of_file -> scan ())
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* Host-speed probe                                                    *)

(* The host lends this VM its cores, caches and memory bus, and other
   tenants slow it by up to ~1.7x for stretches of tens of seconds to
   minutes.  CPU time slows with wall-clock time, so neither is steady
   from run to run.  What they contend for most is the memory system:
   the requests allocate 10-190 MB each, and of the probes tried (see
   perfbench/WORKLOADS.md) a timed sweep over 16 MB of floats, taken
   between requests throughout the run, tracked the requests' run-to-run
   slowdown best.  The sweep's array is a Bigarray, off the OCaml heap,
   so it does not change how the collector paces itself for the code
   under test, and it calls nothing in lib/, so the code under test
   cannot move it.

   Every time metric is multiplied by [probe_reference_ms] over the
   lower quartile of the run's probes: times read as times on this
   host at the speed it had in its quietest runs, and a change to the
   code under test moves them as it moves the unscaled times. *)

let probe_reference_ms = 4.0

(* after each request, a probe is taken if this long has passed since
   the last one *)
let probe_every_ms = 300.

let bus =
  let a = Bigarray.(Array1.create float64 c_layout (1 lsl 21)) in
  Bigarray.Array1.fill a 0.5;
  a

(* The sweep's array stays resident from the first probe on;
   peak_rss_mb leaves it out. *)
let probe_mb = float_of_int (Bigarray.Array1.size_in_bytes bus) /. 1e6

(* Probes taken so far, newest first: (clock reading, ms). *)
let probes = ref []

let probe () =
  let at = now_ns () in
  for i = 0 to Bigarray.Array1.dim bus - 1 do
    bus.{i} <- 1. -. bus.{i}
  done;
  probes := (at, ms_between at (now_ns ())) :: !probes

let probe_if_due () =
  match !probes with
  | (at, _) :: _ when ms_between at (now_ns ()) < probe_every_ms -> ()
  | _ -> probe ()

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

(* A compile's output, as the checker needs it. *)
type compiled = {
  circuit : Circ.t;
  data_bit : (int * int) list;
  measures : (int * int) list;
}

(* A reference distribution over the register bits [bits], in order:
   exact, or estimated from [sample_shots] shots. *)
type reference = {
  bits : int list;
  dist : Sim.Dist.t;
  sample_shots : int option;
}

type kind =
  | Dj of Dqc.Toffoli_scheme.t  (** parse, compile, run_measured *)
  | Simulate  (** parse, lint, run: the simulate --file path *)

(* What the program under test receives, plus what the checker learns
   about it.  [reference] is filled in for analytic workloads at
   generation time, and for compiled ones after the first request on
   the input (the compiled circuit is its subject). *)
type input = {
  name : string;
  qasm : string;
  roles : Circ.role array;
  shots : int;
  kind : kind;
  mutable reference : reference option;
  mutable compiled : compiled option;
      (** the first Pipeline.compile output on this input *)
  mutable engine : string option;
      (** the engine Backend.run_measured dispatches the compiled DJ
          circuit to *)
}

let make_input ?reference ~shots kind name circuit =
  {
    name;
    qasm = Qasm.to_string ~name circuit;
    roles = Circ.roles circuit;
    shots;
    kind;
    reference;
    compiled = None;
    engine = None;
  }

(* The DJ population: the nine Table II oracles, AND/NAND/OR/XOR_n
   for n = 4..12 and MAJ_3/5/7, each under dyn1 and dyn2.  AND_6 and
   NAND_6 come twice: with them the 14 costliest of the 100 requests
   of a dj-paper pass are OR_5, MAJ_5, OR_4 and the 8 AND_6/NAND_6
   requests, of similar cost, so request_p90_ms falls inside that
   group, not on the edge between the costly inputs and the bulk. *)
let dj_oracles () =
  let open Algorithms in
  Dj_toffoli.oracles
  @ List.concat_map
      (fun make -> List.init 9 (fun i -> make (i + 4)))
      [ Mct_bench.and_n; Mct_bench.nand_n; Mct_bench.or_n; Mct_bench.xor_n ]
  @ List.map Mct_bench.majority_n [ 3; 5; 7 ]
  @ [ Mct_bench.and_n 6; Mct_bench.nand_n 6 ]

let dj_deck ~shots =
  List.concat_map
    (fun (o : Algorithms.Oracle.t) ->
      let c = Algorithms.Dj.circuit o in
      List.map
        (fun scheme ->
          make_input ~shots (Dj scheme)
            (o.Algorithms.Oracle.name ^ "/" ^ Dqc.Toffoli_scheme.to_string scheme)
            c)
        Dqc.Toffoli_scheme.[ Dynamic_1; Dynamic_2 ])
    (dj_oracles ())

(* A Table-I-style AND network under the dyn2 substitution: inputs
   0..k-1, ladder ancillas k..2k-3, the AND of all inputs on the last
   ancilla, measured into bit 0.  The first [superposed] inputs are
   H-prepared and measured mid-circuit into bits 1..superposed; the
   rest are X-prepared.  So bit 0 is the AND of bits 1..superposed. *)
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

(* Mixed sparsity: 12 qubits in uniform superposition measured up front
   (dense), then a basis Toffoli with measure / reset / feed-forward on
   the other 3 (sparse), so Auto plans it per segment.  Bit 0 ends 1. *)
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

(* The analytic truth of the wide inputs, over the whole register: the
   [free] bits uniform, the others set by [f] from them. *)
let uniform_reference ~width ~free f =
  let m = List.length free in
  let p = 1. /. float_of_int (1 lsl m) in
  let dist =
    Sim.Dist.create ~width
      (List.init (1 lsl m) (fun x ->
           let outcome, _ =
             List.fold_left
               (fun (acc, i) bit ->
                 ((if (x lsr i) land 1 = 1 then acc lor (1 lsl bit) else acc), i + 1))
               (0, 0) free
           in
           (f outcome, p)))
  in
  { bits = List.init width Fun.id; dist; sample_shots = None }

let ladder_input ~shots ~inputs ~superposed =
  let c = and_ladder ~inputs ~superposed in
  let all_ones = ((1 lsl superposed) - 1) lsl 1 in
  let reference =
    uniform_reference ~width:(Circ.num_bits c)
      ~free:(List.init superposed (fun i -> i + 1))
      (fun o -> if o land all_ones = all_ones then o lor 1 else o)
  in
  make_input ~reference ~shots Simulate
    (Printf.sprintf "AND-%d/%d" inputs superposed)
    c

let hybrid_input ~shots =
  let c = hybrid_witness () in
  let reference =
    uniform_reference ~width:(Circ.num_bits c)
      ~free:(List.init 12 (fun i -> i + 1))
      (fun o -> o lor 1)
  in
  make_input ~reference ~shots Simulate "hybrid-witness" c

(* adaptive_parity n: bit 0 (the syndrome) always reads 0, bit 1 is the
   parity of n uniform bits. *)
let parity_input ~shots n =
  let c = Algorithms.Mct_bench.adaptive_parity n in
  let reference =
    uniform_reference ~width:(Circ.num_bits c) ~free:[ 1 ] (fun o -> o)
  in
  make_input ~reference ~shots Simulate (Printf.sprintf "XORA_%d" n) c

(* Ladders with 5..7 inputs (13..19 qubits), where Auto picks the exact
   engine; fixed so every seed pays the same tail.  AND-7/2 comes three
   times so that request_p90_ms falls inside its group of samples (above
   it: the hybrid witnesses), not on the edge between two inputs of
   different cost.  AND-8 (22 qubits) is left out: its 67 MB states made
   peak RSS jump with GC timing, and one request took ~0.9 s. *)
let narrow_ladders =
  [ (5, 0); (5, 3); (5, 5); (6, 1); (6, 3); (7, 0); (7, 2); (7, 2); (7, 2) ]

(* One pass of wide-sparse: 24 ladders with 9..20 inputs, each size
   twice, 4 adaptive-parity circuits, the narrow ladders and 2 hybrid
   witnesses.  The seed shifts the ladders' superposed counts through
   0..6 and draws one parity size from each quarter of 4..19, so every
   seed gets the same spread of costs. *)
let wide_deck ~shots rng =
  let shift = Random.State.int rng 7 in
  let wide =
    List.init 24 (fun i ->
        ladder_input ~shots ~inputs:(9 + (i mod 12)) ~superposed:((i + shift) mod 7))
  in
  let parity =
    List.init 4 (fun j -> parity_input ~shots (4 + (4 * j) + Random.State.int rng 4))
  in
  let narrow =
    List.map
      (fun (inputs, superposed) -> ladder_input ~shots ~inputs ~superposed)
      narrow_ladders
  in
  let hybrid = List.init 2 (fun _ -> hybrid_input ~shots) in
  wide @ parity @ narrow @ hybrid

type workload = {
  wname : string;
  deck : Random.State.t -> input list;
  warmup : input list -> input list;
      (** seed-independent warm-up requests, taken from the deck *)
}

let by_name names deck = List.filter (fun i -> List.mem i.name names) deck

let workloads =
  [
    {
      wname = "dj-paper";
      deck = (fun _ -> dj_deck ~shots:1024);
      warmup = (fun deck -> List.filteri (fun i _ -> i < 18) deck);
    };
    {
      wname = "dj-shots";
      deck = (fun _ -> dj_deck ~shots:16384);
      warmup = (fun deck -> List.filteri (fun i _ -> i < 18) deck);
    };
    {
      wname = "wide-sparse";
      deck = wide_deck ~shots:256;
      warmup = by_name [ "AND-5/3"; "AND-6/1"; "XORA_4"; "AND-12/0" ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)

(* What a request returned, as far as the checker needs it. *)
type response = {
  counts : (int * int) list;  (** outcome, shots: a histogram kept small *)
  width : int;
  proved : bool;  (** certifier verdict was Proved (true when none ran) *)
  qubits_ok : bool;  (** compiled width = 1 + answer qubits *)
  lint_errors : int;
}

(* TV distance an honest sample of [shots] draws from a distribution on
   [support] outcomes exceeds with probability below 1e-9:
   P(TV >= t) <= 2^support * exp(-2 shots t^2). *)
let tv_bound ~shots ~support =
  sqrt
    ((float_of_int support *. log 2. +. log 1e9) /. (2. *. float_of_int shots))

let check input reference r =
  let shots = List.fold_left (fun n (_, c) -> n + c) 0 r.counts in
  if shots <> input.shots then
    Some (Printf.sprintf "%d shots returned, %d requested" shots input.shots)
  else if not r.proved then Some "certifier verdict is not Proved"
  else if not r.qubits_ok then
    Some "compiled qubit count is not 1 + answer qubits (roles lost?)"
  else if r.lint_errors > 0 then
    Some (Printf.sprintf "%d lint error(s)" r.lint_errors)
  else
    let observed =
      Sim.Dist.marginal ~bits:reference.bits
        (Sim.Dist.create ~width:r.width
           (List.map (fun (o, c) -> (o, float_of_int c /. float_of_int shots)) r.counts))
    in
    let outside =
      match reference.sample_shots with
      | Some _ -> None
      | None ->
          List.find_opt
            (fun (o, p) -> p > 0. && Sim.Dist.prob reference.dist o <= 1e-12)
            (Sim.Dist.to_list observed)
    in
    match outside with
    | Some (o, p) ->
        Some
          (Printf.sprintf "outcome %d (%.4f of the shots) outside the reference" o p)
    | None ->
        let tv = Sim.Dist.tv_distance observed reference.dist in
        let bound =
          match reference.sample_shots with
          | None ->
              tv_bound ~shots
                ~support:(List.length (Sim.Dist.support reference.dist))
          | Some ref_shots ->
              (* two samples: each within its own bound of the truth *)
              let support = 1 lsl List.length reference.bits in
              tv_bound ~shots ~support +. tv_bound ~shots:ref_shots ~support
        in
        if tv > bound then
          Some (Printf.sprintf "TV %.4f to the reference exceeds %.4f" tv bound)
        else None

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let answers roles =
  Array.fold_left (fun n r -> if r = Circ.Answer then n + 1 else n) 0 roles

let dj_options scheme =
  Dqc.Pipeline.Options.with_scheme scheme Dqc.Pipeline.Options.default

(* answer qubits are read out after the data bits, as dqc_cli simulate
   --dynamic does *)
let dj_measures ~data_bit ~answer_phys =
  let nd = List.length data_bit in
  List.mapi (fun k (_, phys) -> (phys, nd + k)) answer_phys

(* The distribution of a compiled DJ circuit over the bits that carry
   its answer: the input's data qubits and the answer qubits.  It is
   Sim.Exact's when the branches above 1e-4 hold all the mass, which
   bounds the enumeration.  OR_5 leaves tens of random ancilla outcomes
   under dyn1 and dyn2, past 2^40 branches; there the reference is a
   16384-shot sample from the sparse engine, which Auto never picks for
   these 2-qubit circuits. *)
let dj_reference input ~data_bit ~measures compiled =
  let original q =
    q < Array.length input.roles && input.roles.(q) = Circ.Data
  in
  let bits =
    List.filter_map (fun (q, b) -> if original q then Some b else None) data_bit
    @ List.map snd measures
  in
  let exact = Sim.Exact.measured_distribution ~prune:1e-4 ~measures compiled in
  if Sim.Dist.total exact >= 1. -. 1e-9 then
    { bits; dist = Sim.Dist.marginal ~bits exact; sample_shots = None }
  else
    let shots = 16384 in
    let hist =
      Sim.Backend.run_measured ~policy:Sim.Backend.Sparse_statevector
        ~seed:0x5EED ~domains:1 ~shots ~measures compiled
    in
    {
      bits;
      dist = Sim.Dist.marginal ~bits (Sim.Runner.to_dist hist);
      sample_shots = Some shots;
    }

(* The untraced request.  Returns the response and, for DJ inputs, the
   compile's output. *)
let request input ~seed =
  let c = Qasm.parse ~roles:input.roles input.qasm in
  match input.kind with
  | Dj scheme ->
      let out = Dqc.Pipeline.compile ~options:(dj_options scheme) c in
      let measures =
        dj_measures ~data_bit:out.Dqc.Pipeline.data_bit
          ~answer_phys:out.Dqc.Pipeline.answer_phys
      in
      let hist =
        Sim.Backend.run_measured ~policy:Sim.Backend.Auto ~seed ~domains:1
          ~shots:input.shots ~measures out.Dqc.Pipeline.circuit
      in
      ( {
          counts = Sim.Runner.to_list hist;
          width = Sim.Runner.width hist;
          proved = out.Dqc.Pipeline.certified;
          qubits_ok = out.Dqc.Pipeline.qubits = 1 + answers input.roles;
          lint_errors = 0;
        },
        Some
          {
            circuit = out.Dqc.Pipeline.circuit;
            data_bit = out.Dqc.Pipeline.data_bit;
            measures;
          } )
  | Simulate ->
      (* simulate reports lint findings and runs anyway: the ladders'
         measured-then-reused inputs are use-after-measure errors by
         design *)
      ignore (Lint.run c);
      let hist =
        Sim.Backend.run ~policy:Sim.Backend.Auto ~seed ~domains:1
          ~shots:input.shots c
      in
      ( {
          counts = Sim.Runner.to_list hist;
          width = Sim.Runner.width hist;
          proved = true;
          qubits_ok = true;
          lint_errors = 0;
        },
        None )

(* Layers of the traced run, in request order. *)
let engines = [ "exact"; "dense"; "sparse"; "hybrid"; "stabilizer" ]

let layers =
  [
    "circuit.qasm";
    "dqc.prepare";
    "dqc.transform";
    "dqc.certify";
    "decompose.expand_cv";
    "lint.run";
    "lint.resource";
    "sim.select";
  ]
  @ List.map (fun e -> "sim.run." ^ e) engines

type traced = {
  spans : (string * float) list;  (** layer, ms *)
  total_ms : float;
  shots : int;
  engine : string;
  transform_gates : int option;
  path_vars : int option;
  program_ops : int;
}

let engine_name = function
  | `Exact -> "exact"
  | `Dense -> "dense"
  | `Sparse -> "sparse"
  | `Hybrid -> "hybrid"
  | `Stabilizer -> "stabilizer"

(* The engine a run dispatches to.  A plain run uses select's pick.  A
   measured run counts its read-out measurements as branch points, so
   its pick can differ; it is read once per input from the
   backend.run.<engine> counter of an untimed run under a throwaway
   collector (telemetry slows the run itself). *)
let engine_of input ~picked run =
  match (input.kind, input.engine) with
  | Simulate, _ -> engine_name picked
  | Dj _, Some e -> e
  | Dj _, None ->
      let col, _ = Obs.with_collector run in
      let e =
        List.find_opt
          (fun e -> Obs.Collector.counter col ("backend.run." ^ e) > 0)
          engines
        |> Option.value ~default:"unknown"
      in
      input.engine <- Some e;
      e

(* The traced request: the layer calls of Pipeline.compile's default
   schedule (prepare, transform, certify, expand_cv, lint), then
   resource_summary, select and run, each timed from outside.  Glue
   between the calls is left untimed and shows as unattributed. *)
let traced_request input ~seed =
  let spans = ref [] in
  let timed name f =
    let a = now_ns () in
    let x = f () in
    spans := (name, ms_between a (now_ns ())) :: !spans;
    x
  in
  let start = now_ns () in
  let c = timed "circuit.qasm" (fun () -> Qasm.parse ~roles:input.roles input.qasm) in
  let circuit, compiled, proved, transform_gates, path_vars, lint_errors =
    match input.kind with
    | Dj scheme ->
        let prepared =
          timed "dqc.prepare" (fun () -> Dqc.Toffoli_scheme.prepare scheme c)
        in
        let r =
          timed "dqc.transform" (fun () ->
              Dqc.Transform.transform ~mode:`Algorithm1 ~mct:false prepared)
        in
        let verdict = timed "dqc.certify" (fun () -> Dqc.Certifier.certify c r) in
        let expanded =
          timed "decompose.expand_cv" (fun () ->
              Decompose.Pass.expand_cv r.Dqc.Transform.circuit)
        in
        let passes = Lint.dqc_passes ~max_live:1 () in
        let report = timed "lint.run" (fun () -> Lint.run ~passes expanded) in
        let path_vars =
          match verdict with
          | Verify.Certify.Proved p -> Some p.Verify.Certify.path_vars
          | Verify.Certify.Refuted _ | Verify.Certify.Unknown _ -> None
        in
        let data_bit = r.Dqc.Transform.data_bit in
        ( expanded,
          Some
            {
              circuit = expanded;
              data_bit;
              measures =
                dj_measures ~data_bit ~answer_phys:r.Dqc.Transform.answer_phys;
            },
          Verify.Certify.is_proved verdict,
          Some (Metrics.gate_count r.Dqc.Transform.circuit),
          path_vars,
          report.Lint.errors )
    | Simulate ->
        ignore (timed "lint.run" (fun () -> Lint.run c));
        (c, None, true, None, None, 0)
  in
  ignore
    (timed "lint.resource" (fun () -> Sim.Backend.resource_summary circuit));
  let picked =
    timed "sim.select" (fun () ->
        Sim.Backend.select ~policy:Sim.Backend.Auto ~shots:input.shots circuit)
  in
  let run () =
    match compiled with
    | Some { measures; _ } ->
        Sim.Backend.run_measured ~policy:Sim.Backend.Auto ~seed ~domains:1
          ~shots:input.shots ~measures circuit
    | None ->
        Sim.Backend.run ~policy:Sim.Backend.Auto ~seed ~domains:1
          ~shots:input.shots circuit
  in
  let a = now_ns () in
  let hist = run () in
  let stop = now_ns () in
  let engine = engine_of input ~picked run in
  spans := ("sim.run." ^ engine, ms_between a stop) :: !spans;
  let total_ms = ms_between start stop in
  let executed =
    match compiled with
    | Some { measures; _ } ->
        Sim.Measurement_plan.instrument (Sim.Measurement_plan.of_pairs measures) circuit
    | None -> circuit
  in
  let response =
    {
      counts = Sim.Runner.to_list hist;
      width = Sim.Runner.width hist;
      proved;
      qubits_ok =
        (match input.kind with
        | Dj _ -> Circ.num_qubits circuit = 1 + answers input.roles
        | Simulate -> true);
      lint_errors;
    }
  in
  ( response,
    compiled,
    {
      spans = List.rev !spans;
      total_ms;
      shots = input.shots;
      engine;
      transform_gates;
      path_vars;
      program_ops = Sim.Program.length (Sim.Program.compile executed);
    } )

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* Linear interpolation between closest ranks. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = p *. float_of_int (n - 1) in
    let i = truncate pos in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = percentile 0.5 xs
let sum = List.fold_left ( +. ) 0.

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failures : string list;
}

let tally = { attempted = 0; failed = 0; first_failures = [] }

let fail input why =
  tally.failed <- tally.failed + 1;
  if List.length tally.first_failures < 5 then
    tally.first_failures <- (input.name ^ ": " ^ why) :: tally.first_failures

let same_circuit a b =
  Circ.instructions a = Circ.instructions b
  && Circ.num_qubits a = Circ.num_qubits b
  && Circ.num_bits a = Circ.num_bits b
  && Circ.roles a = Circ.roles b

let settle (input, response) =
  let reference () =
    match (input.reference, input.compiled) with
    | Some r, _ -> r
    | None, Some c ->
        let r =
          dj_reference input ~data_bit:c.data_bit ~measures:c.measures c.circuit
        in
        input.reference <- Some r;
        r
    | None, None -> failwith "no reference"
  in
  match reference () with
  | reference -> Option.iter (fail input) (check input reference response)
  | exception e -> fail input ("reference raised " ^ Printexc.to_string e)

(* A DJ input's later compiles must reproduce its first, whose output
   the reference is computed from (once, after that first request). *)
let record input (response, compiled) =
  match (compiled, input.compiled) with
  | Some c, Some first when not (same_circuit c.circuit first.circuit) ->
      fail input "compiled circuit differs from the first compile of this input"
  | Some c, None ->
      input.compiled <- Some c;
      settle (input, response)
  | _ -> settle (input, response)

(* One attempt: failures (exceptions included) are counted, never
   raised. *)
let attempt input f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | x -> Some x
  | exception e ->
      fail input ("raised " ^ Printexc.to_string e);
      None

type sample = {
  latency_ms : float;
  cpu_ms : float;
  alloc_bytes : float;
  shots : int;
}

let untraced input ~seed =
  let a = now_ns () and ca = cpu_ns () and ga = Gc.allocated_bytes () in
  let result = attempt input (fun () -> request input ~seed) in
  let ga' = Gc.allocated_bytes () and ca' = cpu_ns () and a' = now_ns () in
  Option.iter (record input) result;
  {
    latency_ms = ms_between a a';
    cpu_ms = ms_between ca ca';
    alloc_bytes = ga' -. ga;
    shots = (match result with Some _ -> input.shots | None -> 0);
  }

(* The traced request is checked like any other.  Its layer times must
   not add up to more than its total, and it must compile to exactly the
   circuit Pipeline.compile gave for the input (an untraced pass always
   precedes the first traced one). *)
let traced input ~seed =
  match attempt input (fun () -> traced_request input ~seed) with
  | None -> None
  | Some (response, compiled, t) ->
      let attributed = sum (List.map snd t.spans) in
      (match (compiled, input.compiled) with
      | _ when attributed > t.total_ms ->
          fail input
            (Printf.sprintf "layer times %.4f ms exceed the request total %.4f ms"
               attributed t.total_ms)
      | Some chain, Some pipeline
        when not (same_circuit chain.circuit pipeline.circuit) ->
          fail input "layer-call chain differs from Pipeline.compile's circuit"
      | Some _, None -> fail input "no Pipeline.compile output to compare with"
      | _ -> record input (response, compiled));
      Some t

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Self-test: the checker must count a wrong histogram, a skewed one, a
   non-Proved verdict and a lost-roles compile as failures. *)

let self_test () =
  let input =
    List.find (fun i -> i.name = "XOR_4/dynamic-2") (dj_deck ~shots:1024)
  in
  let response, compiled = request input ~seed:1 in
  input.compiled <- compiled;
  settle (input, response);
  let reference = Option.get input.reference in
  let width = response.width in
  let observed o =
    Sim.Dist.to_list
      (Sim.Dist.marginal ~bits:reference.bits (Sim.Dist.create ~width [ (o, 1.) ]))
  in
  let outside =
    List.find
      (fun o ->
        List.for_all (fun (m, _) -> Sim.Dist.prob reference.dist m <= 1e-12) (observed o))
      (List.init (1 lsl width) Fun.id)
  in
  let all_on o = [ (o, input.shots) ] in
  let most_likely, _ =
    List.fold_left
      (fun (bo, bc) (o, c) -> if c > bc then (o, c) else (bo, bc))
      (0, 0) response.counts
  in
  let bad =
    [
      { response with counts = all_on outside };
      { response with counts = all_on most_likely };
      { response with proved = false };
      { response with qubits_ok = false };
    ]
  in
  tally.attempted <- 0;
  tally.failed <- 0;
  List.iter
    (fun r ->
      tally.attempted <- tally.attempted + 1;
      settle (input, r))
    (response :: bad);
  let ok = tally.failed = List.length bad in
  Printf.printf
    "self-test: checker counted %d of %d bad responses, error_rate %.2f — %s\n"
    tally.failed (List.length bad)
    (float_of_int tally.failed /. float_of_int tally.attempted)
    (if ok then "ok" else "FAILED");
  tally.attempted <- 0;
  tally.failed <- 0;
  tally.first_failures <- [];
  ok

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let git_revision () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      String.trim (read_file (".git/" ^ String.sub head 5 (String.length head - 5)))
    else head
  with Sys_error _ -> "none (not a git checkout)"

(* Digest of the library sources: identifies the code under test when
   the checkout carries no git metadata. *)
let source_digest () =
  let files =
    List.concat_map
      (fun dir ->
        let d = Filename.concat "lib" dir in
        if Sys.is_directory d then
          List.map (Filename.concat d) (List.sort compare (Array.to_list (Sys.readdir d)))
        else [])
      (List.sort compare (Array.to_list (Sys.readdir "lib")))
  in
  Digest.to_hex (Digest.string (String.concat "\000" (List.map read_file files)))

let nproc () =
  try
    let ic = Unix.open_process_in "nproc 2>/dev/null" in
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some n -> String.trim n
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload dj-paper|dj-shots|wide-sparse --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs > 0. -> (
      match List.find_opt (fun wl -> wl.wname = w) workloads with
      | Some wl -> (wl, s, secs, t)
      | None -> usage ())
  | _ -> usage ()

(* A set-up round lasts 15-40 ms, and the host's speed switches within
   a second and drifts over tens of seconds, so rounds are not run back
   to back: after the first, one is made after each request that ends
   this long after the previous round, through the whole run. *)
let setup_every_ms = 1000.

(* peak_rss_mb is read after set-up and this many untraced passes, a
   fixed amount of work: the resident size keeps growing with the
   requests, so a reading at the end of a timed loop would follow host
   speed. *)
let rss_passes = 4

let json_num x = Printf.sprintf "%.17g" x

let print_result ~correct metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num value) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed body

let () =
  let wl, seed, seconds, trace = parse_args () in
  let self_test_ok = self_test () in
  Printf.printf
    "{\"provenance\": {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \
     \"trace\": %b, \"nproc\": %S, \"domains\": 1, \"ocaml\": %S, \"git\": \
     %S, \"lib_sources_md5\": %S}}\n%!"
    wl.wname seed (json_num seconds) trace (nproc ()) Sys.ocaml_version
    (git_revision ()) (source_digest ());
  (* set-up: generate the inputs from the seed, render them to QASM and
     send the warm-up requests.  The first round's deck is the one the
     run uses.  Later rounds generate and render a deck of their own
     (the same inputs, as the seed is the same) and send the warm-up
     requests of the run's deck, whose references the first round
     computed: a round then does the same work every time.  The median
     over the rounds is reported. *)
  let setup_times = ref [] in
  let set_up deck =
    let a = now_ns () in
    let rng = Random.State.make [| seed |] in
    let fresh = wl.deck rng in
    let deck = Option.value deck ~default:fresh in
    List.iter
      (fun input -> ignore (untraced input ~seed:(Random.State.bits rng)))
      (wl.warmup deck);
    let b = now_ns () in
    setup_times := ms_between a b /. 1000. :: !setup_times;
    (deck, rng, b)
  in
  probe ();
  let deck, rng, first_round = set_up None in
  let last_round = ref first_round in
  let set_up_if_due () =
    if ms_between !last_round (now_ns ()) >= setup_every_ms then begin
      let _, _, b = set_up (Some deck) in
      last_round := b
    end
  in
  (* the measured loop: whole passes over the deck, each in a fresh
     seeded order, until [seconds] have gone; with tracing, untraced
     and traced passes alternate *)
  let loop_start = now_ns () in
  let untraced_passes = ref [] and traces = ref [] and passes = ref 0 in
  let peak_rss = ref None in
  let elapsed () = ms_between loop_start (now_ns ()) /. 1000. in
  while elapsed () < seconds || (trace && !passes mod 2 = 1) do
    let tracing = trace && !passes mod 2 = 1 in
    let samples =
      List.filter_map
        (fun input ->
          let seed = Random.State.bits rng in
          let sample =
            if tracing then begin
              Option.iter (fun t -> traces := t :: !traces) (traced input ~seed);
              None
            end
            else Some (untraced input ~seed)
          in
          probe_if_due ();
          set_up_if_due ();
          sample)
        (shuffle rng deck)
    in
    if not tracing then begin
      untraced_passes := samples :: !untraced_passes;
      if List.length !untraced_passes = rss_passes then
        peak_rss := Some (peak_rss_mb ())
    end;
    incr passes
  done;
  probe ();
  let peak_rss =
    (match !peak_rss with Some mb -> mb | None -> peak_rss_mb ()) -. probe_mb
  in
  (* one factor for the whole run: see "Host-speed probe" *)
  let probe_q1 = percentile 0.25 (List.map snd !probes) in
  let scale = probe_reference_ms /. probe_q1 in
  let unscaled = List.concat_map (List.map (fun s -> s.latency_ms)) !untraced_passes in
  let untraced_passes =
    List.map
      (List.map (fun s ->
           { s with latency_ms = s.latency_ms *. scale; cpu_ms = s.cpu_ms *. scale }))
      !untraced_passes
  in
  let samples = List.concat untraced_passes in
  let latencies = List.map (fun s -> s.latency_ms) samples in
  let n = List.length samples in
  let p50 = median latencies and p90 = percentile 0.9 latencies in
  let correct = self_test_ok && tally.failed = 0 in
  List.iter (Printf.printf "failure: %s\n") (List.rev tally.first_failures);
  if not trace then begin
    (* rates and per-request costs: the median over passes, each pass
       being the whole deck, so a stall on the host moves one pass *)
    let per_pass f =
      median
        (List.map
           (fun pass ->
             let busy_s = sum (List.map (fun s -> s.latency_ms) pass) /. 1000. in
             f pass ~busy_s ~n:(float_of_int (List.length pass)))
           untraced_passes)
    in
    let total f pass = sum (List.map f pass) in
    let metrics =
      [
        ("setup_s", median !setup_times *. scale, "s");
        ("request_p50_ms", p50, "ms");
        ("request_p90_ms", p90, "ms");
        ("requests_per_s", per_pass (fun _ ~busy_s ~n -> n /. busy_s), "1/s");
        ( "shots_per_s",
          per_pass (fun pass ~busy_s ~n:_ ->
              total (fun s -> float_of_int s.shots) pass /. busy_s),
          "1/s" );
        ( "cpu_ms_per_request",
          per_pass (fun pass ~busy_s:_ ~n -> total (fun s -> s.cpu_ms) pass /. n),
          "ms" );
        ( "alloc_mb_per_request",
          per_pass (fun pass ~busy_s:_ ~n ->
              total (fun s -> s.alloc_bytes) pass /. n /. 1e6),
          "MB" );
        ("peak_rss_mb", peak_rss, "MB");
      ]
    in
    Printf.printf
      "%s: %d timed requests in %d passes of %d, p90 has %d samples beyond it\n"
      wl.wname n !passes (List.length deck)
      (n - int_of_float (ceil (0.9 *. float_of_int n)));
    List.iter (fun (k, v, u) -> Printf.printf "  %-22s %14.4f %s\n" k v u) metrics;
    Printf.printf
      "  times above are scaled by %.4f (probe lower quartile %.4f ms over %d \
       probes, reference %.2f ms); unscaled p50 %.4f ms, p90 %.4f ms\n"
      scale probe_q1 (List.length !probes) probe_reference_ms (median unscaled)
      (percentile 0.9 unscaled);
    Printf.printf "  %-22s %14.6f (failed %d / attempted %d)\n" "error_rate"
      (float_of_int tally.failed /. float_of_int tally.attempted)
      tally.failed tally.attempted;
    print_result ~correct metrics
  end
  else begin
    let traces =
      List.map
        (fun (t : traced) ->
          {
            t with
            spans = List.map (fun (l, ms) -> (l, ms *. scale)) t.spans;
            total_ms = t.total_ms *. scale;
          })
        !traces
    in
    let grand = sum (List.map (fun t -> t.total_ms) traces) in
    let layer_times l =
      List.concat_map
        (fun t ->
          List.filter_map (fun (n, ms) -> if n = l then Some ms else None) t.spans)
        traces
    in
    let share ms = if grand > 0. then 100. *. ms /. grand else 0. in
    let attributed = ref 0. in
    let per_layer =
      List.concat_map
        (fun l ->
          let ts = layer_times l in
          attributed := !attributed +. sum ts;
          [
            (l ^ ".time_share", share (sum ts), "%");
            (l ^ ".p50_ms", median ts, "ms");
            (l ^ ".calls", float_of_int (List.length ts), "count");
          ])
        layers
    in
    let us_per_shot =
      List.map
        (fun e ->
          let runs = List.filter (fun t -> t.engine = e) traces in
          let shots = List.fold_left (fun a (t : traced) -> a + t.shots) 0 runs in
          let ms = sum (layer_times ("sim.run." ^ e)) in
          ( "sim.run." ^ e ^ ".us_per_shot",
            (if shots = 0 then 0. else 1000. *. ms /. float_of_int shots),
            "us" ))
        engines
    in
    let mean_of f =
      let xs = List.filter_map (fun t -> Option.map float_of_int (f t)) traces in
      if xs = [] then 0. else sum xs /. float_of_int (List.length xs)
    in
    let traced_p50 = median (List.map (fun t -> t.total_ms) traces) in
    let metrics =
      per_layer @ us_per_shot
      @ [
          ("dqc.transform.gates_out", mean_of (fun t -> t.transform_gates), "count");
          ("dqc.certify.path_vars", mean_of (fun t -> t.path_vars), "count");
          ("sim.program.ops", mean_of (fun t -> Some t.program_ops), "count");
          ("unattributed.time_share", share (grand -. !attributed), "%");
          ("trace.overhead_pct", 100. *. ((traced_p50 /. p50) -. 1.), "%");
        ]
    in
    Printf.printf "%s traced: %d traced and %d untraced requests, %d passes\n"
      wl.wname (List.length traces) n !passes;
    Printf.printf "  %-22s %8s %10s %8s\n" "layer" "calls" "p50_ms" "share%";
    List.iter
      (fun l ->
        let ts = layer_times l in
        if ts <> [] then
          Printf.printf "  %-22s %8d %10.4f %8.2f\n" l (List.length ts) (median ts)
            (share (sum ts)))
      layers;
    Printf.printf "  %-22s %8s %10s %8.2f\n" "unattributed" "" ""
      (share (grand -. !attributed));
    Printf.printf "  traced p50 %.4f ms vs untraced %.4f ms\n" traced_p50 p50;
    print_result ~correct metrics
  end
