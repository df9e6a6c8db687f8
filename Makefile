.PHONY: all build test bench ci fmt-check trace-smoke kernel-smoke lint loc verify-gate reuse-gate analyze-gate opt-gate sparse-gate perf-gate perf-baseline clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe -- all

# Source hygiene: no tabs, no trailing whitespace in OCaml sources
# (ocamlformat is not available in the sealed environment, so this is
# the formatting floor CI can enforce).
fmt-check:
	@bad=$$(grep -rlnP '\t| +$$' --include='*.ml' --include='*.mli' \
	  lib bin test bench examples 2>/dev/null || true); \
	if [ -n "$$bad" ]; then \
	  echo "fmt-check: tabs or trailing whitespace in:"; echo "$$bad"; exit 1; \
	else echo "fmt-check: OK"; fi

# Telemetry smoke: run the stats subcommand with every exporter, then
# assert the trace parses as JSON and carries the pipeline + backend
# spans, the metrics document is v2 with percentile histograms, and
# the flight dump has the dqc.flight/1 shape with pass snapshots.
trace-smoke:
	OCAMLRUNPARAM=b dune exec bin/dqc_cli.exe -- stats AND --shots 256 \
	  --trace /tmp/dqc_trace.json --metrics /tmp/dqc_metrics.json \
	  --flight-record /tmp/dqc_flight.json
	python3 -c "import json; \
	t = json.load(open('/tmp/dqc_trace.json')); \
	names = {e['name'] for e in t['traceEvents'] if e.get('ph') == 'X'}; \
	assert 'pipeline.compile' in names and 'backend.run' in names, names; \
	assert any(e.get('name') == 'thread_sort_index' for e in t['traceEvents']); \
	m = json.load(open('/tmp/dqc_metrics.json')); \
	assert m['schema'] == 'dqc.obs.metrics/2', m['schema']; \
	assert m['counters']['backend.shots'] == 256, m['counters']; \
	assert m['counters']['sim.program.ops'] > 0, m['counters']; \
	h = m['histograms']; \
	assert 'backend.run' in h and 'parallel.shot' in h, sorted(h); \
	assert h['parallel.shot']['count'] == 8, h['parallel.shot']; \
	assert all(k in h['backend.run'] for k in ('p50_ns','p90_ns','p99_ns','p999_ns')); \
	f = json.load(open('/tmp/dqc_flight.json')); \
	assert f['schema'] == 'dqc.flight/1', f['schema']; \
	kinds = [e['kind'] for e in f['events']]; \
	assert 'pass.begin' in kinds and 'pass.end' in kinds and 'backend.run' in kinds, kinds; \
	print('trace-smoke: OK (%d trace events, %d flight events)' \
	  % (len(t['traceEvents']), len(f['events'])))"

# Kernel smoke: the compiled execution plans (fused specialized
# kernels, Sim.Program) must agree with the generic interpreter
# amplitude-for-amplitude on the paper's benchmark family.
kernel-smoke:
	OCAMLRUNPARAM=b dune exec bench/main.exe -- kernels

# Static lint gate: every Table II benchmark and a spread of generated
# AND_/OR_/NAND_/MAJ_<n> oracles must compile to a lint-clean dynamic
# circuit under both schemes, and the negative corpus in examples/
# must be rejected with a non-zero exit.  Malformed QASM must exit 3
# from lint/verify/analyze, and a negative --shots must be a usage
# error (exit 124) in every subcommand that takes it.
LINT_BENCHES = AND NAND OR NOR IMPLY_1 IMPLY_2 INHIB_1 INHIB_2 CARRY \
  AND_4 AND_6 AND_8 OR_4 OR_6 NAND_4 NAND_6 MAJ_5 MAJ_7
lint:
	@set -e; \
	dune build bin/dqc_cli.exe; \
	for b in $(LINT_BENCHES); do \
	  for s in dynamic-1 dynamic-2; do \
	    dune exec --no-build bin/dqc_cli.exe -- lint $$b --scheme $$s \
	      >/dev/null || { echo "lint: $$b [$$s] FAILED"; exit 1; }; \
	  done; \
	done; \
	echo "lint: $(words $(LINT_BENCHES)) benchmarks x 2 schemes clean"; \
	for f in examples/*.qasm; do \
	  if dune exec --no-build bin/dqc_cli.exe -- lint --file $$f \
	      >/dev/null 2>&1; then \
	    echo "lint: negative corpus $$f was NOT rejected"; exit 1; \
	  else echo "lint: negative corpus $$f rejected (non-zero exit)"; fi; \
	done; \
	printf 'OPENQASM 3.0;\nqubit[1] q;\nbit[1] c;\nh q[0]\n' \
	  > /tmp/dqc_bad_syntax.qasm; \
	printf 'OPENQASM 3.0;\nqubit[1] q;\nbit[1] c;\nc[3] = measure q[0];\n' \
	  > /tmp/dqc_bad_index.qasm; \
	for f in /tmp/dqc_bad_syntax.qasm /tmp/dqc_bad_index.qasm; do \
	  for cmd in lint verify analyze; do \
	    code=0; dune exec --no-build bin/dqc_cli.exe -- $$cmd --file $$f \
	      >/dev/null 2>&1 || code=$$?; \
	    if [ $$code -ne 3 ]; then \
	      echo "lint: $$cmd --file $$f exited $$code, want 3"; exit 1; fi; \
	  done; \
	done; \
	echo "lint: malformed QASM input exits 3 from lint, verify and analyze"; \
	for cmd in fig7 "simulate AND" "stats AND" "profile AND"; do \
	  code=0; dune exec --no-build bin/dqc_cli.exe -- $$cmd --shots=-5 \
	    >/dev/null 2>&1 || code=$$?; \
	  if [ $$code -ne 124 ]; then \
	    echo "lint: $$cmd --shots=-5 exited $$code, want 124"; exit 1; fi; \
	done; \
	echo "lint: negative --shots is a usage error (exit 124) in fig7, simulate, stats and profile"

# Net source lines (.ml + .mli) per top-level source directory.
loc:
	@total=0; for d in lib bin bench; do \
	  n=$$(find $$d \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l); \
	  printf '%-6s %7d\n' $$d $$n; total=$$((total + n)); \
	done; printf '%-6s %7d\n' total $$total

# Symbolic certification gate: every lint benchmark must be Proved
# under both dynamic schemes (exit 0), and fault injection must be
# Refuted with exit 2 — not merely "not proved".
verify-gate:
	@set -e; \
	dune build bin/dqc_cli.exe; \
	for b in $(LINT_BENCHES); do \
	  for s in dynamic-1 dynamic-2; do \
	    dune exec --no-build bin/dqc_cli.exe -- verify $$b --scheme $$s \
	      >/dev/null || { echo "verify: $$b [$$s] NOT PROVED"; exit 1; }; \
	  done; \
	done; \
	echo "verify: $(words $(LINT_BENCHES)) benchmarks x 2 schemes proved"; \
	dune exec --no-build bin/dqc_cli.exe -- verify XOR_16 --scheme dynamic-1 \
	  >/dev/null || { echo "verify: XOR_16 [dynamic-1] NOT PROVED"; exit 1; }; \
	echo "verify: XOR_16 (17 qubits) proved"; \
	code=0; dune exec --no-build bin/dqc_cli.exe -- verify DJ_XOR \
	  --scheme dynamic-1 --corrupt >/dev/null || code=$$?; \
	if [ $$code -ne 2 ]; then \
	  echo "verify: corrupted DJ_XOR exited $$code, want 2 (Refuted)"; exit 1; \
	else echo "verify: corrupted DJ_XOR refuted (exit 2)"; fi

# Qubit-reuse gate: the causal-cone reuse pass over the algorithm
# benchmark suite (Grover / Kitaev QPE / Simon / adder).  Every
# rewiring must be proved by the path-sum channel certifier — no
# sampled fallbacks — and Grover/QPE/Simon must all save qubits;
# non-zero exit otherwise.
reuse-gate:
	OCAMLRUNPARAM=b dune exec bin/dqc_cli.exe -- reuse --gate

# Static analyzer gate: differential soundness of the per-segment
# sparsity/resource summaries (random dynamic circuits replayed dense,
# nonzero counts vs the certified log2 bounds), the per-segment Auto
# backend-selection acceptance (XORA_15 -> stabilizer, counter
# witnessed in BENCH_analyze.json), and the <5% analysis overhead
# budget against pipeline compile on DJ(AND_9).
analyze-gate:
	OCAMLRUNPARAM=b dune exec bench/main.exe -- analyze-gate

# Certified-optimizer gate: the whole report corpus (Table I dynamic,
# Table II traditional/dyn1/dyn2, reuse suite) must optimize with
# every accepted rewrite Proved by the path-sum certifier, the dyn2
# family must shrink strictly, and fold/reset-removal must each fire
# somewhere.  A Refuted rewrite — the optimizer disagreeing with its
# own certificate — fails the gate immediately.
opt-gate:
	OCAMLRUNPARAM=b dune exec bench/main.exe -- opt-gate

# Sparse-engine gate: dense/sparse differential equivalence over
# random dynamic circuits, the per-segment Auto selection witness
# (sparse on the basis-sparse dyn2 AND ladder, hybrid with per-shot
# handoffs on the mixed-sparsity workload, counters in
# BENCH_sparse.json), a >= 28-qubit basis-sparse run the dense engine
# cannot allocate, the auto-vs-forced-dense wall-clock win, the
# exact-pick witness (AND-7/2: exact enumerated on the sparse engine)
# and the hybrid witness's auto-vs-forced-dense wall-clock win.
sparse-gate:
	OCAMLRUNPARAM=b dune exec bench/main.exe -- sparse-gate

# Perf regression gate: sample every shared bench workload into
# percentile histograms (interleaved rounds, see bench/main.ml) and
# compare p50/p99 against the checked-in dqc.bench/2 baseline.
# Non-zero exit on regression beyond the thresholds (10% p50, 25% p99
# with p90 corroboration).  Regenerate the baseline on a quiet machine
# with `make perf-baseline` when a slowdown is intentional.
perf-gate:
	OCAMLRUNPARAM=b dune exec bench/main.exe -- perf \
	  --against BENCH_baseline.json --out BENCH_perf.json

perf-baseline:
	OCAMLRUNPARAM=b dune exec bench/main.exe -- perf --out BENCH_baseline.json

# One-command gate: full build + tests + a smoke run of the
# execution-backend study + the telemetry smoke + source hygiene
# (OCAMLRUNPARAM=b: backtraces on uncaught exceptions).
ci:
	OCAMLRUNPARAM=b dune build @runtest
	OCAMLRUNPARAM=b dune exec bench/main.exe -- backend
	$(MAKE) kernel-smoke
	$(MAKE) trace-smoke
	$(MAKE) lint
	$(MAKE) verify-gate
	$(MAKE) reuse-gate
	$(MAKE) analyze-gate
	$(MAKE) opt-gate
	$(MAKE) sparse-gate
	$(MAKE) perf-gate
	$(MAKE) fmt-check

clean:
	dune clean
