# Convenience targets for the common workflows.

.PHONY: install dev test bench bench-verbose report reproduce examples obs-smoke guard-smoke serve-smoke loadgen-smoke sfa-smoke dense-smoke chaos-smoke counting-smoke ci clean

install:
	pip install -e . --no-build-isolation

dev: install
	pip install -e .[dev] --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-verbose:
	pytest benchmarks/ --benchmark-only -s

report:
	repro-report all

reproduce:
	python scripts/run_full_reproduction.py

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f; echo; done

# End-to-end observability smoke: compile a builtin ruleset with tracing
# on, match 64 KB of stream, and validate the emitted Chrome-trace JSON
# against the trace-event schema (strict key/type checks, well-nested).
obs-smoke:
	PYTHONPATH=src pytest tests/ -m obs -q

# Resource-governance smoke: the guard/fault-injection suites, then two
# CLI drills — a state-explosion rule under --on-error quarantine must
# isolate the offender and exit 3 (partial), within a hard timeout (a
# governed compile may fail, never hang); and an out-of-range number
# (`match --deadline 0`) must be a usage error, exit 2, not a traceback.
guard-smoke:
	PYTHONPATH=src pytest tests/ -m guard -q
	@printf 'abc\nx{5000}\nabd\n' > /tmp/guard-smoke-rules.txt
	@sh -c 'PYTHONPATH=src timeout 60 python -m repro.cli compile \
	    /tmp/guard-smoke-rules.txt -o /tmp/guard-smoke-out \
	    --budget-loop-copies 256 --on-error quarantine; \
	  test $$? -eq 3 && echo "guard-smoke: quarantine exit code OK"'
	@printf 'zzabczz' > /tmp/guard-smoke-stream.bin
	@sh -c 'PYTHONPATH=src timeout 60 python -m repro match \
	    /tmp/guard-smoke-stream.bin --ruleset /tmp/guard-smoke-rules.txt \
	    --deadline 0 2>/tmp/guard-smoke-err.txt; \
	  test $$? -eq 2 && ! grep -q Traceback /tmp/guard-smoke-err.txt && \
	  echo "guard-smoke: usage-error exit code OK"'
	@rm -rf /tmp/guard-smoke-rules.txt /tmp/guard-smoke-out \
	    /tmp/guard-smoke-stream.bin /tmp/guard-smoke-err.txt

# Serving smoke: the serve-marked suite (protocol, artifact cache,
# shard pool, backpressure, fault drills, socket round trips), then an
# end-to-end CLI drill — serve a builtin ruleset on a UNIX socket,
# match a payload through the client, and shut the server down cleanly.
serve-smoke:
	PYTHONPATH=src pytest tests/ -m serve -q
	@rm -rf /tmp/serve-smoke && mkdir -p /tmp/serve-smoke
	@printf 'MAIL FROM:x AUTH LOGIN smoke payload' > /tmp/serve-smoke/payload.bin
	@sh -c 'PYTHONPATH=src timeout 120 python -m repro.cli serve \
	    --builtin tokens_exact --socket /tmp/serve-smoke/sock \
	    --shards 2 --artifact-dir /tmp/serve-smoke/cache & \
	  for i in $$(seq 1 100); do test -S /tmp/serve-smoke/sock && break; sleep 0.1; done; \
	  PYTHONPATH=src python -m repro.cli client /tmp/serve-smoke/payload.bin \
	    --socket /tmp/serve-smoke/sock && \
	  PYTHONPATH=src python -m repro.cli client --socket /tmp/serve-smoke/sock --shutdown && \
	  wait && echo "serve-smoke: end-to-end OK"'
	@rm -rf /tmp/serve-smoke

# Load-generation smoke: a seconds-long clients x shards sweep through
# real sockets that asserts per-request latency percentiles (p50/p95/
# p99) come out present and positive — guards the loadgen harness and
# the serve latency instrumentation it reads.
loadgen-smoke:
	PYTHONPATH=src timeout 300 python benchmarks/loadgen.py --smoke

# SFA mapping smoke: the chunk-mapping algebra suite (monoid laws,
# arbitrary-cut equivalence on every builtin ruleset, mapping-mode shard
# conformance), then the scaling bench — which asserts the >1.5x
# 4-thread speedup on a ruleset the overlap planner cannot chunk.
sfa-smoke:
	PYTHONPATH=src pytest tests/ -m sfa -q
	PYTHONPATH=src timeout 600 python benchmarks/bench_sfa_scaling.py --smoke

# Dense-tier smoke: the dense-marked suite (byte-class edge cases,
# promotion gates, mid-buffer de-opt parity, guard integration, bulk
# SFA kernel), then the dense bench in smoke mode — which asserts
# byte-identical matches and a sparse-stream speedup floor over the
# warm lazy backend.
dense-smoke:
	PYTHONPATH=src pytest tests/ -m dense -q
	PYTHONPATH=src timeout 600 python benchmarks/bench_dense.py --smoke

# Self-healing smoke: the chaos-marked suite (retry/dedup/admission/
# supervisor units plus the watchdog, kill-storm, heartbeat, hot-reload
# and torn-frame drills), then the chaos-soak bench in smoke mode —
# loadgen traffic under injected faults asserting zero incorrect match
# sets, >=99% availability and return to steady state.
chaos-smoke:
	PYTHONPATH=src pytest tests/ -m chaos -q
	PYTHONPATH=src timeout 600 python benchmarks/bench_resilience.py --smoke

# Counting-backend smoke: the counting-marked suite (hypothesis
# differential oracle vs the loop-expanded pipeline, cut-point
# invariance, register-pressure demotion drills, conformance matrix),
# then the bound-sweep bench in smoke mode — which asserts the counting
# compile beats expansion on modelled memory, oracle-checked, that the
# register step scans >= 0.35x warm lazy-on-expanded at bound 8, and
# that a counting compile's ME-merging stays within 3x the expanded
# compile's on wide multi-symbol repeats.
counting-smoke:
	PYTHONPATH=src pytest tests/ -m counting -q
	PYTHONPATH=src timeout 600 python benchmarks/bench_counting_backend.py --smoke

# What .github/workflows/ci.yml runs, for local use: the tier-1 suite
# plus the observability, governance, serving, loadgen, SFA, dense,
# chaos and counting smokes.
ci:
	PYTHONPATH=src python -m pytest -x -q
	$(MAKE) obs-smoke
	$(MAKE) guard-smoke
	$(MAKE) serve-smoke
	$(MAKE) loadgen-smoke
	$(MAKE) sfa-smoke
	$(MAKE) dense-smoke
	$(MAKE) chaos-smoke
	$(MAKE) counting-smoke

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks build dist *.egg-info \
	       src/*.egg-info results mfsa_out dot_out
	find . -name __pycache__ -type d -exec rm -rf {} +
