"""Lazy-DFA configuration-cache benchmark: python vs lazy vs dense.

Measures per-builtin-ruleset scan throughput of three iMFAnt
backends (``merging_factor=0``, i.e. one MFSA per ruleset) on a
deterministic stream that mixes ruleset literal material with noise
(the same generator ``repro obs`` demos with), plus the lazy backend's
cache profile: hit rate, distinct configurations, flushes.

The lazy backend is measured **warm** (one priming pass before timing) —
the steady state a long-lived DPI process operates in — and also cold,
so the memoization cost is visible.  The dense backend is measured with
its compiled tier force-promoted after the same warm-up (see
``benchmarks/bench_dense.py`` for the dedicated dense sweep over two
stream profiles).  Correctness is asserted inline: all three backends must
produce identical match sets on every ruleset.

Two entry points:

* ``PYTHONPATH=src python benchmarks/bench_lazy_cache.py`` — full sweep,
  writes ``BENCH_lazy.json`` (the committed results) and prints a table;
* ``pytest benchmarks/bench_lazy_cache.py --benchmark-only`` — the
  pytest-benchmark spelling for one ruleset per backend.

Environment: ``REPRO_BENCH_LAZY_STREAM`` overrides the stream size
(default 32768 bytes), ``REPRO_BENCH_LAZY_REPEATS`` the timing repeats.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro.cli import _demo_stream
from repro.datasets import list_builtin, load_builtin
from repro.engine.imfant import IMfantEngine
from repro.pipeline.compiler import CompileOptions, compile_ruleset

STREAM_SIZE = int(os.environ.get("REPRO_BENCH_LAZY_STREAM", str(1 << 15)))
REPEATS = int(os.environ.get("REPRO_BENCH_LAZY_REPEATS", "3"))
BACKENDS = ("python", "lazy", "dense")


def _best_wall_seconds(engine: IMfantEngine, stream: bytes, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        engine.run(stream, collect_stats=False)
        best = min(best, time.perf_counter() - started)
    return best


def bench_ruleset(name: str, stream_size: int = STREAM_SIZE) -> dict:
    """One ruleset's full comparison; raises if the backends disagree."""
    patterns = list(load_builtin(name).patterns)
    compiled = compile_ruleset(patterns, CompileOptions(merging_factor=0, emit_anml=False))
    assert len(compiled.mfsas) == 1  # M = all
    mfsa = compiled.mfsas[0]
    stream = _demo_stream(patterns, stream_size)

    engines = {backend: IMfantEngine(mfsa, backend=backend) for backend in BACKENDS}
    match_sets = {b: engine.run(stream, collect_stats=False).matches
                  for b, engine in engines.items()}
    assert all(match_sets[b] == match_sets["python"] for b in BACKENDS), name
    assert engines["dense"].promote_dense(force=True)  # timed with the tier live

    lazy_engine = engines["lazy"]
    cold = lazy_engine.lazy_cache.stats
    cold_profile = cold.as_dict()  # the correctness pass doubled as the cold pass

    seconds = {b: _best_wall_seconds(engines[b], stream) for b in BACKENDS}
    warm = lazy_engine.lazy_cache.stats
    row = {
        "ruleset": name,
        "rules": len(patterns),
        "mfsa_states": mfsa.num_states,
        "stream_bytes": len(stream),
        "matches": len(match_sets["python"]),
        "seconds": seconds,
        "throughput_mb_s": {
            b: len(stream) / seconds[b] / 1e6 for b in BACKENDS
        },
        "speedup_vs_python": {
            "lazy": seconds["python"] / seconds["lazy"],
            "dense": seconds["python"] / seconds["dense"],
        },
        "lazy_cache": {
            "cold_pass": cold_profile,
            "cumulative_hit_rate": warm.hit_rate,
            "distinct_configs": lazy_engine.lazy_cache.num_configs,
            "flushes": warm.flushes,
            "entries": len(lazy_engine.lazy_cache.transitions),
            "capacity": lazy_engine.lazy_cache.max_entries,
        },
    }
    return row


def run_sweep(stream_size: int = STREAM_SIZE) -> dict:
    rows = [bench_ruleset(name, stream_size) for name in list_builtin()]
    return {
        "benchmark": "bench_lazy_cache",
        "stream_bytes": stream_size,
        "repeats": REPEATS,
        "backends": list(BACKENDS),
        "note": "lazy backend timed warm (cache primed by the correctness pass); "
                "dense timed with its tier force-promoted after the same warm-up; "
                "cold_pass records the priming pass's hit/miss profile",
        "results": rows,
        "summary": {
            "max_lazy_speedup_vs_python": max(r["speedup_vs_python"]["lazy"] for r in rows),
            "min_lazy_speedup_vs_python": min(r["speedup_vs_python"]["lazy"] for r in rows),
            "max_dense_speedup_vs_python": max(r["speedup_vs_python"]["dense"] for r in rows),
            "min_dense_speedup_vs_python": min(r["speedup_vs_python"]["dense"] for r in rows),
            "all_match_sets_identical": True,  # asserted per ruleset
        },
    }


def main(argv: list[str] | None = None) -> int:
    out = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "BENCH_lazy.json"
    report = run_sweep()
    out.write_text(json.dumps(report, indent=2) + "\n")
    header = (f"{'ruleset':20s} {'python':>10s} {'lazy':>10s} "
              f"{'dense':>10s} {'dense-spd':>10s} {'hit rate':>9s} {'configs':>8s}")
    print(header)
    for row in report["results"]:
        mb = row["throughput_mb_s"]
        print(f"{row['ruleset']:20s} {mb['python']:8.2f}MB "
              f"{mb['lazy']:8.2f}MB {mb['dense']:8.2f}MB "
              f"{row['speedup_vs_python']['dense']:9.2f}x "
              f"{row['lazy_cache']['cumulative_hit_rate']:9.3f} "
              f"{row['lazy_cache']['distinct_configs']:8d}")
    print(f"\nwrote {out}")
    return 0


# -- pytest-benchmark spelling ----------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_lazy_cache_throughput(benchmark, backend):
    patterns = list(load_builtin("log_patterns").patterns)
    compiled = compile_ruleset(patterns, CompileOptions(merging_factor=0, emit_anml=False))
    engine = IMfantEngine(compiled.mfsas[0], backend=backend)
    stream = _demo_stream(patterns, STREAM_SIZE)
    engine.run(stream, collect_stats=False)  # warm (tables + lazy cache)
    if backend == "dense":
        assert engine.promote_dense(force=True)
    result = benchmark(lambda: engine.run(stream, collect_stats=False))
    reference = IMfantEngine(compiled.mfsas[0], backend="python").run(stream).matches
    assert result.matches == reference


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
