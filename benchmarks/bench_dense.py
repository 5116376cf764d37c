"""Dense compiled-DFA tier benchmark: promoted dense vs warm lazy.

Measures per-builtin-ruleset warm scan throughput of the dense tier
(``repro.engine.dense``: byte-class-compressed transition tables, bulk
numpy stepping, self-loop run skipping) against the lazy config-cache
backend it promotes from, on two stream profiles:

* ``demo``  — the 30% literal-density stream ``repro obs`` demos with:
  heavy match activity, runs rarely skip, the win is pure table
  stepping vs per-byte dict interpretation;
* ``sparse`` — ~0.2% literal density: long noise runs between matches,
  the regime DPI-style scanning lives in and where the vectorized
  self-loop skip dominates.

Correctness is asserted inline: the promoted dense engine must produce
byte-identical match sets to the python oracle on every ruleset and
stream.

Two entry points:

* ``PYTHONPATH=src python benchmarks/bench_dense.py`` — full sweep,
  writes ``BENCH_dense.json`` and prints a table; asserts the ISSUE
  acceptance floor (>=10x over warm lazy on >=2 builtin rulesets);
* ``... bench_dense.py --smoke`` — small-stream subset for
  ``make dense-smoke`` / CI (correctness + a modest speedup floor);
* ``pytest benchmarks/bench_dense.py --benchmark-only`` — the
  pytest-benchmark spelling for one ruleset per backend.

Environment: ``REPRO_BENCH_DENSE_STREAM`` overrides the stream size
(default 262144 bytes), ``REPRO_BENCH_DENSE_REPEATS`` the repeats.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

import pytest

from repro.cli import _demo_stream
from repro.datasets import list_builtin, load_builtin
from repro.engine.imfant import IMfantEngine
from repro.pipeline.compiler import CompileOptions, compile_ruleset

STREAM_SIZE = int(os.environ.get("REPRO_BENCH_DENSE_STREAM", str(1 << 18)))
REPEATS = int(os.environ.get("REPRO_BENCH_DENSE_REPEATS", "3"))
SPARSE_DENSITY = 0.002


def _sparse_stream(patterns: list[str], size: int, seed: int = 7,
                   density: float = SPARSE_DENSITY) -> bytes:
    """Long noise runs with literal material at ~``density`` of bytes.

    The noise alphabet is chosen *disjoint* from the ruleset's own
    bytes — the binary/non-signature traffic a DPI scanner spends its
    life in, and the regime self-loop run skipping exists for.  (The
    demo stream covers the opposite, signature-saturated case.)
    """
    rng = random.Random(seed)
    literals = []
    for pattern in patterns:
        core = "".join(ch for ch in pattern if ch.isalnum() or ch in " _-/.:")
        if core:
            literals.append(core)
    used = {ch for lit in literals for ch in lit}
    noise = "".join(ch for ch in "~!@#$%^&*()+=|;,?\t" if ch not in used) or "\x01"
    chunks: list[str] = []
    produced = 0
    lit_bytes = max(1, sum(len(lit) for lit in literals) // max(1, len(literals)))
    gap = max(1, int(lit_bytes / max(density, 1e-6)))
    while produced < size:
        run = rng.randint(gap // 2, gap + gap // 2)
        chunks.append("".join(rng.choice(noise) for _ in range(run)))
        produced += run
        if literals:
            piece = rng.choice(literals)
            chunks.append(piece)
            produced += len(piece)
    return "".join(chunks).encode("latin-1")[:size]


def _best_wall_seconds(engine: IMfantEngine, stream: bytes,
                       repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        engine.run(stream, collect_stats=False)
        best = min(best, time.perf_counter() - started)
    return best


def _promoted(mfsa, stream: bytes) -> IMfantEngine:
    engine = IMfantEngine(mfsa, backend="dense")
    engine.run(stream, collect_stats=False)  # warm the lazy ramp
    assert engine.promote_dense(force=True)
    return engine


def bench_ruleset(name: str, stream_size: int = STREAM_SIZE,
                  repeats: int = REPEATS) -> dict:
    """One ruleset's dense-vs-lazy comparison on both stream profiles;
    raises if any dense configuration disagrees with the oracle."""
    patterns = list(load_builtin(name).patterns)
    compiled = compile_ruleset(patterns,
                               CompileOptions(merging_factor=0, emit_anml=False))
    assert len(compiled.mfsas) == 1  # M = all
    mfsa = compiled.mfsas[0]

    row = {"ruleset": name, "rules": len(patterns),
           "mfsa_states": mfsa.num_states, "streams": {}}
    for profile, stream in (
        ("demo", _demo_stream(patterns, stream_size)),
        ("sparse", _sparse_stream(patterns, stream_size)),
    ):
        oracle = IMfantEngine(mfsa, backend="python").run(
            stream, collect_stats=False).matches

        lazy = IMfantEngine(mfsa, backend="lazy")
        assert lazy.run(stream, collect_stats=False).matches == oracle, (
            name, profile, "lazy")
        lazy_s = _best_wall_seconds(lazy, stream, repeats)

        dense = _promoted(mfsa, stream)
        assert dense.run(stream, collect_stats=False).matches == oracle, (
            name, profile, "dense")
        dense_s = _best_wall_seconds(dense, stream, repeats)

        entry = {
            "stream_bytes": len(stream),
            "matches": len(oracle),
            "dense_configs": dense.dense_tier.num_configs,
            "dense_table_bytes": dense.dense_tier.nbytes,
            "seconds": {"lazy": lazy_s, "dense": dense_s},
            "throughput_mb_s": {
                "lazy": len(stream) / lazy_s / 1e6,
                "dense": len(stream) / dense_s / 1e6,
            },
            "dense_speedup_vs_lazy": lazy_s / dense_s,
        }
        row["streams"][profile] = entry
    return row


def run_sweep(stream_size: int = STREAM_SIZE, repeats: int = REPEATS,
              rulesets: list[str] | None = None) -> dict:
    rows = [bench_ruleset(name, stream_size, repeats)
            for name in (rulesets or list_builtin())]
    sparse_speedups = {r["ruleset"]: r["streams"]["sparse"]["dense_speedup_vs_lazy"]
                       for r in rows}
    return {
        "benchmark": "bench_dense",
        "stream_bytes": stream_size,
        "repeats": repeats,
        "sparse_density": SPARSE_DENSITY,
        "note": "dense measured warm with the tier force-promoted; lazy "
                "measured warm (cache primed by the correctness pass); all "
                "match sets asserted byte-identical to the python oracle",
        "results": rows,
        "summary": {
            "sparse_dense_speedup_vs_lazy": sparse_speedups,
            "rulesets_at_10x_or_better": sorted(
                name for name, s in sparse_speedups.items() if s >= 10.0),
            "all_match_sets_identical": True,  # asserted per ruleset/stream
        },
    }


def main(argv: list[str] | None = None) -> int:
    argv = list(argv or [])
    if "--smoke" in argv:
        report = run_sweep(stream_size=1 << 15, repeats=2,
                           rulesets=["tokens_exact", "dotstar_rules"])
        best = max(r["streams"]["sparse"]["dense_speedup_vs_lazy"]
                   for r in report["results"])
        assert best >= 2.0, (
            f"dense-smoke: best sparse-stream dense speedup {best:.2f}x < 2x")
        print(f"dense-smoke: matches identical on all rulesets, "
              f"best sparse speedup {best:.1f}x over warm lazy")
        return 0

    out = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "BENCH_dense.json"
    report = run_sweep()
    out.write_text(json.dumps(report, indent=2) + "\n")
    header = (f"{'ruleset':18s} {'stream':>7s} {'lazy':>10s} {'dense':>10s} "
              f"{'speedup':>8s} {'configs':>8s}")
    print(header)
    for row in report["results"]:
        for profile, entry in row["streams"].items():
            mb = entry["throughput_mb_s"]
            print(f"{row['ruleset']:18s} {profile:>7s} {mb['lazy']:8.2f}MB "
                  f"{mb['dense']:8.2f}MB {entry['dense_speedup_vs_lazy']:7.2f}x "
                  f"{entry['dense_configs']:8d}")
    at_10x = report["summary"]["rulesets_at_10x_or_better"]
    print(f"\n>=10x over warm lazy (sparse stream): {', '.join(at_10x) or 'none'}")
    assert len(at_10x) >= 2, (
        f"acceptance: need >=10x on >=2 rulesets, got {at_10x}")
    print(f"wrote {out}")
    return 0


# -- pytest-benchmark spelling ----------------------------------------------


@pytest.mark.parametrize("backend", ["lazy", "dense"])
def test_dense_tier_throughput(benchmark, backend):
    patterns = list(load_builtin("tokens_exact").patterns)
    compiled = compile_ruleset(patterns,
                               CompileOptions(merging_factor=0, emit_anml=False))
    stream = _sparse_stream(patterns, STREAM_SIZE)
    if backend == "dense":
        engine = _promoted(compiled.mfsas[0], stream)
    else:
        engine = IMfantEngine(compiled.mfsas[0], backend=backend)
        engine.run(stream, collect_stats=False)  # warm
    result = benchmark(lambda: engine.run(stream, collect_stats=False))
    reference = IMfantEngine(compiled.mfsas[0], backend="python").run(stream).matches
    assert result.matches == reference


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
