"""Counting backend vs the loop-expansion pipeline across bound sizes.

The counting backend's claim is that a bounded repeat ``{m,n}`` costs a
counter register (fields of the packed register word,
:data:`COUNTING_REGISTER_BYTES` modelled bytes) instead of ``n``
expanded state copies — so compile
time, automaton memory and the interpretive frontier stay flat as the
bound grows, where the expansion pipeline scales linearly.  This sweep
pins that down: for bounds 8 → 4096 it compiles
``begin[^\\n]{N}end`` (plus a small decoy rule) through both pipelines
and records

* compile wall time (min of N repeats) for each pipeline;
* peak modelled memory, using the guard layer's accounting model
  (``states*STATE_BYTES + transitions*TRANSITION_BYTES`` plus
  ``registers*COUNTING_REGISTER_BYTES`` for the counting compile);
* warm scan throughput of ``backend="counting"`` on the counting
  compile vs ``backend="lazy"`` on the expanded compile, over a stream
  with planted matches;
* the oracle assertion: both pipelines report byte-identical
  ``(rule, end)`` sets at every bound.

Entry points
============

``python benchmarks/bench_counting_backend.py``
    Full sweep; writes ``BENCH_counting.json`` at the repo root and
    asserts the acceptance criteria (counting compiles faster and
    smaller than expansion at the largest bound).

``python benchmarks/bench_counting_backend.py --smoke``
    Two small bounds, min of 3 — the CI wiring (``make
    counting-smoke``) runs this to keep the sweep honest without the
    full cost, and asserts the :data:`SMOKE_SCAN_FLOOR` on the register
    step at bound 8.  It also compiles :data:`MERGE_GATE_RULES` both
    ways and asserts the :data:`SMOKE_MERGE_CEILING` on the counting
    compile's merging stage.

``pytest benchmarks/bench_counting_backend.py --benchmark-only``
    pytest-benchmark timings for the scan loop at a single bound.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.engine.imfant import IMfantEngine
from repro.guard.budget import (
    COUNTING_REGISTER_BYTES,
    STATE_BYTES,
    TRANSITION_BYTES,
)
from repro.pipeline.compiler import CompileOptions, compile_ruleset

BOUNDS = (8, 32, 128, 512, 1024, 4096)
SMOKE_BOUNDS = (8, 64)
#: ``--smoke`` floor on the register step: counting must scan at least
#: this share of warm lazy-on-expanded throughput at bound 8 (min of 3
#: scans), so a per-register interpretive step cannot slip back unseen
SMOKE_SCAN_FLOOR = 0.35
DECOY_RULE = "abc[0-9]{2,6}z"
COUNT_THRESHOLD = 8
#: Wide repeats of multi-symbol bodies beside counted ones: the counting
#: compile must expand the former exactly as the plain pipeline does
MERGE_GATE_RULES = ["x[ab]{63,}[01]", "x(xy){70,}[01]", "(xy){0,70}", "ab[^x]{0,12}ba"]
MERGE_GATE_THRESHOLD = 2
#: ``--smoke`` ceiling on the counting compile's ``ME-merging`` stage
#: over :data:`MERGE_GATE_RULES`, as a multiple of the expanded
#: compile's (min of 3 each, so host speed cancels)
SMOKE_MERGE_CEILING = 3.0


def _patterns(bound: int) -> list:
    return [f"begin[^\n]{{{bound}}}end", DECOY_RULE]


def _payload(bound: int, copies: int = 8) -> bytes:
    """A stream planting ``copies`` matches of each rule."""
    body = bytes(33 + i % 90 for i in range(bound))  # printable, no \n
    return (b"  abc123z " + b"begin" + body + b"end ") * copies


def _modelled_bytes(mfsas) -> int:
    """Peak modelled memory under the guard layer's accounting model."""
    total = 0
    for mfsa in mfsas:
        counting = getattr(mfsa, "counting", ())
        plain = mfsa.plain if counting else mfsa.transitions
        total += mfsa.num_states * STATE_BYTES
        total += (len(plain) + len(counting)) * TRANSITION_BYTES
        total += len(counting) * COUNTING_REGISTER_BYTES
    return total


def _best_compile_seconds(patterns, options, repeats: int) -> tuple:
    """(min wall seconds, last result) over ``repeats`` cold compiles."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = compile_ruleset(patterns, options)
        best = min(best, time.perf_counter() - start)
    return best, result


def _best_scan_seconds(mfsas, backend, payload, repeats: int) -> tuple:
    """(min wall seconds, match set) over ``repeats`` warm scans."""
    engines = [IMfantEngine(m, backend=backend) for m in mfsas]
    for engine in engines:  # warm lazy/dense caches out of the timing
        engine.run(payload[:64], collect_stats=False)
    best = float("inf")
    matches: set = set()
    for _ in range(repeats):
        start = time.perf_counter()
        matches = set()
        for engine in engines:
            matches |= engine.run(payload, collect_stats=False).matches
        best = min(best, time.perf_counter() - start)
    return best, matches


def merge_ratio(repeats: int = 3) -> float:
    """Counting over expanded ``ME-merging`` seconds on
    :data:`MERGE_GATE_RULES`, min of ``repeats`` compiles each."""
    def best(options) -> float:
        return min(
            compile_ruleset(MERGE_GATE_RULES, options).stage_times.merging
            for _ in range(repeats)
        )

    counting = best(CompileOptions(
        emit_anml=False, counting=True, count_threshold=MERGE_GATE_THRESHOLD
    ))
    return counting / best(CompileOptions(emit_anml=False))


def run_sweep(bounds=BOUNDS, repeats: int = 3) -> dict:
    rows = []
    for bound in bounds:
        patterns = _patterns(bound)
        payload = _payload(bound)
        expanded_opts = CompileOptions(emit_anml=False)
        counting_opts = CompileOptions(
            emit_anml=False, counting=True, count_threshold=COUNT_THRESHOLD
        )

        exp_compile_s, exp = _best_compile_seconds(patterns, expanded_opts, repeats)
        cnt_compile_s, cnt = _best_compile_seconds(patterns, counting_opts, repeats)

        exp_scan_s, exp_matches = _best_scan_seconds(
            exp.mfsas, "lazy", payload, repeats
        )
        cnt_scan_s, cnt_matches = _best_scan_seconds(
            cnt.mfsas, "counting", payload, repeats
        )
        # the oracle: both pipelines, byte-identical matches
        assert cnt_matches == exp_matches, (
            f"bound {bound}: counting != expanded oracle "
            f"(diff {cnt_matches ^ exp_matches})"
        )
        assert any(rule == 0 for rule, _ in exp_matches), (
            f"bound {bound}: the counted rule never fired"
        )

        rows.append(
            {
                "bound": bound,
                "payload_bytes": len(payload),
                "matches": len(exp_matches),
                "expanded": {
                    "compile_s": round(exp_compile_s, 6),
                    "states": sum(m.num_states for m in exp.mfsas),
                    "modelled_bytes": _modelled_bytes(exp.mfsas),
                    "scan_s": round(exp_scan_s, 6),
                    "scan_mb_per_s": round(len(payload) / exp_scan_s / 1e6, 3),
                },
                "counting": {
                    "compile_s": round(cnt_compile_s, 6),
                    "states": sum(m.num_states for m in cnt.mfsas),
                    "registers": sum(
                        len(getattr(m, "counting", ())) for m in cnt.mfsas
                    ),
                    "modelled_bytes": _modelled_bytes(cnt.mfsas),
                    "scan_s": round(cnt_scan_s, 6),
                    "scan_mb_per_s": round(len(payload) / cnt_scan_s / 1e6, 3),
                },
            }
        )

    top = rows[-1]
    return {
        "benchmark": "counting backend vs loop expansion, bound sweep",
        "note": (
            "begin[^\\n]{N}end + decoy rule through both pipelines; "
            "min-of-%d timings; modelled memory = guard accounting model; "
            "match sets oracle-asserted at every bound" % repeats
        ),
        "results": rows,
        "summary": {
            "max_bound": top["bound"],
            "compile_speedup": round(
                top["expanded"]["compile_s"] / top["counting"]["compile_s"], 2
            ),
            "modelled_memory_ratio": round(
                top["expanded"]["modelled_bytes"] / top["counting"]["modelled_bytes"],
                2,
            ),
            "scan_speedup": round(
                top["counting"]["scan_mb_per_s"] / top["expanded"]["scan_mb_per_s"], 2
            ),
        },
    }


def main(argv) -> int:
    if "--smoke" in argv:
        report = run_sweep(bounds=SMOKE_BOUNDS, repeats=3)
        summary = report["summary"]
        assert summary["modelled_memory_ratio"] > 1.0, summary
        first = report["results"][0]
        scan_ratio = (
            first["counting"]["scan_mb_per_s"] / first["expanded"]["scan_mb_per_s"]
        )
        assert scan_ratio >= SMOKE_SCAN_FLOOR, (
            f"bound {first['bound']}: counting scans at {scan_ratio:.2f}x "
            f"lazy-on-expanded, below the {SMOKE_SCAN_FLOOR}x floor"
        )
        merging = merge_ratio()
        assert merging <= SMOKE_MERGE_CEILING, (
            f"counting ME-merging takes {merging:.1f}x the expanded "
            f"compile's on {MERGE_GATE_RULES}, above the "
            f"{SMOKE_MERGE_CEILING}x ceiling"
        )
        print(
            "counting bench smoke ok: memory ratio %.2fx, compile speedup %.2fx "
            "at bound %d; scan %.2fx lazy-on-expanded at bound %d; "
            "ME-merging %.2fx expanded" % (
                summary["modelled_memory_ratio"],
                summary["compile_speedup"],
                summary["max_bound"],
                scan_ratio,
                first["bound"],
                merging,
            )
        )
        return 0

    report = run_sweep()
    out = Path(__file__).resolve().parent.parent / "BENCH_counting.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"{'bound':>6} {'exp compile':>12} {'cnt compile':>12} "
          f"{'exp bytes':>10} {'cnt bytes':>10} {'exp MB/s':>9} {'cnt MB/s':>9}")
    for row in report["results"]:
        print(
            f"{row['bound']:>6} "
            f"{row['expanded']['compile_s']:>11.4f}s "
            f"{row['counting']['compile_s']:>11.4f}s "
            f"{row['expanded']['modelled_bytes']:>10} "
            f"{row['counting']['modelled_bytes']:>10} "
            f"{row['expanded']['scan_mb_per_s']:>9.2f} "
            f"{row['counting']['scan_mb_per_s']:>9.2f}"
        )
    summary = report["summary"]
    print(
        "at bound %d: compile %sx faster, %sx less modelled memory, "
        "scan throughput ratio %sx (counting/expanded-lazy, warm)" % (
            summary["max_bound"],
            summary["compile_speedup"],
            summary["modelled_memory_ratio"],
            summary["scan_speedup"],
        )
    )
    # acceptance: the counting compile must beat expansion on compile
    # time AND modelled memory at the largest bound
    assert summary["compile_speedup"] > 1.0, summary
    assert summary["modelled_memory_ratio"] > 1.0, summary
    print(f"wrote {out}")
    return 0


# -- pytest-benchmark entry points ------------------------------------------


def test_counting_scan_benchmark(benchmark):
    bound = 1024
    payload = _payload(bound)
    mfsas = compile_ruleset(
        _patterns(bound),
        CompileOptions(emit_anml=False, counting=True, count_threshold=COUNT_THRESHOLD),
    ).mfsas
    engines = [IMfantEngine(m, backend="counting") for m in mfsas]

    def scan():
        out = set()
        for engine in engines:
            out |= engine.run(payload, collect_stats=False).matches
        return out

    matches = benchmark(scan)
    oracle = compile_ruleset(_patterns(bound), CompileOptions(emit_anml=False)).mfsas
    expected = set()
    for mfsa in oracle:
        expected |= IMfantEngine(mfsa).run(payload, collect_stats=False).matches
    assert matches == expected


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
