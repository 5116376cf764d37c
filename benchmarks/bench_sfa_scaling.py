"""SFA mapping-scan scaling: mapping vs overlap vs sequential.

The question this bench answers: at how many threads does zero-overlap
mapping-parallel scanning (:mod:`repro.engine.sfa`) beat (a) the one
sequential pass and (b) overlap chunking, per builtin ruleset and chunk
size?  The headline case is an *unbounded* ruleset (``dotstar_rules``):
the overlap planner has no finite match width to extend chunks by, so
before the mapping path ``chunk_scan`` fell back to one sequential scan
— mapping scans are the first data-parallel execution those rulesets
get at all.

Methodology (same substitution as the Fig. 10 scaling bench, DESIGN.md
§3): CPython threads cannot exhibit hardware parallelism, so per-chunk
*work* is measured from the engines' real execution counters (the
mapping side's ``linear_ops`` counter prices its simultaneous-run
columns via :meth:`~repro.engine.cost.CostModel.mapping_run_cost`) and
latency is the deterministic machine-model makespan
(:func:`~repro.engine.multithread.simulate_parallel_latency`, default
4C/8T).  Correctness is asserted inline on every cell: the folded
mapping matches must equal the single-shot oracle.

Entry points:

* ``PYTHONPATH=src python benchmarks/bench_sfa_scaling.py`` — full
  sweep, writes ``BENCH_sfa.json`` and prints a table;
* ``... bench_sfa_scaling.py --smoke`` — reduced sweep for CI; still
  writes the JSON and **fails** unless mapping-parallel beats the
  sequential fallback by >1.5x at 4 threads on an unbounded ruleset.

Environment: ``REPRO_BENCH_SFA_STREAM`` overrides the stream size.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from repro.cli import _demo_stream
from repro.datasets import load_builtin
from repro.engine.chunkscan import mfsa_max_width
from repro.engine.cost import CostModel
from repro.engine.imfant import IMfantEngine
from repro.engine.multithread import MachineModel, simulate_parallel_latency
from repro.engine.sfa import SfaScanner, fold_mappings
from repro.engine.tables import MfsaTables
from repro.pipeline.compiler import CompileOptions, compile_ruleset

STREAM_SIZE = int(os.environ.get("REPRO_BENCH_SFA_STREAM", str(1 << 15)))
RULESETS = ("dotstar_rules", "log_patterns", "tokens_exact")
THREADS = (1, 2, 4, 8)
CHUNK_SIZES = (2048, 8192)
SPEEDUP_FLOOR = 1.5  # acceptance: mapping vs sequential at 4 threads, unbounded


def bench_cell(name: str, chunk_size: int, stream_size: int,
               cost: CostModel, machine: MachineModel) -> dict:
    """One (ruleset, chunk_size) cell: measured works, simulated latencies,
    inline oracle check."""
    patterns = list(load_builtin(name).patterns)
    compiled = compile_ruleset(patterns, CompileOptions(merging_factor=0, emit_anml=False))
    assert len(compiled.mfsas) == 1  # M = all
    mfsa = compiled.mfsas[0]
    stream = _demo_stream(patterns, stream_size)
    width = mfsa_max_width(mfsa)

    # Sequential baseline: one plain pass, real counters.
    oracle_run = IMfantEngine(mfsa).run(stream)
    sequential_work = cost.run_cost(oracle_run.stats)
    eps = set(MfsaTables.build(mfsa).empty_matching_rules)
    oracle = {(r, e) for r, e in oracle_run.matches if r not in eps}

    # Mapping side: scan each chunk independently, price the extra
    # simultaneous-run columns, then check the fold is byte-identical.
    scanner = SfaScanner(mfsa)
    bounds = list(range(0, len(stream), chunk_size))
    pieces = [stream[b : b + chunk_size] for b in bounds]
    scans = [scanner.scan_chunk(p) for p in pieces]
    mapping_works = [cost.mapping_run_cost(s.stats, s.linear_ops) for s in scans]
    folded, _ = fold_mappings([s.mapping for s in scans],
                              [len(p) for p in pieces], scanner)
    assert folded == oracle, f"{name}/{chunk_size}: mapping fold != oracle"
    mapping_work = sum(mapping_works)

    # Overlap side (bounded rulesets only): each chunk after the first
    # rescans `width` lead bytes; work measured the same way.
    overlap_works = None
    if width is not None:
        overlap_works = []
        for start in bounds:
            lead = min(width, start)
            piece = stream[start - lead : start + chunk_size]
            stats = IMfantEngine(mfsa).run(piece).stats
            overlap_works.append(cost.run_cost(stats))

    row = {
        "ruleset": name,
        "rules": len(patterns),
        "mfsa_states": mfsa.num_states,
        "stream_bytes": len(stream),
        "chunk_size": chunk_size,
        "chunks": len(pieces),
        "match_width": width,  # null = unbounded (no overlap plan exists)
        "matches": len(oracle),
        "sequential_work": sequential_work,
        "mapping_work": mapping_work,
        "mapping_overhead_kappa": mapping_work / sequential_work,
        "overlap_work": sum(overlap_works) if overlap_works else None,
        "latency": {},
        "speedup_vs_sequential": {},
    }
    for threads in THREADS:
        mapping_latency = simulate_parallel_latency(mapping_works, threads, machine)
        cell = {"mapping": mapping_latency}
        speedup = {"mapping": sequential_work / mapping_latency}
        if overlap_works is not None:
            overlap_latency = simulate_parallel_latency(overlap_works, threads, machine)
            cell["overlap"] = overlap_latency
            speedup["overlap"] = sequential_work / overlap_latency
        row["latency"][str(threads)] = cell
        row["speedup_vs_sequential"][str(threads)] = speedup
    return row


def run_sweep(stream_size: int = STREAM_SIZE,
              rulesets=RULESETS, chunk_sizes=CHUNK_SIZES) -> dict:
    cost = CostModel()
    machine = MachineModel()
    rows = [bench_cell(name, size, stream_size, cost, machine)
            for name in rulesets for size in chunk_sizes]
    unbounded = [r for r in rows if r["match_width"] is None]
    best_unbounded_at4 = max(
        r["speedup_vs_sequential"]["4"]["mapping"] for r in unbounded
    ) if unbounded else None
    return {
        "benchmark": "bench_sfa_scaling",
        "stream_bytes": stream_size,
        "machine_model": {
            "physical_cores": machine.physical_cores,
            "hardware_threads": machine.hardware_threads,
            "smt_efficiency": machine.smt_efficiency,
        },
        "cost_model": {
            "c_char": cost.c_char, "c_trans": cost.c_trans,
            "c_active": cost.c_active, "c_linear": cost.c_linear,
        },
        "note": "works measured from real execution counters; latencies are "
                "the deterministic machine-model makespan (CPython threads "
                "cannot show hardware scaling — DESIGN.md §3, substitution 3). "
                "match_width null = unbounded ruleset: no overlap plan exists, "
                "chunk_scan previously fell back to one sequential pass there.",
        "results": rows,
        "summary": {
            "unbounded_rulesets": [r["ruleset"] for r in unbounded],
            "best_unbounded_mapping_speedup_at_4_threads": best_unbounded_at4,
            "acceptance_floor": SPEEDUP_FLOOR,
            "all_folds_equal_oracle": True,  # asserted per cell
        },
    }


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    smoke = "--smoke" in argv
    if smoke:
        argv.remove("--smoke")
    out = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "BENCH_sfa.json"

    if smoke:
        report = run_sweep(stream_size=min(STREAM_SIZE, 1 << 14),
                           rulesets=("dotstar_rules", "tokens_exact"),
                           chunk_sizes=(2048,))
    else:
        report = run_sweep()
    out.write_text(json.dumps(report, indent=2) + "\n")

    header = (f"{'ruleset':16s} {'chunk':>6s} {'width':>6s} {'kappa':>6s} "
              + " ".join(f"map@{t:<2d}" for t in THREADS))
    print(header)
    for row in report["results"]:
        speedups = " ".join(
            f"{row['speedup_vs_sequential'][str(t)]['mapping']:5.2f}x" for t in THREADS
        )
        width = "inf" if row["match_width"] is None else str(row["match_width"])
        print(f"{row['ruleset']:16s} {row['chunk_size']:6d} {width:>6s} "
              f"{row['mapping_overhead_kappa']:6.2f} {speedups}")
    print(f"\nwrote {out}")

    best = report["summary"]["best_unbounded_mapping_speedup_at_4_threads"]
    if best is None or best <= SPEEDUP_FLOOR:
        print(f"FAIL: unbounded mapping speedup at 4 threads is {best} "
              f"(need > {SPEEDUP_FLOOR}x)")
        return 1
    print(f"OK: unbounded mapping speedup at 4 threads = {best:.2f}x "
          f"(> {SPEEDUP_FLOOR}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
