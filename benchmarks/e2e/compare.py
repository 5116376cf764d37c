"""Compare two sets of benchmark runs, metric by metric, workload by workload.

::

    python3 benchmarks/e2e/compare.py parent/runs.jsonl change/runs.jsonl

Each file holds the run records ``run.py --out DIR`` appends to
``DIR/runs.jsonl`` (A is the parent or the first set, B the change or
the second set of the same code).  For every workload and metric it
prints both sets' median and quartiles, the spread of each set (the
distance between its quartiles as a share of its median), the change of
the median, and a verdict against the metric's bound in BENCHMARK.json:

``better``      B's median beats A's by more than A's own spread, and B
                wins at least 9 in 10 of the runs paired by seed
``same``        neither better nor worse beyond the bound
``worse``       B's median is worse than A's by more than the bound
``unresolved``  a set's spread exceeds the bound, so the sets cannot
                be told apart (unless every run of B beats every run of A)

Metrics without a bound (per-layer ones, workload extras) get ``-``.
The exit code is 1 when any metric is ``worse``, and 2 without a table
when the two sets were not run with the same settings (window, warmup,
start-ups per run).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> list[dict]:
    runs = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            runs.append(json.loads(line))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(a: dict[int, float], b: dict[int, float], lower_better: bool,
            bound: float | None) -> str:
    """Judge B against A; ``a``/``b`` map seed → value."""
    if bound is None:
        return "-"
    sign = 1.0 if lower_better else -1.0
    med_a = statistics.median(a.values())
    med_b = statistics.median(b.values())
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(sign * v for v in b.values()) < min(sign * v for v in a.values()):
        return "better"  # every run of B beats every run of A
    spread_a, spread_b = spread(list(a.values())), spread(list(b.values()))
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    paired = [seed for seed in a if seed in b]
    wins = sum(1 for seed in paired if sign * b[seed] < sign * a[seed])
    if -worse_by > spread_a and paired and wins >= 0.9 * len(paired):
        return "better"
    return "same"


def bounds(benchmark: Path) -> dict[str, tuple[bool, float]]:
    """metric name → (lower is better, bound) from BENCHMARK.json."""
    document = json.loads(benchmark.read_text())
    return {
        m["name"]: (m["better"] == "lower", m["bound"])
        for m in document.get("end_to_end", [])
    }


def _values(runs: list[dict], name: str) -> tuple[dict[int, float], str]:
    """seed → value of metric ``name`` over ``runs``, and its unit."""
    values, unit = {}, ""
    for record in runs:
        metric = record["metrics"].get(name) or record.get("extras", {}).get(name)
        if metric is not None:
            values[record["seed"]] = metric["value"]
            unit = metric["unit"]
    return values, unit


def mismatched_settings(runs_a: list[dict], runs_b: list[dict]) -> list[str]:
    """One line per workload (and trace mode) whose runs were not all
    made with the same settings; runs of different lengths cannot be
    compared."""
    problems = []
    runs = runs_a + runs_b
    for workload, trace in sorted({(r["workload"], r["trace"]) for r in runs}):
        seen = {tuple(sorted((k, float(v)) for k, v in (r.get("settings") or {}).items()))
                for r in runs if (r["workload"], r["trace"]) == (workload, trace)}
        if len(seen) > 1:
            problems.append(f"{workload} (trace {trace}): runs made with different "
                            f"settings {sorted(seen)}")
    return problems


def compare(runs_a: list[dict], runs_b: list[dict],
            known: dict[str, tuple[bool, float]]) -> list[dict]:
    rows = []
    keys = sorted({(r["workload"], r["trace"]) for r in runs_a}
                  & {(r["workload"], r["trace"]) for r in runs_b})
    for workload, trace in keys:
        set_a = [r for r in runs_a if (r["workload"], r["trace"]) == (workload, trace)]
        set_b = [r for r in runs_b if (r["workload"], r["trace"]) == (workload, trace)]
        names = []
        for record in set_a:
            for section in ("metrics", "extras"):
                for name in record.get(section, {}):
                    if name not in names:
                        names.append(name)
        for name in names:
            a, unit = _values(set_a, name)
            b, _ = _values(set_b, name)
            if not a or not b:
                continue
            lower_better, bound = known.get(name, (True, None))
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "a": qa, "b": qb, "runs": (len(a), len(b)),
                "spread_a": spread(list(a.values())), "spread_b": spread(list(b.values())),
                "change": (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0,
                "bound": bound,
                "verdict": verdict(a, b, lower_better, bound),
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="runs.jsonl of the parent / first set")
    parser.add_argument("b", type=Path, help="runs.jsonl of the change / second set")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json",
                        help="where the bounds come from (default: BENCHMARK.json)")
    args = parser.parse_args(argv)
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    problems = mismatched_settings(runs_a, runs_b)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    rows = compare(runs_a, runs_b, bounds(args.benchmark))
    print(f"{'workload':<16} {'metric':<28} {'unit':<6} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'change':>7} {'spreadA':>7} {'spreadB':>7} "
          f"{'bound':>5}  verdict")
    for row in rows:
        a, b = row["a"], row["b"]
        bound = f"{row['bound']:.2f}" if row["bound"] is not None else "-"
        cell_a = f"{a[1]:.5g} [{a[0]:.5g}, {a[2]:.5g}]"
        cell_b = f"{b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}]"
        print(f"{row['workload']:<16} {row['metric']:<28} {row['unit']:<6} {cell_a:<34} "
              f"{cell_b:<34} {row['change']:>+7.1%} {row['spread_a']:>7.1%} "
              f"{row['spread_b']:>7.1%} {bound:>5}  {row['verdict']} "
              f"(n={row['runs'][0]}/{row['runs'][1]})")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
