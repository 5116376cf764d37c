"""Load-generation + analysis harness for the serve stack.

Sweeps ``clients x shards x payload sizes`` against a freshly started
:class:`~repro.serve.server.ServerThread`, with warmup, and records
*per-request* latency — the measurement foundation ROADMAP item 1 needs
before any transport work can be judged:

* **closed-loop** arrival (default): each client issues its next request
  the moment the previous one completes — measures capacity;
* **open-loop** arrival (``--arrival open --rate R``): each client fires
  on a fixed schedule of R req/s and latency is measured from the
  *scheduled* send time, so server queueing delay is charged honestly
  (the coordinated-omission-free form);
* per-configuration p50/p90/p95/p99 latency, throughput, and the
  server's own phase decomposition (queue-wait/scan percentiles pulled
  over the ``stats`` op);
* CSV + ASCII saturation plots (requests/s and p95 vs client count, one
  series per shard count — matplotlib is deliberately not a dependency),
  and a regenerated ``BENCH_serve.json`` carrying ``latency_ms``
  percentiles per configuration next to the historical throughput
  fields.

Examples::

    PYTHONPATH=src python benchmarks/loadgen.py                  # full sweep
    PYTHONPATH=src python benchmarks/loadgen.py --smoke          # CI smoke
    PYTHONPATH=src python benchmarks/loadgen.py --arrival open --rate 50

The smoke form runs a seconds-long sweep into a temp directory and
asserts the percentile fields exist — wired into CI as
``make loadgen-smoke``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.cli import _demo_stream
from repro.datasets import load_builtin
from repro.engine.imfant import IMfantEngine
from repro.pipeline.compiler import CompileOptions
from repro.reporting.plots import line_chart
from repro.serve import ArtifactStore, MatchClient, ServeConfig, ServerThread

DEFAULT_RULESET = "tokens_exact"  # bounded match width -> the pool really shards

QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99))

CSV_COLUMNS = [
    "arrival", "payload_bytes", "shards", "clients", "requests",
    "seconds", "requests_per_second", "payload_mb_per_second",
    "p50_ms", "p90_ms", "p95_ms", "p99_ms", "max_ms",
    "server_queue_wait_p95_ms", "server_scan_p95_ms",
]


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    index = min(int(q * len(ordered)), len(ordered) - 1)
    return ordered[index]


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"need comma-separated ints: {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"values must be >= 1: {text!r}")
    return values


def _materials(tmp_dir: str, ruleset: str, payload_sizes: list[int]):
    patterns = list(load_builtin(ruleset).patterns)
    artifact = ArtifactStore(tmp_dir).get_or_compile(
        patterns, CompileOptions(emit_anml=False)
    )
    payloads = {size: _demo_stream(patterns, size) for size in payload_sizes}
    oracles = {}
    for size, payload in payloads.items():
        oracle = set()
        for mfsa in artifact.mfsas:
            oracle |= IMfantEngine(mfsa).run(payload.decode("latin-1")).matches
        oracles[size] = oracle
    return artifact, payloads, oracles


def _client_worker(
    address, payload, requests: int, warmup: int, arrival: str, rate: float, oracle
) -> list[float]:
    """One client connection's request stream; returns its latencies.

    Correctness is asserted once per connection (the oracle comparison on
    the first measured response) — per-request assertions would bias the
    latency of exactly the runs this harness exists to measure.
    """
    latencies: list[float] = []
    with MatchClient.connect(address) as client:
        for _ in range(warmup):
            client.match(payload)
        loop_started = time.perf_counter()
        for index in range(requests):
            if arrival == "open":
                scheduled = loop_started + index / rate
                now = time.perf_counter()
                if scheduled > now:
                    time.sleep(scheduled - now)
            else:
                scheduled = time.perf_counter()
            result = client.match(payload)
            latencies.append(time.perf_counter() - scheduled)
            if not (result.ok or result.partial):
                raise AssertionError(f"request failed: {result.error}")
            if index == 0 and oracle is not None and result.matches != oracle:
                raise AssertionError("served matches diverge from the oracle")
    return latencies


def run_configuration(
    artifact, payload: bytes, oracle, *, shards: int, clients: int,
    requests: int, warmup: int, arrival: str, rate: float,
) -> dict:
    """One (shards, clients, payload) point: start a server, drive it."""
    per_client = max(1, requests // clients)
    config = ServeConfig(
        shards=shards,
        batch_max=8,
        queue_depth=max(64, per_client * clients),
        metrics=True,
    )
    with ServerThread(artifact, config) as address:
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as executor:
            per_worker = list(
                executor.map(
                    lambda _: _client_worker(
                        address, payload, per_client, warmup, arrival, rate, oracle
                    ),
                    range(clients),
                )
            )
        elapsed = time.perf_counter() - started
        with MatchClient.connect(address) as client:
            server_latency = client.stats_full().get("latency_ms") or {}
    latencies = sorted(sec for worker in per_worker for sec in worker)
    completed = len(latencies)
    row = {
        "arrival": arrival,
        "payload_bytes": len(payload),
        "shards": shards,
        "clients": clients,
        "requests": completed,
        "seconds": elapsed,
        "requests_per_second": completed / elapsed,
        "payload_mb_per_second": completed * len(payload) / elapsed / 1e6,
        "latency_ms": {
            label: _percentile(latencies, q) * 1e3 for label, q in QUANTILES
        },
        "max_ms": latencies[-1] * 1e3,
        "server_latency_ms": server_latency,
    }
    return row


def _single_process_baseline(artifact, payload: bytes, repeats: int = 3) -> float:
    engines = [IMfantEngine(mfsa) for mfsa in artifact.mfsas]
    text = payload.decode("latin-1")
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for engine in engines:
            engine.run(text, collect_stats=False)
        best = min(best, time.perf_counter() - started)
    return best


# -- reporting ---------------------------------------------------------------


def write_csv(rows: list[dict], path: Path) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            server = row.get("server_latency_ms") or {}
            writer.writerow([
                row["arrival"], row["payload_bytes"],
                row["shards"], row["clients"], row["requests"],
                f"{row['seconds']:.6f}",
                f"{row['requests_per_second']:.3f}",
                f"{row['payload_mb_per_second']:.4f}",
                *(f"{row['latency_ms'][label]:.3f}" for label, _ in QUANTILES),
                f"{row['max_ms']:.3f}",
                (server.get("serve_queue_wait_seconds") or {}).get("p95", ""),
                (server.get("serve_scan_seconds") or {}).get("p95", ""),
            ])


def saturation_plots(rows: list[dict]) -> str:
    """ASCII saturation curves: req/s and p95 latency vs client count,
    one series per shard count, one chart pair per payload size."""
    charts: list[str] = []
    payload_sizes = sorted({row["payload_bytes"] for row in rows})
    for size in payload_sizes:
        sized = [r for r in rows if r["payload_bytes"] == size]
        throughput: dict[str, list[tuple[float, float]]] = {}
        tail: dict[str, list[tuple[float, float]]] = {}
        for row in sorted(sized, key=lambda r: (r["shards"], r["clients"])):
            key = f"{row['shards']} shard(s)"
            throughput.setdefault(key, []).append(
                (row["clients"], row["requests_per_second"])
            )
            tail.setdefault(key, []).append((row["clients"], row["latency_ms"]["p95"]))
        charts.append(line_chart(
            throughput,
            title=f"saturation: requests/s vs clients ({size} B payloads)",
        ))
        charts.append(line_chart(
            tail,
            title=f"tail latency: p95 ms vs clients ({size} B payloads)",
            log_y=True,
        ))
    return "\n\n".join(charts)


def bench_report(rows: list[dict], ruleset: str, baseline_seconds: float,
                 payload_bytes: int, requests: int) -> dict:
    """The BENCH_serve.json document: historical mean-throughput fields
    preserved, ``latency_ms`` percentiles added per configuration."""
    kept = [r for r in rows if r["payload_bytes"] == payload_bytes]
    return {
        "benchmark": "bench_serve",
        "generator": "benchmarks/loadgen.py",
        "ruleset": ruleset,
        "payload_bytes": payload_bytes,
        "requests_per_configuration": requests,
        "single_process_scan_seconds": baseline_seconds,
        "single_process_mb_per_second": payload_bytes / baseline_seconds / 1e6,
        "note": "served throughput includes sockets, framing, queueing and "
                "batch coalescing; latency_ms percentiles are per-request "
                "client-observed round trips; correctness asserted per "
                "connection against the single-process oracle; shards 1 "
                "scans each payload in process, shards N > 1 splits it into "
                "N jobs over min(N, usable_cpus) worker processes",
        "usable_cpus": len(os.sched_getaffinity(0)),
        "results": [
            {
                "shards": r["shards"],
                "clients": r["clients"],
                "requests": r["requests"],
                "seconds": r["seconds"],
                "requests_per_second": r["requests_per_second"],
                "payload_mb_per_second": r["payload_mb_per_second"],
                "latency_ms": {
                    "p50": r["latency_ms"]["p50"],
                    "p95": r["latency_ms"]["p95"],
                    "p99": r["latency_ms"]["p99"],
                },
            }
            for r in kept
        ],
    }


# -- driver ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Sweep clients x shards x payload sizes against the "
                    "serve stack; emit CSV, ASCII saturation plots and a "
                    "regenerated BENCH_serve.json with latency percentiles.",
    )
    parser.add_argument("--ruleset", default=DEFAULT_RULESET,
                        help="builtin ruleset name (default %(default)s)")
    parser.add_argument("--shards", type=_int_list, default=[1, 2, 4],
                        metavar="N,N,…",
                        help="shard counts: 1 scans in process, N > 1 over "
                             "N jobs on worker processes (default 1,2,4)")
    parser.add_argument("--clients", type=_int_list, default=[1, 4, 8],
                        metavar="N,N,…", help="client counts (default 1,4,8)")
    parser.add_argument("--payload-bytes", type=_int_list, default=[16384],
                        metavar="N,N,…", help="payload sizes (default 16384)")
    parser.add_argument("--requests", type=int, default=64, metavar="N",
                        help="measured requests per configuration (default 64)")
    parser.add_argument("--warmup", type=int, default=8, metavar="N",
                        help="unmeasured warmup requests per client (default 8)")
    parser.add_argument("--arrival", choices=("closed", "open"), default="closed",
                        help="closed: next request when the last completes; "
                             "open: fixed schedule, latency from scheduled send")
    parser.add_argument("--rate", type=float, default=50.0, metavar="R",
                        help="open-loop per-client request rate in req/s "
                             "(default 50)")
    parser.add_argument("--out-dir", type=Path, default=Path("loadgen_out"),
                        metavar="DIR", help="CSV/plot output directory")
    parser.add_argument("--bench-json", type=Path, default=None, metavar="FILE",
                        help="where to write the BENCH_serve.json document "
                             "(default <repo>/BENCH_serve.json; '-' to skip)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep into a temp dir; asserts percentile "
                             "fields and exits (the CI form)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.shards, args.clients = [1], [1, 2]
        args.payload_bytes = [2048]
        args.requests, args.warmup = 8, 2

    repo_root = Path(__file__).resolve().parent.parent
    with TemporaryDirectory() as tmp_dir:
        artifact, payloads, oracles = _materials(
            tmp_dir, args.ruleset, args.payload_bytes
        )
        baseline_payload = args.payload_bytes[0]
        baseline_seconds = _single_process_baseline(
            artifact, payloads[baseline_payload]
        )
        rows: list[dict] = []
        total = len(args.payload_bytes) * len(args.shards) * len(args.clients)
        for size in args.payload_bytes:
            for shards in args.shards:
                for clients in args.clients:
                    row = run_configuration(
                        artifact, payloads[size], oracles[size],
                        shards=shards, clients=clients,
                        requests=args.requests, warmup=args.warmup,
                        arrival=args.arrival, rate=args.rate,
                    )
                    rows.append(row)
                    lat = row["latency_ms"]
                    print(f"[{len(rows)}/{total}] payload={size}B shards={shards} "
                          f"clients={clients}: {row['requests_per_second']:.1f} req/s  "
                          f"p50={lat['p50']:.2f}ms p95={lat['p95']:.2f}ms "
                          f"p99={lat['p99']:.2f}ms", flush=True)

    if args.smoke:
        with TemporaryDirectory() as smoke_dir:
            out_dir = Path(smoke_dir)
            write_csv(rows, out_dir / "loadgen.csv")
            plots = saturation_plots(rows)
            report = bench_report(rows, args.ruleset, baseline_seconds,
                                  baseline_payload, args.requests)
        for row in report["results"]:
            for key in ("p50", "p95", "p99"):
                value = row["latency_ms"][key]
                assert isinstance(value, float) and value > 0.0, (key, row)
        assert plots.strip(), "saturation plots came out empty"
        print("loadgen smoke OK: "
              f"{len(rows)} configuration(s), percentile fields present")
        return 0

    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "loadgen.csv"
    write_csv(rows, csv_path)
    plots = saturation_plots(rows)
    plots_path = out_dir / "loadgen_plots.txt"
    plots_path.write_text(plots + "\n")
    print()
    print(plots)
    print(f"\nwrote {csv_path} and {plots_path}")

    if args.bench_json is None or str(args.bench_json) != "-":
        bench_path = args.bench_json or (repo_root / "BENCH_serve.json")
        report = bench_report(rows, args.ruleset, baseline_seconds,
                              baseline_payload, args.requests)
        bench_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {bench_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
