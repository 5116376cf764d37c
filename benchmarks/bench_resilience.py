"""Chaos-soak harness for the self-healing serve stack.

Drives loadgen-style traffic (retrying clients, closed loop) against a
live :class:`~repro.serve.server.ServerThread` while injecting the serve
fault drills one window at a time:

* ``steady``          — no faults; the baseline window;
* ``conn_drop``       — ``serve.conn.drop``: replies dropped before the
  write; clients must reconnect and be answered from the dedup window;
* ``frame_truncate``  — ``serve.frame.truncate``: torn reply frames;
* ``worker_kill``     — shard worker processes SIGKILLed mid-soak
  (the external OOM-killer form of ``serve.worker.kill``); the
  supervisor restarts them, a storm opens the breaker, scans continue
  inline;
* ``reload``          — two hot ruleset swaps under traffic;
* ``recovery``        — faults off; the pool must return to steady
  state (ready, full shard count, breaker closed) and serve cleanly.

A separate ``worker_hang`` drill exercises the scan watchdog against a
dedicated process pool (``serve.worker.hang`` must be armed before the
workers fork, so it cannot be toggled mid-soak).

Hard assertions, not vibes: **zero** incorrect match sets against the
single-process oracle (during the reload window a response may match
either ruleset's oracle — never a mixture), availability >= 99% over
the whole soak, and the final window back at 100% with the server
ready.  Emits ``BENCH_resilience.json``.

Examples::

    PYTHONPATH=src python benchmarks/bench_resilience.py           # full soak
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke   # CI form
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.cli import _demo_stream
from repro.datasets import load_builtin
from repro.engine.imfant import IMfantEngine
from repro.guard import faultinject
from repro.pipeline.compiler import CompileOptions
from repro.serve import (
    ArtifactStore,
    MatchClient,
    RetryPolicy,
    ServeConfig,
    ServerThread,
    ShardPool,
)

DEFAULT_RULESET = "tokens_exact"  # bounded match width -> the pool really shards

AVAILABILITY_FLOOR = 0.99

#: (name, armed fault point or None, probability)
DRILLS = [
    ("steady", None, None),
    ("conn_drop", "serve.conn.drop", 0.2),
    ("frame_truncate", "serve.frame.truncate", 0.2),
    ("worker_kill", None, None),   # SIGKILL from the harness, see _killer
    ("reload", None, None),
    ("recovery", None, None),
]


def _oracle(artifact, payload: bytes) -> frozenset:
    matches: set = set()
    text = payload.decode("latin-1")
    for mfsa in artifact.mfsas:
        matches |= IMfantEngine(mfsa).run(text).matches
    return frozenset(matches)


class _Window:
    """One drill window's request ledger (thread-safe by list-append)."""

    def __init__(self, name: str, oracles: set[frozenset]) -> None:
        self.name = name
        self.oracles = oracles
        self.outcomes: list[tuple[str, bool]] = []  # (status, correct)
        self.failures: list[str] = []
        self.errors: list[str] = []  # server-reported error texts

    def record(self, status: str, matches: frozenset,
               error: str | None = None) -> None:
        self.outcomes.append((status, matches in self.oracles))
        if error:
            self.errors.append(error)

    def fail(self, error: str) -> None:
        self.failures.append(error)

    def summary(self, seconds: float) -> dict:
        requests = len(self.outcomes) + len(self.failures)
        ok = sum(1 for status, _ in self.outcomes if status == "ok")
        incorrect = sum(
            1 for status, correct in self.outcomes
            if status == "ok" and not correct
        )
        statuses: dict[str, int] = {}
        for status, _ in self.outcomes:
            statuses[status] = statuses.get(status, 0) + 1
        for error in self.failures:
            statuses[error] = statuses.get(error, 0) + 1
        return {
            "drill": self.name,
            "seconds": round(seconds, 3),
            "requests": requests,
            "ok": ok,
            "failed": len(self.failures),
            "incorrect": incorrect,
            "availability": (ok / requests) if requests else 1.0,
            "statuses": statuses,
            "errors": dict(
                sorted(
                    (
                        (text, self.errors.count(text))
                        for text in set(self.errors)
                    ),
                    key=lambda item: -item[1],
                )[:3]
            ),
        }


def _traffic(address, payload: bytes, window: _Window, stop: threading.Event,
             retry: RetryPolicy) -> None:
    """One closed-loop client: hammer until the window closes, recording
    every outcome (an exhausted retry budget is an availability miss,
    not a harness crash)."""
    try:
        client = MatchClient.connect(address, retry=retry)
    except Exception as exc:  # noqa: BLE001 — ledger, then bail
        window.fail(f"connect: {exc}")
        return
    with client:
        while not stop.is_set():
            try:
                result = client.match(payload)
            except Exception as exc:  # noqa: BLE001 — counted, soak continues
                window.fail(type(exc).__name__)
                continue
            window.record(result.status, frozenset(result.matches),
                          error=result.error)


def _killer(server, stop: threading.Event, period: float) -> None:
    """SIGKILL every live shard worker process each ``period`` seconds —
    the external OOM-killer drill the supervisor must absorb."""
    while not stop.is_set():
        stop.wait(period)
        pool = server.service.pool
        executor = getattr(pool, "_executor", None)
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:  # noqa: BLE001 — racing a normal exit is fine
                pass


def _run_window(name, server, payload, oracles, *, seconds, clients, retry,
                fault=None, probability=None, kill_period=None,
                reloads=None) -> dict:
    window = _Window(name, oracles)
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=_traffic, args=(server.address, payload, window, stop, retry),
            daemon=True,
        )
        for _ in range(clients)
    ]
    if kill_period is not None:
        threads.append(
            threading.Thread(target=_killer, args=(server, stop, kill_period),
                             daemon=True)
        )
    started = time.perf_counter()
    if fault is not None:
        faultinject.arm(fault, probability)
    try:
        for thread in threads:
            thread.start()
        if reloads:
            # interleave the swaps inside the traffic window
            with MatchClient.connect(server.address) as admin:
                for patterns in reloads:
                    time.sleep(seconds / (len(reloads) + 1))
                    admin.reload(patterns)
            time.sleep(seconds / (len(reloads) + 1))
        else:
            time.sleep(seconds)
    finally:
        if fault is not None:
            faultinject.disarm(fault)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
    return window.summary(time.perf_counter() - started)


def _await_ready(address, timeout: float) -> tuple[bool, float]:
    """Poll the health op until the server reports ready; returns
    (became_ready, seconds_waited)."""
    started = time.perf_counter()
    with MatchClient.connect(address, retry=RetryPolicy(max_attempts=4)) as client:
        while time.perf_counter() - started < timeout:
            if client.health().get("ready"):
                return True, time.perf_counter() - started
            time.sleep(0.1)
    return False, time.perf_counter() - started


def _hang_drill(artifact, payload: bytes, oracle: frozenset,
                deadline: float = 0.3) -> dict:
    """The watchdog drill: a dedicated process pool whose workers hang
    far past the scan deadline; the watchdog must kill them within 2x
    the budget and rescue the chunks inline, exactly."""
    faultinject.arm("serve.worker.hang", 30.0)
    try:
        with ShardPool(artifact, num_shards=2) as pool:
            started = time.perf_counter()
            result = pool.scan(payload, deadline=deadline)
            elapsed = time.perf_counter() - started
            hangs = pool.supervisor.hangs_total
    finally:
        faultinject.disarm("serve.worker.hang")
    exact = frozenset(result.full_matches()) == oracle
    return {
        "drill": "worker_hang",
        "seconds": round(elapsed, 3),
        "deadline": deadline,
        "hangs_detected": hangs,
        "exact": exact,
        "partial": result.partial,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Chaos-soak the serve stack: loadgen traffic + fault "
                    "drills; assert exactness and availability; emit "
                    "BENCH_resilience.json.",
    )
    parser.add_argument("--ruleset", default=DEFAULT_RULESET,
                        help="builtin ruleset name (default %(default)s)")
    parser.add_argument("--payload-bytes", type=int, default=4096, metavar="N")
    parser.add_argument("--shards", type=int, default=2, metavar="N",
                        help="jobs per payload; the worker_kill drill needs "
                             "worker processes, so N >= 2 (default 2)")
    parser.add_argument("--clients", type=int, default=4, metavar="N")
    parser.add_argument("--window", type=float, default=4.0, metavar="SECONDS",
                        help="traffic seconds per drill (default 4)")
    parser.add_argument("--bench-json", type=Path, default=None, metavar="FILE",
                        help="where to write BENCH_resilience.json "
                             "(default <repo>/BENCH_resilience.json; '-' to skip)")
    parser.add_argument("--smoke", action="store_true",
                        help="short windows, fewer clients; asserts and exits "
                             "(the CI form)")
    args = parser.parse_args(argv)

    if args.shards < 2:
        parser.error("--shards must be >= 2: the soak drills worker processes")
    if args.smoke:
        args.window, args.clients = 1.0, 2

    retry = RetryPolicy(max_attempts=6, base_delay=0.02, max_delay=0.5)
    repo_root = Path(__file__).resolve().parent.parent
    drills: list[dict] = []

    with TemporaryDirectory() as tmp_dir:
        store = ArtifactStore(tmp_dir)
        patterns = list(load_builtin(args.ruleset).patterns)
        options = CompileOptions(emit_anml=False)
        artifact = store.get_or_compile(patterns, options)
        payload = _demo_stream(patterns, args.payload_bytes)
        oracle = _oracle(artifact, payload)
        # the reload drill swaps to a shrunk ruleset and back; precompute
        # both oracles so every mid-swap response can be judged exactly
        alt_patterns = patterns[: max(1, len(patterns) // 2)]
        alt_artifact = store.get_or_compile(alt_patterns, options)
        alt_oracle = _oracle(alt_artifact, payload)

        config = ServeConfig(
            shards=args.shards, batch_max=8, queue_depth=256,
            metrics=True, heartbeat_interval=0.25,
        )
        server = ServerThread(artifact, config, store=store).start()
        try:
            # one warm request forks the workers before the clock starts
            with MatchClient.connect(server.address, retry=retry) as warm:
                assert frozenset(warm.match(payload).matches) == oracle
            for name, fault, probability in DRILLS:
                oracles = {oracle, alt_oracle} if name == "reload" else {oracle}
                summary = _run_window(
                    name, server, payload, oracles,
                    seconds=args.window, clients=args.clients, retry=retry,
                    fault=fault, probability=probability,
                    kill_period=(max(0.4, args.window / 5)
                                 if name == "worker_kill" else None),
                    reloads=([alt_patterns, patterns]
                             if name == "reload" else None),
                )
                if name == "worker_kill":
                    # give the supervisor room to close the breaker before
                    # judging the recovery window
                    became_ready, waited = _await_ready(server.address, timeout=30.0)
                    summary["recovered_ready"] = became_ready
                    summary["ready_after_seconds"] = round(waited, 3)
                drills.append(summary)
                print(f"[{summary['drill']}] requests={summary['requests']} "
                      f"ok={summary['ok']} failed={summary['failed']} "
                      f"incorrect={summary['incorrect']} "
                      f"availability={summary['availability']:.4f}", flush=True)
            with MatchClient.connect(server.address, retry=retry) as client:
                final_health = client.health()
                stats = client.server_stats()
        finally:
            server.stop()

        drills.append(_hang_drill(artifact, payload, oracle))
        print(f"[worker_hang] exact={drills[-1]['exact']} "
              f"hangs_detected={drills[-1]['hangs_detected']} "
              f"seconds={drills[-1]['seconds']}", flush=True)

    soak = [d for d in drills if "availability" in d]
    totals = {
        "requests": sum(d["requests"] for d in soak),
        "ok": sum(d["ok"] for d in soak),
        "failed": sum(d["failed"] for d in soak),
        "incorrect": sum(d["incorrect"] for d in soak),
    }
    totals["availability"] = (
        totals["ok"] / totals["requests"] if totals["requests"] else 1.0
    )
    recovery = next(d for d in soak if d["drill"] == "recovery")
    hang = next(d for d in drills if d["drill"] == "worker_hang")
    supervisor = stats.get("supervisor", {})

    report = {
        "benchmark": "bench_resilience",
        "generator": "benchmarks/bench_resilience.py",
        "ruleset": args.ruleset,
        "payload_bytes": args.payload_bytes,
        "shards": args.shards,
        "clients": args.clients,
        "window_seconds": args.window,
        "retry_policy": {
            "max_attempts": retry.max_attempts,
            "base_delay": retry.base_delay,
            "max_delay": retry.max_delay,
        },
        "note": "availability = ok responses / issued requests per drill "
                "window; correctness judged per response against the "
                "single-process oracle (either ruleset's oracle during the "
                "reload window); worker_kill SIGKILLs live shard workers "
                "from outside, worker_hang drives the scan watchdog on a "
                "dedicated pool",
        "drills": drills,
        "totals": totals,
        "server": {
            "final_ready": bool(final_health.get("ready")),
            "shards": stats.get("shards"),
            "requests_deduped": stats.get("requests_deduped"),
            "reload_swaps": stats.get("reload_swaps"),
            "supervisor_restarts_total": supervisor.get("restarts_total"),
            "supervisor_hangs_total": supervisor.get("hangs_total"),
            "breaker_opens_total": supervisor.get("breaker_opens_total"),
        },
        "assertions": {
            "availability_floor": AVAILABILITY_FLOOR,
            "incorrect_allowed": 0,
        },
    }

    failures: list[str] = []
    if totals["incorrect"]:
        failures.append(f"{totals['incorrect']} incorrect match set(s)")
    if totals["availability"] < AVAILABILITY_FLOOR:
        failures.append(
            f"availability {totals['availability']:.4f} < {AVAILABILITY_FLOOR}"
        )
    if recovery["availability"] < 1.0 or recovery["failed"]:
        failures.append("recovery window was not clean")
    if not report["server"]["final_ready"]:
        failures.append("server did not return to ready")
    if stats.get("shards") != args.shards:
        failures.append(f"pool ended at {stats.get('shards')} shard(s), "
                        f"wanted {args.shards}")
    if not hang["exact"]:
        failures.append("worker_hang drill lost matches")
    if hang["hangs_detected"] < 1:
        failures.append("watchdog never fired during worker_hang")

    if args.bench_json is None or str(args.bench_json) != "-":
        bench_path = args.bench_json or (repo_root / "BENCH_resilience.json")
        bench_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {bench_path}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"resilience soak OK: {totals['requests']} requests, "
          f"availability={totals['availability']:.4f}, zero incorrect")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
