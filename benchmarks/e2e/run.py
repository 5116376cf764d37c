"""End-to-end serve benchmark: client bytes in, match set out, through a
real ``python -m repro serve`` subprocess.

::

    python3 benchmarks/e2e/run.py --workload bulk_sparse --seed 3      # one workload
    python3 benchmarks/e2e/run.py --seed 3 --out results/              # all four
    python3 benchmarks/e2e/run.py --workload small_rpc --trace 1       # per-layer table
    python3 benchmarks/e2e/run.py --smoke                              # 2 s windows

Each run makes its inputs from ``--seed``, computes the python-backend
oracle for every distinct payload, starts the server with a fresh empty
artifact directory (``SETUPS`` times; ``setup_s`` is the median time
from spawn to the ``serving on`` line), warms up for ``WARMUP_S``, then
measures for ``--seconds`` (default: ``run_seconds`` of BENCHMARK.json).
Every response is checked against the oracle; a wrong match set fails
the run.  Times and rates are reported at the reference machine speed
(see :class:`SpeedMeter`); the record keeps each block's slowdown.

With one ``--workload`` the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` the
per-layer ones, which come from a second server started under
``traced_serve.py``.  With ``--workload all`` (the default) it is one
object with ``correct``, ``attempted``, ``failed`` and ``workloads``,
which maps each workload to its own ``attempted``, ``failed`` and
``metrics``.  ``--out DIR`` also appends every run's full record
(sample counts, workload-specific extras, environment stamp) to
``DIR/runs.jsonl`` for ``compare.py``, and keeps the span files.

Load comes from this one process: at most two connections, each driven
by its own thread (the main thread drives the first).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"

import measure  # noqa: E402
import workloads  # noqa: E402
from measure import Sample, Span, Tally  # noqa: E402

#: seconds of load before the measured window starts
WARMUP_S = 3.0
#: server start-ups per run; ``setup_s`` is their median
SETUPS = 5
#: ``--smoke``: (window, warmup, start-ups)
SMOKE = (2.0, 0.5, 1)
#: seconds a server may take to print its ``serving on`` line
START_TIMEOUT = 60.0
#: per-request socket timeout (a request past it counts as a timeout)
REQUEST_TIMEOUT = 30.0
#: share of ``--seconds`` that small_rpc spends in its open-loop phase;
#: the rest is the closed-loop capacity phase
OPEN_SHARE = 0.5
#: seconds of load between two speed probes; the machine's speed drifts
#: within seconds, so each block gets its own
BLOCK_S = 1.0

#: the span names a shard scan hands to its worker threads
KERNELS = ("engine.run", "sfa.scan_chunk")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD's commit id read from ``.git`` (no git process, nothing
    read outside the checkout); ``unknown`` outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "measured": True,
    }


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on an ephemeral TCP port."""

    def __init__(self, serve_args: list[str], log: Path, spans: Optional[Path] = None):
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"),
                       "--spans-out", str(spans), "--", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(log, "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            self.port = self._await_ready(started + START_TIMEOUT)
        except BaseException:
            self.kill()
            raise
        #: seconds from spawn to the ``serving on`` line
        self.setup_s = time.perf_counter() - started

    def _await_ready(self, deadline: float) -> int:
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while True:
                for line in buffer.split(b"\n")[:-1]:
                    if line.startswith(b"serving on "):
                        address = line.split()[2].decode()
                        return int(address.rsplit(":", 1)[1])
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise RuntimeError("server did not report 'serving on' in time")
                if selector.select(remaining):
                    chunk = os.read(self.proc.stdout.fileno(), 65536)
                    if not chunk:
                        raise RuntimeError(
                            f"server exited with {self.proc.wait()} before serving "
                            f"(see {self._log.name})"
                        )
                    buffer += chunk

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.port)

    def _proc_file(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def rss_hwm_mb(self) -> float:
        """Peak resident set size (``VmHWM``) in MB."""
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        """User + system CPU seconds the server has used so far."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stats(self) -> dict:
        with _connect(self.address) as client:
            return client.stats_full()

    def stop(self) -> None:
        """Ask the server to drain and exit; kill it if it will not."""
        from repro.guard.errors import ReproError

        try:
            if self.proc.poll() is None:
                with _connect(self.address) as client:
                    client.shutdown()
                self.proc.wait(timeout=30)
        except (ReproError, OSError, subprocess.TimeoutExpired):
            pass  # the kill below ends it either way
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _connect(address):
    from repro.serve.client import MatchClient
    from repro.serve.resilience import RetryPolicy

    # no retries: a lost or rejected request is a failure to count
    return MatchClient.connect(address, timeout=REQUEST_TIMEOUT, retry=RetryPolicy.none())


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------


class ClientTimer:
    """Times the client's own encode and decode calls per request.

    Wraps the functions :class:`~repro.serve.client.MatchClient` looks
    up (``encode_payload``, and ``encode_frame``/``decode_body`` behind
    ``send_frame``/``recv_frame``) for the life of a traced run.
    """

    def __init__(self) -> None:
        from repro.serve import client, protocol

        self._local = threading.local()
        self._patches = []
        for module, name, kind in (
            (client, "encode_payload", "encode"),
            (protocol, "encode_frame", "encode"),
            (protocol, "decode_body", "decode"),
        ):
            original = getattr(module, name)
            self._patches.append((original, self._timed(original, kind)))

    def _timed(self, function, kind):
        local = self._local

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                setattr(local, kind, getattr(local, kind, 0.0) + time.perf_counter() - start)

        return wrapper

    def __enter__(self) -> "ClientTimer":
        from traced_serve import patch_everywhere

        for original, wrapper in self._patches:
            patch_everywhere(original, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        from traced_serve import patch_everywhere

        for original, wrapper in self._patches:
            patch_everywhere(wrapper, original)

    def reset(self) -> None:
        self._local.encode = self._local.decode = 0.0

    def read(self) -> tuple[float, float]:
        return self._local.encode, self._local.decode


class Connection:
    """One client connection that checks every answer it gets."""

    def __init__(self, address, payloads, expected, keep_rules: Optional[int],
                 timer: Optional[ClientTimer] = None, offset: int = 0):
        self.address = address
        self.payloads = payloads
        self.expected = expected
        #: compare only matches of rules below this id (None = all)
        self.keep_rules = keep_rules
        self.timer = timer
        self.tally = Tally()
        #: (sent, round trip, client encode, client decode) per traced request
        self.timings: list[tuple[float, float, float, float]] = []
        self.next = offset
        self.client = _connect(address)

    def _reconnect(self) -> None:
        self.client.close()
        self.client = _connect(self.address)

    def match(self) -> bool:
        from repro.guard.errors import ReproError

        index = self.next % len(self.payloads)
        self.next += 1
        if self.timer is not None:
            self.timer.reset()
        started = time.perf_counter()
        try:
            result = self.client.match(self.payloads[index])
        except (ReproError, OSError) as exc:
            self.tally.record(None, detail=str(exc))
            self._reconnect()
            return False
        if self.timer is not None:
            self.timings.append((started, time.perf_counter() - started, *self.timer.read()))
        matches = result.matches
        if self.keep_rules is not None:
            matches = {m for m in matches if m[0] < self.keep_rules}
        correct = matches == self.expected[index]
        return self.tally.record(
            result.status, correct,
            f"payload {index}: {len(matches ^ self.expected[index])} differing matches",
        )

    def reload(self, patterns: list[str]) -> bool:
        from repro.guard.errors import ReproError

        try:
            reply = self.client.reload(patterns)
        except (ReproError, OSError) as exc:
            self.tally.record("error", detail=str(exc))
            self._reconnect()
            return False
        return self.tally.record(
            "ok", reply.get("rules") == len(patterns),
            f"reload reported {reply.get('rules')} rules, sent {len(patterns)}",
        )

    def close(self) -> None:
        self.client.close()


def closed_loop(send: Callable[[], bool], until: float,
                after: Callable[[], None] = lambda: None) -> list[Sample]:
    """Send back to back: each request is due when the previous reply
    arrives.  ``after`` runs once per completed request."""
    samples = []
    due = time.perf_counter()
    while due < until:
        sent = time.perf_counter()
        ok = send()
        done = time.perf_counter()
        samples.append(Sample(due=due, sent=sent, done=done, ok=ok))
        after()
        due = done
    return samples


def scheduled(send: Callable[[], bool], times: list[float]) -> list[Sample]:
    return measure.open_loop(times, send, time.perf_counter, time.sleep)


class Background:
    """Run one load function on the second (and last) load thread."""

    def __init__(self, function: Callable[[], list]):
        self.result: list = []
        self.error: Optional[BaseException] = None

        def target():
            try:
                self.result = function()
            except BaseException as exc:  # surfaced by join()
                self.error = exc

        self._thread = threading.Thread(target=target, name="e2e-load-2", daemon=True)
        self._thread.start()

    def join(self, timeout: float) -> list:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("second load thread did not finish")
        if self.error is not None:
            raise self.error
        return self.result


@dataclass
class Block:
    """One stretch of load and how fast the machine ran it."""

    start: float
    end: float
    #: see :func:`measure.interval_slowdown`
    slowdown: float
    samples: list[Sample] = field(default_factory=list)

    @property
    def reference_seconds(self) -> float:
        """The block's length at the reference speed."""
        return (self.end - self.start) / self.slowdown


class SpeedMeter:
    """Measures how fast the machine runs each stretch of work.

    The benchmark shares its machine, whose speed moves by up to 2x
    within seconds and differently on each CPU.  After each stretch, with
    the server idle, the meter times the reference pass pinned to each
    CPU this process may use; during the stretch it counts each CPU's
    busy ticks in ``/proc/stat``.  Both feed
    :func:`measure.interval_slowdown`.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._probed = self._probe()
        #: slowdown of the last stretch (before any: of the first probe)
        self.last = measure.interval_slowdown(self._probed, self._probed, [])

    def _probe(self) -> list[float]:
        """Reference time of each CPU, the calling thread pinned to it."""
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(measure.reference_seconds())
        finally:
            os.sched_setaffinity(0, self.cpus)
        return times

    def _busy(self) -> list[int]:
        """Busy clock ticks so far of each CPU in ``self.cpus``."""
        ticks = {}
        for line in Path("/proc/stat").read_text().splitlines():
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit():
                user, nice, system, _idle, _iowait, irq, softirq = map(int, fields[:7])
                ticks[int(name[3:])] = user + nice + system + irq + softirq
        return [ticks[cpu] for cpu in self.cpus]

    def begin(self) -> tuple[float, list[int]]:
        """Mark the start of a stretch."""
        return time.perf_counter(), self._busy()

    def end(self, begun: tuple[float, list[int]], quiet=contextlib.nullcontext()) -> Block:
        """Close the stretch opened by ``begun`` and probe.  The probe
        waits inside ``quiet``, a context that holds off load running on
        other threads."""
        start, busy = begun
        end = time.perf_counter()
        with quiet:
            busy = [after - before for before, after in zip(busy, self._busy())]
            before, self._probed = self._probed, self._probe()
        self.last = measure.interval_slowdown(before, self._probed, busy)
        return Block(start, end, self.last)

    def run(self, load: Callable[[], list[Sample]], quiet=contextlib.nullcontext()) -> Block:
        """Run ``load()`` as one stretch; its samples go into the block."""
        begun = self.begin()
        samples = load()
        block = self.end(begun, quiet)
        block.samples = samples
        return block


def drive(workload, server: Server, payloads, expected, seconds: float, warmup: float,
          seed: int, meter: SpeedMeter, timer: Optional[ClientTimer] = None) -> dict:
    """Put the workload's load on ``server``; returns the raw samples.

    After ``warmup`` seconds of load, the measured ``seconds`` run as
    blocks of :data:`BLOCK_S`, each followed by a speed probe.  An open
    loop sends ``rate_rps`` requests per second at the reference speed,
    that is ``rate_rps / slowdown`` per wall second with the slowdown of
    the block before, so it loads the server to the same share of its
    capacity however fast the machine runs.  Keys of the result:
    ``closed`` (closed-loop blocks behind the median latency and the
    throughput), ``tail`` (blocks behind the tail percentiles: the open
    loop on ``small_rpc``, else the closed-loop blocks), ``blocks`` (every
    measured block once), ``reloads`` (samples), ``window``
    (perf_counter start/end of the measured part), ``load_seconds``,
    ``tally`` and ``timings`` (traced runs).
    """
    keep = len(workloads.read_rules(workload.ruleset)) if workload.shape == "churn" else None
    connections = [Connection(server.address, payloads, expected, keep, timer)]
    if workload.shape in ("rpc", "churn"):
        connections.append(
            Connection(server.address, payloads, expected, keep, timer,
                       offset=len(payloads) // 2)
        )
    first, second = connections[0], connections[-1]

    def open_loop(until: float) -> list[Sample]:
        period = meter.last / workload.rate_rps
        start = time.perf_counter() + 0.005
        times = [start + k * period for k in range(int((until - start) / period))]
        background = Background(lambda: scheduled(second.match, times[1::2]))
        return scheduled(first.match, times[0::2]) + background.join(REQUEST_TIMEOUT * 2)

    def both_closed(until: float) -> list[Sample]:
        background = Background(lambda: closed_loop(second.match, until))
        return closed_loop(first.match, until) + background.join(REQUEST_TIMEOUT * 2)

    quiet = contextlib.nullcontext()
    reloader = None
    if workload.shape == "churn":
        # a reload holds `quiet`, so no probe overlaps a compile
        quiet = threading.Lock()
        gate = measure.ReloadGate(workload.reload_every)
        rulesets = (workloads.churn_ruleset(workload, seed, k) for k in itertools.count(1))

        def reload() -> bool:
            with quiet:
                return second.reload(next(rulesets))

        reloader = Background(lambda: measure.gated(gate, reload))

    def measured(load: Callable[[float], list[Sample]], length: float) -> list[Block]:
        count = max(1, round(length / BLOCK_S))
        blocks = []
        for _ in range(count):
            until = time.perf_counter() + length / count
            blocks.append(meter.run(lambda: load(until), quiet))
        return blocks

    began = time.perf_counter()
    try:
        if workload.shape == "rpc":
            meter.run(lambda: open_loop(time.perf_counter() + warmup))
            tail = measured(open_loop, seconds * OPEN_SHARE)
            closed = measured(both_closed, seconds * (1 - OPEN_SHARE))
            blocks = tail + closed
        else:
            after = gate.tick if reloader is not None else (lambda: None)

            def one_closed(until: float) -> list[Sample]:
                return closed_loop(first.match, until, after)

            meter.run(lambda: one_closed(time.perf_counter() + warmup), quiet)
            closed = tail = blocks = measured(one_closed, seconds)
    finally:
        if reloader is not None:
            gate.close()
        reloads = reloader.join(REQUEST_TIMEOUT * 2) if reloader is not None else []
        for connection in connections:
            connection.close()
    window = (blocks[0].start, blocks[-1].end)
    tally = Tally()
    timings = []
    for connection in connections:
        tally.merge(connection.tally)
        timings.extend(connection.timings)
    return {
        "closed": closed,
        "tail": tail,
        "blocks": blocks,
        "reloads": [s for s in reloads if s.due >= window[0]],
        "window": window,
        "load_seconds": time.perf_counter() - began,
        "tally": tally,
        "timings": timings,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _metric(value: float, n: int, unit: str = "") -> dict:
    """One reported number with its sample count; metrics BENCHMARK.json
    declares get their unit from there (see :func:`declare`)."""
    return {"value": value, "unit": unit, "n": n}


def declare(metrics: dict, section: str) -> dict:
    """Check ``metrics`` are exactly the ``section`` metrics BENCHMARK.json
    lists, and give each its declared unit."""
    declared = {
        m["name"]: m["unit"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    }
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(declared))}"
        )
    for name, metric in metrics.items():
        metric["unit"] = declared[name]
    return metrics


def latency_metrics(values_ms: list[float], prefix: str = "latency") -> dict:
    """Median plus every tail the sample count supports."""
    n = len(values_ms)
    out = {f"{prefix}_p50_ms": _metric(measure.percentile(values_ms, 0.5), n, "ms")}
    for q in measure.TAILS:
        name = f"{prefix}_p{round(q * 100)}_ms"
        out[name] = _metric(measure.percentile(values_ms, q), n, "ms")
        out[name]["supported"] = measure.supported(n, q)
    return out


def _samples(blocks: list[Block]) -> list[Sample]:
    return [sample for block in blocks for sample in block.samples]


def _slowdown_at(blocks: list[Block], moment: float) -> float:
    """Slowdown of the block running at ``moment`` (the last block for
    later moments)."""
    for block in blocks:
        if moment <= block.end:
            return block.slowdown
    return blocks[-1].slowdown


def end_to_end(workload, raw: dict, setups: list[float], rss_mb: float) -> tuple[dict, dict]:
    """(the BENCHMARK.json end-to-end metrics, workload-specific extras).
    Times and rates are at the reference speed: each sample is scaled by
    the slowdown of its block, and ``setups`` are scaled already."""

    def scaled(blocks: list[Block]) -> dict:
        return latency_metrics(
            [s.latency * 1e3 / block.slowdown for block in blocks for s in block.samples])

    closed = raw["closed"]
    requests = len(_samples(closed))
    rps = requests / sum(block.reference_seconds for block in closed)
    metrics = {
        "setup_s": _metric(statistics.median(setups), len(setups)),
        "latency_p50_ms": scaled(closed)["latency_p50_ms"],
        "throughput_rps": _metric(rps, requests),
        "server_rss_mb": _metric(rss_mb, 1),
    }
    tally = raw["tally"]
    blocks = raw["blocks"]
    extras = {
        "failed_ratio": _metric(tally.failed_ratio, tally.attempted, "ratio"),
        "slowdown": _metric(statistics.median(b.slowdown for b in blocks), len(blocks), "ratio"),
        "loadgen_late_tail_ms": _late_tail(_samples(raw["tail"])),
    }
    if workload.shape == "closed":
        extras["throughput_mb_s"] = _metric(rps * workload.payload_bytes / 1e6, requests, "MB/s")
    tail = scaled(raw["tail"])
    if raw["tail"] is not closed:
        extras["open_latency_p50_ms"] = tail["latency_p50_ms"]
    for name in ("latency_p90_ms", "latency_p99_ms"):
        if tail[name]["supported"]:
            extras[name] = tail[name]
    if raw["reloads"]:
        extras["reload_p50_ms"] = latency_metrics(
            [s.latency * 1e3 / _slowdown_at(blocks, s.done) for s in raw["reloads"]], "reload"
        )["reload_p50_ms"]
    return metrics, extras


def _late_tail(samples: list[Sample]) -> dict:
    values = [s.late * 1e3 for s in samples]
    q = measure.tail_quantile(len(values), measure.TAILS + (0.5,)) or 0.5
    return {**_metric(measure.percentile(values, q), len(values), "ms"), "quantile": q}


def load_spans(path: Path) -> list[Span]:
    spans = []
    with open(path) as handle:
        for line in handle:
            row = json.loads(line)
            spans.append(Span(row["name"], row["thread"], row["start"], row["end"],
                              row["attrs"]))
    return spans


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _server_request_seconds(spans: list[Span], window: tuple[float, float]) -> list[float]:
    """Server-side time of each match request decoded in ``window``:
    from the start of its frame decode to the end of its reply encode
    (paired per request id, first in first out)."""
    decodes: dict = {}
    for span in spans:
        if span.name == "protocol.decode_body" and span.attrs.get("op") == "match":
            decodes.setdefault(span.attrs.get("id"), []).append(span.start)
    seconds = []
    for span in sorted(spans, key=lambda s: s.end):
        if span.name == "protocol.encode_frame" and span.attrs.get("match"):
            queue = decodes.get(span.attrs.get("id"))
            if queue:
                started = queue.pop(0)
                if window[0] <= started < window[1]:
                    seconds.append(span.end - started)
    return seconds


def per_layer(raw: dict, spans: list[Span], stats: dict, cpu_s: float,
              untraced_p50_ms: float) -> dict:
    """The per-layer table from one traced run (see README.md)."""
    w0, w1 = raw["window"]
    in_window = [s for s in spans if w0 <= s.start < w1]
    named: dict[str, list[Span]] = {}
    for span in in_window:
        named.setdefault(span.name, []).append(span)
    whole: dict[str, list[Span]] = {}
    for span in spans:
        whole.setdefault(span.name, []).append(span)

    scans = named.get("shards.scan", [])
    requests = max(1, len(scans))
    selfs = measure.self_times(in_window, {"shards.scan": KERNELS})
    scan_self = [selfs[i] for i, s in enumerate(in_window) if s.name == "shards.scan"]
    kernels = [s for name in KERNELS for s in named.get(name, [])]
    kernel_s = sum(s.duration for s in kernels)
    kernel_bytes = sum(s.attrs["bytes"] for s in kernels)
    chunk_s = sum(s.duration for s in named.get("sfa.scan_chunk", []))
    scan_s = sum(s.duration for s in scans)
    compiles = whole.get("pipeline.compile", [])
    bodies = [s for s in named.get("protocol.decode_body", []) if s.attrs["op"] == "match"]
    payloads = named.get("protocol.decode_payload", [])
    encodes = [s for s in named.get("protocol.encode_frame", []) if s.attrs["match"]]

    counters = {
        name: inst.get("value", 0)
        for name, inst in (stats.get("metrics") or {}).items()
        if isinstance(inst, dict)
    }
    hits = counters.get("imfant_lazy_cache_hits_total", 0)
    misses = counters.get("imfant_lazy_cache_misses_total", 0)
    server = stats.get("server", {})
    latency = stats.get("latency_ms") or {}
    timings = [t[1:] for t in raw["timings"] if w0 <= t[0] < w1]
    attempted = raw["tally"].attempted
    artifacts = whole.get("artifacts.get_or_compile", [])

    def ms(spans_, per=None):
        return sum(s.duration for s in spans_) * 1e3 / (per or max(1, len(spans_)))

    def stage(key):
        return _mean(s.attrs[key] for s in compiles) * 1e3

    samples = _samples(raw["closed"])
    traced_p50 = measure.percentile([s.latency * 1e3 for s in samples], 0.5)
    tail = _samples(raw["tail"])
    metrics = {
        "pipeline.compile_ms": (ms(compiles), len(compiles)),
        "pipeline.frontend_ms": (stage("frontend"), len(compiles)),
        "pipeline.fsa_ms": (stage("ast_to_fsa") + stage("single_opt"), len(compiles)),
        "pipeline.merging_ms": (stage("merging"), len(compiles)),
        "pipeline.states_out": (_mean(s.attrs["states_out"] for s in compiles), len(compiles)),
        "artifacts.get_or_compile_ms": (ms(artifacts), len(artifacts)),
        "artifacts.save_ms": (ms(whole.get("artifacts.save", [])),
                              len(whole.get("artifacts.save", []))),
        "artifacts.load_ms": (ms(whole.get("artifacts.load", [])),
                              len(whole.get("artifacts.load", []))),
        "protocol.decode_ms": (ms(bodies + payloads, len(bodies)), len(bodies)),
        "protocol.encode_ms": (ms(encodes), len(encodes)),
        "protocol.wire_ratio": (
            sum(s.attrs["bytes"] for s in bodies)
            / max(1, sum(s.attrs["bytes"] for s in payloads)),
            len(bodies),
        ),
        "client.encode_ms": (_mean(t[1] for t in timings) * 1e3, len(timings)),
        "client.decode_ms": (_mean(t[2] for t in timings) * 1e3, len(timings)),
        "client.unattributed_ms": (
            (_mean(t[0] - t[1] - t[2] for t in timings)
             - _mean(_server_request_seconds(spans, raw["window"]))) * 1e3,
            len(timings),
        ),
        "server.queue_wait_p50_ms": (
            latency.get("serve_queue_wait_seconds", {}).get("p50", 0.0),
            latency.get("serve_queue_wait_seconds", {}).get("count", 0),
        ),
        "server.reply_p50_ms": (
            latency.get("serve_reply_seconds", {}).get("p50", 0.0),
            latency.get("serve_reply_seconds", {}).get("count", 0),
        ),
        "server.requests_per_batch": (
            server.get("requests_handled", 0) / max(1, server.get("batches", 0)),
            server.get("batches", 0),
        ),
        "server.cpu_util": (cpu_s / raw["load_seconds"], 1),
        "server.cpu_ms_per_req": (cpu_s * 1e3 / max(1, attempted), attempted),
        "shards.scan_ms": (ms(scans), len(scans)),
        "shards.self_ms": (_mean(scan_self) * 1e3, len(scan_self)),
        "shards.jobs_per_scan": (_mean(s.attrs["shards"] for s in scans), len(scans)),
        "engine.scan_ms": (kernel_s * 1e3 / requests, len(kernels)),
        "engine.mb_s": (kernel_bytes / kernel_s / 1e6 if kernel_s else 0.0, len(kernels)),
        "engine.stats_ratio": (_mean(1.0 if s.attrs["stats"] else 0.0 for s in kernels),
                               len(kernels)),
        "engine.lazy_hit_rate": (hits / (hits + misses) if hits + misses else 0.0,
                                 int(hits + misses)),
        "engine.dense_ratio": (
            sum(s.attrs["bytes"] for s in kernels if s.attrs["dense"]) / max(1, kernel_bytes),
            len(kernels),
        ),
        "sfa.chunk_share": (chunk_s / kernel_s if kernel_s else 0.0,
                            len(named.get("sfa.scan_chunk", []))),
        "sfa.fold_share": (sum(s.duration for s in named.get("sfa.fold", [])) / scan_s
                           if scan_s else 0.0, len(named.get("sfa.fold", []))),
        "counting.registers": (artifacts[-1].attrs["registers"] if artifacts else 0, 1),
        "loadgen.late_tail_ms": (_late_tail(tail)["value"], len(tail)),
        "trace.overhead_ratio": (traced_p50 / untraced_p50_ms, len(samples)),
    }
    return {name: _metric(value, n) for name, (value, n) in metrics.items()}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def oracle(workload, payloads: list[bytes]) -> list[set]:
    """Python-backend match set of every distinct payload.  Churn
    workloads are checked on their base rules only, which keep their ids
    in every reloaded ruleset."""
    from repro.engine.imfant import IMfantEngine
    from repro.pipeline.compiler import CompileOptions, compile_ruleset

    compiled = compile_ruleset(workloads.read_rules(workload.ruleset),
                               CompileOptions(emit_anml=False))
    engines = [IMfantEngine(mfsa, backend="python") for mfsa in compiled.mfsas]
    return [
        set().union(*(engine.run(payload, collect_stats=False).matches for engine in engines))
        for payload in payloads
    ]


def run_workload(workload, seed: int, seconds: float, warmup: float, setups: int,
                 trace: bool, work: Path, out: Optional[Path]) -> dict:
    payloads = workloads.payloads(workload, seed)
    expected = oracle(workload, payloads)
    if workload.shape == "churn":
        rules = work / "rules.rules"
        rules.write_text("\n".join(workloads.churn_ruleset(workload, seed, 0)) + "\n")
    else:
        rules = workloads.RULESETS / workload.ruleset

    starts = itertools.count()

    def serve_args() -> list[str]:
        artifacts = work / f"artifacts{next(starts)}"  # fresh and empty
        return ["--ruleset", str(rules), "--port", "0", "--artifact-dir", str(artifacts),
                *workload.serve_flags]

    if trace:
        setups = 1  # setup_s is not reported; one untraced baseline is enough
    meter = SpeedMeter()
    setup_times = []  # at the reference speed
    server = None
    try:
        for start in range(setups):
            if server is not None:
                server.stop()  # a spare start-up, timed only
            begun = meter.begin()
            server = Server(serve_args(), work / f"server{start}.log")
            setup_times.append(server.setup_s / meter.end(begun).slowdown)
        raw = drive(workload, server, payloads, expected, seconds, warmup, seed, meter)
        rss_mb = server.rss_hwm_mb()
    finally:
        if server is not None:
            server.stop()
    metrics, extras = end_to_end(workload, raw, setup_times, rss_mb)
    untraced_p50_ms = measure.percentile(
        [s.latency * 1e3 for s in _samples(raw["closed"])], 0.5)
    tally = raw["tally"]
    if trace:
        spans_path = (out or work) / f"spans_{workload.name}.jsonl"
        server = Server(serve_args(), work / "traced.log", spans=spans_path)
        try:
            with ClientTimer() as timer:
                cpu_start = server.cpu_seconds()
                traced = drive(workload, server, payloads, expected, seconds, warmup, seed,
                               meter, timer=timer)
                cpu_s = server.cpu_seconds() - cpu_start
            stats = server.stats()
        finally:
            server.stop()
        tally.merge(traced["tally"])
        metrics = per_layer(traced, load_spans(spans_path), stats, cpu_s, untraced_p50_ms)
    declare(metrics, "per_layer" if trace else "end_to_end")
    return {
        "workload": workload.name,
        "seed": seed,
        "settings": {"seconds": seconds, "warmup": warmup, "setups": setups},
        "trace": int(trace),
        "env": environment(),
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": {
            "errors": tally.errors, "rejected": tally.rejected, "partial": tally.partial,
            "timeouts": tally.timeouts, "wrong": tally.wrong, "examples": tally.examples,
        },
        "metrics": metrics,
        "extras": extras,
        #: (wall seconds, slowdown, requests) of each measured block
        "blocks": [[b.end - b.start, b.slowdown, len(b.samples)] for b in raw["blocks"]],
    }


def print_table(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']}")
    rows = {**record["metrics"], **{f"({k})": v for k, v in record["extras"].items()}}
    for name, metric in rows.items():
        note = "" if metric.get("supported", True) else "  [fewer than 10 samples beyond]"
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']:<6} n={metric['n']}{note}")
    for example in record["failures"]["examples"]:
        print(f"  wrong: {example}")


def _result(record: dict) -> dict:
    return {
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            key: {"value": metric["value"], "unit": metric["unit"]}
            for key, metric in record["metrics"].items()
        },
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer table from a traced rerun")
    parser.add_argument("--smoke", action="store_true",
                        help="2 s windows, 0.5 s warmup, one start-up")
    parser.add_argument("--out", type=Path, default=None,
                        help="append full run records to DIR/runs.jsonl, keep span files")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    seconds, warmup, setups = SMOKE if args.smoke else (args.seconds, WARMUP_S, SETUPS)
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if seconds <= 0:
        parser.error("--seconds must be > 0")
    sys.path.insert(0, str(SRC))

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    work = WORK / f"{os.getpid()}"
    records = []
    try:
        for name in names:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            record = run_workload(workloads.WORKLOADS[name], args.seed, seconds, warmup,
                                  setups, bool(args.trace), work, args.out)
            if args.out is not None:
                with open(args.out / "runs.jsonl", "a") as handle:
                    handle.write(json.dumps(record) + "\n")
            print_table(record)
            records.append(record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = all(record["correct"] for record in records)
    if len(records) == 1:
        result = {"correct": correct, **_result(records[0])}
    else:
        result = {
            "correct": correct,
            "attempted": sum(record["attempted"] for record in records),
            "failed": sum(record["failed"] for record in records),
            "workloads": {record["workload"]: _result(record) for record in records},
        }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
