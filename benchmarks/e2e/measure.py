"""Pure measurement helpers: percentiles, failure accounting, open-loop
lateness, read/write pacing, machine speed and span self time.  No I/O,
no sockets — unit-tested by ``test_e2e_bench.py``."""

from __future__ import annotations

import bisect
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

#: a tail percentile is reported only with at least this many samples
#: strictly beyond it
MIN_BEYOND = 10

#: tail candidates, highest first
TAILS = (0.99, 0.9)


def _rank(n: int, q: float) -> int:
    """Nearest-rank index (1-based) of quantile ``q`` in ``n`` samples.
    The epsilon keeps ``0.9 * 100`` from rounding up to rank 91."""
    return max(1, math.ceil(q * n - 1e-9))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q`` quantile."""
    return n - _rank(n, q)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def supported(n: int, q: float) -> bool:
    """True when ``n`` samples support reporting the ``q`` quantile."""
    return samples_beyond(n, q) >= MIN_BEYOND


def tail_quantile(n: int, candidates: Iterable[float] = TAILS) -> Optional[float]:
    """The highest candidate quantile that ``n`` samples support."""
    for q in candidates:
        if supported(n, q):
            return q
    return None


@dataclass
class Tally:
    """Outcome counts of the requests one run attempted.

    Every failure kind counts against ``attempted``; a wrong match set
    also makes the run incorrect.
    """

    attempted: int = 0
    errors: int = 0
    rejected: int = 0
    partial: int = 0
    timeouts: int = 0
    wrong: int = 0
    #: first few wrong-answer descriptions, for the error report
    examples: list[str] = field(default_factory=list)

    def record(self, status: Optional[str], correct: bool = True, detail: str = "") -> bool:
        """Count one attempted request; returns True when it succeeded.

        ``status`` is the response status (``ok``/``partial``/
        ``rejected``/anything else = error) or None for a request that
        got no response in time; ``correct`` says whether an ``ok``
        response carried the expected match set.
        """
        self.attempted += 1
        if status is None:
            self.timeouts += 1
        elif status == "rejected":
            self.rejected += 1
        elif status == "partial":
            self.partial += 1
        elif status != "ok":
            self.errors += 1
        elif not correct:
            self.wrong += 1
            if len(self.examples) < 5:
                self.examples.append(detail)
        else:
            return True
        return False

    @property
    def failed(self) -> int:
        return self.errors + self.rejected + self.partial + self.timeouts + self.wrong

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.errors += other.errors
        self.rejected += other.rejected
        self.partial += other.partial
        self.timeouts += other.timeouts
        self.wrong += other.wrong
        self.examples.extend(other.examples[: max(0, 5 - len(self.examples))])


@dataclass
class Sample:
    """One request as the load generator saw it (perf_counter seconds)."""

    #: when the request was due: its slot on an open-loop schedule, or
    #: the previous reply's arrival on a closed loop
    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its reply — an
        open loop charges a stalled generator's backlog to the requests
        that waited behind the stall."""
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def open_loop(
    schedule: Iterable[float],
    send: Callable[[], bool],
    clock: Callable[[], float],
    sleep: Callable[[float], None],
) -> list[Sample]:
    """Send one request per scheduled time, never early.

    A request whose slot passed while the previous one was in flight is
    sent at once; its latency still counts from its slot.
    """
    samples = []
    for due in schedule:
        now = clock()
        if now < due:
            sleep(due - now)
        sent = clock()
        ok = send()
        samples.append(Sample(due=due, sent=sent, done=clock(), ok=ok))
    return samples


class ReloadGate:
    """Paces writes by reads: opens once ``every`` requests have completed
    since the previous write replied.

    A fixed wall-clock write schedule would let a slower machine spend a
    larger share of each period compiling, so the share of reads that
    overlap a write — and with it the latency percentiles — would swing
    with machine speed.  Counting reads keeps that share a property of
    the workload.
    """

    def __init__(self, every: int) -> None:
        self.every = every
        self._done = 0
        self._closed = False
        self._cond = threading.Condition()

    def tick(self) -> None:
        """One read completed."""
        with self._cond:
            self._done += 1
            if self._done >= self.every:
                self._cond.notify_all()

    def wait(self) -> bool:
        """Block until a write is due; False once the gate is closed."""
        with self._cond:
            self._cond.wait_for(lambda: self._closed or self._done >= self.every)
            return not self._closed

    def rearm(self) -> None:
        """The write replied: start counting reads afresh."""
        with self._cond:
            self._done = 0

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


def gated(gate: ReloadGate, send: Callable[[], bool],
          clock: Callable[[], float] = time.perf_counter) -> list[Sample]:
    """Send one write each time ``gate`` opens, until it closes."""
    samples = []
    while gate.wait():
        due = clock()
        ok = send()
        samples.append(Sample(due=due, sent=due, done=clock(), ok=ok))
        gate.rearm()
    return samples


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

#: seconds one :func:`reference_pass` takes at the reference speed: its
#: median on an idle core of the 2-vCPU VM the committed baselines were
#: measured on, in a quiet period
REFERENCE_PASS_S = 0.0005


def _reference_inputs() -> tuple[list[list[int]], bytes]:
    rng = random.Random(0)
    table = [[rng.randrange(64) for _ in range(256)] for _ in range(64)]
    return table, bytes(rng.randrange(256) for _ in range(8192))


#: a 64-state transition table over bytes, a stream to walk it with, and
#: a per-state weight lookup: the interpreter work of a lazy scan in small
_REFERENCE_TABLE, _REFERENCE_DATA = _reference_inputs()
_REFERENCE_WEIGHTS = {state: state % 5 for state in range(0, 64, 3)}


def reference_pass() -> int:
    """A fixed piece of pure-Python work whose wall time tracks how fast
    this machine runs the interpreter right now."""
    table, weights = _REFERENCE_TABLE, _REFERENCE_WEIGHTS
    state = total = 0
    for byte in _REFERENCE_DATA:
        state = table[state][byte]
        total += weights.get(state, 0)
    return total


def reference_seconds(passes: int = 15, clock: Callable[[], float] = time.perf_counter) -> float:
    """Median wall time of ``passes`` reference passes."""
    times = []
    for _ in range(passes):
        start = clock()
        reference_pass()
        times.append(clock() - start)
    return statistics.median(times)


def interval_slowdown(before: Sequence[float], after: Sequence[float],
                      busy: Sequence[float]) -> float:
    """How much slower than the reference speed the machine ran a
    stretch of work (2.0 = half speed).

    ``before`` and ``after`` hold each CPU's reference time, probed just
    before and just after the stretch; ``busy`` holds how busy each CPU
    was during it.  Each CPU's speed is the mean of its two probes, and
    the CPUs are weighted by their busy time, so the CPUs that did the
    work set the result (a plain mean when none was busy).  Dividing a
    time by the slowdown, or multiplying a rate, gives the value at the
    reference speed.
    """
    speeds = [(b + a) / 2 / REFERENCE_PASS_S for b, a in zip(before, after)]
    total = sum(busy)
    if total <= 0:
        return sum(speeds) / len(speeds)
    return sum(speed * weight for speed, weight in zip(speeds, busy)) / total


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed call into a layer (perf_counter seconds)."""

    name: str
    thread: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(
    spans: Sequence[Span], cross_thread: dict[str, tuple[str, ...]]
) -> dict[int, float]:
    """Self time of every span, keyed by its index in ``spans``.

    A span's children are the spans of its own thread that lie inside
    its interval (nested calls), plus — for a span named in
    ``cross_thread`` — the spans with one of the listed names on *other*
    threads that lie inside it (work it handed to worker threads).  A
    cross-thread child inside several such parents (concurrent scans)
    goes to the latest-starting one.  Self time is the duration minus
    the part of the interval the children's union covers.
    """
    children: dict[int, list[tuple[float, float]]] = {i: [] for i in range(len(spans))}
    by_thread: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        by_thread.setdefault(span.thread, []).append(index)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack: list[int] = []
        for index in indices:
            span = spans[index]
            while stack and not spans[stack[-1]].contains(span):
                stack.pop()
            if stack:
                children[stack[-1]].append((span.start, span.end))
            stack.append(index)
    parents = sorted(
        (i for i, s in enumerate(spans) if s.name in cross_thread),
        key=lambda i: spans[i].start,
    )
    starts = [spans[p].start for p in parents]
    longest = max((spans[p].duration for p in parents), default=0.0)
    handed_off = {name for names in cross_thread.values() for name in names}
    for index, span in enumerate(spans):
        if span.name not in handed_off:
            continue
        # walk back from the latest parent starting before the span; no
        # parent starting earlier than `longest` before it can contain it
        position = bisect.bisect_right(starts, span.start) - 1
        while position >= 0 and starts[position] >= span.start - longest:
            parent = spans[parents[position]]
            if (
                parent.thread != span.thread
                and span.name in cross_thread[parent.name]
                and parent.contains(span)
            ):
                children[parents[position]].append((span.start, span.end))
                break
            position -= 1
    return {
        index: span.duration - covered(children[index])
        for index, span in enumerate(spans)
    }
