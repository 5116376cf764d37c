"""Multi-automata execution on T threads, modelled (paper §VI-C2).

The paper's multi-threaded runs distribute automata over T threads: "each
thread manages different automata asynchronously, selecting an MFSA at a
time from the remaining ones until all are executed"; the measured time
is the latency to complete the whole ruleset.

CPython never runs two scans at once, so a thread pool around the
engines measured no faster than one thread (docs/parallelism.md) and
the repository runs automata one after another.  Fig. 10 comes from
:func:`simulate_parallel_latency` — a deterministic machine-model
simulation: dynamic FIFO list scheduling of per-automaton work values
onto T workers, executed by a machine with ``physical_cores`` full-speed
cores plus diminishing SMT capacity up to ``hardware_threads`` (the
paper's i7-6700 is 4C/8T).  Workers beyond hardware threads time-share.
This reproduces the shape of Fig. 10: time halving per thread doubling
up to the core count, a plateau beyond, and MFSAs reaching the multi-
FSA best latency with far fewer threads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class MachineModel:
    """A simple symmetric-multiprocessor capacity model."""

    physical_cores: int = 4
    hardware_threads: int = 8
    #: extra throughput contributed by each SMT sibling beyond the
    #: physical cores (0.3 ≈ the classic "HT adds ~30%" rule of thumb).
    smt_efficiency: float = 0.3

    def capacity(self, busy_workers: int) -> float:
        """Total work units per unit time with ``busy_workers`` runnable."""
        if busy_workers <= 0:
            return 0.0
        full = min(busy_workers, self.physical_cores)
        smt = max(0, min(busy_workers, self.hardware_threads) - self.physical_cores)
        return full + self.smt_efficiency * smt


def simulate_parallel_latency(
    works: Sequence[float],
    num_threads: int,
    machine: MachineModel | None = None,
) -> float:
    """Makespan of FIFO dynamic scheduling of ``works`` onto ``num_threads``
    workers running on ``machine`` (fair processor sharing among busy
    workers).  Deterministic; returns the latency in work-time units.
    """
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    machine = machine or MachineModel()
    queue = list(works)
    if not queue:
        return 0.0
    queue_pos = 0
    # remaining work of each busy worker's current automaton
    running: list[float] = []
    while queue_pos < len(queue) and len(running) < num_threads:
        running.append(float(queue[queue_pos]))
        queue_pos += 1

    now = 0.0
    while running:
        n = len(running)
        rate = machine.capacity(n) / n  # per-worker progress rate
        finishing = min(running)
        elapsed = finishing / rate
        now += elapsed
        progressed = [w - finishing for w in running]
        running = []
        freed = 0
        for w in progressed:
            if w > 1e-12:
                running.append(w)
            else:
                freed += 1
        while freed > 0 and queue_pos < len(queue):
            running.append(float(queue[queue_pos]))
            queue_pos += 1
            freed -= 1
    return now


def list_schedule_makespan(works: Sequence[float], num_threads: int) -> float:
    """Plain FIFO list-scheduling makespan with ideal workers (no machine
    capacity limits) — the T→∞ lower envelope used in analyses."""
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    heap = [0.0] * min(num_threads, max(1, len(works)))
    heapq.heapify(heap)
    for work in works:
        finish = heapq.heappop(heap)
        heapq.heappush(heap, finish + float(work))
    return max(heap) if heap else 0.0


def lpt_schedule_makespan(works: Sequence[float], num_threads: int) -> float:
    """Longest-Processing-Time list scheduling (Graham's 4/3-approximate
    ordering): sort jobs descending before the FIFO assignment.

    The paper's runs pull automata in ruleset order; LPT is the classic
    improvement when per-automaton works are known up front (they are —
    after one profiling pass), so the scheduling ablation compares both.
    """
    return list_schedule_makespan(sorted(works, reverse=True), num_threads)
