"""Execution auto-tuning: profile a sample, pick the plan.

Two planners live here, both following the same recipe — run the real
engines over a *sample* of the real traffic, feed the measured counters
to the :class:`~repro.engine.cost.CostModel`, pick the configuration
minimising modelled latency, and return an auditable report:

* :func:`autotune_merging_factor` — the paper's M knob.  "There is no
  pre-defined optimal M applying for every dataset" (§VI-C2): DS9 peaks
  at M=100, PRO at M=10/20, the rest at M=all, and the winner further
  depends on the thread budget.
* :func:`choose_backend` — which execution backend actually runs
  fastest on this ruleset/traffic pair.  The per-backend cost model
  (:meth:`~repro.engine.cost.CostModel.backend_run_cost`) supplies the
  prediction column; selection itself is by measured warm wall-clock,
  because the per-byte constants a model assumes shift with the
  ruleset and traffic (config-graph size, escape density, register
  count) in ways only a measurement sees.

The profiling cost is one engine pass per candidate over the sample
(seconds at sample sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import time

from repro.counting.mfsa import CountingMfsa
from repro.engine.cost import CostModel
from repro.engine.imfant import IMfantEngine
from repro.engine.multithread import MachineModel, simulate_parallel_latency
from repro.guard.degrade import BACKEND_LADDER
from repro.guard.errors import AllocationFailed
from repro.mfsa.model import Mfsa
from repro.pipeline.compiler import CompileOptions, compile_ruleset

DEFAULT_CANDIDATES = (1, 2, 5, 10, 20, 50, 100, 0)


@dataclass
class CandidateResult:
    """One merging factor's profile."""

    merging_factor: int
    num_mfsas: int
    total_states: int
    state_compression: float
    #: modelled latency at the requested thread count (work units)
    latency: float
    #: single-thread modelled time (the Fig. 9 quantity)
    sequential_work: float

    @property
    def label(self) -> str:
        return "all" if self.merging_factor == 0 else str(self.merging_factor)


@dataclass
class AutotuneReport:
    """All candidates plus the selection."""

    candidates: list[CandidateResult] = field(default_factory=list)
    best: CandidateResult | None = None
    threads: int = 1

    def render(self) -> str:
        lines = [f"merging-factor autotune (threads={self.threads}):"]
        for candidate in self.candidates:
            marker = " <- selected" if candidate is self.best else ""
            lines.append(
                f"  M={candidate.label:>4}: {candidate.num_mfsas} MFSA(s), "
                f"{candidate.total_states} states "
                f"({candidate.state_compression:.1f}% comp.), "
                f"latency {candidate.latency:.0f}{marker}"
            )
        return "\n".join(lines)


def autotune_merging_factor(
    patterns: Sequence[str],
    sample: bytes | str,
    threads: int = 1,
    candidates: Sequence[int] = DEFAULT_CANDIDATES,
    cost_model: CostModel | None = None,
    machine: MachineModel | None = None,
    options: CompileOptions | None = None,
    backend: str = "python",
) -> AutotuneReport:
    """Pick the merging factor minimising modelled latency on ``sample``.

    ``candidates`` follows the artifact convention (0 = all); factors
    ≥ len(patterns) alias with "all" and are deduplicated.  ``options``
    supplies the non-M compilation knobs (grouping, passes, …).
    ``backend`` selects the profiling engine; the work counters that
    feed the cost model are backend-invariant, so any backend gives the
    same selection (pick the fastest one for large samples).
    """
    if not patterns:
        raise ValueError("cannot autotune an empty ruleset")
    cost_model = cost_model or CostModel()
    machine = machine or MachineModel()
    base = options or CompileOptions()

    seen: set[int] = set()
    report = AutotuneReport(threads=threads)
    for factor in candidates:
        effective = 0 if factor <= 0 or factor >= len(patterns) else factor
        if effective in seen:
            continue
        seen.add(effective)

        compiled = compile_ruleset(
            list(patterns),
            CompileOptions(
                merging_factor=effective,
                optimize=base.optimize,
                grouping=base.grouping,
                stratify_charclasses=base.stratify_charclasses,
                seed_cap=base.seed_cap,
                min_walk_len=base.min_walk_len,
                reduce_mfsa=base.reduce_mfsa,
                emit_anml=False,
            ),
        )
        works = []
        for mfsa in compiled.mfsas:
            stats = IMfantEngine(mfsa, backend=backend).run(sample).stats
            works.append(cost_model.run_cost(stats))
        report.candidates.append(CandidateResult(
            merging_factor=effective,
            num_mfsas=len(compiled.mfsas),
            total_states=compiled.total_output_states,
            state_compression=compiled.merge_report.state_compression,
            latency=simulate_parallel_latency(works, threads, machine),
            sequential_work=sum(works),
        ))

    report.best = min(report.candidates, key=lambda c: c.latency)
    return report


@dataclass
class BackendCandidate:
    """One backend's profile on the sample."""

    backend: str
    #: best warm wall-clock over the measurement repeats; None when the
    #: backend was unavailable on this automaton (allocation failure)
    measured_seconds: float | None
    #: cost-model prediction (CostModel.backend_run_cost, work units)
    modelled_cost: float
    note: str = ""

    @property
    def throughput(self) -> float | None:
        """Sample bytes per measured second; None when unavailable."""
        return None if not self.measured_seconds else self._bytes / self.measured_seconds

    _bytes: int = 0


@dataclass
class BackendReport:
    """All backend candidates plus the measured selection."""

    candidates: list[BackendCandidate] = field(default_factory=list)
    best: BackendCandidate | None = None
    sample_bytes: int = 0

    def render(self) -> str:
        lines = [f"backend autotune (sample={self.sample_bytes} bytes):"]
        for candidate in self.candidates:
            marker = " <- selected" if candidate is self.best else ""
            if candidate.measured_seconds is None:
                lines.append(
                    f"  {candidate.backend:>6}: unavailable ({candidate.note})"
                )
                continue
            mbps = self.sample_bytes / candidate.measured_seconds / 1e6
            lines.append(
                f"  {candidate.backend:>6}: {mbps:8.2f} MB/s measured, "
                f"modelled {candidate.modelled_cost:.0f}{marker}"
            )
        return "\n".join(lines)


def choose_backend(
    mfsa: "Mfsa | CountingMfsa",
    sample: bytes | str,
    backends: Sequence[str] | None = None,
    cost_model: CostModel | None = None,
    repeats: int = 3,
) -> BackendReport:
    """Measure which execution backend is fastest for this traffic.

    Each candidate engine is warmed first (two passes — enough for the
    lazy cache to reach steady state; the dense candidate is then
    promoted explicitly so the measurement covers the compiled tier,
    not the warm-up ramp) and timed over ``repeats`` passes, keeping
    the best.  Selection is by measured wall-clock; the cost-model
    prediction rides along per candidate so a surprising pick is
    auditable.  Measured selection is the point: measurement, not the
    model, is what keeps a backend from being chosen where it loses.

    ``backends=None`` picks the default ladder, prepending ``counting``
    when ``mfsa`` is a :class:`~repro.counting.mfsa.CountingMfsa` with
    live counting arcs — the plain candidates then race over its
    expansion (:meth:`CountingMfsa.expand`), so the report shows
    exactly what demoting off the counting rung would cost.

    Backends whose setup fails allocation are reported as unavailable
    rather than raised: the remaining rungs still race.
    """
    payload = sample.encode("latin-1") if isinstance(sample, str) else sample
    cost_model = cost_model or CostModel()
    has_registers = isinstance(mfsa, CountingMfsa) and bool(mfsa.counting)
    if backends is None:
        backends = BACKEND_LADDER
        if has_registers:
            backends = ("counting",) + backends

    # Counters are backend-invariant; one lazy pass is the cheap way to
    # get them for the model's prediction column.  (Counting automata
    # profile on the counting backend instead — a lazy pass would first
    # expand, paying exactly the state growth counting exists to avoid.)
    stats_backend = "counting" if has_registers else "lazy"
    stats = IMfantEngine(mfsa, backend=stats_backend).run(payload).stats

    report = BackendReport(sample_bytes=len(payload))
    reference: set | None = None
    for backend in backends:
        candidate = BackendCandidate(
            backend=backend,
            measured_seconds=None,
            modelled_cost=cost_model.backend_run_cost(stats, backend),
        )
        candidate._bytes = len(payload)
        report.candidates.append(candidate)
        try:
            engine = IMfantEngine(mfsa, backend=backend)
            engine.run(payload, collect_stats=False)
            matches = engine.run(payload, collect_stats=False).matches
            if backend == "dense":
                engine.promote_dense(force=True)
        except AllocationFailed as exc:
            candidate.note = f"allocation failure: {exc}"
            continue
        if reference is None:
            reference = matches
        elif matches != reference:
            raise AssertionError(
                f"backend {backend!r} disagrees with {backends[0]!r} on the sample"
            )
        best = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            engine.run(payload, collect_stats=False)
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        candidate.measured_seconds = best

    timed = [c for c in report.candidates if c.measured_seconds is not None]
    if timed:
        report.best = min(timed, key=lambda c: c.measured_seconds)
    return report
