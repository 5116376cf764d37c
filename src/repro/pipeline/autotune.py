"""Execution auto-tuning: profile a sample, pick the merging factor.

The paper's M knob has no pre-defined optimum: "There is no pre-defined
optimal M applying for every dataset" (§VI-C2) — DS9 peaks at M=100,
PRO at M=10/20, the rest at M=all, and the winner further depends on
the thread budget.  :func:`autotune_merging_factor` runs the real
engine over a *sample* of the real traffic, feeds the measured counters
to the :class:`~repro.engine.cost.CostModel`, picks the factor
minimising modelled latency, and returns an auditable report.

The profiling cost is one engine pass per candidate over the sample
(seconds at sample sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.cost import CostModel
from repro.engine.imfant import IMfantEngine
from repro.engine.multithread import MachineModel, simulate_parallel_latency
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
