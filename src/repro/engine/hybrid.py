"""Hybrid ruleset engine: MFSA merging + counting-set outliers.

Real rulesets mix ordinary REs with a few large bounded repeats
(`[^\\n]{200,300}` style).  Expanding the latter bloats — or, past the
expansion budget, poisons — the merged automaton; counting-set execution
handles them in constant space but cannot merge.  The hybrid engine
splits the ruleset the way production matchers do:

* rules whose expanded size stays small compile through the normal
  pipeline and merge into MFSAs (one iMFAnt pass matches them all);
* rules dominated by a large counted repeat run individually on the
  counting-set engine.

Matches from both sides combine into the usual ``(rule_id, end)`` set;
equivalence with the everything-expanded baseline is property-tested
where the baseline is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import repro.obs as obs
from repro.counting.build import build_counting_fsa
from repro.counting.engine import CountingSetEngine
from repro.engine.counters import ExecutionStats
from repro.engine.imfant import IMfantEngine
from repro.engine.lazy import DEFAULT_CACHE_SIZE
from repro.frontend.ast import AstNode, Literal, Repeat
from repro.frontend.parser import parse
from repro.pipeline.compiler import CompileOptions, compile_ruleset

#: A width-1 repeat expanding into more states than this routes the rule
#: to the counting engine.
DEFAULT_COUNTING_THRESHOLD = 32


def rule_needs_counting(pattern: str, threshold: int = DEFAULT_COUNTING_THRESHOLD) -> bool:
    """True when the pattern contains a width-1 bounded repeat whose
    expansion would exceed ``threshold`` states."""
    return any(
        isinstance(node, Repeat)
        and isinstance(node.body, Literal)
        and _expansion_size(node) > threshold
        for node in parse(pattern).walk()
    )


def _expansion_size(node: Repeat) -> int:
    if node.high is not None:
        return node.high
    return node.low


@dataclass
class HybridReport:
    """How the ruleset was split and what each side cost."""

    merged_rules: int = 0
    counting_rules: int = 0
    mfsa_count: int = 0
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    #: chunk-parallel strategy the merged side ran under ("" = the
    #: sequential run() path; see repro.engine.chunkscan)
    scan_strategy: str = ""


class HybridEngine:
    """Split compile + combined execution (see module docstring).

    ``backend`` passes straight through to the merged side's
    :class:`IMfantEngine`\\ s — any of ``python``/``lazy``/``dense``
    (the dense tier auto-promotes per engine once its lazy cache runs
    warm).  The counting side is its own engine and is unaffected.
    """

    def __init__(
        self,
        patterns: Sequence[str],
        merging_factor: int = 0,
        counting_threshold: int = DEFAULT_COUNTING_THRESHOLD,
        backend: str = "python",
        lazy_cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.patterns = list(patterns)
        self._counting_ids = [
            rule_id for rule_id, pattern in enumerate(self.patterns)
            if rule_needs_counting(pattern, counting_threshold)
        ]
        counting_set = set(self._counting_ids)
        self._merged_ids = [
            rule_id for rule_id in range(len(self.patterns)) if rule_id not in counting_set
        ]

        # Merged side: compile the regular rules together.  Rule ids are
        # positions within the sub-ruleset; remap back when reporting.
        self._mfsa_engines: list[IMfantEngine] = []
        self._merged_remap: dict[int, int] = {}
        if self._merged_ids:
            sub_patterns = [self.patterns[r] for r in self._merged_ids]
            compiled = compile_ruleset(
                sub_patterns, CompileOptions(merging_factor=merging_factor, emit_anml=False)
            )
            self._merged_remap = dict(enumerate(self._merged_ids))
            self._mfsas = list(compiled.mfsas)
            self._mfsa_engines = [
                IMfantEngine(m, backend=backend, lazy_cache_size=lazy_cache_size)
                for m in compiled.mfsas
            ]
            self._mfsa_count = len(compiled.mfsas)
        else:
            self._mfsas = []
            self._mfsa_count = 0
        self._backend = backend
        self._lazy_cache_size = lazy_cache_size

        # Counting side: one engine per outlier rule.
        self._counting_engines = [
            CountingSetEngine(build_counting_fsa(self.patterns[rule_id]), rule_id)
            for rule_id in self._counting_ids
        ]

    @property
    def counting_rule_ids(self) -> list[int]:
        return list(self._counting_ids)

    def run(self, data: bytes | str) -> tuple[set[tuple[int, int]], HybridReport]:
        report = HybridReport(
            merged_rules=len(self._merged_ids),
            counting_rules=len(self._counting_ids),
            mfsa_count=self._mfsa_count,
        )
        matches: set[tuple[int, int]] = set()
        with obs.span(
            "hybrid.run",
            merged_rules=report.merged_rules,
            counting_rules=report.counting_rules,
            mfsas=report.mfsa_count,
        ) as sp:
            with obs.span("hybrid.merged", engines=len(self._mfsa_engines)):
                for engine in self._mfsa_engines:
                    result = engine.run(data)
                    report.stats.merge(result.stats)
                    matches.update(
                        (self._merged_remap[rule], end) for rule, end in result.matches
                    )
            with obs.span("hybrid.counting", engines=len(self._counting_engines)):
                for engine in self._counting_engines:
                    result = engine.run(data)
                    report.stats.merge(result.stats)
                    matches |= result.matches
            sp.set(matches=len(matches))
        return matches, report

    def run_parallel(
        self,
        data: bytes | str,
        num_threads: int = 4,
        chunk_size: int = 4096,
        scan_strategy: str = "auto",
    ) -> tuple[set[tuple[int, int]], HybridReport]:
        """Chunk-parallel :meth:`run`: the merged side scans through
        :func:`repro.engine.chunkscan.chunk_scan` — overlap chunking for
        width-bounded MFSAs, zero-overlap SFA mappings for unbounded
        ones (``scan_strategy`` as in chunkscan; ``"auto"`` resolves per
        MFSA) — while the counting outliers run sequentially (a counting
        engine's register state does not chunk).  Matches are identical
        to :meth:`run`; per-engine stats are not collected on the
        chunked side (``report.stats`` covers the counting side only).
        """
        from repro.engine.chunkscan import chunk_scan, resolve_strategy

        report = HybridReport(
            merged_rules=len(self._merged_ids),
            counting_rules=len(self._counting_ids),
            mfsa_count=self._mfsa_count,
        )
        matches: set[tuple[int, int]] = set()
        used: set[str] = set()
        with obs.span(
            "hybrid.run_parallel",
            merged_rules=report.merged_rules,
            counting_rules=report.counting_rules,
            mfsas=report.mfsa_count,
            threads=num_threads,
        ) as sp:
            with obs.span("hybrid.merged", engines=len(self._mfsas)):
                for mfsa in self._mfsas:
                    used.add(resolve_strategy(mfsa, scan_strategy))
                    found = chunk_scan(
                        mfsa,
                        data,
                        strategy=scan_strategy,
                        chunk_size=chunk_size,
                        num_threads=num_threads,
                        backend=self._backend,
                        lazy_cache_size=self._lazy_cache_size,
                    )
                    matches.update(
                        (self._merged_remap[rule], end) for rule, end in found
                    )
            with obs.span("hybrid.counting", engines=len(self._counting_engines)):
                for engine in self._counting_engines:
                    result = engine.run(data)
                    report.stats.merge(result.stats)
                    matches |= result.matches
            report.scan_strategy = "+".join(sorted(used))
            sp.set(matches=len(matches), strategy=report.scan_strategy)
        return matches, report
