"""The baseline iNFAnt engine: streaming NFA matching over one FSA.

The algorithm (Cascarano et al., 2010, as summarised in paper §V): for
each input character, every transition the character enables is
evaluated; a move is performed when its source state is active *or
initial* (new match attempts start at every offset); destination states
form the next state vector; reaching a final state reports a match.

The state vector is a Python set of states; simple and fast on sparse
activity.  Work counters feed the cost model.
"""

from __future__ import annotations

import time

import repro.obs as obs
from repro.automata.fsa import Fsa
from repro.engine.counters import RunResult
from repro.engine.tables import FsaTables


class INfantEngine:
    """Single-FSA streaming matcher with iNFAnt's evaluation strategy."""

    def __init__(self, fsa: Fsa, rule_id: int = 0) -> None:
        self.rule_id = rule_id
        self.tables = FsaTables.build(fsa)

    def run(self, data: bytes | str, collect_stats: bool = True) -> RunResult:
        """Scan the stream; returns ``(rule_id, end_offset)`` matches.

        ``collect_stats`` controls the per-character counter updates (a
        few percent overhead; benchmarks that only need timing switch it
        off).
        """
        payload = data.encode("latin-1") if isinstance(data, str) else data
        with obs.span(
            "infant.run",
            rule=self.rule_id,
            states=self.tables.num_states,
            bytes=len(payload),
        ) as sp:
            result = self._run(payload, collect_stats)
            sp.set(matches=result.stats.match_count)
        return result

    def _run(self, payload: bytes, collect_stats: bool) -> RunResult:
        tables = self.tables
        by_symbol = tables.by_symbol
        finals = tables.finals
        initial = tables.initial

        result = RunResult()
        stats = result.stats
        matches = result.matches
        if tables.accepts_empty:
            matches.update((self.rule_id, end) for end in range(len(payload) + 1))

        sampler = obs.engine_sampler("infant")
        stride = sampler.stride if sampler is not None else 0
        started = time.perf_counter()
        active: set[int] = set()
        for position, byte in enumerate(payload, start=1):
            enabled = by_symbol[byte]
            nxt: set[int] = set()
            for src, dst in enabled:
                if src == initial or src in active:
                    nxt.add(dst)
            active = nxt
            if active & finals:
                matches.add((self.rule_id, position))
            if collect_stats:
                stats.transitions_examined += len(enabled)
                stats.active_pair_total += len(active)
                if len(active) > stats.max_state_activation:
                    stats.max_state_activation = len(active)
            if sampler is not None and position % stride == 0:
                # one rule: active pairs == frontier width == |active|
                sampler.observe(len(active), len(active), len(enabled))
        stats.wall_seconds = time.perf_counter() - started
        stats.chars_processed = len(payload)
        stats.match_count = len(matches)
        return result
