"""Execution statistics gathered by the engines.

The counters capture the two work components that dominate automata
matching (and that the cost model of :mod:`repro.engine.cost` weighs):

* ``transitions_examined`` — every transition enabled by the read symbol
  is fetched and tested (iNFAnt is memory-bandwidth-bound on this);
* ``active_pair_total`` — Σ over positions of the number of active
  (state, rule) pairs, i.e. the activation-set management load, the
  quantity reported (for M = all) in the paper's Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Scan positions between scan-deadline checks, shared by every scanner
#: (python/lazy/counting loops, the dense tier, SFA mapping scans).  Each
#: scan reads it once at its start, so tests that need frequent checks
#: patch this one attribute.
DEADLINE_STRIDE = 4096


@dataclass
class ExecutionStats:
    """Counters for one engine run over one stream."""

    chars_processed: int = 0
    transitions_examined: int = 0
    transitions_taken: int = 0
    active_pair_total: int = 0
    max_state_activation: int = 0
    match_count: int = 0
    #: 64-bit words per activation mask (⌈rules/64⌉); every activation
    #: update touches this many words, so activation-management cost
    #: scales with it — the effect that makes huge merged automata pay
    #: for their active sets (paper §VI-C1, Table II discussion).
    mask_limbs: int = 1
    #: wall-clock seconds of the run (None when not timed)
    wall_seconds: float | None = None

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another run into this one (multi-automata totals)."""
        self.chars_processed += other.chars_processed
        self.transitions_examined += other.transitions_examined
        self.transitions_taken += other.transitions_taken
        self.active_pair_total += other.active_pair_total
        self.max_state_activation = max(self.max_state_activation, other.max_state_activation)
        self.mask_limbs = max(self.mask_limbs, other.mask_limbs)
        self.match_count += other.match_count
        if other.wall_seconds is not None:
            self.wall_seconds = (self.wall_seconds or 0.0) + other.wall_seconds

    @property
    def avg_active_pairs(self) -> float:
        """Average active (state, rule) pairs per consumed symbol."""
        if self.chars_processed == 0:
            return 0.0
        return self.active_pair_total / self.chars_processed

    def as_dict(self) -> dict[str, int | float | None]:
        """JSON-ready snapshot (the serve protocol's ``stats`` object)."""
        return {
            "chars_processed": self.chars_processed,
            "transitions_examined": self.transitions_examined,
            "transitions_taken": self.transitions_taken,
            "active_pair_total": self.active_pair_total,
            "max_state_activation": self.max_state_activation,
            "match_count": self.match_count,
            "mask_limbs": self.mask_limbs,
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class RunResult:
    """Matches plus statistics for one engine run."""

    matches: set[tuple[int, int]] = field(default_factory=set)
    stats: ExecutionStats = field(default_factory=ExecutionStats)
