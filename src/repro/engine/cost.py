"""Work-based timing model for automata execution.

The paper's throughput and thread-scaling experiments (Figs. 9–10) time a
C++/-O3 engine on real hardware.  Pure Python cannot reproduce absolute
numbers, and CPython threads cannot reproduce 128-thread scaling, so the
scaling figures are driven by a deterministic *work model* calibrated on
the engines' measured counters (DESIGN.md §3, substitution 3):

``time(run) = c_char·chars + c_trans·transitions_examined
            + c_active·active_pair_total·mask_limbs``

* ``c_char`` — fixed per-symbol dispatch cost of one automaton run.  This
  term is what the MFSA amortises: a ruleset split over K automata pays
  it K times per input symbol.
* ``c_trans`` — per examined transition (memory-bandwidth term).
* ``c_active`` — per active (state, rule) pair per symbol, scaled by the
  activation-mask word count (⌈rules-per-MFSA/64⌉): every activation
  update touches that many words.  This is the superlinear activation-
  management overhead that makes huge-active-set datasets (paper: PRO,
  DS9) prefer intermediate merging factors at paper scale (the effect is
  neutral below 64 rules per MFSA, where masks fit one word).

The default coefficients are calibrated against the interpretive Python
engine's measured wall-clock ratios; the *shape* of the figures is
insensitive to moderate changes (the calibration ablation bench sweeps
them).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.counters import ExecutionStats


@dataclass(frozen=True)
class CostModel:
    """Linear work model over execution counters (arbitrary time units)."""

    c_char: float = 2.0
    c_trans: float = 0.3
    c_active: float = 0.2
    #: per transition where the simultaneous-run (entry-pair) half of an
    #: SFA mapping scan is live — the extra masked-OR width a mapping
    #: pays over a plain scan of the same chunk (repro.engine.sfa; the
    #: ``linear_ops`` counter).  Same order as ``c_trans``: both are one
    #: AND/OR on a (wider) integer.
    c_linear: float = 0.3

    def run_cost(self, stats: ExecutionStats) -> float:
        """Modelled execution time of one automaton run."""
        return (
            self.c_char * stats.chars_processed
            + self.c_trans * stats.transitions_examined
            + self.c_active * stats.active_pair_total * stats.mask_limbs
        )

    def mapping_run_cost(self, stats: ExecutionStats, linear_ops: int) -> float:
        """Modelled time of one SFA mapping scan (repro.engine.sfa):
        the const column costs exactly a plain run of the chunk; the
        entry-pair columns add ``c_linear`` per live linear transition.
        The ratio ``mapping_run_cost / run_cost`` is the mapping
        overhead κ — data-parallel mapping scans beat a sequential scan
        once the thread count exceeds κ (``benchmarks/bench_sfa_scaling.py``
        prices it per builtin).
        """
        return self.run_cost(stats) + self.c_linear * linear_ops

    def total_cost(self, runs: list[ExecutionStats]) -> float:
        """Sequential (single-thread) time for a list of runs."""
        return sum(self.run_cost(stats) for stats in runs)


def throughput(num_rules: int, data_size: int, total_time: float) -> float:
    """The paper's throughput metric: ``#RE_exe · D_size / Exe_time_tot``.

    For a set of MFSAs this is ``#MFSA · M · D_size / Σ time`` (§VI-C);
    the unit is rule-bytes per time unit.
    """
    if total_time <= 0:
        raise ValueError("total_time must be positive")
    return num_rules * data_size / total_time
