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
    #: per char resolved by a warm lazy-DFA cache hit: one memo probe
    #: replaces the whole interpretive per-char body.  Misses pay the
    #: interpretive price but amortise to zero on stable config graphs.
    c_lazy: float = 1.5
    #: per char stepped through a compiled dense-tier row (one table
    #: index per byte — the cheapest per-byte path of any backend; run
    #: skipping only pushes it lower).
    c_dense: float = 0.4
    #: fixed per-char dispatch of the counting backend: the interpretive
    #: python body plus the counter-register advance.  The register work
    #: itself rides in the transition term (counting scans charge one
    #: examined transition per register per char), so this constant only
    #: carries the slightly heavier per-byte dispatch.  What the model
    #: cannot show directly — and the bench measures — is the
    #: *alternative* cost: the expanded automaton pays c_trans over a
    #: transition count linear in the repeat bound.
    c_counting_char: float = 2.2

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

    def backend_run_cost(self, stats: ExecutionStats, backend: str) -> float:
        """Modelled time of one run under a given execution backend.

        The counters are backend-invariant (every backend examines the
        same transitions); what differs is the machinery each backend
        pays to examine them:

        * ``python`` — the full interpretive model (:meth:`run_cost`).
        * ``lazy`` — one memo probe per char once the config graph is
          warm (the steady state the autotuner cares about).
        * ``dense`` — one compiled-table index per char.

        This is the *prior* used to rank backends without measurement;
        :func:`repro.pipeline.autotune.choose_backend` measures the
        real crossover and treats this model as the auditable
        prediction column.
        """
        if backend == "python":
            return self.run_cost(stats)
        if backend == "lazy":
            return self.c_lazy * stats.chars_processed
        if backend == "dense":
            return self.c_dense * stats.chars_processed
        if backend == "counting":
            return (
                self.c_counting_char * stats.chars_processed
                + self.c_trans * stats.transitions_examined
                + self.c_active * stats.active_pair_total * stats.mask_limbs
            )
        raise ValueError(f"unknown backend {backend!r}")

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
