"""Counting automata: bounded repetition without loop expansion.

The paper's pipeline *expands* bounded quantifiers (§IV-C, Fig. 5a),
which maximises merging but grows the automaton linearly in the bound —
`[^\\n]{1000}` becomes a thousand states, and the expansion budget in
:mod:`repro.automata.loops` refuses far earlier.  The related work the
paper cites ([12], Turoňová et al.'s counting-set automata) keeps such
loops *compressed* with a counter and matches them in O(1) amortised
work per byte.

This package implements the compile side of that comparator for the
common DPI shape — bounded repeats of a single character class:

* :mod:`repro.counting.model` — NFA extended with counting transitions;
* :mod:`repro.counting.build` — Thompson-like construction that keeps
  width-1 bounded repeats as counting loops (everything else builds as
  usual) plus the mixed-arc ε-removal;
* :mod:`repro.counting.merge` / :mod:`repro.counting.mfsa` — Algorithm 1
  over mixed plain/counting arcs, producing a :class:`CountingMfsa`.

Execution lives in one place: ``IMfantEngine(cmfsa, backend="counting")``
runs the counting arcs as counter registers (:mod:`repro.engine.counting`).
A single rule is a one-rule MFSA —
``merge_counting_fsas([(rule_id, build_counting_fsa(pattern))])`` — and
a mixed ruleset compiles through ``compile_ruleset(patterns,
CompileOptions(counting=True, count_threshold=N))``.

The counting ablation bench quantifies the trade-off against the
expansion pipeline across bound sizes.
"""

from repro.counting.build import (
    DEFAULT_MIN_COUNT_BOUND,
    build_counting_fsa,
    build_counting_fsa_from_ast,
)
from repro.counting.merge import CountingMergeReport, merge_counting_fsas
from repro.counting.mfsa import CMTransition, CountingMfsa
from repro.counting.model import CountingFsa, CountingTransition

__all__ = [
    "CountingFsa",
    "CountingTransition",
    "build_counting_fsa",
    "build_counting_fsa_from_ast",
    "DEFAULT_MIN_COUNT_BOUND",
    "CMTransition",
    "CountingMfsa",
    "CountingMergeReport",
    "merge_counting_fsas",
]
