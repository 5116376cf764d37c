"""Counting automata: bounded repetition without loop expansion.

The paper's pipeline *expands* bounded quantifiers (§IV-C, Fig. 5a),
which maximises merging but grows the automaton linearly in the bound —
`[^\\n]{1000}` becomes a thousand states, and the expansion budget in
:mod:`repro.automata.loops` refuses far earlier.  The related work the
paper cites ([12], Turoňová et al.'s counting-set automata) keeps such
loops *compressed* with a counter and matches them in O(1) amortised
work per byte.

A counting compile is the plain compile plus one kind of arc: a repeat
of one character class whose bound reaches the threshold becomes a
*counting arc*.  Loop expansion, Thompson construction and Algorithm 1
(:mod:`repro.mfsa.merge`, which compares arcs by a merge key) are the
plain pipeline's; this package keeps only what is specific to counting:

* :mod:`repro.counting.model` — the counting arc and the ε-free NFA
  that carries it;
* :mod:`repro.counting.build` — the counted-repeat predicate, the
  counting arc (with its ε bypass for ``{0,n}``) built inside Thompson's
  builder, the mixed-arc ε-removal and the trim;
* :mod:`repro.counting.mfsa` — the merged :class:`CountingMfsa`.

Execution lives in one place: ``IMfantEngine(cmfsa, backend="counting")``
runs the counting arcs as counter registers (:mod:`repro.engine.counting`).
A single rule is a one-rule MFSA —
``merge_fsas([(rule_id, build_counting_fsa(pattern))])`` — and a mixed
ruleset compiles through ``compile_ruleset(patterns,
CompileOptions(counting=True, count_threshold=N))``.

The counting ablation bench quantifies the trade-off against the
expansion pipeline across bound sizes.
"""

from repro.counting.build import (
    DEFAULT_MIN_COUNT_BOUND,
    build_counting_fsa,
    build_counting_fsa_from_ast,
)
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
]
