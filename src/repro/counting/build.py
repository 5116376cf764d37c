"""Construction of counting NFAs from regex ASTs.

The plain pipeline's construction with one more kind of arc.  A repeat
of one character class whose bound reaches the threshold — the one
predicate :func:`counted_repeats` decides it — becomes a single
*counting arc* ``src ==[L]{low,high}==> dst``; an optional ``L{0,n}``
becomes a counting arc with ``low=1`` plus an ε bypass.  Everything else
is the plain pipeline's code: loop expansion
(:func:`repro.automata.loops.expand_loops`, which leaves the counted
repeats compressed) and Thompson construction
(:mod:`repro.automata.thompson`, whose builder this module extends for
counted repeats only).  A mixed-arc ε-removal over
:func:`repro.automata.epsilon.epsilon_closures`, trimmed to the reachable
states, produces the ε-free :class:`repro.counting.model.CountingFsa`.
"""

from __future__ import annotations

from typing import Callable

from repro.automata.epsilon import epsilon_closures
from repro.automata.fsa import EPSILON, Fsa, Transition
from repro.automata.loops import expand_loops
from repro.automata.thompson import ThompsonBuilder
from repro.counting.model import CountingFsa, CountingTransition
from repro.frontend.ast import AstNode, Literal, Repeat
from repro.frontend.parser import parse

#: Bounded repeats with high < this many copies expand instead of count.
DEFAULT_MIN_COUNT_BOUND = 4


def counted_repeats(threshold: int) -> Callable[[Repeat], bool]:
    """The predicate of the repeats that become counting arcs: a repeat
    of one character class whose upper bound — for an unbounded repeat,
    its lower bound — is at least ``threshold``.  Loop expansion keeps
    these compressed and the builder counts them."""

    def counted(node: Repeat) -> bool:
        bound = node.low if node.high is None else node.high
        return isinstance(node.body, Literal) and bound >= threshold

    return counted


class _CountingBuilder(ThompsonBuilder):
    """Thompson's builder; a counted repeat becomes a counting arc, kept
    on a side list until the ε-removal."""

    def __init__(self, counted: Callable[[Repeat], bool]) -> None:
        super().__init__()
        self.counted = counted
        self.counting: list[CountingTransition] = []

    def _repeat(self, node: Repeat) -> tuple[int, int]:
        if not self.counted(node):
            return super()._repeat(node)
        entry, exit_ = self.state(), self.state()
        label = node.body.charclass  # type: ignore[attr-defined]
        self.counting.append(
            CountingTransition(entry, exit_, label, max(1, node.low), node.high)
        )
        if node.low == 0:  # the counter counts from 1; ε takes zero
            self.arc(entry, exit_, EPSILON)
        return entry, exit_


def build_counting_fsa(
    pattern: str,
    min_count_bound: int = DEFAULT_MIN_COUNT_BOUND,
) -> CountingFsa:
    """Compile a pattern into an ε-free counting NFA: loop expansion of
    the repeats that do not count, then the construction."""
    ast = expand_loops(parse(pattern), keep=counted_repeats(min_count_bound))
    return build_counting_fsa_from_ast(ast, pattern, min_count_bound)


def build_counting_fsa_from_ast(
    ast: AstNode,
    pattern: str,
    min_count_bound: int = DEFAULT_MIN_COUNT_BOUND,
) -> CountingFsa:
    """Build an already-parsed (and loop-expanded) AST.  Bounded repeats
    that neither count nor were expanded build as Thompson's linear
    chain of optional layers."""
    builder = _CountingBuilder(counted_repeats(min_count_bound))
    entry, exit_ = builder.build(ast)
    return _remove_epsilon(builder.fsa, builder.counting, entry, exit_, pattern)


def _remove_epsilon(
    nfa: Fsa,
    counting: list[CountingTransition],
    initial: int,
    final: int,
    pattern: str,
) -> CountingFsa:
    """The closure construction of :mod:`repro.automata.epsilon` over
    the plain and the counting arcs together, kept to the states the
    initial state reaches (the trim) and numbered densely in state
    order.  Each arc the builder makes enters a state of its own, so no
    arc comes out twice."""
    out_arcs: dict[int, list] = {}
    for arc in [*nfa.labelled_transitions(), *counting]:
        out_arcs.setdefault(arc.src, []).append(arc)
    closures = epsilon_closures(nfa)
    reached = {initial}
    stack = [initial]
    while stack:
        for p in closures[stack.pop()]:
            for arc in out_arcs.get(p, ()):
                if arc.dst not in reached:
                    reached.add(arc.dst)
                    stack.append(arc.dst)
    rename = {old: new for new, old in enumerate(sorted(reached))}

    fsa = CountingFsa(num_states=len(rename), initial=rename[initial], pattern=pattern)
    for q, src in rename.items():
        for p in closures[q]:
            for arc in out_arcs.get(p, ()):
                dst = rename[arc.dst]
                if isinstance(arc, CountingTransition):
                    fsa.counting.append(
                        CountingTransition(src, dst, arc.label, arc.low, arc.high)
                    )
                else:
                    fsa.plain.append(Transition(src, dst, arc.label))
        if final in closures[q]:
            fsa.finals.add(src)
    return fsa
