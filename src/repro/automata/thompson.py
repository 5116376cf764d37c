"""Thompson-like construction: regex AST → ε-NFA (paper §IV-B).

The construction walks the AST depth-first, encoding each leaf as a
two-state sub-FSA and combining sub-FSAs at the operator nodes, exactly
as the paper describes.  Every sub-FSA has one entry and one exit state;
ε-arcs glue them together and are removed afterwards by
:func:`repro.automata.epsilon.remove_epsilon`.

Finite repetition bounds are supported directly (by structural
expansion), so the builder accepts any AST; the pipeline nevertheless
runs :func:`repro.automata.loops.expand_loops` first so that the loop
expansion is an explicit, observable compilation pass as in the paper.
"""

from __future__ import annotations

from repro.frontend.ast import (
    Alternation,
    AstNode,
    Concat,
    Empty,
    Literal,
    Repeat,
)
from repro.automata.fsa import EPSILON, Fsa


class ThompsonBuilder:
    """Accumulates states/arcs; fragment = (entry, exit) state pair.

    :mod:`repro.counting.build` extends it: a counted repeat there
    becomes one counting arc, every other node builds here."""

    def __init__(self) -> None:
        self.fsa = Fsa()

    def state(self) -> int:
        return self.fsa.add_state()

    def arc(self, src: int, dst: int, label) -> None:
        self.fsa.add_transition(src, dst, label)

    # -- fragments ---------------------------------------------------------

    def build(self, node: AstNode) -> tuple[int, int]:
        if isinstance(node, Empty):
            return self._empty()
        if isinstance(node, Literal):
            return self._literal(node)
        if isinstance(node, Concat):
            return self._concat(node)
        if isinstance(node, Alternation):
            return self._alternation(node)
        if isinstance(node, Repeat):
            return self._repeat(node)
        raise TypeError(f"unknown AST node: {node!r}")

    def _empty(self) -> tuple[int, int]:
        entry = self.state()
        exit_ = self.state()
        self.arc(entry, exit_, EPSILON)
        return entry, exit_

    def _literal(self, node: Literal) -> tuple[int, int]:
        entry = self.state()
        exit_ = self.state()
        self.arc(entry, exit_, node.charclass)
        return entry, exit_

    def _concat(self, node: Concat) -> tuple[int, int]:
        entry, exit_ = self.build(node.parts[0])
        for part in node.parts[1:]:
            nxt_entry, nxt_exit = self.build(part)
            self.arc(exit_, nxt_entry, EPSILON)
            exit_ = nxt_exit
        return entry, exit_

    def _alternation(self, node: Alternation) -> tuple[int, int]:
        entry = self.state()
        exit_ = self.state()
        for branch in node.branches:
            b_entry, b_exit = self.build(branch)
            self.arc(entry, b_entry, EPSILON)
            self.arc(b_exit, exit_, EPSILON)
        return entry, exit_

    def _repeat(self, node: Repeat) -> tuple[int, int]:
        low, high = node.low, node.high
        if (low, high) == (0, None):
            return self._star(node.body)
        if (low, high) == (1, None):
            return self._plus(node.body)
        if (low, high) == (0, 1):
            return self._optional(node.body)
        # General bounds: expand structurally (equivalent to the AST-level
        # loop-expansion pass, kept here so the builder is total).
        if high is None:
            # x{m,} == x^m x*
            entry, exit_ = self._required_copies(node.body, low)
            star_entry, star_exit = self._star(node.body)
            self.arc(exit_, star_entry, EPSILON)
            return entry, star_exit
        # x{m,n} == x^m (x (x (...)?)?)? with n-m optional layers: each
        # layer starts with an ε-arc to the common end, so ε-closures stay
        # linear in n (a flat chain of x? layers makes them quadratic)
        if low == 0 and high == 0:
            return self._empty()
        entry, exit_ = (self._required_copies(node.body, low) if low else self._empty())
        if high == low:
            return entry, exit_
        end = self.state()
        for _ in range(high - low):
            b_entry, b_exit = self.build(node.body)
            self.arc(exit_, end, EPSILON)
            self.arc(exit_, b_entry, EPSILON)
            exit_ = b_exit
        self.arc(exit_, end, EPSILON)
        return entry, end

    def _required_copies(self, body: AstNode, count: int) -> tuple[int, int]:
        entry, exit_ = self.build(body)
        for _ in range(count - 1):
            nxt_entry, nxt_exit = self.build(body)
            self.arc(exit_, nxt_entry, EPSILON)
            exit_ = nxt_exit
        return entry, exit_

    def _star(self, body: AstNode) -> tuple[int, int]:
        entry = self.state()
        exit_ = self.state()
        b_entry, b_exit = self.build(body)
        self.arc(entry, b_entry, EPSILON)
        self.arc(b_exit, exit_, EPSILON)
        self.arc(entry, exit_, EPSILON)
        self.arc(b_exit, b_entry, EPSILON)
        return entry, exit_

    def _plus(self, body: AstNode) -> tuple[int, int]:
        entry = self.state()
        exit_ = self.state()
        b_entry, b_exit = self.build(body)
        self.arc(entry, b_entry, EPSILON)
        self.arc(b_exit, exit_, EPSILON)
        self.arc(b_exit, b_entry, EPSILON)
        return entry, exit_

    def _optional(self, body: AstNode) -> tuple[int, int]:
        entry, exit_ = self.build(body)
        self.arc(entry, exit_, EPSILON)
        return entry, exit_


def thompson_construct(node: AstNode, pattern: str | None = None) -> Fsa:
    """Build an ε-NFA recognising the language of ``node``.

    The result has exactly one initial and one final state and uses ε-arcs
    freely; run :func:`repro.automata.epsilon.remove_epsilon` to obtain the
    ε-free automaton the merger and engines require.
    """
    builder = ThompsonBuilder()
    entry, exit_ = builder.build(node)
    fsa = builder.fsa
    fsa.initial = entry
    fsa.finals = {exit_}
    fsa.pattern = pattern
    return fsa
