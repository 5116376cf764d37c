"""Loop expansion (paper §IV-C, pass 2 — Fig. 5a).

Quantified sub-REs with *finite* bounds are rewritten into explicit
concatenations of copies so that a compressed loop such as ``(fg){2}``
becomes the linear path ``fgfg`` and can share transitions with other REs
during merging.  Unbounded tails keep a single star loop (``x{2,}`` →
``xx(x)*``): unbounded repetitions cannot be expanded and the paper keeps
them as loops too.

The pass is an AST→AST rewrite, applied before Thompson construction.  An
expansion budget guards against pathological bounds (``x{1000000}``)
blowing up the automaton; patterns exceeding it are left compressed and
reported via :class:`LoopExpansionReport`.

When a :class:`~repro.guard.budget.BudgetMeter` with ``max_loop_copies``
is supplied the cap flows from the budget instead of the module default
and enforcement is strict: the offending pattern is *not* silently kept
compressed — a :class:`~repro.guard.errors.LoopBudgetExceeded` naming
the rule and the exact repeat sub-expression is raised.

A counting compile passes ``keep``, the predicate that picks the repeats
it counts (:func:`repro.counting.build.counted_repeats`): those stay
compressed, free of the budget, for the builder to turn into counting
arcs; every other repeat expands as usual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.frontend.ast import (
    AstNode,
    Empty,
    Repeat,
    alternation,
    concat,
    map_ast,
)

#: Default maximum number of body copies a single Repeat may expand into.
DEFAULT_EXPANSION_BUDGET = 256


@dataclass
class LoopExpansionReport:
    """What the pass did: how many loops expanded / kept compressed."""

    expanded: int = 0
    kept_unbounded: int = 0
    over_budget: list[str] = field(default_factory=list)


def expand_loops(
    node: AstNode,
    budget: int = DEFAULT_EXPANSION_BUDGET,
    report: LoopExpansionReport | None = None,
    *,
    meter=None,
    rule: Optional[int] = None,
    keep: Optional[Callable[[Repeat], bool]] = None,
) -> AstNode:
    """Rewrite finite repetitions into concatenations (see module doc).

    ``meter`` is an optional :class:`~repro.guard.budget.BudgetMeter`;
    when it carries ``max_loop_copies`` that cap replaces ``budget`` and
    over-budget repeats raise instead of staying compressed, with the
    error naming ``rule`` and the offending repeat.  Repeats for which
    ``keep`` holds are left as they are.
    """
    stats = report if report is not None else LoopExpansionReport()
    strict = meter is not None and meter.budget.max_loop_copies is not None
    if strict:
        budget = meter.budget.max_loop_copies

    def charge(n: Repeat, copies: int) -> bool:
        """Account for ``copies`` body copies; True means within budget."""
        if strict:
            # Raises LoopBudgetExceeded naming the rule and repeat.
            meter.charge_loop_copies(copies, rule=rule, repeat=n.pattern())
            return True
        if copies > budget:
            stats.over_budget.append(n.pattern())
            return False
        return True

    def rewrite(n: AstNode) -> AstNode:
        if not isinstance(n, Repeat) or (keep is not None and keep(n)):
            return n
        low, high = n.low, n.high
        if (low, high) in ((0, None), (1, None)):
            stats.kept_unbounded += 1
            return n
        if high is None:
            # x{m,} -> x^m x*
            if not charge(n, low):
                return n
            stats.expanded += 1
            stats.kept_unbounded += 1
            return concat([n.body] * low + [Repeat(n.body, 0, None)])
        if not charge(n, high):
            return n
        stats.expanded += 1
        return _expand_bounded(n.body, low, high)

    return map_ast(node, rewrite)


def _expand_bounded(body: AstNode, low: int, high: int) -> AstNode:
    """``x{low,high}`` with finite bounds → required copies + optional tail.

    The optional tail is built as nested optionals
    ``x^low (x (x ... )?)?`` to keep the automaton linear in ``high``.
    """
    if high == 0:
        return Empty()
    required: list[AstNode] = [body] * low
    optional: AstNode | None = None
    for _ in range(high - low):
        layer = body if optional is None else concat([body, optional])
        optional = _optionalize(layer)
    parts = required + ([optional] if optional is not None else [])
    return concat(parts)


def _optionalize(node: AstNode) -> AstNode:
    """``x?`` rendered without a Repeat node, as ``(x|ε)``.

    Using an alternation keeps the expanded AST free of quantifiers, so a
    fully expanded bounded repeat contains no loops at all.
    """
    return alternation([node, Empty()])
