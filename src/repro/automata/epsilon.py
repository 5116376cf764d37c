"""ε-arc removal (paper §IV-C, pass 1).

ANML has no ε-moves and the merging algorithm compares labelled
transitions only, so the pipeline eliminates every ε-arc right after
Thompson construction.  The classic closure construction is used:

* ``closure(q)`` = all states reachable from ``q`` via ε-arcs only;
* for every state ``q``, every ``p ∈ closure(q)`` and every labelled arc
  ``p --c--> r``, the output has ``q --c--> r``;
* ``q`` is final iff ``closure(q)`` intersects the original finals.

The language is preserved exactly; the output is trimmed of unreachable
states and renumbered densely.
"""

from __future__ import annotations

from typing import Iterable

from repro.automata.fsa import Fsa, Transition
from repro.guard.budget import CHECK_STRIDE


def epsilon_closure(fsa: Fsa, seeds: Iterable[int]) -> set[int]:
    """ε-closure of a set of states."""
    eps_adj: dict[int, list[int]] = {}
    for t in fsa.transitions:
        if t.is_epsilon():
            eps_adj.setdefault(t.src, []).append(t.dst)
    closure = set(seeds)
    stack = list(closure)
    while stack:
        state = stack.pop()
        for nxt in eps_adj.get(state, ()):
            if nxt not in closure:
                closure.add(nxt)
                stack.append(nxt)
    return closure


def remove_epsilon(fsa: Fsa, *, meter=None, rule=None) -> Fsa:
    """Return an equivalent ε-free FSA (trimmed and densely renumbered).

    ``meter`` is an optional :class:`~repro.guard.budget.BudgetMeter`:
    the closure product can square the arc count, so each emitted arc is
    charged and the deadline is checked every
    :data:`~repro.guard.budget.CHECK_STRIDE` arcs.
    """
    if not fsa.has_epsilon():
        return fsa.trimmed()

    labelled_out: dict[int, list[Transition]] = {}
    for t in fsa.labelled_transitions():
        labelled_out.setdefault(t.src, []).append(t)

    closures = epsilon_closures(fsa)

    emitted = 0
    out = Fsa(num_states=fsa.num_states, initial=fsa.initial, pattern=fsa.pattern)
    seen_arcs: set[tuple[int, int, int]] = set()
    for q in range(fsa.num_states):
        for p in closures[q]:
            for t in labelled_out.get(p, ()):
                key = (q, t.dst, t.label.mask)  # type: ignore[union-attr]
                if key not in seen_arcs:
                    seen_arcs.add(key)
                    out.add_transition(q, t.dst, t.label)
                    if meter is not None:
                        emitted += 1
                        meter.charge_transitions(1, stage="single_opt", rule=rule)
                        if emitted % CHECK_STRIDE == 0:
                            meter.check_deadline(stage="single_opt", rule=rule)
        if closures[q] & fsa.finals:
            out.finals.add(q)

    return out.trimmed()


def epsilon_closures(fsa: Fsa) -> list[set[int]]:
    """The ε-closure of every state, indexed by state.

    Thompson output can contain ε-cycles (from ``(x*)*`` style nesting),
    so each closure is an iterative DFS with a visited set.  The counting
    builder's mixed ε-removal (:mod:`repro.counting.build`) reuses it.
    """
    eps_adj: dict[int, list[int]] = {}
    for t in fsa.epsilon_transitions():
        eps_adj.setdefault(t.src, []).append(t.dst)
    closures: list[set[int]] = []
    for start in range(fsa.num_states):
        closure = {start}
        stack = [start]
        while stack:
            state = stack.pop()
            for nxt in eps_adj.get(state, ()):
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        closures.append(closure)
    return closures
