"""NFA model extended with counting transitions.

A counting transition ``src ==[L]{low,high}==> dst`` consumes between
``low`` and ``high`` consecutive symbols, all members of the class ``L``
(``high is None`` = unbounded).  It is exactly equivalent to the
expanded chain of ``high`` plain transitions (or a loop, when
unbounded), but is stored — and executed — in constant space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.automata.fsa import Transition
from repro.labels import CharClass


@dataclass(frozen=True)
class CountingTransition:
    """One counting arc; see module docstring."""

    src: int
    dst: int
    label: CharClass
    low: int
    high: Optional[int]

    def __post_init__(self) -> None:
        if self.low < 1:
            raise ValueError("counting transitions require low >= 1 "
                             "(optional repeats add a plain bypass arc)")
        if self.high is not None and self.high < self.low:
            raise ValueError("counting upper bound below lower bound")
        if self.label.is_empty():
            raise ValueError("counting transition label must be non-empty")

    def __repr__(self) -> str:
        bound = f"{{{self.low},{'' if self.high is None else self.high}}}"
        return f"{self.src}=[{self.label.pattern()}]{bound}=>{self.dst}"


@dataclass
class CountingFsa:
    """An ε-free NFA with plain and counting transitions.

    ``plain`` holds :class:`repro.automata.fsa.Transition` arcs (never
    ε); states are dense ints, one initial state, a set of finals.
    The plain arcs are not called ``transitions``, so code written for
    :class:`~repro.automata.fsa.Fsa` cannot take this automaton for a
    plain one and drop its counting arcs.
    """

    num_states: int = 0
    initial: int = 0
    finals: set[int] = field(default_factory=set)
    plain: list[Transition] = field(default_factory=list)
    counting: list[CountingTransition] = field(default_factory=list)
    pattern: Optional[str] = None

    @property
    def num_transitions(self) -> int:
        return len(self.plain) + len(self.counting)

    def validate(self) -> None:
        def check(state: int) -> None:
            if not 0 <= state < self.num_states:
                raise ValueError(f"state {state} out of range")

        check(self.initial)
        for state in self.finals:
            check(state)
        for t in self.plain:
            check(t.src)
            check(t.dst)
            if t.label is None or t.label.is_empty():
                raise ValueError("empty plain-transition label")
        for arc in self.counting:
            check(arc.src)
            check(arc.dst)

    def __repr__(self) -> str:
        return (
            f"CountingFsa(states={self.num_states}, plain={len(self.plain)}, "
            f"counting={len(self.counting)})"
        )
