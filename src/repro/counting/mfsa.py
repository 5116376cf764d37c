"""Counting MFSA: the merging model extended to counting transitions.

Combines the paper's two threads that this repository implements
separately — MFSA merging (§III) and counting-set execution (related
work [12]) — into one model: a merged automaton whose transitions are
either plain belonging-annotated arcs (as in :class:`repro.mfsa.model.Mfsa`)
or *counting* arcs ``src ==[L]{low,high}==> dst`` that also carry a
belonging set.  Two counting arcs merge only when label *and* bounds are
identical, the natural extension of the paper's exact-CC rule;
:func:`repro.mfsa.merge.merge_fsas` merges both kinds of arc.

The type stays apart from :class:`~repro.mfsa.model.Mfsa` on purpose:
its plain arcs are called ``plain``, not ``transitions``, so consumers
that only know plain arcs (``reference_match``, ``MfsaTables.build``,
``SfaScanner``, ``DenseTier``, ``write_anml``) cannot take it for an
``Mfsa`` and drop its counters silently.

Rulesets like Ranges1 are full of shared counted runs
(``[0-9]{1,3}\\.`` …), so sharing the counter pays exactly like sharing
plain sub-paths; the ablation bench measures it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.labels import CharClass
from repro.mfsa.model import Mfsa, MTransition


@dataclass(frozen=True)
class CMTransition:
    """A counting arc with a belonging set."""

    src: int
    dst: int
    label: CharClass
    low: int
    high: Optional[int]
    bel: frozenset[int]

    def __repr__(self) -> str:
        bound = f"{{{self.low},{'' if self.high is None else self.high}}}"
        ids = ",".join(str(r) for r in sorted(self.bel))
        return f"{self.src}=[{self.label.pattern()}]{bound}|{{{ids}}}=>{self.dst}"


@dataclass
class CountingMfsa:
    """A merged automaton over plain + counting belonging-annotated arcs."""

    num_states: int = 0
    plain: list[MTransition] = field(default_factory=list)
    counting: list[CMTransition] = field(default_factory=list)
    initials: dict[int, int] = field(default_factory=dict)
    finals: dict[int, set[int]] = field(default_factory=dict)
    patterns: dict[int, str] = field(default_factory=dict)

    @property
    def rule_ids(self) -> list[int]:
        return list(self.initials.keys())

    @property
    def num_rules(self) -> int:
        return len(self.initials)

    @property
    def num_transitions(self) -> int:
        return len(self.plain) + len(self.counting)

    def add_state(self) -> int:
        state = self.num_states
        self.num_states += 1
        return state

    def slot_of(self) -> dict[int, int]:
        return {rule: slot for slot, rule in enumerate(self.initials)}

    def initial_mask_per_state(self) -> list[int]:
        slots = self.slot_of()
        masks = [0] * self.num_states
        for rule, state in self.initials.items():
            masks[state] |= 1 << slots[rule]
        return masks

    def final_mask_per_state(self) -> list[int]:
        slots = self.slot_of()
        masks = [0] * self.num_states
        for rule, states in self.finals.items():
            for state in states:
                masks[state] |= 1 << slots[rule]
        return masks

    # -- bridges to the plain model ---------------------------------------

    def plain_view(self) -> Mfsa:
        """An :class:`Mfsa` over only the plain arcs, sharing this
        automaton's state space and rule maps.  This is what the
        counting *engine backend* builds its symbol-indexed tables from:
        plain arcs run through the ordinary activation step while the
        counting arcs run through counter registers on the side."""
        view = Mfsa(num_states=self.num_states)
        view.transitions = list(self.plain)
        view.initials = dict(self.initials)
        view.finals = {rule: set(states) for rule, states in self.finals.items()}
        view.patterns = dict(self.patterns)
        return view

    def to_plain(self) -> Mfsa:
        """The equivalent plain MFSA when no counting arcs exist.

        The compile pipeline calls this after merging so rulesets whose
        bounded repeats all fell below the counting threshold (and thus
        expanded) come out as ordinary :class:`Mfsa` objects — every
        downstream consumer (SFA mappings, dense tier, ANML) then works
        unrestricted."""
        if self.counting:
            raise ValueError(
                f"cannot drop to a plain Mfsa: {len(self.counting)} counting "
                f"arc(s) remain (use expand())"
            )
        return self.plain_view()

    def expand(self) -> Mfsa:
        """Expand every counting arc into an equivalent state chain.

        ``src ==[L]{low,high}==> dst`` becomes the classic unrolled
        path: fresh states ``c_1 … c_{high-1}`` chained under ``L`` with
        an exit arc to ``dst`` after each count in ``[low, high]``;
        unbounded arcs (``high=None``) chain to ``low`` and finish with
        a self-loop state.  All minted arcs carry the counting arc's
        label and belonging set, so activation semantics are preserved
        exactly (property-tested against the register execution).

        This is the *ladder bridge*: it lets a counting-compiled
        automaton run on any plain backend (dense/lazy/python) when the
        counting backend is unavailable or demoted — at the price of
        exactly the state growth the counting backend avoids.
        """
        out = self.plain_view()
        seen = {(t.src, t.dst, t.label.mask) for t in out.transitions}

        def emit(src: int, dst: int, arc: CMTransition) -> None:
            # An exit arc can coincide with an existing plain arc (same
            # endpoints and label); NFA semantics make the duplicate a
            # no-op, and validate() rejects it, so skip.
            key = (src, dst, arc.label.mask)
            if key not in seen:
                seen.add(key)
                out.transitions.append(MTransition(src, dst, arc.label, arc.bel))

        for arc in self.counting:
            prev = arc.src
            if arc.high is not None:
                for count in range(1, arc.high + 1):
                    if count >= arc.low:
                        emit(prev, arc.dst, arc)
                    if count == arc.high:
                        break
                    nxt = out.add_state()
                    emit(prev, nxt, arc)
                    prev = nxt
            else:
                for _ in range(arc.low - 1):
                    nxt = out.add_state()
                    emit(prev, nxt, arc)
                    prev = nxt
                emit(prev, arc.dst, arc)
                loop = out.add_state()
                emit(prev, loop, arc)
                emit(loop, loop, arc)
                emit(loop, arc.dst, arc)
        out.validate()
        return out

    def validate(self) -> None:
        rules = set(self.initials)
        if set(self.finals) != rules:
            raise ValueError("initials/finals rule sets disagree")
        for rule, state in self.initials.items():
            if not 0 <= state < self.num_states:
                raise ValueError(f"initial of rule {rule} out of range")
        for rule, states in self.finals.items():
            if not states:
                raise ValueError(f"rule {rule} has no final states")
            for state in states:
                if not 0 <= state < self.num_states:
                    raise ValueError(f"final {state} of rule {rule} out of range")
        for t in self.plain:
            if not (0 <= t.src < self.num_states and 0 <= t.dst < self.num_states):
                raise ValueError(f"plain arc {t} out of range")
            if not t.bel <= rules:
                raise ValueError(f"plain arc {t} with unknown rules")
        for t in self.counting:
            if not (0 <= t.src < self.num_states and 0 <= t.dst < self.num_states):
                raise ValueError(f"counting arc {t} out of range")
            if not t.bel <= rules:
                raise ValueError(f"counting arc {t} with unknown rules")
            if t.low < 1 or (t.high is not None and t.high < t.low):
                raise ValueError(f"counting arc {t} with bad bounds")

    def __repr__(self) -> str:
        return (
            f"CountingMfsa(states={self.num_states}, plain={len(self.plain)}, "
            f"counting={len(self.counting)}, rules={self.num_rules})"
        )
