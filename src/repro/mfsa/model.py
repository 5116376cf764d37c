"""The formal MFSA model: ``z = (Q, Σ, Δ, I, F, J, R)`` (paper §III-B).

An :class:`Mfsa` extends the plain NFA with:

* ``R`` — the identifiers of the merged FSAs (rules);
* per-transition *belonging* sets (which rules each transition derives
  from) — the ``bel`` vector of the paper's COO representation (Fig. 2);
* ``I`` — one initial state per rule (merged FSAs keep their own q0,
  possibly sharing the state with other rules' path interiors);
* ``F`` — per-rule final-state sets;
* the activation function ``J`` lives in the execution engines and in
  :mod:`repro.mfsa.activation`; the model stores the static data it needs
  (initial/final/belonging masks).

Rule identifiers are the caller's (global ruleset ids); internally each
rule also has a dense *slot* in ``[0, len(R))`` used for bitmask encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.automata.fsa import Fsa, Transition
from repro.labels import CharClass


@dataclass(frozen=True)
class MTransition:
    """One MFSA arc: ``src --label--> dst`` belonging to ``bel`` rules.

    ``bel`` is a frozenset of *rule ids* (not slots); the paper's ``bel``
    COO vector.
    """

    src: int
    dst: int
    label: CharClass
    bel: frozenset[int]

    def __repr__(self) -> str:
        ids = ",".join(str(r) for r in sorted(self.bel))
        return f"{self.src}-[{self.label.pattern()}|{{{ids}}}]->{self.dst}"


@dataclass
class Mfsa:
    """A Multi-RE FSA; see module docstring.

    Invariants (checked by :meth:`validate`):

    * every transition's ``bel`` is a non-empty subset of ``rule_ids``;
    * every rule has exactly one initial state and ≥1 final state;
    * per-rule projections are well-formed FSAs.
    """

    num_states: int = 0
    transitions: list[MTransition] = field(default_factory=list)
    #: rule id -> its initial state (the per-FSA q0; the model's I).
    initials: dict[int, int] = field(default_factory=dict)
    #: rule id -> its final states (the model's F, partitioned by rule).
    finals: dict[int, set[int]] = field(default_factory=dict)
    #: source pattern per rule (diagnostics / ANML round-trips).
    patterns: dict[int, str] = field(default_factory=dict)

    # -- basic accessors ---------------------------------------------------

    @property
    def rule_ids(self) -> list[int]:
        """R — the merged rule identifiers, in merge order."""
        return list(self.initials.keys())

    @property
    def num_rules(self) -> int:
        return len(self.initials)

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def add_state(self) -> int:
        state = self.num_states
        self.num_states += 1
        return state

    def add_transition(self, src: int, dst: int, label: CharClass, bel: Iterable[int]) -> None:
        bel_set = frozenset(bel)
        if not bel_set:
            raise ValueError("transition must belong to at least one rule")
        self.transitions.append(MTransition(src, dst, label, bel_set))

    # -- slots & masks (engine support) --------------------------------------

    def slot_of(self) -> dict[int, int]:
        """rule id -> dense slot index used by bitmask encodings."""
        return {rule: slot for slot, rule in enumerate(self.initials)}

    def initial_mask_per_state(self) -> list[int]:
        """For each state, bitmask (over slots) of rules whose q0 it is."""
        slots = self.slot_of()
        masks = [0] * self.num_states
        for rule, state in self.initials.items():
            masks[state] |= 1 << slots[rule]
        return masks

    def final_mask_per_state(self) -> list[int]:
        """For each state, bitmask (over slots) of rules it is final for."""
        slots = self.slot_of()
        masks = [0] * self.num_states
        for rule, states in self.finals.items():
            for state in states:
                masks[state] |= 1 << slots[rule]
        return masks

    def belonging_masks(self) -> list[int]:
        """Per-transition bitmask (over slots) of its belonging set."""
        slots = self.slot_of()
        out = []
        for t in self.transitions:
            mask = 0
            for rule in t.bel:
                mask |= 1 << slots[rule]
            out.append(mask)
        return out

    # -- projections & structure ---------------------------------------------

    def projection(self, rule: int) -> Fsa:
        """The plain FSA of one merged rule: transitions whose belonging
        contains ``rule``, with that rule's initial/finals.

        The merging algorithm must keep every projection isomorphic to the
        corresponding input FSA (after state renaming) — the central
        structural-correctness property.
        """
        if rule not in self.initials:
            raise KeyError(f"unknown rule id {rule}")
        arcs = [t for t in self.transitions if rule in t.bel]
        states = {self.initials[rule], *self.finals[rule]}
        for t in arcs:
            states.add(t.src)
            states.add(t.dst)
        mapping = {old: new for new, old in enumerate(sorted(states))}
        fsa = Fsa(num_states=len(mapping), initial=mapping[self.initials[rule]],
                  pattern=self.patterns.get(rule))
        fsa.finals = {mapping[f] for f in self.finals[rule]}
        for t in arcs:
            fsa.transitions.append(Transition(mapping[t.src], mapping[t.dst], t.label))
        return fsa

    def arcs_by_label(self) -> dict[int, list[int]]:
        """label mask -> indices of transitions with that label."""
        index: dict[int, list[int]] = {}
        for i, t in enumerate(self.transitions):
            index.setdefault(t.label.mask, []).append(i)
        return index

    def outgoing_index(self) -> dict[int, list[int]]:
        """src state -> transition indices."""
        index: dict[int, list[int]] = {}
        for i, t in enumerate(self.transitions):
            index.setdefault(t.src, []).append(i)
        return index

    def alphabet_mask(self) -> int:
        mask = 0
        for t in self.transitions:
            mask |= t.label.mask
        return mask

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        rules = set(self.initials)
        if set(self.finals) != rules:
            raise ValueError("initials/finals rule sets disagree")
        for rule, state in self.initials.items():
            if not 0 <= state < self.num_states:
                raise ValueError(f"initial state of rule {rule} out of range")
        for rule, states in self.finals.items():
            if not states:
                raise ValueError(f"rule {rule} has no final states")
            for state in states:
                if not 0 <= state < self.num_states:
                    raise ValueError(f"final state {state} of rule {rule} out of range")
        for t in self.transitions:
            if not 0 <= t.src < self.num_states or not 0 <= t.dst < self.num_states:
                raise ValueError(f"transition {t} out of range")
            if not t.bel <= rules:
                raise ValueError(f"transition {t} belongs to unknown rules {t.bel - rules}")
            if t.label.is_empty():
                raise ValueError(f"transition {t} has an empty label")
        # No duplicate (src, dst, label) arcs: merging must deduplicate.
        seen: set[tuple[int, int, int]] = set()
        for t in self.transitions:
            key = (t.src, t.dst, t.label.mask)
            if key in seen:
                raise ValueError(f"duplicate arc {t}")
            seen.add(key)

    def __repr__(self) -> str:
        return (
            f"Mfsa(states={self.num_states}, transitions={self.num_transitions}, "
            f"rules={self.num_rules})"
        )


def empty_matching_rules(mfsa) -> list[int]:
    """Rules whose initial state is final: their language holds ε, so
    they match at every offset ``0..n`` of an ``n``-byte stream.  Works
    on plain and counting automata alike."""
    return [rule for rule, q0 in mfsa.initials.items() if q0 in mfsa.finals[rule]]


def from_single_fsa(rule: int, fsa: Fsa, pattern: Optional[str] = None) -> Mfsa:
    """Wrap one ε-free FSA as a trivial MFSA (the M=1 / no-merging case;
    also Algorithm 1's ``generateNew(z, A[1])`` seeding step)."""
    if fsa.has_epsilon():
        raise ValueError("MFSA construction requires ε-free FSAs")
    mfsa = Mfsa(num_states=fsa.num_states)
    mfsa.initials[rule] = fsa.initial
    mfsa.finals[rule] = set(fsa.finals)
    if pattern or fsa.pattern:
        mfsa.patterns[rule] = pattern or fsa.pattern  # type: ignore[assignment]
    for t in fsa.transitions:
        mfsa.add_transition(t.src, t.dst, t.label, (rule,))  # type: ignore[arg-type]
    return mfsa


def validate_projections(mfsa: Mfsa, originals: dict[int, Fsa]) -> None:
    """Assert every per-rule projection is isomorphic to its input FSA.

    Exponential isomorphism search — test-sized automata only; production
    code relies on the merger's injective-relabeling guarantee instead.
    """
    from repro.automata.fsa import isomorphic

    for rule, original in originals.items():
        projected = mfsa.projection(rule)
        if not isomorphic(projected, original.trimmed()):
            raise AssertionError(f"projection of rule {rule} lost isomorphism")
