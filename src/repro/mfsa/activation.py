"""Activation-function semantics of MFSA execution (paper §III-B, Eqs. 4–6).

This module is the *reference* executor for MFSAs: a direct, readable
transcription of the formal rules, used as the oracle that the optimised
engines in :mod:`repro.engine` must agree with.

Per-state activation sets are bitmasks over dense rule slots.  One step of
the extended transition function Δ, for every arc ``q1 --c--> q2`` enabled
by the read character:

``J(q2) ∪= (J(q1) ∪ init(q1)) ∩ bel(q1→q2)``

* ``init(q1)`` adds every rule whose initial state is ``q1`` (Eq. 4 — a
  rule becomes active when its q0 is departed from; this also starts new
  match attempts at every stream offset, the iNFAnt convention);
* the intersection with the belonging set drops rules the traversed arc
  does not belong to (Eq. 6);
* a rule ``j`` with ``q2 ∈ F_j`` still active after the intersection
  yields a match (Eq. 5); with ``pop_on_final`` the engine also removes
  ``j`` from the arriving activation set, which is the paper's literal
  Eq. 5 (see DESIGN.md §5 for why *keep* is the default).

A path whose activation set empties dies — `J(q1) ∩ J(q2) ≠ ∅` along
every traversed arc is exactly the paper's transition-validity condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.mfsa.model import Mfsa, empty_matching_rules


@dataclass(frozen=True)
class ActivationConfig:
    """Execution-semantics knobs shared by the reference and the engines."""

    #: Apply Eq. 5 literally: deactivate a rule on the path that just
    #: produced its match.  Off by default (see DESIGN.md §5).
    pop_on_final: bool = False


def reference_match(
    mfsa: Mfsa,
    data: bytes | str,
    config: ActivationConfig | None = None,
) -> set[tuple[int, int]]:
    """Match the stream against every merged rule; returns
    ``{(rule_id, end_offset)}`` with 1-based end offsets.

    Rules whose language contains the empty string match at every offset
    ``0..len(data)`` (degenerate but well-defined; the synthetic rulesets
    never produce such rules).
    """
    config = config or ActivationConfig()
    payload = data.encode("latin-1") if isinstance(data, str) else data

    slots = mfsa.slot_of()
    slot_to_rule = {slot: rule for rule, slot in slots.items()}
    init_mask = mfsa.initial_mask_per_state()
    final_mask = mfsa.final_mask_per_state()
    bel_masks = mfsa.belonging_masks()

    matches: set[tuple[int, int]] = set()
    for rule in empty_matching_rules(mfsa):
        matches.update((rule, end) for end in range(len(payload) + 1))

    # Arc lists indexed by symbol for the reference step loop.
    by_symbol: list[list[tuple[int, int, int]]] = [[] for _ in range(256)]
    for i, t in enumerate(mfsa.transitions):
        entry = (t.src, t.dst, bel_masks[i])
        for byte in t.label.chars():
            by_symbol[byte].append(entry)

    activation = [0] * mfsa.num_states  # J per state
    for position, byte in enumerate(payload, start=1):
        incoming = [0] * mfsa.num_states
        for src, dst, bel in by_symbol[byte]:
            active = (activation[src] | init_mask[src]) & bel
            if active:
                incoming[dst] |= active
        activation = incoming
        for state, mask in enumerate(incoming):
            hit = mask & final_mask[state]
            if hit:
                for slot in iter_bits(hit):
                    matches.add((slot_to_rule[slot], position))
                if config.pop_on_final:
                    activation[state] &= ~hit
    return matches


def active_set_trace(mfsa: Mfsa, data: bytes | str) -> list[int]:
    """Per-position total number of active (state, rule) pairs — the
    quantity behind the paper's Table II active-FSA statistics."""
    payload = data.encode("latin-1") if isinstance(data, str) else data
    init_mask = mfsa.initial_mask_per_state()
    bel_masks = mfsa.belonging_masks()
    by_symbol: list[list[tuple[int, int, int]]] = [[] for _ in range(256)]
    for i, t in enumerate(mfsa.transitions):
        entry = (t.src, t.dst, bel_masks[i])
        for byte in t.label.chars():
            by_symbol[byte].append(entry)

    trace: list[int] = []
    activation = [0] * mfsa.num_states
    for byte in payload:
        incoming = [0] * mfsa.num_states
        for src, dst, bel in by_symbol[byte]:
            active = (activation[src] | init_mask[src]) & bel
            if active:
                incoming[dst] |= active
        activation = incoming
        trace.append(sum(mask.bit_count() for mask in activation))
    return trace


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
