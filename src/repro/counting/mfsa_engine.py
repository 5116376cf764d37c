"""Execution of counting MFSAs: activation masks + counting sets.

Combines the iMFAnt step (per-state activation bitmasks, Eqs. 4–6) with
the counting-set mechanics of :mod:`repro.counting.engine`.  Counting-
arc entries carry the activation mask they entered with:

* entering on a label byte from an active (or initial) source pushes
  ``(entry_offset, (J(src) ∪ init(src)) ∩ bel)``;
* while matching bytes keep arriving, counts increment implicitly and
  entries with count > high expire from the left;
* the arc's destination receives the union of the masks of all in-range
  entries (its Eq. 4–6 contribution), alongside the plain arcs';
* unbounded arcs saturate per mask: matured masks accumulate into a
  sticky union that resets on the first non-matching byte.

Per-rule matches of the merged automaton equal the per-rule counting
engines (property-tested), which themselves equal the expansion
reference.
"""

from __future__ import annotations

import time
from collections import deque

from repro.counting.mfsa import CountingMfsa
from repro.engine.counters import RunResult
from repro.labels import ALPHABET_SIZE
from repro.mfsa.activation import iter_bits


class CountingMfsaEngine:
    """Streaming matcher for one counting MFSA."""

    def __init__(self, cmfsa: CountingMfsa) -> None:
        cmfsa.validate()
        self.cmfsa = cmfsa
        slots = cmfsa.slot_of()
        self._slot_to_rule = [r for r, _ in sorted(slots.items(), key=lambda kv: kv[1])]
        self._init_mask = cmfsa.initial_mask_per_state()
        self._final_mask = cmfsa.final_mask_per_state()

        self._plain_by_symbol: list[list[tuple[int, int, int]]] = [
            [] for _ in range(ALPHABET_SIZE)
        ]
        for t in cmfsa.plain:
            bel_mask = 0
            for rule in t.bel:
                bel_mask |= 1 << slots[rule]
            entry = (t.src, t.dst, bel_mask)
            for byte in t.label.chars():
                self._plain_by_symbol[byte].append(entry)

        self._counting_bel: list[int] = []
        self._counting_masks: list[int] = []
        for arc in cmfsa.counting:
            bel_mask = 0
            for rule in arc.bel:
                bel_mask |= 1 << slots[rule]
            self._counting_bel.append(bel_mask)
            self._counting_masks.append(arc.label.mask)

    def run(self, data: bytes | str, collect_stats: bool = True) -> RunResult:
        payload = data.encode("latin-1") if isinstance(data, str) else data
        cmfsa = self.cmfsa
        plain_by_symbol = self._plain_by_symbol
        counting = cmfsa.counting
        counting_bel = self._counting_bel
        counting_masks = self._counting_masks
        init_mask = self._init_mask
        final_mask = self._final_mask
        slot_to_rule = self._slot_to_rule

        result = RunResult()
        stats = result.stats
        matches = result.matches
        for rule, q0 in cmfsa.initials.items():
            if q0 in cmfsa.finals[rule]:
                matches.update((rule, end) for end in range(len(payload) + 1))

        started = time.perf_counter()
        active: dict[int, int] = {}
        entries: list[deque[tuple[int, int]]] = [deque() for _ in counting]
        saturated: list[int] = [0] * len(counting)
        for position, byte in enumerate(payload, start=1):
            bit = 1 << byte
            nxt: dict[int, int] = {}
            enabled = plain_by_symbol[byte]
            for src, dst, bel in enabled:
                mask = (active.get(src, 0) | init_mask[src]) & bel
                if mask:
                    nxt[dst] = nxt.get(dst, 0) | mask

            for index, arc in enumerate(counting):
                queue = entries[index]
                if not (counting_masks[index] & bit):
                    if queue:
                        queue.clear()
                    saturated[index] = 0
                    continue
                if arc.high is not None:
                    while queue and position - queue[0][0] > arc.high:
                        queue.popleft()
                else:
                    while queue and position - queue[0][0] >= arc.low:
                        saturated[index] |= queue.popleft()[1]
                entry_mask = (active.get(arc.src, 0) | init_mask[arc.src]) & counting_bel[index]
                if entry_mask:
                    queue.append((position - 1, entry_mask))
                exit_mask = saturated[index]
                for start, mask in queue:
                    if position - start >= arc.low:
                        exit_mask |= mask
                    else:
                        break  # queue ordered by start: younger = smaller count
                if exit_mask:
                    nxt[arc.dst] = nxt.get(arc.dst, 0) | exit_mask

            active = nxt
            for state, mask in nxt.items():
                hit = mask & final_mask[state]
                if hit:
                    for slot in iter_bits(hit):
                        matches.add((slot_to_rule[slot], position))
            if collect_stats:
                stats.transitions_examined += len(enabled) + len(counting)
                live = sum(m.bit_count() for m in active.values())
                live += sum(len(q) for q in entries)
                stats.active_pair_total += live
                if live > stats.max_state_activation:
                    stats.max_state_activation = live

        stats.wall_seconds = time.perf_counter() - started
        stats.chars_processed = len(payload)
        stats.match_count = len(matches)
        return result

