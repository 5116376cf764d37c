"""Counter registers: the runtime state behind ``backend="counting"``.

A counting arc ``src ==[L]{low,high}==> dst`` of a
:class:`~repro.counting.mfsa.CountingMfsa` becomes one *register*: a
compile-time :class:`RegisterSpec` (shared, immutable) plus per-run
mutable counter state in a :class:`RegisterFile`.  Counts are never
stored explicitly — an entry records the offset at which an activation
mask entered the arc, and its count is ``position - entry_offset``, so
every live entry "increments" for free as the scan advances (the
counting-set trick of Turoňová et al.).

The per-register state is split by maturity so each byte is O(1)
amortised even when thousands of entries are live:

* ``pending`` — a deque of ``(entry_offset, mask)`` with count < low,
  ordered by offset; at most one entry matures off the left per byte.
* the *window* — entries with low <= count <= high, kept as the classic
  two-stack sliding-window OR: ``back`` receives maturing entries (with
  ``back_or`` the running OR of their masks) and ``front`` holds
  ``(entry_offset, mask, cum)`` triples where ``cum`` ORs the element
  with everything pushed after it, so the window's total OR is
  ``front[-1].cum | back_or`` and expiring the oldest entry is a pop.
  Entries move ``back`` → ``front`` at most once in their lifetime.
* ``saturated`` — for unbounded arcs (``high=None``) matured masks
  accumulate into a sticky OR instead of a window; one non-matching
  byte resets it (and everything else).

The arc's per-byte contribution to the destination state is
``window_or | saturated`` — exactly the union of activation masks whose
counts are in range, which is what the expanded automaton's exit arcs
would deliver.  The differential suite pins this equivalence.
"""

from __future__ import annotations

from collections import deque

from repro.counting.mfsa import CountingMfsa

__all__ = ["RegisterSpec", "RegisterFile", "build_register_specs"]


class RegisterSpec:
    """One counting arc, compiled to slot-mask form (immutable, shared
    across :meth:`~repro.engine.imfant.IMfantEngine.fork` clones)."""

    __slots__ = ("src", "dst", "low", "high", "bel_mask", "label_mask")

    def __init__(
        self,
        src: int,
        dst: int,
        low: int,
        high: int | None,
        bel_mask: int,
        label_mask: int,
    ) -> None:
        self.src = src
        self.dst = dst
        self.low = low
        self.high = high
        self.bel_mask = bel_mask
        self.label_mask = label_mask

    def __repr__(self) -> str:
        bound = f"{{{self.low},{'' if self.high is None else self.high}}}"
        return f"RegisterSpec({self.src}=>{self.dst} {bound})"


def build_register_specs(cmfsa: CountingMfsa) -> tuple[RegisterSpec, ...]:
    """Compile the counting arcs into engine-ready register specs
    (belonging sets and labels become slot/byte bitmasks, mirroring
    what :class:`~repro.engine.tables.MfsaTables` does for plain arcs)."""
    slots = cmfsa.slot_of()
    specs = []
    for arc in cmfsa.counting:
        bel_mask = 0
        for rule in arc.bel:
            bel_mask |= 1 << slots[rule]
        specs.append(
            RegisterSpec(arc.src, arc.dst, arc.low, arc.high, bel_mask, arc.label.mask)
        )
    return tuple(specs)


class RegisterFile:
    """Mutable per-run counter state for all registers (see module doc).

    Engines instantiate one per :meth:`run` call, so a shared engine
    stays re-entrant the way the python backend's frontier dict does.
    ``entries_total`` / ``saturations_total`` / ``peak_live`` feed the
    ``imfant_counting_*`` obs metrics after the scan.
    """

    __slots__ = (
        "specs",
        "pending",
        "front",
        "back",
        "back_or",
        "saturated",
        "entries_total",
        "saturations_total",
        "peak_live",
    )

    def __init__(self, specs: tuple[RegisterSpec, ...]) -> None:
        n = len(specs)
        self.specs = specs
        self.pending: list[deque] = [deque() for _ in range(n)]
        self.front: list[list] = [[] for _ in range(n)]
        self.back: list[list] = [[] for _ in range(n)]
        self.back_or = [0] * n
        self.saturated = [0] * n
        self.entries_total = 0
        self.saturations_total = 0
        self.peak_live = 0

    def step(self, index: int, position: int, bit: int, entry_mask: int) -> int:
        """Advance register ``index`` over the byte at ``position``
        (1-based; ``bit`` is ``1 << byte``) and return the arc's
        contribution to its destination state.

        ``entry_mask`` is the caller-computed activation entering the
        arc this byte — ``(J(src) | init(src)) & bel`` — already zero
        when the label does not cover the byte.
        """
        spec = self.specs[index]
        pending = self.pending[index]
        front = self.front[index]
        back = self.back[index]
        if not (spec.label_mask & bit):
            # A non-matching byte breaks every run through this arc:
            # all counts die at once.
            if pending:
                pending.clear()
            if front:
                front.clear()
            if back:
                back.clear()
            self.back_or[index] = 0
            self.saturated[index] = 0
            return 0
        low = spec.low
        high = spec.high
        if high is not None:
            # Expire window entries whose count passed high.  Entry
            # offsets are distinct, so at most one leaves per byte; the
            # loops stay for safety and amortise to O(1).
            while True:
                if front:
                    if position - front[-1][0] > high:
                        front.pop()
                        continue
                    break
                if back and position - back[0][0] > high:
                    cum = 0
                    for start, mask in reversed(back):
                        cum |= mask
                        front.append((start, mask, cum))
                    back.clear()
                    self.back_or[index] = 0
                    front.pop()
                    continue
                break
        if entry_mask:
            pending.append((position - 1, entry_mask))
            self.entries_total += 1
        # Mature pending entries whose count reached low (a just-pushed
        # entry matures immediately when low == 1).  low <= high, so a
        # maturing entry never also expires this byte.
        if high is None:
            saturated = self.saturated[index]
            while pending and position - pending[0][0] >= low:
                saturated |= pending.popleft()[1]
                self.saturations_total += 1
            self.saturated[index] = saturated
            return saturated
        while pending and position - pending[0][0] >= low:
            start, mask = pending.popleft()
            back.append((start, mask))
            self.back_or[index] |= mask
        window_or = self.back_or[index]
        if front:
            window_or |= front[-1][2]
        return window_or | self.saturated[index]

    def live_entries(self) -> int:
        """Entries currently held across all registers (stats/obs hook;
        also tracks the high-water mark in ``peak_live``)."""
        live = 0
        for index in range(len(self.specs)):
            live += len(self.pending[index]) + len(self.front[index]) + len(self.back[index])
        if live > self.peak_live:
            self.peak_live = live
        return live
