"""Counter registers: the runtime state behind ``backend="counting"``.

A counting arc ``src ==[L]{low,high}==> dst`` of a
:class:`~repro.counting.mfsa.CountingMfsa` becomes one *register*: a
compile-time :class:`RegisterSpec` (shared, immutable, indexed for the
scan loop by a :class:`RegisterBank`) plus per-run mutable counter
state in a :class:`RegisterFile`.  Counts are never stored explicitly —
an entry records the offset at which an activation mask entered the
arc, and its count is ``position - entry_offset``, so every live entry
"increments" for free as the scan advances (the counting-set trick of
Turoňová et al.).

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

A register that holds nothing and receives no entry does nothing on any
byte, so :meth:`RegisterFile.advance` steps only the *busy* registers
(holding entries or a saturated mask) and the ones an entry reaches
this byte; the running ``live`` entry total is kept up to date on every
push, expiry, saturation and reset instead of being recounted.
"""

from __future__ import annotations

from collections import deque

from repro.counting.mfsa import CountingMfsa

__all__ = ["RegisterSpec", "RegisterBank", "RegisterFile"]


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


class RegisterBank:
    """The counting arcs of one automaton, compiled for the scan loop
    (immutable; built with the engine, read by every run).

    Belonging sets and labels become slot/byte bitmasks, mirroring what
    :class:`~repro.engine.tables.MfsaTables` does for plain arcs.  The
    entry into register ``i`` on byte ``b`` is ``(J(src) | init(src)) &
    bel`` when its label covers ``b``; the bank splits that into the two
    tables :meth:`RegisterFile.advance` reads:

    * ``by_src`` — state → ``((index, label_mask, bel_mask), …)``, the
      registers a frontier state feeds;
    * ``seeds`` — byte → ``((index, init(src) & bel), …)``, the constant
      entries of registers leaving an initial state whose label covers
      the byte.
    """

    __slots__ = ("specs", "by_src", "seeds")

    def __init__(self, cmfsa: CountingMfsa) -> None:
        slots = cmfsa.slot_of()
        init_mask = cmfsa.initial_mask_per_state()
        specs = []
        by_src: dict[int, list] = {}
        seeds: list[list] = [[] for _ in range(256)]
        for index, arc in enumerate(cmfsa.counting):
            bel_mask = 0
            for rule in arc.bel:
                bel_mask |= 1 << slots[rule]
            label_mask = arc.label.mask
            specs.append(
                RegisterSpec(arc.src, arc.dst, arc.low, arc.high, bel_mask, label_mask)
            )
            by_src.setdefault(arc.src, []).append((index, label_mask, bel_mask))
            seed = init_mask[arc.src] & bel_mask
            if seed:
                for byte in range(256):
                    if label_mask >> byte & 1:
                        seeds[byte].append((index, seed))
        self.specs: tuple[RegisterSpec, ...] = tuple(specs)
        self.by_src = {state: tuple(outs) for state, outs in by_src.items()}
        self.seeds = [tuple(row) for row in seeds]

    def __len__(self) -> int:
        return len(self.specs)


class RegisterFile:
    """Mutable per-run counter state for all registers (see module doc).

    Engines instantiate one per :meth:`run` call, so a shared engine
    stays re-entrant the way the python backend's frontier dict does.
    ``live`` is the running count of entries held across all registers;
    ``entries_total`` / ``saturations_total`` feed the
    ``imfant_counting_*`` obs metrics after the scan.
    """

    __slots__ = (
        "bank",
        "pending",
        "front",
        "back",
        "back_or",
        "saturated",
        "busy",
        "live",
        "entries_total",
        "saturations_total",
    )

    def __init__(self, bank: RegisterBank) -> None:
        n = len(bank)
        self.bank = bank
        self.pending: list[deque] = [deque() for _ in range(n)]
        self.front: list[list] = [[] for _ in range(n)]
        self.back: list[list] = [[] for _ in range(n)]
        self.back_or = [0] * n
        self.saturated = [0] * n
        #: registers holding entries or a saturated mask
        self.busy: set[int] = set()
        self.live = 0
        self.entries_total = 0
        self.saturations_total = 0

    def advance(self, position: int, byte: int, frontier: tuple) -> list:
        """Advance every register over the byte at ``position`` (1-based)
        and return the ``(dst, exit_mask)`` pairs of the registers whose
        in-range union is non-empty.

        ``frontier`` is the *pre-step* configuration — sorted ``(state,
        activation-mask)`` pairs — from which the entries are computed.
        Only busy registers and registers receiving an entry are
        stepped; every other register is empty and stays so.
        """
        bank = self.bank
        bit = 1 << byte
        entering: dict[int, int] = {}
        by_src = bank.by_src
        for state, mask in frontier:
            outs = by_src.get(state)
            if outs is not None:
                for index, label_mask, bel_mask in outs:
                    if label_mask & bit:
                        entry = mask & bel_mask
                        if entry:
                            entering[index] = entry
        for index, seed in bank.seeds[byte]:
            entering[index] = entering.get(index, 0) | seed
        busy = self.busy
        if entering:
            busy = busy.union(entering)
        elif not busy:
            return []

        specs = bank.specs
        pendings = self.pending
        fronts = self.front
        backs = self.back
        back_ors = self.back_or
        saturateds = self.saturated
        live = self.live
        exits = []
        still = set()
        for index in busy:
            spec = specs[index]
            pending = pendings[index]
            if not (spec.label_mask & bit):
                # A non-matching byte breaks every run through this arc:
                # all counts die at once.
                front = fronts[index]
                back = backs[index]
                live -= len(pending) + len(front) + len(back)
                pending.clear()
                front.clear()
                back.clear()
                back_ors[index] = 0
                saturateds[index] = 0
                continue
            entry = entering.get(index, 0)
            low = spec.low
            high = spec.high
            if high is None:
                if entry:
                    pending.append((position - 1, entry))
                    self.entries_total += 1
                    live += 1
                out = saturateds[index]
                while pending and position - pending[0][0] >= low:
                    out |= pending.popleft()[1]
                    self.saturations_total += 1
                    live -= 1
                saturateds[index] = out
            else:
                front = fronts[index]
                back = backs[index]
                # Expire window entries whose count passed high.  Entry
                # offsets are distinct, so at most one leaves per byte;
                # the loop stays for safety and amortises to O(1).
                while True:
                    if front:
                        if position - front[-1][0] > high:
                            front.pop()
                            live -= 1
                            continue
                        break
                    if back and position - back[0][0] > high:
                        cum = 0
                        for start, mask in reversed(back):
                            cum |= mask
                            front.append((start, mask, cum))
                        back.clear()
                        back_ors[index] = 0
                        front.pop()
                        live -= 1
                        continue
                    break
                if entry:
                    pending.append((position - 1, entry))
                    self.entries_total += 1
                    live += 1
                # Mature pending entries whose count reached low (a
                # just-pushed entry matures immediately when low == 1).
                # low <= high, so a maturing entry never also expires
                # this byte.
                out = back_ors[index]
                while pending and position - pending[0][0] >= low:
                    matured = pending.popleft()
                    back.append(matured)
                    out |= matured[1]
                back_ors[index] = out
                if front:
                    out |= front[-1][2]
            # Masks are non-zero, so an empty output means an empty
            # window: the register is busy only while entries pend.
            if out:
                exits.append((spec.dst, out))
                still.add(index)
            elif pending:
                still.add(index)
        self.busy = still
        self.live = live
        return exits
