"""Counter registers as one packed word: the runtime behind ``backend="counting"``.

A counting arc ``src ==[L]{low,high}==> dst`` of a
:class:`~repro.counting.mfsa.CountingMfsa` is a *register*: the set of
counts its live entries have reached.  Every register of an automaton
lives in one Python int ``R``, laid out once by :class:`RegisterBank`
(the word-level parallelism of the Shift-And line of work applied to
counting sets), so one byte costs a fixed handful of big-int operations
whatever the number of registers or live entries.

Layout.  Each (register, rule slot in its belonging set) pair owns one
*field* of ``w`` count bits plus one guard bit above them, where ``w``
is ``high`` for ``{low,high}`` and ``low`` for ``{low,}``.  Bit ``k`` of
a field means "an entry carrying this rule has count ``k + 1``".  A
register shared by several rules also gets one *presence* field whose
bit ``k`` means "some entry has count ``k + 1``", whatever rules it
carries.

Step.  Per byte::

    R = (((R << 1) | (R & sticky)) & keep[byte]) | entries

* the shift increments every count at once; a count past ``high``
  shifts into the guard bit, which ``keep`` never holds, so it expires;
* ``keep[byte]`` holds the field bits of every register whose label
  covers the byte, so a byte outside the label kills all of that
  register's counts at once;
* ``sticky`` is bit ``low - 1`` of each unbounded field: once an entry
  reaches ``low`` the bit stays until the label misses a byte, the OR of
  every count that ever reached the bound;
* ``entries`` sets bit 0 (count 1) of the field of every rule that
  ``(J(src) | init(src)) & bel`` carries into a register whose label
  covers the byte.  It depends only on the pre-step frontier and the
  byte, so the engine memoizes it beside the plain successor.

Exits.  ``window`` holds the in-range bits ``low - 1 … w - 1`` of each
rule field: the *top* bits of the field, since ``w`` is the largest
count it holds.  So ``(R + window) & guard`` has a field's guard bit set
exactly when one of its in-range bits is set: adding the field's window
carries out of the field iff the field's value reaches ``2**(low-1)``,
and the sum stays below ``2**(w+1)``, so no carry crosses into the next
field.  Each set guard bit decodes (:meth:`RegisterBank.exits`) to the
register's destination state and the rule slot that reaches it — the
activation mask the expanded automaton's exit arcs would deliver.  The
differential suite pins this equivalence against the loop-expanded
oracle.

Live entries.  An entry is one (register, count) pair whatever rules it
carries, so ``live`` is the popcount of ``R & live``: the non-sticky
bits of a single-rule register's field, or of a shared register's
presence field (its rule fields would count an entry once per rule).
"""

from __future__ import annotations

from repro.counting.mfsa import CountingMfsa
from repro.mfsa.activation import iter_bits

__all__ = ["RegisterBank"]


class RegisterBank:
    """The counting arcs of one automaton, compiled to the packed layout
    and its step tables (immutable; built once with the engine).  See
    the module docstring for what each table holds."""

    __slots__ = ("keep", "sticky", "window", "guard", "live", "_entry", "_exit")

    def __init__(self, cmfsa: CountingMfsa) -> None:
        slots = cmfsa.slot_of()
        init_mask = cmfsa.initial_mask_per_state()
        keep = [0] * 256
        sticky = window = guard = live = 0
        #: per register: (src, label, init(src), bel, ((rule bits, field bit 0), …))
        entry = []
        #: guard bit position -> (register, dst, slot bit)
        exit_of: dict[int, tuple[int, int, int]] = {}
        offset = 0
        for index, arc in enumerate(cmfsa.counting):
            low, high = arc.low, arc.high
            width = low if high is None else high
            full = (1 << width) - 1
            stick = 1 << (low - 1) if high is None else 0
            in_range = full >> (low - 1) << (low - 1)
            bel = 0
            for rule in arc.bel:
                bel |= 1 << slots[rule]
            rule_bits = [1 << slot for slot in iter_bits(bel)]
            if len(rule_bits) > 1:
                rule_bits.append(None)  # the presence field
            fields = []
            register = 0
            for bit in rule_bits:
                fields.append((bel if bit is None else bit, 1 << offset))
                register |= full << offset
                sticky |= stick << offset
                if bit is not None:
                    window |= in_range << offset
                    guard |= 1 << (offset + width)
                    exit_of[offset + width] = (index, arc.dst, bit)
                offset += width + 1
            # the last field placed counts entries once each
            live |= (full ^ stick) << (offset - width - 1)
            for byte in iter_bits(arc.label.mask):
                keep[byte] |= register
            entry.append((arc.src, arc.label.mask, init_mask[arc.src], bel, tuple(fields)))
        self.keep = keep
        self.sticky = sticky
        self.window = window
        self.guard = guard
        self.live = live
        self._entry = tuple(entry)
        self._exit = exit_of

    def __len__(self) -> int:
        return len(self._entry)

    def entries(self, frontier: tuple, byte: int) -> tuple[int, int]:
        """The entry word of one step and the number of registers it
        enters, from the *pre-step* ``frontier`` (sorted ``(state,
        activation-mask)`` pairs): a register whose label covers ``byte``
        receives ``(J(src) | init(src)) & bel``."""
        active = dict(frontier)
        word = entered = 0
        for src, label, init, bel, fields in self._entry:
            if label >> byte & 1:
                mask = (active.get(src, 0) | init) & bel
                if mask:
                    entered += 1
                    for rule_bits, field_bit in fields:
                        if mask & rule_bits:
                            word |= field_bit
        return word, entered

    def exits(self, fired: int) -> tuple[list[tuple[int, int]], int]:
        """Decode the guard bits ``fired`` (``(R + window) & guard``): the
        ``(dst, slot bit)`` pair of each in-range field, and the number
        of registers those fields belong to."""
        pairs = []
        registers = set()
        for position in iter_bits(fired):
            index, dst, bit = self._exit[position]
            pairs.append((dst, bit))
            registers.add(index)
        return pairs, len(registers)
