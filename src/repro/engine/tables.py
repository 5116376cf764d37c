"""Engine pre-processing: symbol-indexed transition tables.

iNFAnt's core data structure "links each symbol in a standard
256-characters alphabet to the transitions it enables" (paper §V).  Both
engines build these tables once per automaton; building them is the
algorithm's pre-processing step and is timed separately by the pipeline.

Per symbol the tables hold Python lists of ``(src, dst)`` /
``(src, dst, bel_mask)`` tuples for the interpretive engines;
:func:`byte_classes` compresses them into the byte equivalence classes
the dense tier indexes by.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.fsa import Fsa
from repro.labels import ALPHABET_SIZE
from repro.mfsa.model import Mfsa, empty_matching_rules

_LIMB_BITS = 64


@dataclass(frozen=True)
class ByteClasses:
    """Byte equivalence classes of a symbol-indexed transition table.

    Two bytes are equivalent when they enable the *same* transition
    list — for any frontier they then produce identical steps, so a
    dense transition table only needs one column per class, not per
    byte (the classic alphabet-compression trick of table-driven DFA
    engines; cf. Bille's tabulation in PAPERS.md).  Real rulesets
    collapse 256 symbols to a few dozen classes.

    ``translate`` is a 256-byte table mapping byte → class id, built
    for ``payload.translate(translate)`` — alphabet compression of a
    whole buffer at C speed.
    """

    #: number of distinct classes (class ids are ``0..num_classes-1``)
    num_classes: int
    #: byte → class id, as a 256-byte ``bytes.translate`` table
    translate: bytes
    #: class id → one representative byte of the class
    representatives: tuple[int, ...]

    def class_of(self, byte: int) -> int:
        return self.translate[byte]

    def members(self, cls: int) -> list[int]:
        return [b for b in range(ALPHABET_SIZE) if self.translate[b] == cls]


def byte_classes(by_symbol: list) -> ByteClasses:
    """Partition the 256-symbol alphabet into byte equivalence classes.

    ``by_symbol`` is any symbol-indexed table whose entries are
    hashable-item lists (both :class:`FsaTables` pair lists and
    :class:`MfsaTables` triple lists qualify).  Classes are numbered in
    order of first appearance, so class ids are deterministic and the
    representative of class ``k`` is the smallest byte in it.
    """
    if len(by_symbol) != ALPHABET_SIZE:
        raise ValueError(
            f"by_symbol must index all {ALPHABET_SIZE} symbols (got {len(by_symbol)})"
        )
    ids: dict[tuple, int] = {}
    reps: list[int] = []
    table = bytearray(ALPHABET_SIZE)
    for byte in range(ALPHABET_SIZE):
        key = tuple(by_symbol[byte])
        cls = ids.get(key)
        if cls is None:
            cls = len(reps)
            ids[key] = cls
            reps.append(byte)
        table[byte] = cls
    return ByteClasses(
        num_classes=len(reps),
        translate=bytes(table),
        representatives=tuple(reps),
    )


def limbs_for(num_rules: int) -> int:
    """uint64 limbs needed for a bitmask over ``num_rules`` rule slots."""
    return max(1, (num_rules + _LIMB_BITS - 1) // _LIMB_BITS)


@dataclass
class FsaTables:
    """Symbol-indexed tables for one plain FSA (iNFAnt layout)."""

    num_states: int
    initial: int
    finals: frozenset[int]
    #: per symbol: list of (src, dst) pairs enabled by it
    by_symbol: list[list[tuple[int, int]]]
    accepts_empty: bool

    @classmethod
    def build(cls, fsa: Fsa) -> "FsaTables":
        if fsa.has_epsilon():
            raise ValueError("engines require ε-free FSAs")
        by_symbol: list[list[tuple[int, int]]] = [[] for _ in range(ALPHABET_SIZE)]
        for t in fsa.labelled_transitions():
            pair = (t.src, t.dst)
            for byte in t.label.chars():  # type: ignore[union-attr]
                by_symbol[byte].append(pair)
        return cls(
            num_states=fsa.num_states,
            initial=fsa.initial,
            finals=frozenset(fsa.finals),
            by_symbol=by_symbol,
            accepts_empty=fsa.initial in fsa.finals,
        )


@dataclass
class MfsaTables:
    """Symbol-indexed tables for one MFSA (iMFAnt layout).

    The extra per-state field the paper adds to the state vector — the
    activation function value — is supported via the ``init_mask`` /
    ``final_mask`` state vectors and the per-transition ``bel`` masks.
    """

    num_states: int
    num_rules: int
    #: dense slot -> caller rule id
    slot_to_rule: list[int]
    #: per state: bitmask of rules whose initial state it is
    init_mask: list[int]
    #: per state: bitmask of rules it is final for
    final_mask: list[int]
    #: per symbol: list of (src, dst, bel_mask) triples enabled by it
    by_symbol: list[list[tuple[int, int, int]]]
    #: rules whose language contains ε (match at every offset)
    empty_matching_rules: list[int]

    @classmethod
    def build(cls, mfsa: Mfsa) -> "MfsaTables":
        slots = mfsa.slot_of()
        slot_to_rule = [rule for rule, _ in sorted(slots.items(), key=lambda kv: kv[1])]
        init_mask = mfsa.initial_mask_per_state()
        final_mask = mfsa.final_mask_per_state()
        bel_masks = mfsa.belonging_masks()

        by_symbol: list[list[tuple[int, int, int]]] = [[] for _ in range(ALPHABET_SIZE)]
        for i, t in enumerate(mfsa.transitions):
            triple = (t.src, t.dst, bel_masks[i])
            for byte in t.label.chars():
                by_symbol[byte].append(triple)

        return cls(
            num_states=mfsa.num_states,
            num_rules=mfsa.num_rules,
            slot_to_rule=slot_to_rule,
            init_mask=init_mask,
            final_mask=final_mask,
            by_symbol=by_symbol,
            empty_matching_rules=empty_matching_rules(mfsa),
        )

    def byte_classes(self) -> ByteClasses:
        """Byte equivalence classes of this table (see :func:`byte_classes`)."""
        return byte_classes(self.by_symbol)
