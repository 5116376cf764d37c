"""Step-by-step execution tracing for MFSAs.

The paper explains iMFAnt with annotated walk-throughs (Figs. 3 and 6):
for each consumed character, which states are active and with which
activation sets, and which matches fire.  ``trace_execution`` produces
exactly that narrative from a live MFSA — the debugging view for rule
authors ("why did/didn't my rule fire here?") and the machine-checkable
form of the paper's figures (the Fig. 6 walk-through is a test).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.engine.tables import MfsaTables
from repro.mfsa.activation import iter_bits
from repro.mfsa.model import Mfsa


@dataclass(frozen=True)
class StepTrace:
    """One consumed character's effect."""

    #: 1-based offset of the consumed character
    position: int
    #: the character (byte value)
    byte: int
    #: active states after the step: state -> sorted active rule ids (J)
    activation: dict[int, tuple[int, ...]]
    #: matches fired at this position: (rule, state) pairs
    fired: tuple[tuple[int, int], ...]

    def describe(self, alphabet: bool = True) -> str:
        char = chr(self.byte) if alphabet and 0x20 <= self.byte <= 0x7E else f"\\x{self.byte:02x}"
        parts = [f"@{self.position} '{char}':"]
        if not self.activation:
            parts.append("no active states (all paths discarded)")
        for state, rules in sorted(self.activation.items()):
            parts.append(f"q{state}{{J={','.join(map(str, rules))}}}")
        for rule, state in self.fired:
            parts.append(f"MATCH rule {rule} at q{state}")
        return " ".join(parts)


@dataclass
class ExecutionTrace:
    """Full trace of one run; iterable over steps."""

    steps: list[StepTrace] = field(default_factory=list)

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def matches(self) -> set[tuple[int, int]]:
        """(rule, end_offset) matches — agrees with the engines (tested)."""
        return {
            (rule, step.position) for step in self.steps for rule, _ in step.fired
        }

    def describe(self) -> str:
        return "\n".join(step.describe() for step in self.steps)

    def to_json(self, indent: int | None = None) -> str:
        """Serialise the trace (exportable next to repro.obs span dumps).

        The schema is stable and round-trips through :meth:`from_json`:
        activation keys become strings (JSON objects), rule tuples become
        lists; ``from_json`` restores the exact in-memory form.
        """
        return json.dumps(
            {
                "version": 1,
                "steps": [
                    {
                        "position": step.position,
                        "byte": step.byte,
                        "activation": {
                            str(state): list(rules)
                            for state, rules in sorted(step.activation.items())
                        },
                        "fired": [list(pair) for pair in step.fired],
                    }
                    for step in self.steps
                ],
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExecutionTrace":
        """Inverse of :meth:`to_json` (raises ``ValueError`` on bad input)."""
        document = json.loads(text)
        if not isinstance(document, dict) or "steps" not in document:
            raise ValueError("not an ExecutionTrace JSON document")
        steps = []
        for row in document["steps"]:
            steps.append(
                StepTrace(
                    position=int(row["position"]),
                    byte=int(row["byte"]),
                    activation={
                        int(state): tuple(int(r) for r in rules)
                        for state, rules in row["activation"].items()
                    },
                    fired=tuple(
                        (int(rule), int(state)) for rule, state in row["fired"]
                    ),
                )
            )
        return cls(steps=steps)


def trace_execution(mfsa: Mfsa, data: bytes | str) -> ExecutionTrace:
    """Run the iMFAnt semantics and record every step (see module doc)."""
    payload = data.encode("latin-1") if isinstance(data, str) else data
    tables = MfsaTables.build(mfsa)
    slot_to_rule = tables.slot_to_rule
    init_mask = tables.init_mask
    final_mask = tables.final_mask

    trace = ExecutionTrace()
    active: dict[int, int] = {}
    for position, byte in enumerate(payload, start=1):
        nxt: dict[int, int] = {}
        for src, dst, bel in tables.by_symbol[byte]:
            mask = (active.get(src, 0) | init_mask[src]) & bel
            if mask:
                nxt[dst] = nxt.get(dst, 0) | mask
        active = nxt

        activation: dict[int, tuple[int, ...]] = {}
        fired: list[tuple[int, int]] = []
        for state, mask in nxt.items():
            rules = tuple(sorted(slot_to_rule[s] for s in iter_bits(mask)))
            activation[state] = rules
            hit = mask & final_mask[state]
            for slot in iter_bits(hit):
                fired.append((slot_to_rule[slot], state))
        trace.steps.append(
            StepTrace(position=position, byte=byte, activation=activation,
                      fired=tuple(sorted(fired)))
        )
    return trace

