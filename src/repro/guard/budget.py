"""Resource budgets and the cooperative meter that enforces them.

A :class:`Budget` is an immutable description of what one governed
operation may consume; :meth:`Budget.start` mints a :class:`BudgetMeter`
— the mutable per-operation tracker the pipeline stages charge against.
Exceeding any limit raises a :class:`~repro.guard.errors.BudgetExceeded`
branch error carrying the limit, the usage and a counter snapshot; it
never hangs and never kills the process.

Design notes:

* **Cooperative, not preemptive.**  Every construction loop that can
  blow up (loop expansion, ε-removal, merging walks, subset
  construction) calls ``charge_*`` as it allocates, and the long
  construction loops call :meth:`BudgetMeter.check_deadline` every
  :data:`CHECK_STRIDE` iterations — a modulo plus a ``perf_counter``
  read, cheap enough for the hot path and entirely absent when no
  budget is configured (the meter is ``None`` and call sites skip it
  behind one ``is not None`` test, the same pattern :mod:`repro.obs`
  uses).
* **Memory is accounted, not measured.**  Portable RSS measurement from
  inside a hot loop is neither cheap nor deterministic, so the meter
  charges an *approximate* byte cost per state/transition
  (:data:`STATE_BYTES` / :data:`TRANSITION_BYTES`, sized for the python
  object layout).  The ceiling is therefore a modelled bound — exactly
  what a capacity planner wants to express — not an OS enforcement.
* **Deadlines are wall-clock** (``time.perf_counter``), measured from
  :meth:`Budget.start`, so one deadline covers a whole compile or scan
  regardless of how many stages it crosses.

Every budget violation increments the ``guard_budget_exceeded_total``
counter on the active :mod:`repro.obs` registry (when one is enabled).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.guard.errors import (
    BudgetExceeded,
    CountingBudgetExceeded,
    DeadlineExceeded,
    LoopBudgetExceeded,
    MemoryBudgetExceeded,
    UsageError,
)

__all__ = [
    "Budget",
    "BudgetMeter",
    "CHECK_STRIDE",
    "STATE_BYTES",
    "TRANSITION_BYTES",
    "COUNTING_REGISTER_BYTES",
]

#: Modelled bytes per automaton state / transition for the cooperative
#: memory accounting (python object layout: state sets, COO tuples,
#: belonging masks).  Deliberately round numbers — this is a capacity
#: model, not an allocator probe.
STATE_BYTES = 64
TRANSITION_BYTES = 128
#: Modelled bytes per counting register (its fields of the packed
#: register word and their rows in the step tables; a register holds
#: at most one entry per count, so the static charge covers the stream).
COUNTING_REGISTER_BYTES = 512

#: Inner-loop iterations between deadline checks in the metered
#: construction loops (ε-closure arc emission, merge seed search).
CHECK_STRIDE = 2048


def _count_budget_exceeded(resource: str) -> None:
    import repro.obs as obs

    registry = obs.get_registry()
    if registry is not None:
        registry.counter(
            "guard_budget_exceeded_total",
            help="resource-budget violations raised by the guard layer",
        ).inc()


@dataclass(frozen=True)
class Budget:
    """Limits for one governed compile or scan; ``None`` = unlimited.

    ``max_loop_copies`` caps the number of AST node copies a single
    bounded repeat may expand into *and* switches loop expansion into
    strict mode (over-budget repeats raise instead of staying
    compressed — the quarantine path needs the error).  Out-of-range
    limits raise :class:`~repro.guard.errors.UsageError`.
    """

    max_states: Optional[int] = None
    max_transitions: Optional[int] = None
    max_loop_copies: Optional[int] = None
    max_memory_bytes: Optional[int] = None
    max_counting_registers: Optional[int] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_states", "max_transitions", "max_loop_copies",
                     "max_memory_bytes", "max_counting_registers"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise UsageError(f"{name} must be >= 1 (got {value})")
        if self.deadline is not None and self.deadline <= 0:
            raise UsageError(f"deadline must be positive (got {self.deadline})")

    @property
    def unlimited(self) -> bool:
        """True when no limit at all is configured."""
        return (
            self.max_states is None
            and self.max_transitions is None
            and self.max_loop_copies is None
            and self.max_memory_bytes is None
            and self.max_counting_registers is None
            and self.deadline is None
        )

    def start(self) -> "BudgetMeter":
        """Begin one governed operation (starts the deadline clock)."""
        return BudgetMeter(self)


class BudgetMeter:
    """Mutable usage tracker for one governed operation (see module doc)."""

    __slots__ = (
        "budget",
        "started",
        "deadline_at",
        "states",
        "transitions",
        "loop_copies",
        "memory_bytes",
        "counting_registers",
    )

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.started = time.perf_counter()
        self.deadline_at = (
            self.started + budget.deadline if budget.deadline is not None else None
        )
        self.states = 0
        self.transitions = 0
        self.loop_copies = 0
        self.memory_bytes = 0
        self.counting_registers = 0

    # -- charging ---------------------------------------------------------

    def charge_states(self, n: int, *, stage: str, rule: Optional[int] = None) -> None:
        self.states += n
        self.memory_bytes += n * STATE_BYTES
        limit = self.budget.max_states
        if limit is not None and self.states > limit:
            self._raise(
                BudgetExceeded, "states", limit, self.states, stage, rule,
                f"state budget exceeded: {self.states} > {limit}",
            )
        self._check_memory(stage, rule)

    def charge_transitions(self, n: int, *, stage: str, rule: Optional[int] = None) -> None:
        self.transitions += n
        self.memory_bytes += n * TRANSITION_BYTES
        limit = self.budget.max_transitions
        if limit is not None and self.transitions > limit:
            self._raise(
                BudgetExceeded, "transitions", limit, self.transitions, stage, rule,
                f"transition budget exceeded: {self.transitions} > {limit}",
            )
        self._check_memory(stage, rule)

    def charge_automaton(
        self, num_states: int, num_transitions: int, *, stage: str, rule: Optional[int] = None
    ) -> None:
        """Charge one constructed automaton's footprint in one call."""
        self.charge_states(num_states, stage=stage, rule=rule)
        self.charge_transitions(num_transitions, stage=stage, rule=rule)

    def charge_loop_copies(
        self,
        n: int,
        *,
        stage: str = "ast_to_fsa",
        rule: Optional[int] = None,
        repeat: Optional[str] = None,
    ) -> None:
        """Charge ``n`` AST node copies minted by loop expansion.

        The error names the offending repeat sub-expression (and the
        rule, when known) — the provenance ``automata.loops`` hist-
        orically dropped.
        """
        self.loop_copies += n
        limit = self.budget.max_loop_copies
        if limit is not None and self.loop_copies > limit:
            who = f"rule {rule}: " if rule is not None else ""
            what = f"repeat {repeat!r} " if repeat else ""
            _count_budget_exceeded("loop_copies")
            raise LoopBudgetExceeded(
                f"{who}{what}pushed loop expansion to {self.loop_copies} copies "
                f"> budget {limit}",
                repeat=repeat,
                limit=limit,
                used=self.loop_copies,
                counters=self.snapshot(),
                stage=stage,
                rule=rule,
            )

    def charge_counting_registers(
        self, n: int, *, stage: str = "counting.registers", rule: Optional[int] = None
    ) -> None:
        """Charge ``n`` counter registers minted by the counting compile
        (one per counting arc).  Registers are cheap next to expanded
        state chains but not free — a ruleset of thousands of bounded
        repeats still deserves a ceiling, and the error names the rule
        that crossed it."""
        self.counting_registers += n
        self.memory_bytes += n * COUNTING_REGISTER_BYTES
        limit = self.budget.max_counting_registers
        if limit is not None and self.counting_registers > limit:
            _count_budget_exceeded("counting_registers")
            raise CountingBudgetExceeded(
                f"counting-register budget exceeded: {self.counting_registers} "
                f"> {limit}",
                limit=limit,
                used=self.counting_registers,
                counters=self.snapshot(),
                stage=stage,
                rule=rule,
            )
        self._check_memory(stage, rule)

    def charge_memory(self, nbytes: int, *, stage: str, rule: Optional[int] = None) -> None:
        self.memory_bytes += nbytes
        self._check_memory(stage, rule)

    # -- checking ---------------------------------------------------------

    def check_deadline(self, *, stage: str, rule: Optional[int] = None) -> None:
        """Raise :class:`DeadlineExceeded` once the wall clock runs out."""
        if self.deadline_at is not None and time.perf_counter() > self.deadline_at:
            limit = self.budget.deadline
            _count_budget_exceeded("wall_seconds")
            raise DeadlineExceeded(
                f"deadline of {limit:.3f}s exceeded after {self.elapsed:.3f}s",
                limit=limit,
                used=self.elapsed,
                counters=self.snapshot(),
                stage=stage,
                rule=rule,
            )

    def _check_memory(self, stage: str, rule: Optional[int]) -> None:
        limit = self.budget.max_memory_bytes
        if limit is not None and self.memory_bytes > limit:
            _count_budget_exceeded("memory_bytes")
            raise MemoryBudgetExceeded(
                f"modelled memory {self.memory_bytes} B exceeds ceiling {limit} B",
                limit=limit,
                used=self.memory_bytes,
                counters=self.snapshot(),
                stage=stage,
                rule=rule,
            )

    def _raise(
        self,
        cls: type,
        resource: str,
        limit: float,
        used: float,
        stage: str,
        rule: Optional[int],
        message: str,
    ) -> None:
        _count_budget_exceeded(resource)
        raise cls(
            message,
            resource=resource,
            limit=limit,
            used=used,
            counters=self.snapshot(),
            stage=stage,
            rule=rule,
        )

    # -- reporting --------------------------------------------------------

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def snapshot(self) -> dict:
        """The counters at this instant (embedded in errors and reports)."""
        return {
            "states": self.states,
            "transitions": self.transitions,
            "loop_copies": self.loop_copies,
            "memory_bytes": self.memory_bytes,
            "counting_registers": self.counting_registers,
            "elapsed_seconds": round(self.elapsed, 6),
        }
