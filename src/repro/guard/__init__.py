"""repro.guard — resource governance and graceful degradation.

The robustness layer threaded through the whole compile→match pipeline:

* :mod:`repro.guard.errors` — the :class:`ReproError` taxonomy every
  subsystem's exceptions are re-parented under, plus the CLI exit-code
  mapping (0 ok, 1 error, 2 usage, 3 partial/quarantined, 4 budget);
* :mod:`repro.guard.budget` — :class:`Budget` limits (states,
  transitions, loop copies, modelled memory, wall-clock deadline) and
  the cooperative :class:`BudgetMeter` the construction passes and scan
  loops charge against;
* :mod:`repro.guard.quarantine` — the structured
  :class:`QuarantineReport` of isolated rules;
* :mod:`repro.guard.compiler` — :class:`GuardedCompiler`, bisection-
  based per-rule failure isolation around ``compile_ruleset``;
* :mod:`repro.guard.degrade` — :class:`GuardedMatcher`, the
  dense→lazy→python backend ladder plus per-rule fallback simulation
  for quarantined rules;
* :mod:`repro.guard.faultinject` — named injection points (compile
  faults, engine-step delay, cache pressure, allocation failure) that
  let tests and drills prove every failure surfaces as a taxonomy
  error, never a hang.

``GuardedCompiler``/``GuardedMatcher`` (and the degrade module's
ladder types) are exported lazily: they import the pipeline and engines,
which themselves import the error/budget half of this package, and the
lazy hop keeps that dependency cycle one-directional at import time.
"""

from __future__ import annotations

from repro.guard.errors import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    AllocationFailed,
    BudgetExceeded,
    CompileError,
    CountingBudgetExceeded,
    DeadlineExceeded,
    FormatError,
    LoopBudgetExceeded,
    MemoryBudgetExceeded,
    ReproError,
    RuleQuarantined,
    ScanDeadlineExceeded,
    UsageError,
    exit_code_for,
    stage_of,
)
from repro.guard.budget import Budget, BudgetMeter
from repro.guard.quarantine import QuarantineEntry, QuarantineReport
from repro.guard import faultinject

__all__ = [
    "ReproError",
    "UsageError",
    "CompileError",
    "FormatError",
    "BudgetExceeded",
    "LoopBudgetExceeded",
    "MemoryBudgetExceeded",
    "CountingBudgetExceeded",
    "AllocationFailed",
    "DeadlineExceeded",
    "ScanDeadlineExceeded",
    "RuleQuarantined",
    "exit_code_for",
    "stage_of",
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_USAGE",
    "EXIT_PARTIAL",
    "EXIT_BUDGET",
    "Budget",
    "BudgetMeter",
    "QuarantineEntry",
    "QuarantineReport",
    "faultinject",
    # lazily resolved (see __getattr__):
    "GuardedCompiler",
    "GuardedCompilation",
    "ON_ERROR_POLICIES",
    "GuardedMatcher",
    "GuardedRunResult",
    "DegradationStep",
    "BACKEND_LADDER",
]

_LAZY = {
    "GuardedCompiler": "repro.guard.compiler",
    "GuardedCompilation": "repro.guard.compiler",
    "ON_ERROR_POLICIES": "repro.guard.compiler",
    "GuardedMatcher": "repro.guard.degrade",
    "GuardedRunResult": "repro.guard.degrade",
    "DegradationStep": "repro.guard.degrade",
    "BACKEND_LADDER": "repro.guard.degrade",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
