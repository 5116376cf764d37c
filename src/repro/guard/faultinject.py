"""Fault injection: deterministic failure drills for the guard layer.

Production resilience claims ("a bad rule is quarantined", "a stalled
scan hits its deadline", "allocation failure degrades the backend") are
only worth anything if they are *exercised*; this module provides the
switchboard.  Injection points are string-named; each site in the
pipeline calls :func:`fire` (or :func:`value`) with its point name and
context, and the call is a no-op single dict test unless that point was
armed — hot loops additionally gate the call behind their existing
stride checks, so the disarmed cost on the scan path is zero.

Points
======

``compile.rule``
    Raise :class:`InjectedFaultError` while compiling a rule.  The arg
    selects the victim: a substring matched against the rule's pattern
    text (``True`` = every rule).  Fired in the per-rule frontend loop.
``compile.stage``
    Raise :class:`InjectedFaultError` on entry to a named compile stage
    (arg = stage name: ``frontend``, ``ast_to_fsa``, ``single_opt``,
    ``merging``, ``backend``; ``True`` = first stage).
``engine.step_delay``
    Sleep ``arg`` seconds at every engine deadline-check stride — the
    "slow adversarial payload" simulator that lets tests trip scan
    deadlines deterministically.
``lazy.cache_pressure``
    Clamp the lazy backend's transition-cache budget to ``arg`` entries
    (``True`` = 1): every step evicts, the cache thrashes, and the
    degradation ladder must react.  Read via :func:`value` at cache
    construction.
``alloc``
    Raise :class:`MemoryError` during engine backend setup.  The arg
    selects the backend name (``True`` = any); the engine wraps it into
    :class:`~repro.guard.errors.AllocationFailed`.
``counting.register_pressure``
    Raise :class:`MemoryError` while the counting backend allocates its
    counter registers (``True`` = any allocation; an int = only when at
    least that many registers are requested).  The engine wraps it into
    :class:`~repro.guard.errors.AllocationFailed` with the
    ``counting.registers`` stage, so guarded matchers step the ladder
    (counting → lazy) instead of crashing.
``serve.worker.kill``
    Hard-kill the shard worker *process* (``os._exit``) on scan entry —
    the dead-worker drill the :class:`~repro.serve.resilience.
    ShardSupervisor` must recover from.  Only fired from process-mode
    workers (killing a thread worker would kill the whole service).
    ``True`` = every scan; a float in (0, 1) = per-scan probability.
``serve.worker.hang``
    Sleep on shard-scan entry, ignoring the engine deadline — the
    wedged-worker drill for the per-scan watchdog.  The arg is the hang
    in seconds (``True`` = 30).
``serve.conn.drop``
    Drop the server-side connection instead of writing a reply — the
    client sees a mid-frame EOF and must reconnect/retry.  ``True`` =
    every reply; a float in (0, 1) = probability.  Read via
    :func:`decide` in the reply path.
``serve.frame.truncate``
    Write only the first half of a response frame, then drop the
    connection — the torn-frame drill for the client's
    :class:`~repro.guard.errors.ConnectionLost` handling.  Arg as for
    ``serve.conn.drop``.

Activation
==========

Programmatic (tests)::

    with faultinject.inject("compile.rule", "EVIL"):
        GuardedCompiler(...).compile(patterns)

Environment (CLI / CI)::

    REPRO_FAULTS='engine.step_delay=0.01,alloc=lazy' repro match ...

The environment is parsed once at import; :func:`load_env` re-reads it.
Injection state is process-global and **not** thread-scoped on purpose:
faults must reach pool workers too.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.guard.errors import CompileError

__all__ = [
    "POINTS",
    "InjectedFaultError",
    "inject",
    "fire",
    "decide",
    "value",
    "is_active",
    "active_points",
    "arm",
    "disarm",
    "clear",
    "load_env",
]

POINTS = (
    "compile.rule",
    "compile.stage",
    "engine.step_delay",
    "lazy.cache_pressure",
    "alloc",
    "counting.register_pressure",
    "serve.worker.kill",
    "serve.worker.hang",
    "serve.conn.drop",
    "serve.frame.truncate",
)

_ACTIVE: Dict[str, Any] = {}


class InjectedFaultError(CompileError):
    """The error an armed compile injection point raises.  A
    :class:`~repro.guard.errors.CompileError`, so everything downstream
    (quarantine, exit codes, the CLI handler) treats it like a real
    compile failure — which is the point."""

    default_stage = "faultinject"


def arm(point: str, arg: Any = True) -> None:
    """Arm an injection point until :func:`disarm`/:func:`clear`."""
    if point not in POINTS:
        raise ValueError(f"unknown fault point {point!r}; choose from {POINTS}")
    _ACTIVE[point] = arg


def disarm(point: str) -> None:
    _ACTIVE.pop(point, None)


def clear() -> None:
    """Disarm everything (test teardown)."""
    _ACTIVE.clear()


def is_active(point: str) -> bool:
    return point in _ACTIVE


def active_points() -> tuple:
    return tuple(sorted(_ACTIVE))


def value(point: str, default: Any = None) -> Any:
    """The armed arg for ``point`` (``default`` when disarmed)."""
    return _ACTIVE.get(point, default)


@contextmanager
def inject(point: str, arg: Any = True) -> Iterator[None]:
    """Scoped arming — the pytest-fixture-friendly form."""
    previous = _ACTIVE.get(point, _MISSING)
    arm(point, arg)
    try:
        yield
    finally:
        if previous is _MISSING:
            _ACTIVE.pop(point, None)
        else:
            _ACTIVE[point] = previous


_MISSING = object()


def fire(point: str, **ctx: Any) -> None:
    """Trigger ``point`` with site context; no-op when disarmed.

    Call sites pass whatever identifies the event (``rule=``,
    ``pattern=``, ``stage=``, ``backend=``); the armed arg decides
    whether this particular event is the victim.
    """
    if not _ACTIVE:  # fast path: nothing armed
        return
    arg = _ACTIVE.get(point)
    if arg is None:
        return

    if point == "compile.rule":
        pattern = ctx.get("pattern", "")
        if arg is True or (isinstance(arg, str) and arg in pattern):
            raise InjectedFaultError(
                f"injected compile fault at rule {ctx.get('rule')} ({pattern!r})",
                stage=ctx.get("stage", "frontend"),
                rule=ctx.get("rule"),
            )
    elif point == "compile.stage":
        stage = ctx.get("stage")
        if arg is True or arg == stage:
            raise InjectedFaultError(
                f"injected compile fault at stage {stage!r}", stage=stage
            )
    elif point == "engine.step_delay":
        time.sleep(float(arg) if arg is not True else 0.001)
    elif point == "alloc":
        backend = ctx.get("backend")
        if arg is True or arg == backend:
            raise MemoryError(f"injected allocation failure (backend {backend!r})")
    elif point == "counting.register_pressure":
        registers = ctx.get("registers", 0)
        threshold = 1 if arg is True else int(arg)
        if registers >= threshold:
            raise MemoryError(
                f"injected counting-register pressure ({registers} register(s))"
            )
    elif point == "serve.worker.hang":
        time.sleep(float(arg) if arg is not True else 30.0)
    elif point == "serve.worker.kill":
        if decide(point):
            os._exit(17)  # simulate a hard worker death (OOM-kill, segfault)
    # lazy.cache_pressure is consumed via value() at cache construction;
    # serve.conn.drop / serve.frame.truncate are consumed via decide()
    # in the server's reply path.


def decide(point: str) -> bool:
    """Probabilistic yes/no for ``point``: False when disarmed, True when
    armed with ``True``, and a Bernoulli draw when armed with a float
    probability in (0, 1).  Used by fault sites that *choose* a failure
    (drop this connection?  kill this worker?) rather than raise one."""
    if not _ACTIVE:  # fast path: nothing armed
        return False
    arg = _ACTIVE.get(point)
    if arg is None:
        return False
    if arg is True:
        return True
    try:
        probability = float(arg)
    except (TypeError, ValueError):
        return False
    if probability >= 1.0:
        return True
    import random

    return random.random() < probability


def load_env(environ: Optional[dict] = None) -> int:
    """Parse ``REPRO_FAULTS=point[=arg][,point…]`` into armed points.

    Args parse as float when possible, else stay strings; a bare point
    arms with ``True``.  Returns the number of armed points.  Unknown
    point names raise :class:`ValueError` — a typo in a fault drill must
    not silently test nothing.
    """
    env = os.environ if environ is None else environ
    spec = env.get("REPRO_FAULTS", "")
    count = 0
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, raw = item.partition("=")
        arg: Any = True
        if raw:
            try:
                arg = float(raw)
            except ValueError:
                arg = raw
        arm(name.strip(), arg)
        count += 1
    return count


load_env()
