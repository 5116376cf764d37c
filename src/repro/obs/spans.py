"""Structured span tracing: the timing substrate of the observability layer.

A *span* is one named, attributed interval of work — a compile stage, an
engine run, a merge step, a served request's scan.  Spans nest: each
thread keeps a stack, so ``with span("a"): with span("b")`` records
``b`` as a child of ``a``; cross-thread children (a served scan on its
``asyncio.to_thread`` thread, under the request span) pass ``parent=``
explicitly.  Every span
carries wall time (``time.perf_counter``) *and* CPU time
(``time.thread_time``), so off-CPU waits are visible, plus free-form
attributes attached at open or close.

Design constraints (mirroring the paper's measurement discipline and
production tracers alike):

* **Monotonic, high-resolution clocks only.**  All timing here and in
  the code instrumented with it uses ``perf_counter``/``thread_time``;
  wall-clock epoch time appears only once, as the tracer's anchor for
  exporters that want absolute timestamps.
* **Near-zero cost when disabled.**  The module-level :func:`span`
  fast-path is one global load and an ``is None`` test returning a
  shared no-op context manager — safe to leave in per-run (not per-byte)
  code unconditionally.  Per-byte sampling in the engines is additionally
  gated by its own ``is None`` check (see :mod:`repro.obs.metrics`).
* **Thread safety.**  Span stacks are thread-local; the finished-span
  list is lock-protected; ids come from an atomic counter.

Enable with :func:`enable` / the ``REPRO_OBS=1`` environment variable,
or scoped with :func:`repro.obs.capture`.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class Span:
    """One recorded interval (see module docstring)."""

    name: str
    span_id: int
    parent_id: int | None
    thread_id: int
    thread_name: str
    #: seconds on the tracer's ``perf_counter`` timeline
    start: float
    end: float | None = None
    #: seconds of this thread's CPU time (``time.thread_time``)
    cpu_start: float = 0.0
    cpu_end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    #: ``"ok"`` or ``"error"`` (an exception escaped the span body)
    status: str = "ok"
    #: request/trace correlation id; rides the serve wire protocol so one
    #: request's spans can be stitched across processes (None = untraced)
    trace_id: str | None = None
    #: OS process that recorded the span (cross-process stitching keeps
    #: worker spans attributable to their worker)
    process_id: int = field(default_factory=os.getpid)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Wall seconds (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def cpu_time(self) -> float:
        """CPU seconds of the owning thread (0.0 while still open)."""
        return 0.0 if self.cpu_end is None else self.cpu_end - self.cpu_start

    def set(self, **attributes: Any) -> "Span":
        """Attach/overwrite attributes; chainable."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (the JSONL exporter's row)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "cpu_time": self.cpu_time,
            "status": self.status,
            "attributes": dict(self.attributes),
            "trace_id": self.trace_id,
            "process_id": self.process_id,
        }


class _SpanContext:
    """Context manager for one live span (created by :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        if exc is not None:
            span.status = "error"
            span.attributes.setdefault("error", repr(exc))
        self._tracer._pop(span)
        return False  # never swallow


class _NoopSpan:
    """The disabled-path stand-in: accepts the whole Span surface."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    status = "ok"
    duration = 0.0
    cpu_time = 0.0
    closed = True
    attributes: dict[str, Any] = {}
    trace_id = None
    process_id = 0

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self

    def to_dict(self) -> dict[str, Any]:
        return {}

    # reentrant, shareable context manager
    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


# ---------------------------------------------------------------------------
# Trace context: one id per request, across threads/tasks/processes
# ---------------------------------------------------------------------------

#: the ambient trace id (contextvars: isolated per thread *and* per
#: asyncio task, and copied into ``asyncio.to_thread`` workers)
_TRACE_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_trace_id", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (random, collision-safe in practice)."""
    return os.urandom(8).hex()


def current_trace_id() -> str | None:
    """The ambient trace id set by :func:`trace_context`, or None."""
    return _TRACE_ID.get()


@contextmanager
def trace_context(trace_id: str | None) -> Iterator[str | None]:
    """Scope the ambient trace id: spans opened inside (in this thread or
    task, including ``asyncio.to_thread`` callees) are stamped with it.

    Explicit ``trace_id=`` arguments and parent inheritance take
    precedence; the context is the root-level default.
    """
    token = _TRACE_ID.set(trace_id)
    try:
        yield trace_id
    finally:
        _TRACE_ID.reset(token)


class Tracer:
    """Thread-safe recorder of a span tree (or forest, one root per run).

    All public reads return snapshots; the tracer may keep recording
    concurrently.
    """

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        #: perf_counter value all span ``start``/``end`` are relative to
        self.epoch_perf = time.perf_counter()
        #: wall-clock anchor matching ``epoch_perf`` (for exporters only —
        #: never used for measuring durations)
        self.epoch_unix = time.time()
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._open: dict[int, Span] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording --------------------------------------------------------

    def span(
        self,
        name: str,
        parent: Span | None = None,
        trace_id: str | None = None,
        **attributes: Any,
    ) -> _SpanContext:
        """Open a span as a context manager.

        Nesting is automatic within a thread; pass ``parent=`` to adopt a
        span from another thread (e.g. a served scan under its request span).
        A ``parent`` that is the no-op span (observability was off when it
        was created) is treated as "no explicit parent".

        The span's trace id resolves explicit ``trace_id=`` first, then
        the parent's, then the ambient :func:`trace_context`.
        """
        if parent is not None and not isinstance(parent, Span):
            parent = None
        stack = self._stack()
        resolved_parent = parent if parent is not None else (stack[-1] if stack else None)
        parent_id = resolved_parent.span_id if resolved_parent is not None else None
        if trace_id is None:
            if resolved_parent is not None and resolved_parent.trace_id is not None:
                trace_id = resolved_parent.trace_id
            else:
                trace_id = _TRACE_ID.get()
        thread = threading.current_thread()
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent_id,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            start=time.perf_counter() - self.epoch_perf,
            cpu_start=time.thread_time(),
            attributes=dict(attributes),
            trace_id=trace_id,
        )
        return _SpanContext(self, span)

    def begin_span(
        self,
        name: str,
        parent: Span | None = None,
        trace_id: str | None = None,
        **attributes: Any,
    ) -> Span:
        """Open a *detached* span: no thread-local stack interaction.

        The span must be closed with :meth:`end_span`.  Built for async
        code, where many requests interleave on one event-loop thread and
        stack-based nesting would mis-parent them — children attach via
        explicit ``parent=`` instead.
        """
        if parent is not None and not isinstance(parent, Span):
            parent = None
        if trace_id is None:
            if parent is not None and parent.trace_id is not None:
                trace_id = parent.trace_id
            else:
                trace_id = _TRACE_ID.get()
        thread = threading.current_thread()
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            start=time.perf_counter() - self.epoch_perf,
            cpu_start=time.thread_time(),
            attributes=dict(attributes),
            trace_id=trace_id,
        )
        with self._lock:
            self._open[span.span_id] = span
        return span

    def end_span(self, span: Span, status: str | None = None) -> None:
        """Close a span opened with :meth:`begin_span`."""
        if status is not None:
            span.status = status
        span.cpu_end = time.thread_time()
        span.end = time.perf_counter() - self.epoch_perf
        with self._lock:
            self._open.pop(span.span_id, None)
            self._finished.append(span)

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: Span | None = None,
        trace_id: str | None = None,
        **attributes: Any,
    ) -> Span:
        """Record an already-measured interval as a finished span.

        ``start``/``end`` are *absolute* ``time.perf_counter`` values (the
        caller timed the phase itself — queue waits, frame encodes);
        they are re-based onto this tracer's timeline.  No stack, no
        clock reads: the phase-decomposition primitive.
        """
        if parent is not None and not isinstance(parent, Span):
            parent = None
        if trace_id is None:
            if parent is not None and parent.trace_id is not None:
                trace_id = parent.trace_id
            else:
                trace_id = _TRACE_ID.get()
        thread = threading.current_thread()
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            start=start - self.epoch_perf,
            end=end - self.epoch_perf,
            cpu_start=0.0,
            cpu_end=0.0,
            attributes=dict(attributes),
            trace_id=trace_id,
        )
        with self._lock:
            self._finished.append(span)
        return span

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)
        with self._lock:
            self._open[span.span_id] = span

    def _pop(self, span: Span) -> None:
        span.cpu_end = time.thread_time()
        span.end = time.perf_counter() - self.epoch_perf
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order close (shouldn't happen; stay consistent)
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self._open.pop(span.span_id, None)
            self._finished.append(span)

    # -- reading ----------------------------------------------------------

    def spans(self) -> list[Span]:
        """Finished spans, ordered by start time."""
        with self._lock:
            snapshot = list(self._finished)
        return sorted(snapshot, key=lambda s: (s.start, s.span_id))

    def open_spans(self) -> list[Span]:
        with self._lock:
            return list(self._open.values())

    def roots(self) -> list[Span]:
        ids = {s.span_id for s in self.spans()}
        return [s for s in self.spans() if s.parent_id not in ids]

    def children(self, parent: Span) -> list[Span]:
        return [s for s in self.spans() if s.parent_id == parent.span_id]

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._open.clear()

    # -- cross-process stitching ------------------------------------------

    def export_spans(
        self, trace_id: str | None = None, pop: bool = False
    ) -> list[dict[str, Any]]:
        """Finished spans as wire-shippable rows with *absolute* times.

        ``start_abs``/``end_abs`` are on the raw ``time.perf_counter``
        clock — CLOCK_MONOTONIC on Linux, shared machine-wide — so rows
        shipped between processes on one machine land on a common
        timeline.  ``trace_id`` filters to one request's spans; ``pop``
        additionally removes the exported spans from this tracer (the
        serve layer's keep-memory-bounded mode).
        """
        with self._lock:
            if trace_id is None:
                selected = list(self._finished)
            else:
                selected = [s for s in self._finished if s.trace_id == trace_id]
            if pop and selected:
                chosen = {id(s) for s in selected}
                self._finished = [s for s in self._finished if id(s) not in chosen]
        rows = []
        for span in sorted(selected, key=lambda s: (s.start, s.span_id)):
            row = span.to_dict()
            row["start_abs"] = span.start + self.epoch_perf
            row["end_abs"] = (span.end if span.end is not None else span.start) + self.epoch_perf
            rows.append(row)
        return rows

    def adopt_spans(
        self, rows: list[dict[str, Any]], parent: Span | None = None
    ) -> list[Span]:
        """Stitch exported rows (from another tracer/process) into this one.

        Rows get fresh span ids (no collisions with local spans), their
        parent links are remapped, and rows whose parent is not in the
        batch become children of ``parent`` (or roots).  Times are
        re-based from the rows' absolute clock onto this tracer's
        timeline — exact on one machine, where ``perf_counter`` is a
        shared monotonic clock.
        """
        if parent is not None and not isinstance(parent, Span):
            parent = None
        id_map: dict[int, int] = {}
        adopted: list[Span] = []
        for row in rows:
            old_id = row.get("span_id")
            new_id = next(self._ids)
            if isinstance(old_id, int):
                id_map[old_id] = new_id
            cpu = float(row.get("cpu_time") or 0.0)
            span = Span(
                name=str(row.get("name", "")),
                span_id=new_id,
                parent_id=row.get("parent_id"),  # remapped below
                thread_id=int(row.get("thread_id") or 0),
                thread_name=str(row.get("thread_name", "")),
                start=float(row["start_abs"]) - self.epoch_perf,
                end=float(row["end_abs"]) - self.epoch_perf,
                cpu_start=0.0,
                cpu_end=cpu,
                attributes=dict(row.get("attributes") or {}),
                status=str(row.get("status", "ok")),
                trace_id=row.get("trace_id"),
                process_id=int(row.get("process_id") or 0),
            )
            adopted.append(span)
        fallback = parent.span_id if parent is not None else None
        for span in adopted:
            old_parent = span.parent_id
            span.parent_id = (
                id_map[old_parent] if isinstance(old_parent, int) and old_parent in id_map
                else fallback
            )
        with self._lock:
            self._finished.extend(adopted)
        return adopted

    def prune(self, max_age_seconds: float) -> int:
        """Drop finished spans older than ``max_age_seconds``; returns the
        number removed.  Long-lived services (repro serve) call this so a
        service-owned tracer cannot grow without bound."""
        horizon = (time.perf_counter() - self.epoch_perf) - max_age_seconds
        with self._lock:
            before = len(self._finished)
            self._finished = [
                s for s in self._finished if s.end is None or s.end >= horizon
            ]
            return before - len(self._finished)

    def validate(self) -> None:
        """Raise ``ValueError`` on structural problems.

        Checks: every span closed; every non-root parent id exists and is
        closed; children fall inside their parent's wall interval (with a
        small clock-read tolerance — parents close *after* children).
        """
        spans = self.spans()
        if self.open_spans():
            names = ", ".join(s.name for s in self.open_spans())
            raise ValueError(f"unclosed spans: {names}")
        by_id = {s.span_id: s for s in spans}
        tolerance = 1e-6
        for s in spans:
            if s.parent_id is None:
                continue
            parent = by_id.get(s.parent_id)
            if parent is None:
                raise ValueError(f"span {s.name!r} has unknown parent id {s.parent_id}")
            assert s.end is not None and parent.end is not None
            if s.start < parent.start - tolerance or s.end > parent.end + tolerance:
                raise ValueError(
                    f"span {s.name!r} [{s.start:.6f}, {s.end:.6f}] escapes parent "
                    f"{parent.name!r} [{parent.start:.6f}, {parent.end:.6f}]"
                )

    def tree_lines(self) -> list[str]:
        """Indented pretty-print of the span forest (CLI output)."""
        spans = self.spans()
        by_parent: dict[int | None, list[Span]] = {}
        ids = {s.span_id for s in spans}
        for s in spans:
            key = s.parent_id if s.parent_id in ids else None
            by_parent.setdefault(key, []).append(s)

        lines: list[str] = []

        def emit(span: Span, depth: int) -> None:
            attrs = ""
            if span.attributes:
                attrs = "  " + " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
            flag = "" if span.status == "ok" else "  [ERROR]"
            lines.append(
                f"{'  ' * depth}{span.name:<28} {span.duration * 1e3:9.3f} ms "
                f"(cpu {span.cpu_time * 1e3:8.3f} ms){flag}{attrs}"
            )
            for child in by_parent.get(span.span_id, ()):
                emit(child, depth + 1)

        for root in by_parent.get(None, ()):
            emit(root, 0)
        return lines


# ---------------------------------------------------------------------------
# Module-level switchboard (the fast path)
# ---------------------------------------------------------------------------

_ACTIVE: Tracer | None = None


def span(
    name: str,
    parent: Span | None = None,
    trace_id: str | None = None,
    **attributes: Any,
):
    """Open a span on the active tracer — or a shared no-op when disabled.

    This is the call sites' entry point; the disabled path is one global
    read and an ``is None`` test.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, parent=parent, trace_id=trace_id, **attributes)


def begin_span(
    name: str,
    parent: Span | None = None,
    trace_id: str | None = None,
    **attributes: Any,
):
    """Detached-span open on the active tracer (no-op span when disabled)."""
    tracer = _ACTIVE
    if tracer is None:
        return NOOP_SPAN
    return tracer.begin_span(name, parent=parent, trace_id=trace_id, **attributes)


def end_span(span: Span | _NoopSpan, status: str | None = None) -> None:
    """Close a span from :func:`begin_span`; tolerates the no-op span and
    a tracer that was disabled in between."""
    tracer = _ACTIVE
    if tracer is None or not isinstance(span, Span):
        return
    tracer.end_span(span, status=status)


def record_span(
    name: str,
    start: float,
    end: float,
    parent: Span | None = None,
    trace_id: str | None = None,
    **attributes: Any,
):
    """Record a pre-measured absolute-time interval (no-op when disabled)."""
    tracer = _ACTIVE
    if tracer is None:
        return NOOP_SPAN
    return tracer.record_span(
        name, start, end, parent=parent, trace_id=trace_id, **attributes
    )


def enable(tracer: Tracer | None = None) -> Tracer:
    """Install (and return) the active tracer; a fresh one by default."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def disable() -> None:
    """Remove the active tracer (span() reverts to the no-op fast path)."""
    global _ACTIVE
    _ACTIVE = None


def get_tracer() -> Tracer | None:
    """The active tracer, or None when tracing is disabled."""
    return _ACTIVE


def is_enabled() -> bool:
    return _ACTIVE is not None


def _env_truthy(value: str | None) -> bool:
    return (value or "").strip().lower() in {"1", "true", "yes", "on"}


#: honoured at import: REPRO_OBS=1 turns tracing (and metrics) on globally
if _env_truthy(os.environ.get("REPRO_OBS")):  # pragma: no cover - env-dependent
    enable()


def iter_tree(tracer: Tracer) -> Iterator[tuple[int, Span]]:
    """(depth, span) pairs in pre-order — convenience for custom renderers."""
    spans = tracer.spans()
    ids = {s.span_id for s in spans}
    by_parent: dict[int | None, list[Span]] = {}
    for s in spans:
        key = s.parent_id if s.parent_id in ids else None
        by_parent.setdefault(key, []).append(s)

    def walk(parent_key: int | None, depth: int) -> Iterator[tuple[int, Span]]:
        for s in by_parent.get(parent_key, ()):
            yield depth, s
            yield from walk(s.span_id, depth + 1)

    return walk(None, 0)
