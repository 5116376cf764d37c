"""Exporters: span dumps and metric exposition in interoperable formats.

Three outputs, matching how runs are actually inspected:

* **JSON lines** (:func:`spans_to_jsonl`) — one span per line, the
  greppable archival form; pairs with
  :meth:`repro.engine.trace.ExecutionTrace.to_json` step dumps.
* **Chrome trace-event format** (:func:`spans_to_chrome_trace`) — loads
  directly into Perfetto / ``chrome://tracing``; spans become complete
  (``"ph": "X"``) events with microsecond timestamps, one lane per
  thread (the serve dispatcher's scan threads each get their own lane,
  named via ``"M"`` metadata events).
* **Prometheus text exposition** (:func:`metrics_to_prometheus`) —
  counters/gauges as samples, histograms as cumulative ``_bucket{le=}``
  series plus ``_sum``/``_count``, ready for a scrape endpoint or
  ``promtool``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, Tracer

__all__ = [
    "spans_to_jsonl",
    "spans_to_chrome_trace",
    "metrics_to_prometheus",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]

#: pid used in trace events (single-process tool; fixed for stable diffs)
_TRACE_PID = 1


def _jsonable(value: Any) -> Any:
    """Coerce attribute values into JSON-representable form."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def spans_to_jsonl(tracer: Tracer) -> str:
    """One JSON object per finished span, ordered by start time."""
    lines = []
    for span in tracer.spans():
        row = span.to_dict()
        row["attributes"] = _jsonable(row["attributes"])
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def spans_to_chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """Trace-event JSON (the dict; ``json.dumps`` it for Perfetto).

    Emits complete events ("X") with ``ts``/``dur`` in microseconds on the
    tracer's timeline, plus ``thread_name`` metadata events so worker
    lanes are labelled.  Span attributes (and CPU time) ride in ``args``.
    """
    events: list[dict[str, Any]] = []
    seen_threads: dict[tuple[int, int], str] = {}
    for span in tracer.spans():
        if span.end is None:  # pragma: no cover - validate() rejects first
            continue
        # adopted cross-process spans carry their worker's pid; local
        # spans recorded before process_id existed fall back to the
        # historical fixed pid so single-process traces stay stable
        pid = span.process_id or _TRACE_PID
        seen_threads.setdefault((pid, span.thread_id), span.thread_name)
        args = {str(k): _jsonable(v) for k, v in span.attributes.items()}
        args["cpu_ms"] = round(span.cpu_time * 1e3, 6)
        if span.trace_id is not None:
            args["trace_id"] = span.trace_id
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": span.thread_id,
                "args": args,
            }
        )
    for (pid, tid), name in sorted(seen_threads.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": f"repro.obs tracer {tracer.name!r}",
            "epoch_unix": tracer.epoch_unix,
        },
    }


def _format_value(value: float) -> str:
    """Prometheus sample formatting (integers without the trailing .0)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def metrics_to_prometheus(registry: MetricsRegistry) -> str:
    """Text exposition format 0.0.4 for every registered instrument."""
    lines: list[str] = []
    for inst in registry.instruments():
        if inst.help:
            lines.append(f"# HELP {inst.name} {inst.help}")
        lines.append(f"# TYPE {inst.name} {inst.kind}")
        if inst.kind == "histogram":
            for bound, cumulative in inst.cumulative_buckets():  # type: ignore[union-attr]
                lines.append(
                    f'{inst.name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
                )
            lines.append(f"{inst.name}_sum {_format_value(inst.sum)}")  # type: ignore[union-attr]
            lines.append(f"{inst.name}_count {inst.count}")  # type: ignore[union-attr]
        else:
            lines.append(f"{inst.name} {_format_value(inst.value)}")  # type: ignore[union-attr]
    return "\n".join(lines) + ("\n" if lines else "")


# -- file helpers (the CLI's writers) ---------------------------------------


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(spans_to_chrome_trace(tracer), indent=2) + "\n")
    return path


def write_jsonl(tracer: Tracer, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(spans_to_jsonl(tracer))
    return path


def write_prometheus(registry: MetricsRegistry, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(metrics_to_prometheus(registry))
    return path
