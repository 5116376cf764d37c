"""End-to-end observability smoke (the `make obs-smoke` target).

Compiles a small builtin ruleset with tracing on, matches 64 KB of
stream, and validates the emitted Chrome-trace JSON against the
trace-event schema: strict key/type checks, events well-nested per
thread lane, stage spans summing (within 10%) to the reported compile
total, and the Prometheus export carrying the active-set histogram.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.cli import _demo_stream
from repro.datasets import load_builtin
from repro.guard.degrade import GuardedMatcher
from repro.pipeline.compiler import CompileOptions, compile_ruleset

STREAM_BYTES = 64 * 1024

#: required keys and types for a complete ("X") trace event
_X_SCHEMA = {
    "name": str,
    "cat": str,
    "ph": str,
    "ts": (int, float),
    "dur": (int, float),
    "pid": int,
    "tid": int,
    "args": dict,
}


@pytest.fixture(scope="module")
def smoke_capture():
    patterns = list(load_builtin("tokens_exact").patterns)
    data = _demo_stream(patterns, STREAM_BYTES, seed=3)
    assert len(data) == STREAM_BYTES
    with obs.capture(stride=64) as cap:
        result = compile_ruleset(patterns, CompileOptions(merging_factor=0))
        stats = GuardedMatcher(result.mfsas, degrade=False).run(data).stats
    cap.tracer.validate()
    return cap, result, stats


@pytest.mark.obs
def test_chrome_trace_schema_strict(smoke_capture):
    cap, _result, _stats = smoke_capture
    trace = obs.spans_to_chrome_trace(cap.tracer)

    assert isinstance(trace, dict)
    assert isinstance(trace["traceEvents"], list)
    assert trace["displayTimeUnit"] in ("ms", "ns")
    assert trace["traceEvents"], "no events captured"

    for event in trace["traceEvents"]:
        assert event["ph"] in ("X", "M"), event
        if event["ph"] == "M":
            assert event["name"] == "thread_name"
            assert isinstance(event["args"]["name"], str)
            continue
        for key, expected_type in _X_SCHEMA.items():
            assert key in event, f"missing key {key!r} in {event['name']}"
            assert isinstance(event[key], expected_type), (event["name"], key)
        assert event["ts"] >= 0
        assert event["dur"] >= 0
    # round-trips through JSON
    assert json.loads(json.dumps(trace)) == trace


@pytest.mark.obs
def test_chrome_trace_events_well_nested(smoke_capture):
    """Within each thread lane, events form a proper nesting (no partial
    overlap): sorted by start, every event either contains or is disjoint
    from the next."""
    cap, _result, _stats = smoke_capture
    trace = obs.spans_to_chrome_trace(cap.tracer)
    lanes: dict[int, list[tuple[float, float, str]]] = {}
    for event in trace["traceEvents"]:
        if event["ph"] != "X":
            continue
        lanes.setdefault(event["tid"], []).append(
            (event["ts"], event["ts"] + event["dur"], event["name"])
        )
    tolerance = 2.0  # µs clock-read slack
    assert lanes
    for lane in lanes.values():
        lane.sort()
        stack: list[tuple[float, float, str]] = []
        for start, end, name in lane:
            while stack and start >= stack[-1][1] - tolerance:
                stack.pop()
            if stack:
                assert end <= stack[-1][1] + tolerance, (
                    f"{name} partially overlaps {stack[-1][2]}"
                )
            stack.append((start, end, name))


@pytest.mark.obs
def test_stage_spans_sum_to_compile_total(smoke_capture):
    cap, result, _stats = smoke_capture
    by_name: dict[str, list] = {}
    for span in cap.tracer.spans():
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["compile"]
    stage_sum = sum(
        by_name[f"compile.{stage}"][0].duration
        for stage in ("frontend", "ast_to_fsa", "single_opt", "merging", "backend")
    )
    # acceptance criterion: stage spans sum to the total within 10%
    assert stage_sum == pytest.approx(root.duration, rel=0.10)
    # and the spans agree with the StageTimes the reporting layer uses
    assert stage_sum == pytest.approx(result.stage_times.total, rel=0.10)


@pytest.mark.obs
def test_prometheus_export_contains_active_set_histogram(smoke_capture):
    cap, _result, stats = smoke_capture
    text = obs.metrics_to_prometheus(cap.registry)
    assert "# TYPE imfant_active_set_size histogram" in text
    assert 'imfant_active_set_size_bucket{le="+Inf"}' in text
    assert "imfant_active_set_size_count" in text
    hist = cap.registry.get("imfant_active_set_size")
    assert hist.count == STREAM_BYTES // 64
    # sampled distribution is consistent with the exhaustive work counter
    assert 0 <= hist.sum <= stats.active_pair_total

