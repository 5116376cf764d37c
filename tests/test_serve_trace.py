"""End-to-end request tracing through the serve stack (socket transport).

One traced request against a running server must come back as ONE
stitched span tree — ``client.match`` → ``serve.request`` →
(``serve.queue_wait`` | ``serve.shard_scan`` → ``serve.worker_scan``) —
under a single trace id, scanning in process and, crossing a real
process boundary, over worker processes.

The server owns the tracer here (``trace_requests=True`` with no
pre-enabled switchboard): it enables tracing on start, pops each
request's spans when shipping them, and disables on stop — so the
client's adoption is the only copy left and the tree has no duplicates.
"""

from __future__ import annotations

import time

import pytest

import repro.obs as obs
from repro.obs.spans import Span, iter_tree
from repro.pipeline.compiler import CompileOptions
from repro.serve import ArtifactStore, MatchClient, ServeConfig, ServerThread

pytestmark = pytest.mark.serve

PATTERNS = ["needle", "boundary", "ha[py]{2}stack", "x[0-9]{1,3}y"]
PAYLOAD = (b"xy" * 300 + b"needle" + b"z" * 200 + b"happystack"
           + b"no" * 150 + b"x42y" + b"boundary")


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("artifacts"))
    return store.get_or_compile(PATTERNS, CompileOptions(emit_anml=False))


def _settled(tracer, timeout: float = 2.0):
    """Wait for in-flight server spans (the dispatcher's ``serve.batch``
    closes a beat after the reply lands) before validating invariants."""
    deadline = time.monotonic() + timeout
    while tracer.open_spans() and time.monotonic() < deadline:
        time.sleep(0.01)
    tracer.validate()


def _trace_tree(tracer, trace_id):
    """The finished spans of one trace, as {span_id: span} + roots."""
    spans = [s for s in tracer.spans() if s.trace_id == trace_id]
    by_id = {s.span_id: s for s in spans}
    roots = [s for s in spans if s.parent_id not in by_id]
    return spans, roots


@pytest.mark.parametrize("shards", [1, 2])
def test_traced_request_yields_one_stitched_tree(artifact, shards):
    config = ServeConfig(shards=shards, trace_requests=True)
    with ServerThread(artifact, config) as address:
        tracer = obs.get_tracer()
        assert tracer is not None, "trace_requests must enable a tracer"
        with MatchClient.connect(address) as client:
            result = client.match(PAYLOAD, trace=True)
        assert result.ok
        assert result.trace_id
        assert result.spans, "server shipped no span rows"

        _settled(tracer)  # parentage + containment invariants hold
        spans, roots = _trace_tree(tracer, result.trace_id)
        names = {s.name for s in spans}
        assert {"client.match", "serve.request", "serve.queue_wait",
                "serve.shard_scan", "serve.worker_scan"} <= names

        # exactly ONE tree: the client span is the only root, and every
        # other span reaches it through parent links
        assert [r.name for r in roots] == ["client.match"]
        assert all(s.trace_id == result.trace_id for s in spans)

        # dispatcher-side spans nest under the request span
        by_id = {s.span_id: s for s in spans}
        request_span = next(s for s in spans if s.name == "serve.request")
        assert by_id[request_span.parent_id].name == "client.match"
        workers = [s for s in spans if s.name == "serve.worker_scan"]
        assert workers, "shard workers recorded no spans"
        for worker in workers:
            assert by_id[worker.parent_id].name == "serve.shard_scan"

        if shards > 1:
            # the tree really crosses a process boundary
            pids = {s.process_id for s in spans}
            assert len(pids) >= 2, f"expected >=2 process ids, got {pids}"
    # server stop released the tracer it owned
    assert obs.get_tracer() is None


def test_two_traced_requests_stay_separate_trees(artifact):
    config = ServeConfig(shards=1, trace_requests=True)
    with ServerThread(artifact, config) as address:
        tracer = obs.get_tracer()
        with MatchClient.connect(address) as client:
            first = client.match(PAYLOAD, trace=True)
            second = client.match(b"needle in " + PAYLOAD, trace=True)
        assert first.trace_id != second.trace_id
        _settled(tracer)
        for result in (first, second):
            spans, roots = _trace_tree(tracer, result.trace_id)
            assert [r.name for r in roots] == ["client.match"]
            assert {"serve.request", "serve.worker_scan"} <= {s.name for s in spans}


def test_untraced_request_ships_nothing(artifact):
    """Without ship_spans the response carries no span rows even when the
    server is tracing internally."""
    config = ServeConfig(shards=1, trace_requests=True)
    with ServerThread(artifact, config) as address:
        with MatchClient.connect(address) as client:
            result = client.match(PAYLOAD)
        assert result.ok
        assert result.spans == []
        assert "spans" not in result.raw


def test_client_trace_without_server_tracer(artifact):
    """ship_spans against a server with tracing off degrades gracefully:
    the request succeeds, just without server-side rows."""
    config = ServeConfig(shards=1, trace_requests=False, metrics=False)
    with ServerThread(artifact, config) as address:
        with MatchClient.connect(address) as client:
            result = client.match(PAYLOAD, trace=True)
        assert result.ok
        assert result.trace_id  # minted client-side regardless
        assert result.spans == []


def test_stats_op_exposes_latency_percentiles(artifact):
    config = ServeConfig(shards=1)  # metrics default on
    with ServerThread(artifact, config) as address:
        with MatchClient.connect(address) as client:
            for _ in range(5):
                assert client.match(PAYLOAD).ok
            response = client.stats_full(prometheus=True)
    latency = response["latency_ms"]
    for phase in ("serve_queue_wait_seconds", "serve_scan_seconds"):
        assert phase in latency, sorted(latency)
        for key in ("count", "mean", "p50", "p90", "p95", "p99"):
            assert key in latency[phase]
        assert latency[phase]["count"] >= 5
        assert latency[phase]["p50"] <= latency[phase]["p99"]
    assert "serve_requests_total" in response["metrics"]
    assert "# TYPE" in response["prometheus"]


def test_iter_tree_renders_adopted_spans(artifact):
    """The CLI's tree printer walks a stitched trace without error and
    indents worker spans below the shard scan."""
    config = ServeConfig(shards=1, trace_requests=True)
    with ServerThread(artifact, config) as address:
        tracer = obs.get_tracer()
        with MatchClient.connect(address) as client:
            client.match(PAYLOAD, trace=True)
        rows = [(depth, span.name) for depth, span in iter_tree(tracer)]
    depth_of = {name: depth for depth, name in rows}
    assert depth_of["client.match"] == 0
    assert depth_of["serve.request"] == 1
    assert depth_of["serve.worker_scan"] > depth_of["serve.shard_scan"]
    assert all(isinstance(depth, int) for depth, _ in rows)


def test_span_rows_survive_json_round_trip(artifact):
    """Shipped rows are plain JSON data (the wire already proved it) and
    re-adoptable into a fresh tracer — the offline-analysis path."""
    config = ServeConfig(shards=1, trace_requests=True)
    with ServerThread(artifact, config) as address:
        with MatchClient.connect(address) as client:
            result = client.match(PAYLOAD, trace=True)
    fresh = obs.Tracer("offline")
    adopted = fresh.adopt_spans(result.spans)
    assert len(adopted) == len(result.spans)
    assert all(isinstance(s, Span) for s in adopted)
    fresh.validate()
    assert {s.name for s in adopted} >= {"serve.request", "serve.worker_scan"}
