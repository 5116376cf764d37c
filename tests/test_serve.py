"""repro.serve tests: protocol, artifact cache, pool, service, sockets.

Runs the serving stack at every layer — pure frame codecs, the
content-addressed artifact store (compile once, load forever), the
shard pool's degradation/deadline behaviour under injected faults, the
asyncio service's batching and backpressure (deterministically: the
dispatcher cannot run between non-suspending ``submit`` calls, so the
bounded queue fills exactly on cue), and the full socket round trip.

Everything here carries the ``serve`` marker (``make serve-smoke``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket as socket_module
import struct
import sys
import threading

import pytest

import repro.obs as obs
from repro.cli import _demo_stream
from repro.datasets import load_builtin
from repro.engine import counters
from repro.engine.chunkscan import resolve_strategy
from repro.engine.imfant import IMfantEngine
from repro.guard import faultinject
from repro.guard.errors import ConnectionLost, UsageError
from repro.obs.spans import iter_tree
from repro.pipeline.compiler import CompileOptions
from repro.serve import (
    ArtifactStore,
    MatchClient,
    MatchRequest,
    RetryPolicy,
    ServeConfig,
    ServerThread,
    ShardPool,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    FrameError,
    decode_body,
    decode_payload,
    encode_frame,
    encode_payload,
    error_response,
    frame_length,
    match_response,
)
from repro.serve.server import MatchService

pytestmark = pytest.mark.serve

#: bounded-width ruleset (max_width is finite) → the pool really shards
PATTERNS = ["needle", "boundary", "ha[py]{2}stack", "x[0-9]{1,3}y"]


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("artifacts"))
    return store.get_or_compile(PATTERNS, CompileOptions(emit_anml=False))


def _oracle(artifact, payload: bytes) -> set:
    text = payload.decode("latin-1")
    matches: set = set()
    for mfsa in artifact.mfsas:
        matches |= IMfantEngine(mfsa).run(text).matches
    return matches


PAYLOAD = (b"xy" * 300 + b"needle" + b"z" * 200 + b"happystack"
           + b"no" * 150 + b"x42y" + b"boundary")


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


def test_frame_round_trip():
    document = {"id": 3, "op": "match", "payload": encode_payload(b"\x00\xffbytes")}
    frame = encode_frame(document)
    assert frame_length(frame[:4]) == len(frame) - 4
    decoded = decode_body(frame[4:])
    assert decoded == document
    assert decode_payload(decoded["payload"]) == b"\x00\xffbytes"


def test_frame_length_ceiling():
    import struct

    oversized = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(FrameError):
        frame_length(oversized)


@pytest.mark.parametrize("body", [b"not json", b"[1,2,3]", b'"string"'])
def test_decode_body_rejects_non_objects(body):
    with pytest.raises(FrameError):
        decode_body(body)


def test_decode_payload_rejects_bad_base64():
    with pytest.raises(FrameError):
        decode_payload("!!not-base64!!")


@pytest.mark.parametrize("document", [
    {"op": "match", "payload": ""},                      # missing id
    {"id": "seven", "op": "match", "payload": ""},       # non-int id
    {"id": 1, "op": "match", "payload": "", "deadline_ms": 0},    # non-positive
    {"id": 1, "op": "match", "payload": "", "deadline_ms": "no"},  # non-numeric
])
def test_match_request_validation(document):
    with pytest.raises(FrameError):
        MatchRequest.from_document(document)


def test_match_request_defaults():
    request = MatchRequest.from_document({"id": 9, "payload": encode_payload(b"abc")})
    assert request.payload == b"abc"
    assert request.single_match is False
    assert request.deadline_ms is None


def test_response_codes_and_match_sorting():
    response = match_response(5, "ok", matches={(2, 10), (0, 3)})
    assert response["code"] == 200
    assert response["matches"] == [[0, 3], [2, 10]]
    assert error_response(None, "rejected", "full")["code"] == 429
    assert match_response(1, "partial")["code"] == 206


# ---------------------------------------------------------------------------
# Artifact store
# ---------------------------------------------------------------------------


def test_artifact_compiles_then_loads(tmp_path):
    store = ArtifactStore(tmp_path)
    with obs.capture() as cold:
        first = store.get_or_compile(PATTERNS, CompileOptions(emit_anml=False))
    assert not first.loaded_from_cache
    assert first.path is not None and first.path.exists()
    cold_spans = {span.name for _, span in iter_tree(cold.tracer)}
    assert "compile" in cold_spans

    with obs.capture() as warm:
        second = store.get_or_compile(PATTERNS, CompileOptions(emit_anml=False))
    assert second.loaded_from_cache
    assert second.key == first.key
    warm_spans = {span.name for _, span in iter_tree(warm.tracer)}
    assert "serve.artifact.load" in warm_spans
    # the whole point: a warm start never re-runs the compile pipeline
    assert not any(name == "compile" or name.startswith("compile.") for name in warm_spans)

    # and the loaded automata behave identically
    text = PAYLOAD.decode("latin-1")
    assert _oracle(first, PAYLOAD) == _oracle(second, PAYLOAD)


def test_artifact_key_depends_on_options(tmp_path):
    from repro.serve import ruleset_key

    assert ruleset_key(PATTERNS) != ruleset_key(PATTERNS[:-1])
    assert (ruleset_key(PATTERNS, CompileOptions(merging_factor=2))
            != ruleset_key(PATTERNS, CompileOptions(merging_factor=0)))


def test_artifact_survives_corruption(tmp_path):
    store = ArtifactStore(tmp_path)
    first = store.get_or_compile(PATTERNS, CompileOptions(emit_anml=False))
    first.path.write_text("{ truncated garbage")
    recompiled = store.get_or_compile(PATTERNS, CompileOptions(emit_anml=False))
    assert not recompiled.loaded_from_cache  # corrupt cache → silent recompile
    assert _oracle(recompiled, PAYLOAD) == _oracle(first, PAYLOAD)


def test_artifact_rejects_version_skew(tmp_path):
    store = ArtifactStore(tmp_path)
    first = store.get_or_compile(PATTERNS, CompileOptions(emit_anml=False))
    document = json.loads(first.path.read_text())
    document["version"] = 999
    first.path.write_text(json.dumps(document))
    assert store.load(first.key) is None


def test_empty_ruleset_refused(tmp_path):
    with pytest.raises(UsageError):
        ArtifactStore(tmp_path).get_or_compile([])


# ---------------------------------------------------------------------------
# Shard pool: degradation + deadlines under injected faults
# ---------------------------------------------------------------------------


def test_pool_degrades_on_allocation_failure(artifact):
    oracle = _oracle(artifact, PAYLOAD)
    with obs.capture() as cap:
        with faultinject.inject("alloc", "lazy"):
            with ShardPool(artifact, num_shards=1, backend="lazy") as pool:
                result = pool.scan(PAYLOAD)
    assert result.backend == "python"  # stepped one rung down the ladder
    assert result.matches == oracle
    assert [(s.from_backend, s.to_backend) for s in result.degradations] == [("lazy", "python")]
    counter = cap.registry.get("guard_degradations_total")
    assert counter is not None and counter.value >= 1


@pytest.fixture
def frequent_deadline_checks(monkeypatch):
    """Check scan deadlines every 64 bytes: PAYLOAD is shorter than the
    production stride, so the drills would otherwise never look."""
    monkeypatch.setattr(counters, "DEADLINE_STRIDE", 64)


def test_pool_deadline_yields_partial(artifact, frequent_deadline_checks):
    with faultinject.inject("engine.step_delay", 0.05):
        with ShardPool(artifact, num_shards=1, backend="python") as pool:
            result = pool.scan(PAYLOAD, deadline=0.15)
    assert result.partial
    assert result.timed_out_shards == [0]  # the one in-process job hit the wall
    assert result.matches <= _oracle(artifact, PAYLOAD)  # honest prefix


def test_pool_process_mode_loads_artifact(artifact):
    assert artifact.path is not None
    with ShardPool(artifact, num_shards=2, backend="python") as pool:
        result = pool.scan(PAYLOAD)
    assert result.matches == _oracle(artifact, PAYLOAD)
    assert result.shards == 2


def test_pool_rejects_bad_config(artifact):
    with pytest.raises(UsageError):
        ShardPool(artifact, num_shards=0)
    with pytest.raises(UsageError):
        ShardPool(artifact, num_shards=1, backend="cuda")
    # worker processes load the artifact from disk; an in-memory one has
    # no path to hand them
    in_memory = dataclasses.replace(artifact, path=None)
    with pytest.raises(UsageError):
        ShardPool(in_memory, num_shards=2)
    ShardPool(in_memory, num_shards=1).close()


def test_in_process_pool_scans_one_job_whatever_the_plan(tmp_path, monkeypatch):
    """An unbounded ruleset admits only the SFA plan, yet the default
    pool scans it as one job on the calling thread: no executor, no SFA
    scanner, and the exact single-pass answer."""
    import repro.serve.shards as shards_module

    def no_scanner(*_args, **_kwargs):
        raise AssertionError("an in-process pool built an SFA scanner")

    monkeypatch.setattr(shards_module, "SfaScanner", no_scanner)
    patterns = list(load_builtin("http_signatures").patterns)
    artifact = ArtifactStore(tmp_path).get_or_compile(
        patterns, CompileOptions(emit_anml=False)
    )
    assert resolve_strategy(artifact.mfsas) == ("sfa", None)
    payload = _demo_stream(patterns, 4096)
    oracle = _oracle(artifact, payload)
    assert oracle
    with ShardPool(artifact) as pool:
        result = pool.scan(payload)
        assert pool._executor is None
    assert result.shards == 1
    assert not result.partial
    assert result.full_matches() == oracle


def test_concurrent_scans_share_one_engine_set(artifact):
    """Four threads released together scan through one default pool: the
    scans take turns on the pool's one engine set, so only the first
    scan misses the lazy cache, and every answer is the oracle's (a
    short switch interval makes unserialized scans interleave)."""
    oracle = _oracle(artifact, PAYLOAD)
    barrier = threading.Barrier(4)
    record = threading.Lock()
    answers: list = []
    misses_after: list = []

    with obs.capture() as cap:

        def misses() -> float:
            return cap.registry.get("imfant_lazy_cache_misses_total").value

        def scan() -> None:
            barrier.wait(timeout=10)
            result = pool.scan(PAYLOAD)
            with record:
                answers.append(result.matches)
                misses_after.append(misses())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardPool(artifact) as pool:
                threads = [threading.Thread(target=scan) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        total = misses()

    assert answers == [oracle] * 4
    assert misses_after[0] > 0
    assert total == misses_after[0]


def test_process_workers_capped_at_usable_cpus(artifact):
    """64 jobs per payload fork at most one worker per usable CPU; the
    executor is only built here, so no process starts."""
    import os

    with ShardPool(artifact, num_shards=64) as pool:
        executor = pool._ensure_executor()
        assert executor._max_workers == min(64, len(os.sched_getaffinity(0)))
        assert not executor._processes


def test_pool_process_mode_degrades_on_worker_failure(artifact):
    """An AllocationFailed inside a process worker's initializer surfaces
    as BrokenProcessPool; the pool must step the ladder and retry, not
    leak the raw executor error."""
    assert artifact.path is not None
    with obs.capture() as cap:
        with faultinject.inject("alloc", "lazy"):
            with ShardPool(artifact, num_shards=2, backend="lazy") as pool:
                result = pool.scan(PAYLOAD)
    assert result.backend == "python"
    assert result.matches == _oracle(artifact, PAYLOAD)
    assert [(s.from_backend, s.to_backend) for s in result.degradations] == [
        ("lazy", "python")
    ]
    counter = cap.registry.get("guard_degradations_total")
    assert counter is not None and counter.value >= 1


def test_scan_segment_deadline_is_absolute(artifact, frequent_deadline_checks):
    """A job whose budget was consumed while it queued must time out the
    moment it starts — the deadline is absolute, not reset at job start."""
    import time

    from repro.serve.shards import _build_engines, _scan_segment

    engines = _build_engines(artifact.mfsas, "python")
    started = time.perf_counter()
    matches, _, timed_out = _scan_segment(
        engines, PAYLOAD, time.perf_counter() - 1.0, True
    )
    assert timed_out
    assert time.perf_counter() - started < 2.0  # gave up immediately
    assert matches <= _oracle(artifact, PAYLOAD)


EPSILON_PATTERNS = ["a*", "abc"]


@pytest.fixture(scope="module")
def epsilon_artifact(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("eps-artifacts"))
    return store.get_or_compile(EPSILON_PATTERNS, CompileOptions(emit_anml=False))


def test_pool_epsilon_rules_stay_compact(epsilon_artifact):
    """ε-accepting rules must not be enumerated per offset — one such
    rule on a large payload would blow up memory and the wire frame."""
    payload = b"xxabcaax" * 4
    oracle = _oracle(epsilon_artifact, payload)
    with ShardPool(epsilon_artifact, num_shards=2) as pool:
        result = pool.scan(payload)
        single = pool.scan(payload, single_match=True)
    assert result.all_offsets_rules == [0]
    assert all(rule != 0 for rule, _ in result.matches)
    assert result.payload_len == len(payload)
    assert result.full_matches() == oracle
    assert result.stats.match_count == len(oracle)
    # single_match stays enumerable: the ε rule's first match is at 0
    assert not single.all_offsets_rules
    assert (0, 0) in single.matches


# ---------------------------------------------------------------------------
# Service: batching + backpressure (deterministic, no sockets)
# ---------------------------------------------------------------------------


def _collecting_reply(replies: list):
    async def reply(document):
        replies.append(document)
    return reply


def test_service_backpressure_rejects_when_queue_full(artifact):
    """queue_depth+N non-suspending submits → exactly N 429 rejections.

    ``submit`` has no await point on its accept path, so the dispatcher
    task can never run between these calls — the queue must fill.
    """
    config = ServeConfig(shards=1, batch_max=2, queue_depth=3)
    replies: list = []

    async def scenario():
        service = MatchService(artifact, config)
        await service.start()
        try:
            payload = encode_payload(b"needle")
            for i in range(5):
                request = MatchRequest.from_document({"id": i, "payload": payload})
                await service.submit(request, _collecting_reply(replies))
            rejected = [r for r in replies if r["status"] == "rejected"]
            assert len(rejected) == 2  # 5 submitted, 3 queued
            assert all(r["code"] == 429 for r in rejected)
            while len(replies) < 5:
                await asyncio.sleep(0.01)
        finally:
            await service.stop()
        return service

    service = asyncio.run(scenario())
    assert service.requests_rejected == 2
    assert service.requests_handled == 3
    statuses = sorted(r["status"] for r in replies)
    assert statuses == ["ok", "ok", "ok", "rejected", "rejected"]


def test_service_batches_coalesce(artifact):
    config = ServeConfig(shards=1, batch_max=4, queue_depth=8)
    replies: list = []

    async def scenario():
        service = MatchService(artifact, config)
        await service.start()
        try:
            payload = encode_payload(PAYLOAD)
            for i in range(4):
                request = MatchRequest.from_document({"id": i, "payload": payload})
                await service.submit(request, _collecting_reply(replies))
            while len(replies) < 4:
                await asyncio.sleep(0.01)
        finally:
            await service.stop()
        return service

    with obs.capture() as cap:
        service = asyncio.run(scenario())
    # all four queued before the dispatcher woke → one coalesced batch
    assert service.batches == 1
    batch_hist = cap.registry.get("serve_batch_size")
    assert batch_hist is not None and batch_hist.snapshot()["count"] == 1
    assert cap.registry.get("serve_requests_total").value == 4
    assert cap.registry.get("serve_queue_depth") is not None
    assert cap.registry.get("serve_shard_scan_seconds").snapshot()["count"] >= 4


def test_service_deadline_dies_in_queue(artifact):
    """A request whose deadline expired while queued → 206 partial-empty."""
    config = ServeConfig(shards=1, batch_max=1, queue_depth=4)
    replies: list = []

    async def scenario():
        service = MatchService(artifact, config)
        await service.start()
        try:
            request = MatchRequest.from_document({
                "id": 1, "payload": encode_payload(PAYLOAD), "deadline_ms": 0.001,
            })
            await service.submit(request, _collecting_reply(replies))
            while not replies:
                await asyncio.sleep(0.005)
        finally:
            await service.stop()
        return service

    service = asyncio.run(scenario())
    assert replies[0]["status"] == "partial"
    assert replies[0]["code"] == 206
    assert replies[0]["matches"] == []
    assert service.requests_partial == 1


def test_dispatcher_survives_reply_and_scan_failures(artifact):
    """One bad request — a client that resets mid-reply, or a worker
    crash that is not a ReproError — must never kill the dispatcher:
    later requests still get answers (the 'never hang' goal)."""
    config = ServeConfig(shards=1, batch_max=1, queue_depth=8)
    replies: list = []

    async def scenario():
        service = MatchService(artifact, config)
        await service.start()
        try:
            payload = encode_payload(b"needle")
            reply_attempted = asyncio.Event()

            async def exploding_reply(document):
                reply_attempted.set()
                raise ConnectionResetError("client reset mid-reply")

            await service.submit(
                MatchRequest.from_document({"id": 1, "payload": payload}),
                exploding_reply,
            )
            await reply_attempted.wait()  # request 1 scanned with the real pool

            real_scan = service.pool.scan

            def crashing_scan(*args, **kwargs):
                service.pool.scan = real_scan  # one-shot fault
                raise RuntimeError("simulated worker crash")

            service.pool.scan = crashing_scan
            await service.submit(
                MatchRequest.from_document({"id": 2, "payload": payload}),
                _collecting_reply(replies),
            )
            await service.submit(
                MatchRequest.from_document({"id": 3, "payload": payload}),
                _collecting_reply(replies),
            )
            while len(replies) < 2:
                await asyncio.sleep(0.01)
        finally:
            await service.stop()
        return service

    asyncio.run(scenario())
    by_id = {r["id"]: r for r in replies}
    assert by_id[2]["status"] == "error" and by_id[2]["code"] == 500
    assert by_id[3]["status"] == "ok"  # the dispatcher survived both faults


def test_service_stop_drains_queued_requests(artifact):
    """'Drain and stop' means exactly that: requests queued before stop()
    are answered (not dropped), and later submits get an explicit
    shutting-down rejection rather than a dead socket."""
    config = ServeConfig(shards=1, batch_max=1, queue_depth=8)
    replies: list = []

    async def scenario():
        service = MatchService(artifact, config)
        await service.start()
        payload = encode_payload(b"needle")
        for i in range(3):
            await service.submit(
                MatchRequest.from_document({"id": i, "payload": payload}),
                _collecting_reply(replies),
            )
        await service.stop()
        assert len(replies) == 3  # every queued request answered pre-exit
        await service.submit(
            MatchRequest.from_document({"id": 99, "payload": payload}),
            _collecting_reply(replies),
        )
        return service

    service = asyncio.run(scenario())
    assert [r["status"] for r in replies[:3]] == ["ok", "ok", "ok"]
    assert replies[3]["status"] == "rejected"
    assert "shutting down" in replies[3]["error"]
    assert service.requests_rejected == 1


# ---------------------------------------------------------------------------
# Socket round trip (ServerThread + MatchClient)
# ---------------------------------------------------------------------------


def test_socket_round_trip_and_ops(artifact, tmp_path):
    config = ServeConfig(shards=2, batch_max=4, queue_depth=16)
    with ServerThread(artifact, config, socket_path=str(tmp_path / "sock")) as address:
        with MatchClient.connect(address) as client:
            assert client.ping()
            stats = client.server_stats()
            assert stats["ruleset_key"] == artifact.key
            assert stats["shards"] == 2
            result = client.match(PAYLOAD)
            assert result.ok and result.code == 200
            assert result.matches == _oracle(artifact, PAYLOAD)
            assert result.stats["match_count"] == len(result.matches)
            assert client.shutdown()


def test_socket_restart_over_stale_path(artifact, tmp_path):
    """A crashed instance's socket file must not break (or misdirect) a
    restart: the server unlinks stale files before binding and removes
    its own on clean shutdown (asyncio only does this from 3.13 on)."""
    import os

    path = tmp_path / "sock"
    config = ServeConfig(shards=1)
    with ServerThread(artifact, config, socket_path=str(path)) as address:
        with MatchClient.connect(address) as client:
            assert client.ping()
    assert not path.exists()  # clean shutdown removed the socket file

    # simulate a crash: plant a stale, unserved socket file at the path
    stale = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    stale.bind(str(path))
    stale.close()
    assert path.is_socket()
    with ServerThread(artifact, config, socket_path=str(path)) as address:
        with MatchClient.connect(address) as client:
            assert client.match(PAYLOAD).matches == _oracle(artifact, PAYLOAD)


def test_socket_tcp_and_malformed_frame(artifact):
    config = ServeConfig(shards=1)
    with ServerThread(artifact, config) as address:
        host, port = address
        # a syntactically broken frame gets a 400 and the connection closed
        raw = socket_module.create_connection((host, port), timeout=10)
        try:
            body = b"this is not json"
            import struct

            raw.sendall(struct.pack(">I", len(body)) + body)
            prefix = raw.recv(4)
            length = frame_length(prefix)
            response = decode_body(raw.recv(length))
            assert response["code"] == 400
            assert raw.recv(1) == b""  # server closed after framing loss
        finally:
            raw.close()
        # the server survives and still answers a well-formed client
        with MatchClient.connect(address) as client:
            assert client.match(PAYLOAD).matches == _oracle(artifact, PAYLOAD)


def test_socket_unknown_op_and_disabled_shutdown(artifact):
    config = ServeConfig(shards=1, allow_shutdown=False)
    with ServerThread(artifact, config) as address:
        with MatchClient.connect(address) as client:
            response = client._roundtrip({"op": "frobnicate"})
            assert response["code"] == 400
            assert not client.shutdown()  # refused, connection stays up
            assert client.ping()


def test_socket_fault_drill_partial_not_hang(artifact, frequent_deadline_checks):
    """The wedged-shard drill: injected step delay + deadline → 206, fast."""
    import time

    config = ServeConfig(shards=1, backend="python")
    with faultinject.inject("engine.step_delay", 0.05):
        with ServerThread(artifact, config) as address:
            with MatchClient.connect(address) as client:
                started = time.perf_counter()
                result = client.match(PAYLOAD, deadline_ms=200)
                elapsed = time.perf_counter() - started
    assert result.partial and result.code == 206
    assert result.raw["timed_out_shards"]
    assert result.matches <= _oracle(artifact, PAYLOAD)
    assert elapsed < 5.0  # answered promptly, did not hang on the wedged shards


def test_socket_epsilon_rules_compact_on_wire(epsilon_artifact):
    """ε rules travel as all_offsets_rules; the client re-expands them so
    match sets stay byte-identical to a single-process scan."""
    payload = b"xxabcaax" * 4
    oracle = _oracle(epsilon_artifact, payload)
    with ServerThread(epsilon_artifact, ServeConfig(shards=1)) as address:
        with MatchClient.connect(address) as client:
            result = client.match(payload)
    assert result.ok
    assert result.raw["all_offsets_rules"] == [0]
    assert all(rule != 0 for rule, _ in result.raw["matches"])
    assert result.matches == oracle
    assert result.stats["match_count"] == len(oracle)


def test_socket_oversize_response_answers_500(artifact, monkeypatch):
    """A response that cannot be framed must come back as a small 500 —
    not kill the dispatcher (nothing was written, framing is intact)."""
    import repro.serve.protocol as protocol_module

    monkeypatch.setattr(protocol_module, "MAX_FRAME_BYTES", 256)
    with ServerThread(artifact, ServeConfig(shards=1)) as address:
        with MatchClient.connect(address) as client:
            result = client.match(b"needle" * 16)
            assert result.status == "error" and result.code == 500
            assert "frame" in (result.error or "")
            assert client.ping()  # connection and dispatcher both alive


def test_socket_degradation_reported(artifact):
    with faultinject.inject("alloc", "lazy"):
        with ServerThread(artifact, ServeConfig(shards=1, backend="lazy")) as address:
            with MatchClient.connect(address) as client:
                result = client.match(PAYLOAD)
    assert result.ok
    assert result.backend == "python"
    steps = result.raw["degradations"]
    assert [(s["from"], s["to"]) for s in steps] == [("lazy", "python")]
    assert steps[0]["reason"].startswith("allocation-failure")
    assert result.matches == _oracle(artifact, PAYLOAD)


# ---------------------------------------------------------------------------
# Client failure paths: torn frames, reconnects, idempotent retries
# ---------------------------------------------------------------------------


def _misbehaving_server(handler):
    """A one-connection TCP stub: accept, read one request frame, then
    run ``handler(conn)`` to misbehave on the reply.  Returns the address."""
    listener = socket_module.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    address = listener.getsockname()

    def _read_frame(conn):
        buffered = b""
        while len(buffered) < 4:
            chunk = conn.recv(4 - len(buffered))
            if not chunk:
                return
            buffered += chunk
        (length,) = struct.unpack(">I", buffered)
        remaining = length
        while remaining:
            chunk = conn.recv(remaining)
            if not chunk:
                return
            remaining -= len(chunk)

    def run():
        conn, _ = listener.accept()
        try:
            _read_frame(conn)
            handler(conn)
        finally:
            conn.close()
            listener.close()

    threading.Thread(target=run, daemon=True).start()
    return address


def test_client_truncated_length_prefix_raises_connection_lost():
    """EOF inside the 4-byte length prefix is a lost connection (typed,
    retryable) — not a generic frame/JSON error."""
    address = _misbehaving_server(lambda conn: conn.sendall(b"\x00\x00"))
    with MatchClient.connect(address, timeout=5.0, retry=RetryPolicy.none()) as client:
        with pytest.raises(ConnectionLost, match="mid-frame"):
            client.match(b"needle")


def test_client_mid_frame_eof_raises_connection_lost():
    """A frame that promises more bytes than the peer delivers before
    closing must surface as ConnectionLost with the byte accounting."""

    def tease(conn):
        conn.sendall(struct.pack(">I", 100) + b'{"id": 1, "status"')

    address = _misbehaving_server(tease)
    with MatchClient.connect(address, timeout=5.0, retry=RetryPolicy.none()) as client:
        with pytest.raises(ConnectionLost, match="18 of 100 bytes"):
            client.match(b"needle")


def test_client_reconnects_after_server_restart(artifact, tmp_path):
    """A client holding a connection across a server restart re-dials the
    same address under its RetryPolicy and completes the request."""
    path = str(tmp_path / "sock")
    config = ServeConfig(shards=1)
    with ServerThread(artifact, config, socket_path=path) as address:
        client = MatchClient.connect(address, retry=RetryPolicy(max_attempts=4))
        assert client.match(PAYLOAD).matches == _oracle(artifact, PAYLOAD)
    # the server the client was talking to is gone; bring up a successor
    with ServerThread(artifact, config, socket_path=path):
        result = client.match(PAYLOAD)
        assert result.ok and result.matches == _oracle(artifact, PAYLOAD)
        assert client.reconnects >= 1 and client.retries >= 1
    client.close()


def test_client_timeout_separation(artifact):
    """connect_timeout bounds only the dial; the request timeout governs
    the connected socket (the historical conflation is gone)."""
    with ServerThread(artifact, ServeConfig(shards=1)) as address:
        with MatchClient.connect(address, timeout=7.5, connect_timeout=0.5) as client:
            assert client._sock.gettimeout() == 7.5
            assert client.ping()


def test_client_idempotent_retry_answered_from_dedup_window(artifact):
    """Reply-loss drill: with serve.conn.drop armed the scan completes but
    the answer is dropped; the retry carries the same request_key and is
    answered from the server's dedup window — never scanned twice, never
    answered differently."""
    oracle = _oracle(artifact, PAYLOAD)
    with ServerThread(artifact, ServeConfig(shards=1)) as address:
        with MatchClient.connect(address, retry=RetryPolicy(max_attempts=8)) as client:
            with faultinject.inject("serve.conn.drop", 0.5):
                for _ in range(6):
                    assert client.match(PAYLOAD).matches == oracle
            stats = client.server_stats()
    assert client.reconnects >= 1
    assert stats["requests_deduped"] >= 1
    assert stats["dedup_window"]["hits"] >= 1
