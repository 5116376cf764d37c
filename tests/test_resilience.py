"""Self-healing serve tests: retries, supervision, admission, reload.

The chaos drills for docs/robustness.md's "serve resilience" section:
unit tests for the :mod:`repro.serve.resilience` primitives (pure state
machines — no sockets), then pool- and service-level drills driven by
the ``serve.worker.*`` / ``serve.conn.*`` fault points: hung workers
killed by the watchdog and rescued exactly, kill storms opening the
circuit breaker with inline dispatcher scans behind it, heartbeat
probes restarting dead executors, admission control shedding with
Retry-After hints, and hot ruleset reloads that drop nothing.

Everything here carries the ``chaos`` marker (``make chaos-smoke``).
"""

from __future__ import annotations

import asyncio
import random
import threading
import time

import pytest

import repro.obs as obs
import repro.serve.server as server_module
from repro.engine.imfant import IMfantEngine
from repro.guard import faultinject
from repro.guard.errors import ConnectionLost, UsageError
from repro.pipeline.compiler import CompileOptions
from repro.serve import (
    AdmissionController,
    ArtifactStore,
    DedupWindow,
    MatchClient,
    MatchRequest,
    RetryPolicy,
    ServeConfig,
    ServerThread,
    ShardPool,
    ShardSupervisor,
)
from repro.serve.protocol import encode_payload
from repro.serve.server import MatchService

pytestmark = pytest.mark.chaos

PATTERNS = ["needle", "boundary", "ha[py]{2}stack", "x[0-9]{1,3}y"]
PAYLOAD = (b"xy" * 300 + b"needle" + b"z" * 200 + b"happystack"
           + b"no" * 150 + b"x42y" + b"boundary")


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("chaos-artifacts"))
    return store.get_or_compile(PATTERNS, CompileOptions(emit_anml=False))


def _oracle(artifact, payload: bytes) -> set:
    text = payload.decode("latin-1")
    matches: set = set()
    for mfsa in artifact.mfsas:
        matches |= IMfantEngine(mfsa).run(text).matches
    return matches


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(UsageError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(UsageError):
        RetryPolicy(base_delay=-0.1)
    with pytest.raises(UsageError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(UsageError):
        RetryPolicy(op_deadline=0)


def test_retry_policy_full_jitter_bounds():
    """Each backoff is uniform on [0, cap]: never negative, never past
    the exponential cap, never past max_delay."""
    policy = RetryPolicy(base_delay=0.1, max_delay=1.0, multiplier=2.0)
    rng = random.Random(7)
    for attempt in range(8):
        cap = min(1.0, 0.1 * 2.0 ** attempt)
        for _ in range(25):
            delay = policy.delay(attempt, rng)
            assert 0.0 <= delay <= cap


def test_retry_policy_none_is_single_attempt():
    assert RetryPolicy.none().max_attempts == 1


# ---------------------------------------------------------------------------
# DedupWindow
# ---------------------------------------------------------------------------


def test_dedup_window_validation():
    with pytest.raises(UsageError):
        DedupWindow(ttl=0)
    with pytest.raises(UsageError):
        DedupWindow(max_entries=0)


def test_dedup_window_replay_and_lru_eviction():
    window = DedupWindow(ttl=30.0, max_entries=2)
    window.put("a", {"id": 1})
    window.put("b", {"id": 2})
    assert window.get("a") == {"id": 1}
    assert window.hits == 1
    window.put("c", {"id": 3})  # evicts "b": the hit refreshed "a"
    assert window.get("b") is None
    assert window.get("a") is not None and window.get("c") is not None
    assert len(window) == 2


def test_dedup_window_ttl_expiry():
    window = DedupWindow(ttl=0.05)
    window.put("k", {"id": 1})
    assert window.get("k") is not None
    time.sleep(0.1)
    assert window.get("k") is None
    assert len(window) == 0


# ---------------------------------------------------------------------------
# AdmissionController
# ---------------------------------------------------------------------------


def test_admission_validation():
    with pytest.raises(UsageError):
        AdmissionController(target=0)
    with pytest.raises(UsageError):
        AdmissionController(window=0)


def test_admission_watches_minimum_not_mean():
    """One fast request inside the window proves the queue is a burst,
    not standing overload — CoDel's core discrimination."""
    burst = AdmissionController(target=0.05, window=5.0)
    burst.observe(0.5)
    burst.observe(0.001)  # somebody got through fast
    assert not burst.should_shed()

    standing = AdmissionController(target=0.05, window=5.0)
    for _ in range(5):
        standing.observe(0.2)  # even the luckiest request waited 4× target
    assert standing.should_shed()
    hint = standing.shed()
    assert hint >= standing.target
    assert standing.shed_total == 1


def test_admission_idle_admits_and_window_slides():
    controller = AdmissionController(target=0.01, window=0.05)
    assert controller.min_wait() is None and not controller.should_shed()
    controller.observe(1.0)
    assert controller.should_shed()
    time.sleep(0.1)  # the bad observation ages out of the window
    assert controller.min_wait() is None and not controller.should_shed()


# ---------------------------------------------------------------------------
# ShardSupervisor
# ---------------------------------------------------------------------------


def test_supervisor_restarts_with_backoff_then_hands_to_ladder():
    supervisor = ShardSupervisor(max_restarts=2, backoff_base=0.01,
                                 backoff_max=1.0, storm_threshold=100)
    rng = random.Random(3)
    first = supervisor.on_failure(rng)
    assert first.restart and 0.0 <= first.delay <= 0.01
    second = supervisor.on_failure(rng)
    assert second.restart and second.delay <= 0.02  # exponential cap grew
    third = supervisor.on_failure(rng)
    # consecutive budget exhausted: no restart, no breaker — the caller's
    # next rung (the backend degradation ladder) takes over
    assert not third.restart and not third.breaker_open
    assert supervisor.restarts_total == 2
    supervisor.record_success()  # a completed scan resets the sequence
    assert supervisor.on_failure(rng).restart


def test_supervisor_storm_opens_breaker_and_cooldown_closes_it():
    supervisor = ShardSupervisor(max_restarts=100, storm_threshold=2,
                                 storm_window=30.0, cooldown=0.15,
                                 backoff_base=0.0, backoff_max=0.0)
    rng = random.Random(3)
    assert supervisor.on_failure(rng).restart
    assert supervisor.on_failure(rng).restart
    storm = supervisor.on_failure(rng)  # third failure inside the window
    assert not storm.restart and storm.breaker_open
    assert supervisor.breaker_open() and supervisor.breaker_remaining() > 0
    assert supervisor.breaker_opens_total == 1
    while_open = supervisor.on_failure(rng)
    assert not while_open.restart and while_open.breaker_open
    time.sleep(0.2)
    assert not supervisor.breaker_open()
    snapshot = supervisor.snapshot()
    assert snapshot["restarts_total"] == 2
    assert snapshot["breaker_opens_total"] == 1
    assert snapshot["breaker_open"] is False


# ---------------------------------------------------------------------------
# Pool drills: hung workers, kill storms, heartbeats
# ---------------------------------------------------------------------------


def test_watchdog_kills_hung_worker_and_rescues_exactly(tmp_path):
    """A process worker wedged past 2× the scan deadline is hard-killed
    and its chunk re-scanned inline — the answer stays exact (the SFA
    mapping recomputes identically on the dispatcher), well before the
    injected 30s hang would have returned."""
    # an unbounded rule puts the pool on SFA mappings
    artifact = ArtifactStore(tmp_path).get_or_compile(
        PATTERNS + ["ne+dle.*happy"], CompileOptions(emit_anml=False)
    )
    oracle = _oracle(artifact, PAYLOAD)
    assert any(rule == len(PATTERNS) for rule, _ in oracle)
    deadline = 0.3
    with faultinject.inject("serve.worker.hang", 30.0):
        with obs.capture() as cap:
            with ShardPool(artifact, num_shards=2) as pool:
                assert pool.strategy == "sfa"
                started = time.perf_counter()
                result = pool.scan(PAYLOAD, deadline=deadline)
                elapsed = time.perf_counter() - started
    assert result.full_matches() == oracle  # exact, not partial
    assert not result.partial
    assert pool.supervisor.hangs_total >= 1
    # detected at deadline + one extra budget (2× total), rescued inline
    assert elapsed < 10.0
    hangs = cap.registry.get("serve_worker_hangs_total")
    rescued = cap.registry.get("serve_rescued_jobs_total")
    assert hangs is not None and hangs.value >= 1
    assert rescued is not None and rescued.value >= 1


def test_kill_storm_opens_breaker_and_scans_inline(artifact):
    """Workers that die on every scan entry: the supervisor restarts,
    the ladder degrades, the storm opens the breaker — and the scan
    still returns the exact match set via inline dispatcher rescue."""
    oracle = _oracle(artifact, PAYLOAD)
    supervisor = ShardSupervisor(max_restarts=1, backoff_base=0.0,
                                 backoff_max=0.0, storm_threshold=2,
                                 storm_window=30.0, cooldown=60.0)
    with faultinject.inject("serve.worker.kill", True):
        with obs.capture() as cap:
            with ShardPool(artifact, num_shards=2, supervisor=supervisor) as pool:
                result = pool.scan(PAYLOAD)
                assert result.full_matches() == oracle
                assert supervisor.breaker_opens_total == 1
                assert supervisor.breaker_open()
                # while open, scans bypass the crash loop entirely
                again = pool.scan(PAYLOAD)
                assert again.full_matches() == oracle
    restarts = cap.registry.get("serve_supervisor_restarts_total")
    inline = cap.registry.get("serve_breaker_inline_scans_total")
    assert restarts is not None and restarts.value >= 2
    assert inline is not None and inline.value >= 1
    assert supervisor.restarts_total >= 2


def test_heartbeat_probe_detects_dead_workers_and_recovers(artifact):
    oracle = _oracle(artifact, PAYLOAD)
    with ShardPool(artifact, num_shards=2) as pool:
        assert pool.scan(PAYLOAD).full_matches() == oracle
        assert pool.heartbeat() is True
        assert pool.last_heartbeat_ok is True
        for process in list(pool._executor._processes.values()):
            process.kill()  # simulated OOM-kill between scans
        assert pool.heartbeat(timeout=5.0) is False
        assert pool.last_heartbeat_ok is False
        assert pool.supervisor.restarts_total >= 1
        # the probe dropped the broken executor: the next scan rebuilds
        assert pool.scan(PAYLOAD).full_matches() == oracle
        assert pool.heartbeat() is True


def test_retired_pool_refuses_new_pins(artifact):
    pool = ShardPool(artifact, num_shards=1)
    pool.acquire()
    pool.close()  # retired, but held open by the in-flight pin
    with pytest.raises(UsageError):
        pool.acquire()
    assert pool.heartbeat() is False  # retired pools report unhealthy
    pool.release()  # last pin out → executor actually shut down


# ---------------------------------------------------------------------------
# Service drills: admission, health, reload
# ---------------------------------------------------------------------------


def _collecting_reply(replies: list):
    async def reply(document):
        replies.append(document)
    return reply


@pytest.fixture
def long_admission_window(monkeypatch):
    """A 30 s wait-floor window, so no observation ages out mid-test."""
    monkeypatch.setattr(server_module, "_ADMISSION_WINDOW", 30.0)


def test_admission_observes_real_queue_waits(artifact, long_admission_window):
    config = ServeConfig(shards=1, admission_target=0.5)
    replies: list = []

    async def scenario():
        service = MatchService(artifact, config)
        await service.start()
        try:
            request = MatchRequest.from_document(
                {"id": 1, "payload": encode_payload(b"needle")}
            )
            await service.submit(request, _collecting_reply(replies))
            while not replies:
                await asyncio.sleep(0.005)
            # the dispatcher fed the measured queue wait to the controller
            assert service.admission is not None
            assert service.admission.min_wait() is not None
        finally:
            await service.stop()

    asyncio.run(scenario())
    assert replies[0]["status"] == "ok"


def test_admission_sheds_standing_overload_with_retry_after(
    artifact, long_admission_window
):
    config = ServeConfig(shards=1, admission_target=0.005)
    replies: list = []

    async def scenario():
        service = MatchService(artifact, config)
        await service.start()
        try:
            # a standing queue: every recent dispatch waited 100× target
            for _ in range(3):
                service.admission.observe(0.5)
            request = MatchRequest.from_document(
                {"id": 7, "payload": encode_payload(b"needle")}
            )
            await service.submit(request, _collecting_reply(replies))
        finally:
            await service.stop()
        return service

    with obs.capture() as cap:
        service = asyncio.run(scenario())
    assert replies and replies[0]["status"] == "rejected"
    assert replies[0]["code"] == 429
    assert replies[0]["retry_after_ms"] >= config.admission_target * 1000.0
    assert service.admission.shed_total == 1
    shed = cap.registry.get("serve_admission_shed_total")
    assert shed is not None and shed.value == 1


def test_health_op_reflects_breaker_state(artifact):
    server = ServerThread(artifact, ServeConfig(shards=1)).start()
    try:
        with MatchClient.connect(server.address, retry=RetryPolicy.none()) as client:
            document = client.health()
            assert document["status"] == "ok" and document["code"] == 200
            assert document["healthy"] and document["ready"]
            assert all(document["checks"].values())
            # open the worker breaker: the probe must flip to 503
            server.service.supervisor._open_until = time.monotonic() + 60.0
            document = client.health()
            assert document["status"] == "unavailable" and document["code"] == 503
            assert document["healthy"] and not document["ready"]
            assert document["checks"]["worker_breaker_closed"] is False
            server.service.supervisor._open_until = 0.0
            assert client.health()["ready"]
    finally:
        server.stop()


def test_reload_refused_without_store_and_when_disabled(artifact, tmp_path):
    with ServerThread(artifact, ServeConfig(shards=1)) as address:  # no store
        with MatchClient.connect(address) as client:
            with pytest.raises(UsageError, match="reload"):
                client.reload(["abc"])
            assert client.ping()  # the refusal does not poison the stream

    store = ArtifactStore(tmp_path)
    art = store.get_or_compile(["abc"], CompileOptions(emit_anml=False))
    config = ServeConfig(shards=1, allow_reload=False)
    with ServerThread(art, config, store=store) as address:
        with MatchClient.connect(address) as client:
            with pytest.raises(UsageError):
                client.reload(["abd"])
            with pytest.raises(UsageError):  # and validation still applies
                client.reload([])
            assert client.ping()


def test_hot_reload_drops_nothing_under_traffic(tmp_path):
    """The headline reload guarantee: clients hammering the service
    across two ruleset swaps see only complete, correct answers — every
    match set is exactly one ruleset's oracle, before or after."""
    store = ArtifactStore(tmp_path)
    art_a = store.get_or_compile(["alpha", "needle"], CompileOptions(emit_anml=False))
    art_b = store.get_or_compile(["beta", "needle"], CompileOptions(emit_anml=False))
    payload = b"..alpha..needle..beta.." * 3
    oracle_a = frozenset(_oracle(art_a, payload))
    oracle_b = frozenset(_oracle(art_b, payload))
    assert oracle_a != oracle_b

    server = ServerThread(art_a, ServeConfig(shards=1), store=store).start()
    stop = threading.Event()
    outcomes: list = []
    errors: list = []

    def hammer():
        try:
            with MatchClient.connect(
                server.address, retry=RetryPolicy(max_attempts=4)
            ) as client:
                while not stop.is_set():
                    result = client.match(payload)
                    outcomes.append((result.status, frozenset(result.matches)))
        except Exception as exc:  # noqa: BLE001 — the test asserts emptiness
            errors.append(exc)

    threads = [threading.Thread(target=hammer, daemon=True) for _ in range(2)]
    try:
        for thread in threads:
            thread.start()
        time.sleep(0.25)
        with MatchClient.connect(server.address) as admin:
            info = admin.reload(["beta", "needle"])
            assert info["swaps"] == 1 and info["rules"] == 2
            time.sleep(0.25)
            info = admin.reload(["alpha", "needle"])
            assert info["swaps"] == 2
            time.sleep(0.25)
            stats = admin.server_stats()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        server.stop()

    assert not errors
    assert len(outcomes) > 10
    assert all(status == "ok" for status, _ in outcomes)  # zero dropped
    valid = {oracle_a, oracle_b}
    assert all(matches in valid for _, matches in outcomes)  # zero incorrect
    assert stats["reload_swaps"] == 2


def test_frame_truncate_drill_recovers_with_retry(artifact):
    """Torn reply frames: fail-fast clients see a typed ConnectionLost;
    retrying clients reconnect and still get exact answers."""
    oracle = _oracle(artifact, PAYLOAD)
    with ServerThread(artifact, ServeConfig(shards=1)) as address:
        with MatchClient.connect(address, retry=RetryPolicy.none()) as bare:
            with faultinject.inject("serve.frame.truncate", True):
                with pytest.raises(ConnectionLost):
                    bare.match(PAYLOAD)
        with MatchClient.connect(
            address, retry=RetryPolicy(max_attempts=8)
        ) as client:
            with faultinject.inject("serve.frame.truncate", 0.5):
                for _ in range(4):
                    assert client.match(PAYLOAD).matches == oracle
            assert client.reconnects >= 1


def test_server_heartbeat_loop_sets_gauge(artifact):
    config = ServeConfig(shards=1, heartbeat_interval=0.05)
    with obs.capture() as cap:
        server = ServerThread(artifact, config).start()
        try:
            with MatchClient.connect(server.address) as client:
                assert client.match(PAYLOAD).ok
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if server.service.pool.last_heartbeat_ok:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("heartbeat probe never completed")
                assert client.health()["checks"]["worker_heartbeat"]
        finally:
            server.stop()
    gauge = cap.registry.get("serve_heartbeat_ok")
    assert gauge is not None and gauge.value == 1
