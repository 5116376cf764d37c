"""The asyncio front door: batching, backpressure, deadlines, obs.

The resident matching service (Figs. 9–10 at service scale): one
process accepts length-prefixed JSON requests over TCP or a UNIX
socket, coalesces them into batches, and hands each payload to the
:class:`~repro.serve.shards.ShardPool`.  The design goals, in order:

1. **Never hang.**  Every match request runs under a per-request
   :class:`~repro.guard.budget.Budget` deadline (client-supplied
   ``deadline_ms`` or the configured default); a wedged shard surfaces
   the honest partial result with a 206-style status.
2. **Reject early, explicitly.**  The request queue is bounded
   (``queue_depth``); when it is full the request is answered *now*
   with a 429-style rejection instead of queueing into a latency cliff.
   Shutdown drains: queued work is answered (bounded window) and
   anything left gets an explicit shutting-down rejection, never a
   silently closed socket.  The dispatcher guards every per-request
   path — a reset client, an unframeable response, or a non-ReproError
   worker crash costs that one request a 500, not the service — and a
   done-callback restarts the loop if a bug escapes anyway.
3. **Batch the front, shard the back.**  The dispatcher drains up to
   ``batch_max`` queued requests per cycle and hands each scan to a
   thread (``asyncio.to_thread``), so the loop keeps accepting while
   they run.  An in-process pool scans them one after another over its
   one engine set (CPython never runs two scans at once); with
   ``shards > 1`` the jobs run on the worker processes, where the
   requests of a batch overlap.
4. **Observable.**  Queue-depth gauge, request/reject/partial counters,
   batch-size and queue-wait histograms, per-shard throughput (via the
   pool) — all on the active :mod:`repro.obs` registry, exportable with
   the usual ``--metrics-out``.
5. **Self-healing.**  Worker supervision rides in the pool (restart
   backoff, hung-scan watchdog, breaker — :mod:`repro.serve.shards`);
   the service adds the request-plane half: a :class:`~repro.serve.
   resilience.DedupWindow` answers idempotent retries without a second
   scan, an optional :class:`~repro.serve.resilience.
   AdmissionController` sheds standing overload early with Retry-After
   hints, a periodic worker heartbeat catches dead executors *between*
   requests, the ``health`` op separates liveness from readiness, and
   the ``reload`` op compiles a new ruleset off the loop and atomically
   swaps the shard pool under live traffic (in-flight scans pin the old
   pool via refcount; zero requests dropped).

:class:`ServerThread` wraps the event loop in a daemon thread for
synchronous callers (tests, benchmarks, the CLI's smoke path).
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable, Optional, Sequence

import repro.obs as obs
from repro.guard import faultinject
from repro.guard.budget import Budget
from repro.guard.errors import DeadlineExceeded, ReproError, UsageError
from repro.serve.artifacts import Artifact, ArtifactStore
from repro.serve.protocol import (
    STATUS_CODES,
    FrameError,
    MatchRequest,
    decode_body,
    encode_frame,
    error_response,
    frame_length,
    match_response,
)
from repro.serve.resilience import AdmissionController, DedupWindow, ShardSupervisor
from repro.serve.shards import ShardPool

__all__ = ["ServeConfig", "MatchService", "MatchServer", "ServerThread"]

_log = logging.getLogger("repro.serve")

#: finished spans older than this (seconds) are pruned from a
#: *service-owned* tracer after each batch (bounds memory on
#: long-running servers)
_TRACE_MAX_AGE = 60.0
#: sliding interval (seconds) over which the admission controller takes
#: its queue-wait floor
_ADMISSION_WINDOW = 1.0
#: how long (seconds) a completed response stays replayable for an
#: idempotent retry carrying the same ``request_key``
_DEDUP_TTL = 30.0


@dataclass(frozen=True)
class ServeConfig:
    """Sizing and behaviour knobs for one service instance."""

    #: jobs per payload: 1 scans in process on the request's thread;
    #: N > 1 splits each payload over N jobs on worker processes that
    #: load the artifact from disk
    shards: int = 1
    #: max requests coalesced into one dispatch cycle
    batch_max: int = 8
    #: bounded request-queue depth; a full queue rejects (429-style)
    queue_depth: int = 64
    backend: str = "lazy"
    #: default per-request wall-clock deadline in seconds (None = none);
    #: a request's ``deadline_ms`` overrides it
    default_deadline: Optional[float] = None
    #: honour the protocol's ``shutdown`` op (CLI and tests; a hardened
    #: deployment would front this with real auth)
    allow_shutdown: bool = True
    #: honour the protocol's ``reload`` op (needs an artifact store on
    #: the service to compile the incoming patterns)
    allow_reload: bool = True
    #: CoDel-style admission target in seconds: shed new requests while
    #: the *minimum* queue wait over the last second stays above this
    #: (None = admission control off)
    admission_target: Optional[float] = None
    #: period of the background worker heartbeat probe (None = off);
    #: catches dead/wedged executors between requests instead of on the
    #: first victim request
    heartbeat_interval: Optional[float] = None
    #: enable a service-owned metrics registry when none is active, so a
    #: bare ``repro serve`` still answers the ``stats`` op with
    #: percentiles (an already-active registry is reused, never replaced)
    metrics: bool = True
    #: record per-request span trees (queue-wait / scan / frame phases)
    #: and honour the protocol's ``ship_spans`` flag; enables a
    #: service-owned tracer when none is active
    trace_requests: bool = False

    def __post_init__(self) -> None:
        if self.batch_max < 1:
            raise UsageError(f"batch_max must be >= 1 (got {self.batch_max})")
        if self.queue_depth < 1:
            raise UsageError(f"queue_depth must be >= 1 (got {self.queue_depth})")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise UsageError("default_deadline must be positive")
        if self.admission_target is not None and self.admission_target <= 0:
            raise UsageError("admission_target must be positive")
        if self.heartbeat_interval is not None and self.heartbeat_interval <= 0:
            raise UsageError("heartbeat_interval must be positive")


class _Metrics:
    """Lazily-bound obs instruments (no-ops when obs is disabled)."""

    def __init__(self) -> None:
        pass

    @property
    def registry(self):
        return obs.get_registry()

    def count(self, name: str, help: str, amount: float = 1.0) -> None:
        registry = self.registry
        if registry is not None:
            registry.counter(name, help=help).inc(amount)

    def gauge(self, name: str, help: str, value: float) -> None:
        registry = self.registry
        if registry is not None:
            registry.gauge(name, help=help).set(value)

    def observe(self, name: str, help: str, value: float, bounds=None) -> None:
        registry = self.registry
        if registry is not None:
            registry.histogram(name, bounds=bounds, help=help).observe(value)


@dataclass
class _Pending:
    """One queued match request plus its reply channel and budget meter."""

    request: MatchRequest
    reply: Callable[[dict[str, Any]], Awaitable[None]]
    meter: Any  # BudgetMeter | None
    enqueued_at: float
    #: the request's root span (NOOP_SPAN when tracing is off); children
    #: attach via explicit ``parent=`` — requests interleave on the event
    #: loop, so thread-local span stacks would mis-parent them
    span: Any = obs.NOOP_SPAN
    trace_id: Optional[str] = None


class MatchService:
    """The queue + dispatcher + shard pool behind the socket front end."""

    def __init__(
        self,
        artifact: Artifact,
        config: ServeConfig | None = None,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        self.artifact = artifact
        self.config = config or ServeConfig()
        #: compiles ``reload`` rulesets; without one, reload is refused
        self.store = store
        #: one supervisor for the service's lifetime — restart/breaker
        #: history survives hot reloads (worker health is orthogonal to
        #: which ruleset the workers run)
        self.supervisor = ShardSupervisor()
        self.pool = self._build_pool(artifact)
        self.dedup = DedupWindow(ttl=_DEDUP_TTL)
        self.admission: Optional[AdmissionController] = (
            AdmissionController(
                target=self.config.admission_target, window=_ADMISSION_WINDOW
            )
            if self.config.admission_target is not None
            else None
        )
        self.metrics = _Metrics()
        self.requests_handled = 0
        self.requests_rejected = 0
        self.requests_partial = 0
        self.requests_deduped = 0
        self.batches = 0
        self.reload_swaps = 0
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._reload_lock: Optional[asyncio.Lock] = None
        self._inflight = 0
        self._running = False
        self._draining = False
        self._owns_registry = False
        self._owns_tracer = False

    def _build_pool(self, artifact: Artifact) -> ShardPool:
        return ShardPool(
            artifact,
            num_shards=self.config.shards,
            backend=self.config.backend,
            supervisor=self.supervisor,
        )

    def _acquire_pool(self) -> ShardPool:
        """Pin the current pool for one scan.  A hot reload can retire
        the pool between reading the reference and pinning it — re-read
        until the pin lands (the swap is a single attribute write, so
        this loop runs at most twice in practice)."""
        while True:
            pool = self.pool
            try:
                pool.acquire()
                return pool
            except UsageError:
                continue

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        # service-owned observability: turn on what the config asks for
        # and nothing is already providing, and own its lifecycle (an
        # ambient tracer/registry — tests, --trace-out — is reused as-is)
        if self.config.metrics and obs.get_registry() is None:
            from repro.obs import metrics as _obs_metrics

            _obs_metrics.enable()
            self._owns_registry = True
        if self.config.trace_requests and obs.get_tracer() is None:
            from repro.obs import spans as _obs_spans

            _obs_spans.enable()
            self._owns_tracer = True
        self._queue = asyncio.Queue(maxsize=self.config.queue_depth)
        self._reload_lock = asyncio.Lock()
        self._running = True
        self._draining = False
        self._spawn_dispatcher()
        if self.config.heartbeat_interval is not None:
            self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())

    def _spawn_dispatcher(self) -> None:
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._dispatcher.add_done_callback(self._on_dispatcher_done)

    def _on_dispatcher_done(self, task: asyncio.Task) -> None:
        """Last line of defence: the dispatcher must not die silently.

        ``_process`` guards every per-request path, so reaching here with
        an exception means a bug escaped — restart the loop so queued
        requests keep draining instead of 429-ing forever.
        """
        if task.cancelled() or not self._running:
            return
        exc = task.exception()
        if exc is None:
            return
        _log.error("serve dispatcher died unexpectedly (%r); restarting", exc)
        self.metrics.count(
            "serve_dispatcher_restarts_total",
            "dispatcher tasks restarted after an unexpected death",
        )
        self._spawn_dispatcher()

    async def _wait_drained(self) -> None:
        while (self._queue is not None and self._queue.qsize() > 0) or self._inflight:
            await asyncio.sleep(0.01)

    async def stop(self, drain_timeout: float = 5.0) -> None:
        """Drain, then stop: answer queued work before killing the loop.

        New submissions are rejected the moment draining starts; requests
        already queued or in flight get up to ``drain_timeout`` seconds
        to complete, and anything still queued after that is answered
        with an explicit shutting-down rejection — clients never learn of
        a shutdown only via a closed connection.
        """
        self._draining = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        if self._dispatcher is not None and drain_timeout > 0:
            try:
                await asyncio.wait_for(self._wait_drained(), timeout=drain_timeout)
            except asyncio.TimeoutError:
                pass
        self._running = False
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._queue is not None:
            while True:
                try:
                    pending = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                self.requests_rejected += 1
                self.metrics.count(
                    "serve_rejected_total",
                    "requests rejected by backpressure (queue full)",
                )
                self._finish_span(pending, status="error")
                await self._try_reply(
                    pending,
                    error_response(
                        pending.request.id, "rejected", "server shutting down"
                    ),
                )
        self.pool.close()
        if self._owns_registry:
            from repro.obs import metrics as _obs_metrics

            _obs_metrics.disable()
            self._owns_registry = False
        if self._owns_tracer:
            from repro.obs import spans as _obs_spans

            _obs_spans.disable()
            self._owns_tracer = False

    @staticmethod
    def _finish_span(pending: _Pending, status: Optional[str] = None) -> None:
        """Close the request's root span exactly once (no-op when off)."""
        span = pending.span
        if isinstance(span, obs.Span) and span.end is None:
            obs.end_span(span, status=status)

    # -- intake ------------------------------------------------------------

    def _deadline_for(self, request: MatchRequest) -> Optional[float]:
        if request.deadline_ms is not None:
            return request.deadline_ms / 1000.0
        return self.config.default_deadline

    async def submit(
        self,
        request: MatchRequest,
        reply: Callable[[dict[str, Any]], Awaitable[None]],
    ) -> None:
        """Enqueue a match request, or answer 429 when the queue is full.

        The budget deadline starts *here* — queue wait counts against
        the request's wall clock, as a client sees it.
        """
        assert self._queue is not None, "service not started"
        if self._draining:
            self.requests_rejected += 1
            self.metrics.count(
                "serve_rejected_total", "requests rejected by backpressure (queue full)"
            )
            await reply(
                error_response(request.id, "rejected", "server shutting down")
            )
            return
        if request.request_key is not None:
            stored = self.dedup.get(request.request_key)
            if stored is not None:
                # an idempotent retry of work that already completed —
                # the first reply was lost, not the scan.  Replay the
                # stored answer under the retry's id; never scan twice.
                self.requests_deduped += 1
                self.metrics.count(
                    "serve_dedup_replays_total",
                    "responses replayed from the idempotent-retry window",
                )
                replayed = dict(stored)
                replayed["id"] = request.id
                replayed["deduped"] = True
                await reply(replayed)
                return
        if self.admission is not None and self.admission.should_shed():
            # standing overload: the *minimum* queue wait has stayed
            # above target — shed now with a backoff hint instead of
            # queueing into a latency cliff
            hint = self.admission.shed()
            self.requests_rejected += 1
            self.metrics.count(
                "serve_admission_shed_total",
                "requests shed by the admission controller",
            )
            self.metrics.count(
                "serve_rejected_total", "requests rejected by backpressure (queue full)"
            )
            document = error_response(
                request.id, "rejected",
                f"overloaded (queue wait floor above {self.admission.target}s); retry later",
            )
            document["retry_after_ms"] = round(hint * 1000.0, 3)
            await reply(document)
            return
        deadline = self._deadline_for(request)
        meter = Budget(deadline=deadline).start() if deadline is not None else None
        trace_id = request.trace_id
        span: Any = obs.NOOP_SPAN
        if obs.get_tracer() is not None:
            if trace_id is None and (self.config.trace_requests or request.ship_spans):
                trace_id = obs.new_trace_id()
            # the root span opens *before* enqueued_at is taken so the
            # queue-wait child starts inside its parent's interval
            span = obs.begin_span(
                "serve.request",
                trace_id=trace_id,
                request_id=request.id,
                bytes=len(request.payload),
            )
        pending = _Pending(
            request=request, reply=reply, meter=meter,
            enqueued_at=time.perf_counter(), span=span, trace_id=trace_id,
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.requests_rejected += 1
            self.metrics.count(
                "serve_rejected_total", "requests rejected by backpressure (queue full)"
            )
            self._finish_span(pending, status="error")
            document = error_response(
                request.id, "rejected",
                f"queue full ({self.config.queue_depth} deep); retry later",
            )
            if self.admission is not None:
                document["retry_after_ms"] = round(
                    (self.admission.min_wait() or self.admission.target) * 1000.0, 3
                )
            await reply(document)
            return
        self.metrics.gauge(
            "serve_queue_depth", "match requests waiting for dispatch",
            self._queue.qsize(),
        )

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.config.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.batches += 1
            self.metrics.count("serve_batches_total", "dispatch cycles executed")
            self.metrics.observe(
                "serve_batch_size", "requests coalesced per dispatch cycle",
                len(batch), bounds=_BATCH_BUCKETS,
            )
            self.metrics.gauge(
                "serve_queue_depth", "match requests waiting for dispatch",
                self._queue.qsize(),
            )
            self._inflight = len(batch)
            try:
                with obs.span("serve.batch", requests=len(batch)):
                    # _process guards itself; return_exceptions is the
                    # backstop that keeps one bad request from killing
                    # the dispatcher (and with it the whole service)
                    await asyncio.gather(
                        *(self._process(pending) for pending in batch),
                        return_exceptions=True,
                    )
            finally:
                self._inflight = 0
            if self._owns_tracer:
                tracer = obs.get_tracer()
                if tracer is not None:
                    tracer.prune(_TRACE_MAX_AGE)

    async def _try_reply(self, pending: _Pending, document: dict[str, Any]) -> None:
        """Best-effort reply: a vanished client must not take the
        dispatcher (or the rest of the batch) down with it."""
        try:
            await pending.reply(document)
        except Exception:
            pass

    async def _process(self, pending: _Pending) -> None:
        request = pending.request
        try:
            await self._process_inner(pending)
            self._finish_span(pending)
        except FrameError as exc:
            # the response document itself could not be framed (e.g. a
            # match set above MAX_FRAME_BYTES): nothing hit the wire, so
            # the connection framing is intact — answer with a small 500
            self._finish_span(pending, status="error")
            self.metrics.count("serve_errors_total", "requests failed with an error")
            await self._try_reply(
                pending,
                error_response(
                    request.id, "error", f"response exceeds frame ceiling: {exc}"
                ),
            )
        except ReproError as exc:
            self._finish_span(pending, status="error")
            self.metrics.count("serve_errors_total", "requests failed with an error")
            await self._try_reply(pending, error_response(request.id, "error", str(exc)))
        except (ConnectionResetError, BrokenPipeError, OSError):
            self._finish_span(pending, status="error")
        except Exception as exc:
            # anything else is a bug, but one request's bug: answer 500
            # and keep the dispatcher alive for everyone else
            _log.exception("unexpected error processing request %s", request.id)
            self._finish_span(pending, status="error")
            self.metrics.count("serve_errors_total", "requests failed with an error")
            await self._try_reply(
                pending, error_response(request.id, "error", f"internal error: {exc}")
            )

    async def _process_inner(self, pending: _Pending) -> None:
        request = pending.request
        self.requests_handled += 1
        self.metrics.count("serve_requests_total", "match requests processed")
        self.metrics.observe(
            "serve_request_bytes", "payload bytes per match request",
            len(request.payload), bounds=_BYTES_BUCKETS,
        )
        dispatched_at = time.perf_counter()
        queue_wait = dispatched_at - pending.enqueued_at
        self.metrics.observe(
            "serve_queue_wait_seconds", "time spent queued before dispatch",
            queue_wait, bounds=_WAIT_BUCKETS,
        )
        if self.admission is not None:
            self.admission.observe(queue_wait)
        obs.record_span(
            "serve.queue_wait", pending.enqueued_at, dispatched_at,
            parent=pending.span if isinstance(pending.span, obs.Span) else None,
        )
        remaining: Optional[float] = None
        if pending.meter is not None:
            try:
                pending.meter.check_deadline(stage="serve-queue")
            except DeadlineExceeded as exc:
                # the deadline died in the queue: answer partial-empty
                # rather than scanning work the client has given up on
                self.requests_partial += 1
                self.metrics.count(
                    "serve_partial_total", "requests answered with partial results"
                )
                self._finish_span(pending)
                await pending.reply(
                    match_response(
                        request.id, "partial", matches=set(),
                        stats=None, error=str(exc), shards=0,
                        backend=self.pool.backend,
                    )
                )
                return
            remaining = pending.meter.deadline_at - time.perf_counter()
        scan_started = time.perf_counter()
        pool = self._acquire_pool()
        try:
            result = await asyncio.to_thread(
                pool.scan,
                request.payload,
                deadline=remaining,
                single_match=request.single_match,
                trace_id=pending.trace_id,
                parent=pending.span if isinstance(pending.span, obs.Span) else None,
            )
        finally:
            pool.release()
        self.metrics.observe(
            "serve_scan_seconds", "shard-pool scan wall seconds per request",
            time.perf_counter() - scan_started, bounds=_WAIT_BUCKETS,
        )
        status = "partial" if result.partial else "ok"
        if result.partial:
            self.requests_partial += 1
            self.metrics.count(
                "serve_partial_total", "requests answered with partial results"
            )
        extra: dict[str, Any] = {}
        if result.all_offsets_rules:
            # ε-accepting rules stay compact on the wire; the client
            # expands them against its own copy of the payload length
            extra["all_offsets_rules"] = result.all_offsets_rules
        document = match_response(
            request.id,
            status,
            matches=result.matches,
            stats=result.stats.as_dict(),
            backend=result.backend,
            shards=result.shards,
            timed_out_shards=result.timed_out_shards,
            degradations=[
                {"from": s.from_backend, "to": s.to_backend, "reason": s.reason}
                for s in result.degradations
            ],
            **extra,
        )
        tracer = obs.get_tracer()
        if request.ship_spans and tracer is not None and pending.trace_id is not None:
            # a traced response: dry-encode to measure framing, close the
            # request span, and ship every span of this trace back to the
            # client for stitching.  The pop keeps a service-owned tracer
            # bounded; an ambient one (--trace-out) keeps its copy.
            frame_started = time.perf_counter()
            encode_frame(document)  # FrameError → _process answers 500
            frame_ended = time.perf_counter()
            self.metrics.observe(
                "serve_frame_seconds", "response framing wall seconds",
                frame_ended - frame_started, bounds=_WAIT_BUCKETS,
            )
            obs.record_span(
                "serve.frame", frame_started, frame_ended,
                parent=pending.span if isinstance(pending.span, obs.Span) else None,
            )
            self._finish_span(pending)
            document["spans"] = tracer.export_spans(
                trace_id=pending.trace_id, pop=self._owns_tracer
            )
        if request.request_key is not None:
            # remember the completed answer *before* the reply attempt:
            # the reply is exactly the part that can get lost, and a
            # retry must find the result waiting.  Span rows stay out —
            # a replay is not a re-trace.
            self.dedup.put(
                request.request_key,
                {key: value for key, value in document.items() if key != "spans"},
            )
        reply_started = time.perf_counter()
        await pending.reply(document)
        self.metrics.observe(
            "serve_reply_seconds", "frame-encode + socket-write wall seconds",
            time.perf_counter() - reply_started, bounds=_WAIT_BUCKETS,
        )

    # -- supervision / reload ----------------------------------------------

    async def _heartbeat_loop(self) -> None:
        """Probe a worker slot every ``heartbeat_interval`` seconds so a
        dead or wedged executor is caught (and rebuilt) between requests
        instead of on the first victim request."""
        assert self.config.heartbeat_interval is not None
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            try:
                pool = self._acquire_pool()
            except Exception:
                continue
            try:
                ok = await asyncio.to_thread(pool.heartbeat)
            except Exception:
                ok = False
            finally:
                pool.release()
            self.metrics.gauge(
                "serve_heartbeat_ok",
                "1 when the most recent worker heartbeat came back in time",
                1.0 if ok else 0.0,
            )

    async def reload(self, patterns: Sequence[str]) -> dict[str, Any]:
        """Compile ``patterns`` off the event loop and atomically swap
        the shard pool — the hot-reload op.

        The swap is one attribute write; requests already pinned to the
        old pool finish on the old engines (the refcount keeps its
        executor alive until they release), requests submitted after the
        write scan the new ruleset.  Nothing is dropped in between.  A
        failed compile leaves the serving pool untouched.
        """
        if self.store is None:
            raise UsageError("reload needs an artifact store (start the service with one)")
        assert self._reload_lock is not None, "service not started"
        async with self._reload_lock:
            artifact = await asyncio.to_thread(
                self.store.get_or_compile, list(patterns)
            )
            new_pool = self._build_pool(artifact)
            old_pool, self.pool = self.pool, new_pool
            self.artifact = artifact
            self.reload_swaps += 1
            self.metrics.count(
                "serve_reload_swaps_total",
                "hot ruleset reloads that swapped the shard pool",
            )
            # retire off-loop: close() blocks only until in-flight scans
            # on the old pool release their pins
            await asyncio.to_thread(old_pool.close)
        return {
            "ruleset_key": artifact.key,
            "rules": artifact.num_rules,
            "swaps": self.reload_swaps,
        }

    def health_snapshot(self) -> dict[str, Any]:
        """Liveness vs readiness, decomposed per subsystem.

        ``healthy`` = the dispatcher is alive (restart-on-death makes
        this nearly always true while the process lives); ``ready`` =
        healthy *and* accepting work at full capacity: not draining, the
        worker breaker closed, the last heartbeat (if any ran) answered.
        Load-balancers pull a not-ready instance; only a dead one gets
        restarted.
        """
        dispatcher_alive = (
            self._running
            and self._dispatcher is not None
            and not self._dispatcher.done()
        )
        breaker_open = self.supervisor.breaker_open()
        checks = {
            "dispatcher": dispatcher_alive,
            "not_draining": not self._draining,
            "worker_breaker_closed": not breaker_open,
            "worker_heartbeat": self.pool.last_heartbeat_ok is not False,
            "queue_has_room": (
                self._queue is not None
                and self._queue.qsize() < self.config.queue_depth
            ),
            "admission_open": self.admission is None or not self.admission.should_shed(),
        }
        healthy = dispatcher_alive
        ready = (
            healthy
            and checks["not_draining"]
            and checks["worker_breaker_closed"]
            and checks["worker_heartbeat"]
        )
        return {
            "healthy": healthy,
            "ready": ready,
            "checks": checks,
            "supervisor": self.supervisor.snapshot(),
        }

    # -- introspection -----------------------------------------------------

    def stats_snapshot(self) -> dict[str, Any]:
        return {
            "ruleset_key": self.artifact.key,
            "rules": self.artifact.num_rules,
            "mfsas": len(self.artifact.mfsas),
            "loaded_from_cache": self.artifact.loaded_from_cache,
            "backend": self.pool.backend,
            "shards": self.config.shards,
            "batch_max": self.config.batch_max,
            "queue_depth": self.config.queue_depth,
            "queued": self._queue.qsize() if self._queue is not None else 0,
            "overlap": self.pool.overlap,
            "strategy": self.pool.strategy,
            "requests_handled": self.requests_handled,
            "requests_rejected": self.requests_rejected,
            "requests_partial": self.requests_partial,
            "requests_deduped": self.requests_deduped,
            "batches": self.batches,
            "degradations": len(self.pool.degradations),
            "reload_swaps": self.reload_swaps,
            "dedup_window": {"entries": len(self.dedup), "hits": self.dedup.hits},
            "admission": (
                {
                    "target_s": self.admission.target,
                    "wait_floor_s": self.admission.min_wait(),
                    "shed_total": self.admission.shed_total,
                }
                if self.admission is not None
                else None
            ),
            "supervisor": self.supervisor.snapshot(),
        }

    def metrics_snapshot(self) -> Optional[dict[str, Any]]:
        """Every active-registry instrument, snapshotted (None when off)."""
        registry = obs.get_registry()
        return registry.as_dict() if registry is not None else None

    def latency_snapshot(self) -> Optional[dict[str, Any]]:
        """Per-phase latency percentiles in milliseconds (None when off).

        One entry per ``serve_*_seconds`` histogram that has data:
        ``{"serve_scan_seconds": {"count": n, "p50": ..., "p90": ...,
        "p95": ..., "p99": ..., "mean": ...}}`` — the decomposition the
        ``stats`` op, ``repro client --stats`` and ``repro obs top``
        render.
        """
        registry = obs.get_registry()
        if registry is None:
            return None
        out: dict[str, Any] = {}
        for inst in registry.instruments():
            if inst.kind != "histogram" or not inst.name.endswith("_seconds"):
                continue
            if not inst.name.startswith("serve_") or not inst.count:
                continue
            quantiles = inst.quantiles((0.5, 0.9, 0.95, 0.99))
            out[inst.name] = {
                "count": inst.count,
                "mean": round(inst.mean * 1e3, 6),
                **{
                    label: (round(value * 1e3, 6) if value is not None else None)
                    for label, value in quantiles.items()
                },
            }
        return out


class MatchServer:
    """asyncio socket server speaking the serve protocol."""

    def __init__(
        self,
        service: MatchService,
        host: Optional[str] = None,
        port: Optional[int] = None,
        socket_path: Optional[str] = None,
    ) -> None:
        if (socket_path is None) == (host is None and port is None):
            raise UsageError("specify either socket_path or host+port, not both")
        self.service = service
        self.host = host or "127.0.0.1"
        self.port = port
        self.socket_path = socket_path
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopping = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int] | str:
        """Where the server is reachable (set after :meth:`start`)."""
        if self.socket_path is not None:
            return self.socket_path
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        await self.service.start()
        if self.socket_path is not None:
            # asyncio only unlinks the socket file on close from 3.13 on;
            # a previous instance's stale file would otherwise both break
            # the bind and misdirect clients into "connection refused".
            path = Path(self.socket_path)
            if path.is_socket():
                path.unlink(missing_ok=True)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.socket_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port or 0
            )
            self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._stopping.wait()
        await self.service.stop()
        if self.socket_path is not None:
            Path(self.socket_path).unlink(missing_ok=True)

    async def run(self) -> None:
        await self.start()
        await self.serve_until_stopped()

    def request_stop(self) -> None:
        self._stopping.set()

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()

        async def reply(document: dict[str, Any]) -> None:
            frame = encode_frame(document)  # FrameError surfaces to the caller
            async with write_lock:
                if writer.is_closing():
                    return
                if faultinject.decide("serve.conn.drop"):
                    # drill: the reply vanishes and the connection dies —
                    # the client sees EOF where a frame was due
                    self.service.metrics.count(
                        "serve_fault_conn_drops_total",
                        "replies dropped by the serve.conn.drop drill",
                    )
                    writer.close()
                    return
                try:
                    if faultinject.decide("serve.frame.truncate"):
                        # drill: half a frame, then EOF — the torn-frame
                        # case the client's ConnectionLost handling owns
                        self.service.metrics.count(
                            "serve_fault_frame_truncations_total",
                            "replies truncated by the serve.frame.truncate drill",
                        )
                        writer.write(frame[: max(1, len(frame) // 2)])
                        await writer.drain()
                        writer.close()
                        return
                    writer.write(frame)
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    # the is_closing() check races with connection_lost:
                    # a client that reset mid-reply gets nothing, and the
                    # read loop will observe EOF and close up
                    pass

        try:
            while True:
                try:
                    prefix = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                try:
                    body = await reader.readexactly(frame_length(prefix))
                    document = decode_body(body)
                except FrameError as exc:
                    await reply(error_response(None, "bad-request", str(exc)))
                    break  # framing is lost; close the connection
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                await self._handle_document(document, reply)
        except asyncio.CancelledError:
            pass  # loop shutdown while blocked on a read: close quietly
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _handle_document(
        self, document: dict[str, Any], reply: Callable[[dict[str, Any]], Awaitable[None]]
    ) -> None:
        op = document.get("op", "match")
        request_id = document.get("id")
        if op == "ping":
            await reply({"id": request_id, "status": "ok", "code": 200, "op": "ping"})
        elif op == "stats":
            response: dict[str, Any] = {
                "id": request_id,
                "status": "ok",
                "code": 200,
                "op": "stats",
                "server": self.service.stats_snapshot(),
            }
            metrics = self.service.metrics_snapshot()
            if metrics is not None:
                response["metrics"] = metrics
                response["latency_ms"] = self.service.latency_snapshot()
            if document.get("prometheus"):
                registry = obs.get_registry()
                if registry is not None:
                    from repro.obs.exporters import metrics_to_prometheus

                    response["prometheus"] = metrics_to_prometheus(registry)
            await reply(response)
        elif op == "health":
            snapshot = self.service.health_snapshot()
            status = "ok" if snapshot["ready"] else "unavailable"
            await reply(
                {
                    "id": request_id,
                    "status": status,
                    "code": STATUS_CODES[status],
                    "op": "health",
                    **snapshot,
                }
            )
        elif op == "reload":
            if not self.service.config.allow_reload:
                await reply(
                    error_response(request_id, "bad-request", "reload is disabled")
                )
                return
            patterns = document.get("patterns")
            if (
                not isinstance(patterns, list)
                or not patterns
                or not all(isinstance(p, str) and p for p in patterns)
            ):
                await reply(
                    error_response(
                        request_id, "bad-request",
                        "'patterns' must be a non-empty list of pattern strings",
                    )
                )
                return
            try:
                info = await self.service.reload(patterns)
            except ReproError as exc:
                await reply(error_response(request_id, "error", str(exc)))
                return
            await reply(
                {"id": request_id, "status": "ok", "code": 200, "op": "reload", **info}
            )
        elif op == "shutdown":
            if not self.service.config.allow_shutdown:
                await reply(
                    error_response(request_id, "bad-request", "shutdown is disabled")
                )
                return
            await reply({"id": request_id, "status": "ok", "code": 200, "op": "shutdown"})
            self.request_stop()
        elif op == "match":
            try:
                request = MatchRequest.from_document(document)
            except FrameError as exc:
                await reply(error_response(request_id, "bad-request", str(exc)))
                return
            await self.service.submit(request, reply)
        else:
            await reply(error_response(request_id, "bad-request", f"unknown op {op!r}"))


class ServerThread:
    """Run a :class:`MatchServer` on a daemon thread (sync callers).

    ::

        with ServerThread(artifact, config, socket_path=path) as address:
            client = MatchClient.connect(address)
    """

    def __init__(
        self,
        artifact: Artifact,
        config: ServeConfig | None = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        socket_path: Optional[str] = None,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        if socket_path is None and host is None and port is None:
            host, port = "127.0.0.1", 0
        self.service = MatchService(artifact, config, store=store)
        self._host, self._port, self._socket_path = host, port, socket_path
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[MatchServer] = None
        self._thread = threading.Thread(target=self._run, daemon=True, name="repro-serve")

    def _run(self) -> None:
        async def main() -> None:
            self._server = MatchServer(
                self.service, host=self._host, port=self._port,
                socket_path=self._socket_path,
            )
            try:
                await self._server.start()
            except BaseException as exc:  # surface bind errors to the caller
                self._startup_error = exc
                self._ready.set()
                raise
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self._server.serve_until_stopped()

        try:
            asyncio.run(main())
        except BaseException:
            if not self._ready.is_set():
                self._ready.set()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self._server is None or self._loop is None:
            raise UsageError("server failed to start within 30s")
        return self

    @property
    def address(self) -> tuple[str, int] | str:
        assert self._server is not None
        return self._server.address

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._server is not None:
            try:
                self._loop.call_soon_threadsafe(self._server.request_stop)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)

    def __enter__(self) -> tuple[str, int] | str:
        self.start()
        return self.address

    def __exit__(self, *exc_info) -> None:
        self.stop()


#: batch-size buckets 1..batch caps
_BATCH_BUCKETS = tuple(float(2 ** i) for i in range(9))
#: payload-size buckets: 64 B … 64 MiB
_BYTES_BUCKETS = tuple(64.0 * (4 ** i) for i in range(11))
#: queue-wait buckets: 100 µs … ~1.6 s
_WAIT_BUCKETS = tuple(0.0001 * (2 ** i) for i in range(15))
