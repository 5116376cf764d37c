"""The shard pool: one payload, exact answers, optional worker processes.

Figs. 9–10 parallelise across automata; :mod:`repro.engine.chunkscan`
parallelises one automaton across stream chunks.  The serve layer needs
the chunk axis as a *resident* facility — workers that outlive requests,
own their engines, and scan whatever payload slice the planner hands
them.  CPython threads never scan at the same time, so only worker
processes split a payload; ``num_shards`` alone picks the path:

* **In process** (``num_shards == 1``, the default) — the whole payload
  is one job on the calling thread, over the pool's one engine set.
  CPython never runs two scans at once, so scans that share the engines
  run one after another under the pool's scan lock (lazy caches have a
  single writer), and every request warms the same caches.  No
  executor, no split, no SFA scanner, whatever plan the automata would
  admit.
* **Planning** (``num_shards > 1``) — the artifact's automata choose
  the plan once (:func:`~repro.engine.chunkscan.resolve_strategy`):
  overlap jobs with a per-rule width lead, zero-lead SFA mapping jobs
  when some rule is unbounded, or one sequential job when live counter
  registers meet an unbounded rule.
  :func:`~repro.engine.chunkscan.plan_shards` cuts the payload into
  ``num_shards`` jobs, run by at most one forked worker process per
  usable CPU; each worker *loads* the compiled artifact from the
  :class:`~repro.serve.artifacts.ArtifactStore` instead of recompiling
  and runs the plan's per-segment scan (:func:`_process_scan`).  No
  tuning travels to the workers: engines and scanners run at their own
  constants (cache bound, deadline-check stride), so a worker is
  initialised from the artifact path, the backend and the plan alone.
* **Stitching** — overlap jobs re-base through
  :func:`~repro.engine.chunkscan.rebase_matches`; mapping jobs fold per
  MFSA through :func:`~repro.engine.sfa.fold_mappings`, which threads
  exit activations through the shards in payload order (workers finish
  in any order — composition does not care).
* **Degradation** — an :class:`~repro.guard.errors.AllocationFailed`
  while building engines steps the pool down the
  :data:`~repro.guard.degrade.BACKEND_LADDER` (dense → lazy → python)
  and retries, mirroring :class:`~repro.guard.degrade.GuardedMatcher`;
  every step drops the engine set, which the next scan rebuilds at the
  new backend, and increments ``guard_degradations_total``.
* **Supervision** — a dead worker process (OOM-kill, segfault, drill)
  is restarted at the *same* backend under the pool's :class:`~repro.
  serve.resilience.ShardSupervisor` (exponential backoff; a restart
  storm opens a circuit breaker and scans run in process, as one job,
  until the cooldown passes); a worker wedged past **twice** the scan
  deadline is hard-killed by a per-scan watchdog and its jobs re-scanned
  inline under the scan lock — exactly, because a job's SFA mapping (or
  overlap segment) recomputes identically wherever it runs.
* **Deadlines** — the scan's absolute expiry travels with every job and
  each job recomputes its *remaining* wall clock when it actually starts
  on a worker (or gets the scan lock), so time spent queued behind other
  jobs or scans still counts; a job that blows it returns the honest
  partial result carried by
  :class:`~repro.guard.errors.ScanDeadlineExceeded` and the pool marks
  the scan ``partial`` instead of hanging or discarding the other
  shards' work.  A mapping lost to the deadline still contributes its
  *const* matches — genuine whatever the lost entry activation — and
  the fold continues from the empty activation (a sound under-
  approximation, the step function being monotone).
* **ε-rules stay compact** — a rule accepting the empty string matches
  at every offset ``0..len(payload)``; enumerating those tuples scales
  with the payload (a remotely-triggerable memory blow-up at service
  scale), so the pool strips them from the enumerated set and reports
  the rule ids in ``all_offsets_rules`` instead.  Callers that want the
  materialized set use :meth:`ShardScanResult.full_matches`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock
from typing import Optional, Sequence

import repro.obs as obs
from repro.engine.counters import ExecutionStats
from repro.engine.imfant import BACKENDS, IMfantEngine
from repro.engine.chunkscan import ShardJob, plan_shards, rebase_matches, resolve_strategy
from repro.engine.sfa import ChunkMapping, SfaScanner, fold_mappings
from repro.guard import faultinject
from repro.guard.degrade import (
    DegradationStep,
    alloc_degrade_reason,
    next_backend,
)
from repro.guard.errors import (
    AllocationFailed,
    ReproError,
    ScanDeadlineExceeded,
    UsageError,
)
from repro.mfsa.model import Mfsa, empty_matching_rules
from repro.serve.artifacts import Artifact
from repro.serve.resilience import ShardSupervisor

__all__ = ["ShardJob", "ShardScanResult", "ShardPool", "plan_shards", "rebase_matches"]

#: a hung-worker watchdog never fires earlier than this past the deadline
_WATCHDOG_MIN_GRACE = 0.05


@dataclass
class ShardScanResult:
    """One pool scan: stitched matches plus execution provenance."""

    matches: set[tuple[int, int]]
    stats: ExecutionStats
    #: backend that executed the scan (after any degradation)
    backend: str
    #: jobs the planner produced for this payload
    shards: int
    #: payload size; the offset range of ``all_offsets_rules``
    payload_len: int = 0
    #: rules that match at *every* offset ``0..payload_len`` (ε-accepting),
    #: kept out of ``matches`` so the result stays payload-size-bounded
    all_offsets_rules: list[int] = field(default_factory=list)
    #: True when at least one shard hit its deadline — ``matches`` is
    #: then the honest union of completed work, not the full answer
    partial: bool = False
    #: indices of the jobs that timed out
    timed_out_shards: list[int] = field(default_factory=list)
    #: ladder steps taken over the pool's lifetime
    degradations: list[DegradationStep] = field(default_factory=list)
    #: parallelism contract that produced this result ("overlap" | "sfa")
    strategy: str = "overlap"

    def full_matches(self) -> set[tuple[int, int]]:
        """The materialized match set, ``all_offsets_rules`` expanded.

        Equal to a single-pass engine scan; for large payloads with
        ε-accepting rules this allocates ``payload_len + 1`` tuples per
        such rule — the blow-up the compact form exists to avoid.
        """
        out = set(self.matches)
        for rule in self.all_offsets_rules:
            out.update((rule, end) for end in range(self.payload_len + 1))
        return out


# ---------------------------------------------------------------------------
# Worker-process half (module-level: must be picklable by reference)
# ---------------------------------------------------------------------------

_PROCESS_STATE: dict = {}


def _process_init(artifact_path: str, backend: str, strategy: str) -> None:
    """Worker-process initializer: *load* the artifact, never recompile,
    and pick the plan's per-segment scan once."""
    import json

    from repro.mfsa.serialize import mfsa_from_dict

    data = json.loads(Path(artifact_path).read_text())
    mfsas = [mfsa_from_dict(doc) for doc in data["mfsas"]]
    if strategy == "sfa":
        # mapping workers run the dedicated simultaneous-run interpreter;
        # no byte engines (and no lazy caches) are needed
        _PROCESS_STATE["scan"] = (
            _scan_segment_mappings, [SfaScanner(mfsa) for mfsa in mfsas]
        )
    else:
        _PROCESS_STATE["scan"] = (_scan_segment, _build_engines(mfsas, backend))


def _process_scan(args: tuple) -> tuple[object, ExecutionStats, bool, list]:
    """Scan one segment in a worker process.

    Under the SFA plan the result carries the segment's per-MFSA
    :class:`ChunkMapping`\\ s: pure data that pickles home, where the
    parent's scanners fold them (signature-checked).  The parent's
    tracer lives in another address space, so when the job carries a
    ``trace`` request the worker records its span into a throwaway
    local tracer and ships the exported rows (absolute ``perf_counter``
    times — CLOCK_MONOTONIC, shared machine-wide) back with the result
    for the parent to adopt.
    """
    segment, deadline_at, collect_stats, shard_index, trace = args
    faultinject.fire("serve.worker.kill")
    faultinject.fire("serve.worker.hang")
    scan, workers = _PROCESS_STATE["scan"]
    started = time.perf_counter()
    payload, stats, timed_out = scan(workers, segment, deadline_at, collect_stats)
    if trace is None:
        return payload, stats, timed_out, []
    from repro.obs.spans import Tracer

    tracer = Tracer("repro-shard-worker")
    tracer.record_span(
        "serve.worker_scan",
        started,
        time.perf_counter(),
        trace_id=trace.get("trace_id"),
        shard=shard_index,
        bytes=len(segment),
        timed_out=timed_out,
    )
    return payload, stats, timed_out, tracer.export_spans()


def _worker_heartbeat() -> int:
    """Trivial supervision probe: proves a worker slot can still accept
    and answer a job.  Returns the worker's pid (the parent logs nothing
    but the roundtrip; the pid makes drill debugging less blind)."""
    return os.getpid()


def _scan_segment_mappings(
    scanners: Sequence[SfaScanner],
    segment: bytes,
    deadline_at: Optional[float],
    collect_stats: bool,
) -> tuple[tuple[list[Optional[ChunkMapping]], set], ExecutionStats, bool]:
    """Compute one segment's mapping per MFSA; deadline-honest.

    Returns ``((mappings, salvage), stats, timed_out)``.  On a blown
    deadline the affected (and any remaining) mappings are ``None`` and
    ``salvage`` holds the segment-relative *const* matches accumulated
    before the abort — genuine matches of the scanned prefix regardless
    of the true entry activation, so the caller can still report them.
    """
    mappings: list[Optional[ChunkMapping]] = []
    salvage: set[tuple[int, int]] = set()
    totals = ExecutionStats()
    timed_out = False
    for scanner in scanners:
        if timed_out:
            mappings.append(None)
            continue
        try:
            scan = scanner.scan_chunk(
                segment, collect_stats=collect_stats, deadline_at=deadline_at
            )
        except ScanDeadlineExceeded as exc:
            timed_out = True
            mappings.append(None)
            if exc.partial is not None:
                salvage |= exc.partial.matches
                totals.merge(exc.partial.stats)
            continue
        mappings.append(scan.mapping)
        totals.merge(scan.stats)
    return (mappings, salvage), totals, timed_out


def _build_engines(mfsas: Sequence[Mfsa], backend: str) -> list[IMfantEngine]:
    return [IMfantEngine(mfsa, backend=backend) for mfsa in mfsas]


def _scan_segment(
    engines: Sequence[IMfantEngine],
    segment: bytes,
    deadline_at: Optional[float],
    collect_stats: bool,
) -> tuple[set, ExecutionStats, bool]:
    """Scan one segment with every engine; returns (matches, stats, timed_out).

    ``deadline_at`` is the scan's *absolute* expiry on the
    ``time.perf_counter`` clock — CLOCK_MONOTONIC on Linux, shared
    across forked worker processes — so a job that sat in the executor
    queue gets only what is genuinely left, not its full budget again.
    The remaining time is recomputed before every engine; a blown
    deadline yields the partial result the engine finalized, never a
    hang.
    """
    matches: set[tuple[int, int]] = set()
    totals = ExecutionStats()
    timed_out = False
    for engine in engines:
        if deadline_at is None:
            engine.scan_deadline = None
        else:
            remaining = deadline_at - time.perf_counter()
            engine.scan_deadline = remaining if remaining > 0 else 1e-9
        try:
            result = engine.run(segment, collect_stats=collect_stats)
        except ScanDeadlineExceeded as exc:
            result = exc.partial
            timed_out = True
        matches |= result.matches
        totals.merge(result.stats)
        if timed_out:
            break
    return matches, totals, timed_out


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has
    one): the most worker processes that can scan at the same time."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class ShardPool:
    """Resident matching workers over one compiled artifact."""

    def __init__(
        self,
        artifact: Artifact,
        num_shards: int = 1,
        backend: str = "lazy",
        supervisor: Optional[ShardSupervisor] = None,
    ) -> None:
        if num_shards < 1:
            raise UsageError(f"num_shards must be >= 1 (got {num_shards})")
        if backend not in BACKENDS:
            raise UsageError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        if num_shards > 1 and artifact.path is None:
            raise UsageError("worker-process shards need an on-disk artifact to load")
        self.artifact = artifact
        self.num_shards = num_shards
        self.backend = backend
        #: the plan ("overlap" | "sfa") and the per-rule max match width
        #: (None = unbounded; under "overlap", one job).  An in-process
        #: pool scans one job whatever the automata admit; a process
        #: pool takes the plan the automata choose.
        self.strategy, self.overlap = (
            resolve_strategy(artifact.mfsas) if num_shards > 1 else ("overlap", None)
        )
        #: the per-segment scan the plan picks for worker jobs and their
        #: rescues, chosen once: the pool's SFA scanners or its engines
        self._segment_scan = (
            (_scan_segment_mappings, ShardPool._ensure_scanners)
            if self.strategy == "sfa"
            else (_scan_segment, ShardPool._ensure_engines)
        )
        self.degradations: list[DegradationStep] = []
        self._scanners: Optional[list[SfaScanner]] = None
        self._engines: Optional[list[IMfantEngine]] = None
        #: guards the pool's bookkeeping; taken on the event-loop thread
        #: and inside engine builds, so never held for a scan
        self._lock = Lock()
        #: held by every scan over the pool's own engines or scanners:
        #: lazy caches have a single writer, and ``_scan_segment`` sets
        #: each engine's ``scan_deadline``
        self._scan_lock = Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._empty_matching_rules = [
            rule for mfsa in artifact.mfsas for rule in empty_matching_rules(mfsa)
        ]
        #: restart/backoff/breaker bookkeeping for worker failures
        self.supervisor = supervisor if supervisor is not None else ShardSupervisor()
        #: outcome of the most recent :meth:`heartbeat` (None = never ran)
        self.last_heartbeat_ok: Optional[bool] = None
        # hot reload holds retired pools open until in-flight scans drain
        self._refs = 0
        self._retired = False

    # -- worker/executor management ---------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        """The worker processes, created on first use.  Forked workers
        all start at once, so there are never more of them than usable
        CPUs; the plan still cuts ``num_shards`` jobs, which queue."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=min(self.num_shards, _usable_cpus()),
                initializer=_process_init,
                initargs=(str(self.artifact.path), self.backend, self.strategy),
            )
        return self._executor

    def _ensure_scanners(self) -> list[SfaScanner]:
        """The pool's simultaneous-run scanners (one per MFSA), built
        once; the dispatcher reduce attaches/applies the workers'
        mappings with them, and a watchdog rescue recomputes a lost
        job's mapping under the scan lock."""
        with self._lock:
            if self._scanners is None:
                self._scanners = [SfaScanner(mfsa) for mfsa in self.artifact.mfsas]
            return self._scanners

    def _degrade(self, reason: str) -> bool:
        """Step the whole pool down one backend (see GuardedMatcher)."""
        with self._lock:
            to_backend = next_backend(self.backend)
            if to_backend is None:
                return False
            step = DegradationStep(
                from_backend=self.backend,
                to_backend=to_backend,
                reason=reason,
            )
            self.backend = step.to_backend
            self.degradations.append(step)
            self._engines = None
            if self._executor is not None:
                # process workers bake the backend into their initializer
                self._executor.shutdown(wait=True)
                self._executor = None
        registry = obs.get_registry()
        if registry is not None:
            registry.counter(
                "guard_degradations_total",
                help="backend degradation steps taken by guarded matchers",
            ).inc()
        return True

    def _ensure_engines(self) -> list[IMfantEngine]:
        """The pool's one engine set, built on first use and again at the
        new backend after a ladder step; callers hold the scan lock."""
        while True:
            with self._lock:
                if self._engines is not None:
                    return self._engines
                try:
                    self._engines = _build_engines(self.artifact.mfsas, self.backend)
                    return self._engines
                except AllocationFailed as exc:
                    failure = exc
            if not self._degrade(alloc_degrade_reason(failure)):
                raise failure

    def _recover_workers(self, failure: BaseException) -> bool:
        """Replace dead process workers and step the ladder; False when
        the ladder is exhausted (the caller re-raises).

        Worker engine builds happen in ``_process_init``, so an
        AllocationFailed there surfaces here as BrokenProcessPool — the
        only place the process path can join the degradation ladder.
        """
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
        return self._degrade(f"worker-failure: {failure}")

    # -- supervision -------------------------------------------------------

    def _count(self, name: str, help: str) -> None:
        registry = obs.get_registry()
        if registry is not None:
            registry.counter(name, help=help).inc()

    def _rebuild_executor(self) -> None:
        """Drop the (broken) executor so the next use forks fresh workers
        at the *same* backend — the supervisor's restart, as opposed to
        :meth:`_recover_workers`, which is a ladder step."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def _kill_stuck_workers(self) -> None:
        """The watchdog's hammer: hard-kill wedged worker processes and
        drop the executor (lazily rebuilt on next use)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    def _rescue_job(
        self,
        job: ShardJob,
        data: bytes,
        deadline: Optional[float],
        collect_stats: bool,
    ) -> tuple:
        """Re-scan one job inline on the dispatcher thread, under the
        scan lock — the exact fallback when the job's worker died or
        wedged.  Mapping jobs recompute the slice's :class:`ChunkMapping`
        (the monoid composes identically whoever computed it); overlap
        jobs re-run the byte engines.  The rescue gets a fresh copy of
        the relative deadline: the original budget died with the worker,
        and an honest partial beats an empty answer."""
        deadline_at = (
            time.perf_counter() + deadline if deadline is not None else None
        )
        scan, workers = self._segment_scan
        with self._scan_lock:
            payload, stats, timed_out = scan(
                workers(self), data[job.segment_slice], deadline_at, collect_stats
            )
        self._count(
            "serve_rescued_jobs_total",
            "shard jobs re-scanned inline after a worker death or hang",
        )
        return payload, stats, timed_out, []

    def _collect_outcomes(
        self,
        futures: list,
        jobs: Sequence[ShardJob],
        data: bytes,
        deadline: Optional[float],
        deadline_at: Optional[float],
        collect_stats: bool,
    ) -> tuple[list, Optional[BaseException]]:
        """Gather every shard job, under a hung-worker watchdog whenever
        the scan has a deadline.

        A worker that merely blows the *engine* deadline returns an
        honest partial (the engines self-abort), so a future still
        pending at ``deadline_at + deadline`` — twice the budget — is
        wedged in a way the deadline machinery cannot see (a faulted
        sleep, a pathological syscall).  The watchdog kills the stuck
        workers once, then re-scans the affected jobs inline; jobs that
        were queued behind the wedge (cancelled or orphaned by the kill)
        are rescued the same way.

        Returns ``(outcomes, failure)``: a non-None ``failure`` is a
        whole-pool error (worker death, allocation) for the caller's
        supervisor / degradation machinery, and ``outcomes`` must be
        discarded."""
        watchdog_at = (
            deadline_at + max(deadline, _WATCHDOG_MIN_GRACE)
            if deadline_at is not None and deadline is not None
            else None
        )
        outcomes: list = []
        watchdog_fired = False
        for index, future in enumerate(futures):
            try:
                if watchdog_at is None:
                    outcomes.append(future.result())
                else:
                    remaining = max(0.0, watchdog_at - time.perf_counter())
                    outcomes.append(future.result(timeout=remaining))
            except FuturesTimeout:
                self.supervisor.record_hang()
                self._count(
                    "serve_worker_hangs_total",
                    "hung shard workers detected by the scan watchdog",
                )
                if not watchdog_fired:
                    watchdog_fired = True
                    self._kill_stuck_workers()
                outcomes.append(
                    self._rescue_job(jobs[index], data, deadline, collect_stats)
                )
            except CancelledError:
                # queued behind the wedge; never ran before the kill
                outcomes.append(
                    self._rescue_job(jobs[index], data, deadline, collect_stats)
                )
            except (AllocationFailed, BrokenProcessPool) as exc:
                if watchdog_fired:
                    # collateral of the watchdog's kill, not a new failure
                    outcomes.append(
                        self._rescue_job(jobs[index], data, deadline, collect_stats)
                    )
                else:
                    return outcomes, exc
        return outcomes, None

    def heartbeat(self, timeout: float = 2.0) -> bool:
        """One supervision probe: a trivial job must come back within
        ``timeout`` seconds.  A dead executor or a wedged one counts a
        failure with the supervisor and kills/drops the workers (rebuilt
        on next use); while the breaker is open the probe reports False
        without poking the crash loop.  An in-process pool has no worker
        to probe: it reports healthy until retired and starts nothing."""
        if self._retired:
            return False
        if self.num_shards == 1:
            self.last_heartbeat_ok = True
            return True
        if self.supervisor.breaker_open():
            self.last_heartbeat_ok = False
            return False
        try:
            future = self._ensure_executor().submit(_worker_heartbeat)
            future.result(timeout=timeout)
        except (Exception, CancelledError):
            self.last_heartbeat_ok = False
            action = self.supervisor.on_failure()
            self._kill_stuck_workers()
            if action.restart:
                self._count(
                    "serve_supervisor_restarts_total",
                    "worker restarts ordered by the shard supervisor",
                )
            return False
        self.supervisor.record_success()
        self.last_heartbeat_ok = True
        return True

    # -- scanning ----------------------------------------------------------

    def scan(
        self,
        payload: bytes | str,
        deadline: Optional[float] = None,
        single_match: bool = False,
        collect_stats: bool = True,
        trace_id: Optional[str] = None,
        parent: Optional[obs.Span] = None,
    ) -> ShardScanResult:
        """Scan one payload; exact single-pass semantics.

        An in-process pool scans it as one job on the calling thread; a
        process pool splits it into ``num_shards`` planned jobs over its
        workers, or scans it in process while the worker breaker is open.

        ``deadline`` is wall-clock seconds for the whole scan.  Jobs
        that exceed it surface their honest partial results and the scan
        is flagged ``partial`` — the answer is a sound under-
        approximation, never silently wrong.

        ``trace_id``/``parent`` stitch this scan (and its per-job worker
        spans, shipped back from worker processes) into the caller's
        request trace.
        """
        data = payload.encode("latin-1") if isinstance(payload, str) else payload
        deadline_at = time.perf_counter() + deadline if deadline is not None else None

        with obs.span(
            "serve.shard_scan",
            parent=parent,
            trace_id=trace_id,
            bytes=len(data),
            backend=self.backend,
            strategy=self.strategy,
        ) as span:
            scan_parent = span if isinstance(span, obs.Span) else None
            found = None
            if self.num_shards > 1:
                found = self._scan_workers(
                    data, deadline, deadline_at, collect_stats, trace_id, scan_parent
                )
            if found is None:
                found = self._scan_inline(
                    data, deadline_at, collect_stats, trace_id, scan_parent
                )
            matches, totals, timed_out, jobs, strategy = found

            # ε-accepting rules match at every offset 0..len(data); the
            # engines enumerate them per segment, which scales with the
            # payload — keep the result compact by stripping them from
            # the enumerated set and naming the rules instead.
            all_offsets_rules: list[int] = []
            if self._empty_matching_rules:
                if single_match:
                    # their first match is the ε at offset 0
                    matches.update((rule, 0) for rule in self._empty_matching_rules)
                else:
                    everywhere = set(self._empty_matching_rules)
                    matches = {m for m in matches if m[0] not in everywhere}
                    all_offsets_rules = sorted(everywhere)

            if single_match:
                firsts: dict[int, int] = {}
                for rule, end in matches:
                    if rule not in firsts or end < firsts[rule]:
                        firsts[rule] = end
                matches = {(rule, end) for rule, end in firsts.items()}
            totals.match_count = (
                len(matches) + len(all_offsets_rules) * (len(data) + 1)
            )
            span.set(
                shards=jobs,
                matches=totals.match_count,
                partial=bool(timed_out),
                backend=self.backend,
            )

        return ShardScanResult(
            matches=matches,
            stats=totals,
            backend=self.backend,
            shards=jobs,
            payload_len=len(data),
            all_offsets_rules=all_offsets_rules,
            partial=bool(timed_out),
            timed_out_shards=timed_out,
            degradations=list(self.degradations),
            strategy=strategy,
        )

    def _scan_inline(
        self,
        data: bytes,
        deadline_at: Optional[float],
        collect_stats: bool,
        trace_id: Optional[str],
        parent: Optional[obs.Span],
    ) -> tuple[set, ExecutionStats, list[int], int, str]:
        """The whole payload as one job on the calling thread, over the
        pool's engines: every scan of an in-process pool, and a process
        pool's scans while its worker breaker is open.  Waiting for the
        scan lock spends the absolute deadline (and shows in a trace as
        the gap before ``serve.worker_scan``).  Returns
        ``(matches, stats, timed_out_jobs, jobs, strategy)``."""
        with self._scan_lock, obs.span(
            "serve.worker_scan",
            parent=parent,
            trace_id=trace_id,
            shard=0,
            bytes=len(data),
        ) as span:
            matches, stats, timed_out = _scan_segment(
                self._ensure_engines(), data, deadline_at, collect_stats
            )
            span.set(timed_out=timed_out)
        _observe_job(stats)
        return matches, stats, [0] if timed_out else [], 1, "overlap"

    def _scan_workers(
        self,
        data: bytes,
        deadline: Optional[float],
        deadline_at: Optional[float],
        collect_stats: bool,
        trace_id: Optional[str],
        parent: Optional[obs.Span],
    ) -> Optional[tuple[set, ExecutionStats, list[int], int, str]]:
        """Run the plan's jobs on the worker processes and stitch them
        (same tuple as :meth:`_scan_inline`), or None once the worker
        breaker is open: a restart storm stops feeding the crash loop,
        and the caller scans in process until the cooldown passes."""
        # zero lead bytes under mappings: workers are truly independent
        jobs = plan_shards(
            len(data), self.num_shards, 0 if self.strategy == "sfa" else self.overlap
        )
        registry = obs.get_registry()
        # workers only buffer + ship spans when someone can adopt them: a
        # trace id is set and a tracer is active
        trace_request = (
            {"trace_id": trace_id}
            if trace_id is not None and obs.get_tracer() is not None
            else None
        )
        inflight = (
            registry.gauge(
                "serve_shard_inflight_jobs",
                help="shard jobs submitted and not yet finished",
            )
            if registry is not None
            else None
        )
        while True:
            if self.supervisor.breaker_open():
                self._count(
                    "serve_breaker_inline_scans_total",
                    "scans served inline while the worker breaker was open",
                )
                return None
            executor = self._ensure_executor()
            futures = []
            submit_failure: Optional[BaseException] = None
            try:
                for index, job in enumerate(jobs):
                    future = executor.submit(
                        _process_scan,
                        (data[job.segment_slice], deadline_at, collect_stats,
                         index, trace_request),
                    )
                    if registry is not None:
                        busy = registry.gauge(
                            f"serve_shard_{index}_busy",
                            help="jobs in flight on this shard slot",
                        )
                        busy.inc()
                        inflight.inc()
                        future.add_done_callback(
                            lambda _f, g=busy, t=inflight: (g.dec(), t.dec())
                        )
                    futures.append(future)
            except (BrokenProcessPool, RuntimeError) as exc:
                # the executor broke (workers died between scans) or
                # was torn down under us (watchdog/heartbeat kill):
                # submit raises synchronously — same failure machinery
                # as a mid-scan death, not an internal error
                for future in futures:
                    future.cancel()
                submit_failure = exc
            if submit_failure is not None:
                outcomes, failure = [], submit_failure
            else:
                outcomes, failure = self._collect_outcomes(
                    futures, jobs, data, deadline, deadline_at, collect_stats,
                )
            if failure is None:
                self.supervisor.record_success()
                break
            if not isinstance(failure, AllocationFailed):
                # a worker death may be transient (OOM-kill, segfault,
                # drill): the supervisor restarts at the *same*
                # backend under backoff before any ladder step
                action = self.supervisor.on_failure()
                if action.restart:
                    self._count(
                        "serve_supervisor_restarts_total",
                        "worker restarts ordered by the shard supervisor",
                    )
                    self._rebuild_executor()
                    if action.delay:
                        time.sleep(action.delay)
                    continue
                if action.breaker_open:
                    continue  # the loop head hands the scan back
            # persistent failure (or restart budget spent): next rung
            if self._recover_workers(failure):
                continue
            if isinstance(failure, ReproError):
                raise failure
            raise AllocationFailed(
                f"shard workers failed with the backend ladder exhausted: {failure}"
            ) from failure

        matches: set[tuple[int, int]] = set()
        totals = ExecutionStats()
        timed_out: list[int] = []
        mapping_rows: list[list[Optional[ChunkMapping]]] = []
        for index, (job, outcome) in enumerate(zip(jobs, outcomes)):
            job_payload, job_stats, job_timed_out, span_rows = outcome
            if span_rows:
                tracer = obs.get_tracer()
                if tracer is not None:
                    tracer.adopt_spans(span_rows, parent=parent)
            if self.strategy == "sfa":
                # a lost mapping's const matches come back salvaged
                job_mappings, job_payload = job_payload
                mapping_rows.append(job_mappings)
            matches |= rebase_matches(job_payload, job)
            totals.merge(job_stats)
            if job_timed_out:
                timed_out.append(index)
            _observe_job(job_stats)
        if self.strategy == "sfa":
            lengths = [job.stop - job.start for job in jobs]
            for slot, scanner in enumerate(self._ensure_scanners()):
                found, _exit = fold_mappings(
                    [row[slot] for row in mapping_rows], lengths, scanner
                )
                matches |= found
        return matches, totals, timed_out, len(jobs), self.strategy

    # -- lifecycle ---------------------------------------------------------

    def acquire(self) -> None:
        """Pin the pool for one in-flight scan.  Hot reload swaps the
        service's pool reference and closes the old pool; the refcount
        keeps the old executor alive until every borrowed scan returns.
        Raises :class:`UsageError` once the pool is retired — callers
        re-read the (swapped) pool reference and try again."""
        with self._lock:
            if self._retired:
                raise UsageError("shard pool is closed")
            self._refs += 1

    def release(self) -> None:
        with self._lock:
            self._refs -= 1
            retire = self._retired and self._refs <= 0
        if retire:
            self._shutdown_executor()

    def close(self) -> None:
        """Retire the pool: new :meth:`acquire` calls fail immediately;
        the executor shuts down once the last in-flight scan releases
        (synchronously when idle — the common direct-use case)."""
        with self._lock:
            self._retired = True
            idle = self._refs <= 0
        if idle:
            self._shutdown_executor()

    def _shutdown_executor(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _observe_job(stats: ExecutionStats) -> None:
    """One job's scan time and throughput, on the active registry."""
    registry = obs.get_registry()
    if registry is None or not stats.wall_seconds:
        return
    registry.histogram(
        "serve_shard_scan_seconds",
        bounds=_LATENCY_BUCKETS,
        help="per-shard scan wall seconds",
    ).observe(stats.wall_seconds)
    registry.histogram(
        "serve_shard_throughput_bytes_per_sec",
        bounds=_THROUGHPUT_BUCKETS,
        help="per-shard scan throughput",
    ).observe(stats.chars_processed / stats.wall_seconds)


#: latency buckets: 100 µs … ~13 s, exponential
_LATENCY_BUCKETS = tuple(0.0001 * (2 ** i) for i in range(18))
#: throughput buckets: 1 KiB/s … 1 GiB/s, ×4 steps
_THROUGHPUT_BUCKETS = tuple(1024.0 * (4 ** i) for i in range(11))
