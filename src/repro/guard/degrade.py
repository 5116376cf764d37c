"""The match-time degradation ladder: dense → lazy → python → per-rule.

A governed service must keep answering under pressure, just slower.
:class:`GuardedMatcher` owns the engines for a (possibly quarantined)
compilation and walks the backend ladder when trouble shows up:

* **allocation failure** (a real :class:`MemoryError` during backend
  setup, surfaced as :class:`~repro.guard.errors.AllocationFailed`) —
  the matcher steps down a backend and retries the run immediately; the
  answer of the retried run is exact, not approximate;
* **counting-register pressure** (counting backend only) — a register
  allocation refused by the budget or the fault injector (surfaced as
  :class:`~repro.guard.errors.AllocationFailed` with
  ``stage == "counting.registers"``) demotes ``counting`` straight to
  ``lazy`` with a typed ``counting-register-pressure:`` reason.  The
  demoted engines run the loop-**expanded** automaton, so the retried
  answer stays exact — it just pays the state cost counting avoided;
* **dense promotion failure** (dense backend only) — a dense-tier table
  build that fails allocation or blows its modelled memory budget
  (:class:`~repro.guard.errors.AllocationFailed` /
  :class:`~repro.guard.budget.MemoryBudgetExceeded`) never corrupts the
  in-flight run: the engine answers lazily and flags itself, and the
  matcher steps the ladder down to ``lazy`` for subsequent runs;
* **cache thrash** (dense/lazy backends) — when a run's lazy-cache hit
  rate stays under :data:`THRASH_HIT_RATE` after :data:`MIN_LOOKUPS`
  lookups, the next runs use the next backend down.  Thrash never
  corrupts results (the lazy backend is exact at any hit rate), it only
  wastes time, so degradation happens *between* runs, not mid-run;
* **quarantined rules** — entries carrying a salvaged ``fallback_fsa``
  are matched by per-rule NFA simulation after the merged-MFSA pass and
  stitched into the same match set under their original rule ids, so
  the caller-visible semantics of the full ruleset survive quarantine.

Scan deadlines are *not* degradation triggers: a blown deadline is a
taxonomy error (:class:`~repro.guard.errors.ScanDeadlineExceeded`,
carrying the partial result) because silently re-running a slow scan on
a slower backend would make the overload worse.

``GuardedMatcher(degrade=False)`` freezes the ladder: allocation
failures propagate and no run is re-judged (quarantine remapping and
fallback still apply).  Every step down increments
``guard_degradations_total`` on the active :mod:`repro.obs` registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import repro.obs as obs
from repro.engine.counters import ExecutionStats, RunResult
from repro.engine.imfant import BACKENDS, IMfantEngine
from repro.guard.errors import AllocationFailed, ScanDeadlineExceeded, UsageError
from repro.guard.quarantine import QuarantineReport

__all__ = [
    "BACKEND_LADDER",
    "DegradationStep",
    "GuardedMatcher",
    "GuardedRunResult",
    "alloc_degrade_reason",
    "next_backend",
]


def alloc_degrade_reason(exc: AllocationFailed) -> str:
    """Typed ladder-step reason for an allocation failure.

    Counting-register pressure (``stage == "counting.registers"``) gets
    its own prefix so operators can tell a demotion forced by counter
    budgets apart from a generic backend-setup failure.
    """
    if getattr(exc, "stage", None) == "counting.registers":
        return f"counting-register-pressure: {exc}"
    return f"allocation-failure: {exc}"

#: Fastest-first backend order; degradation only ever moves rightward.
#: ``counting`` sits *beside* the ladder, not on it: it is the only
#: backend that can run an un-expanded :class:`CountingMfsa`, and it
#: demotes straight to ``lazy`` (over the expanded automaton) rather
#: than stepping through an index.
BACKEND_LADDER = ("dense", "lazy", "python")


def next_backend(backend: str) -> Optional[str]:
    """The rung one step down from ``backend``; ``None`` at the bottom.

    ``counting`` steps to ``lazy``: its registers are gone, and the lazy
    backend over the expanded automaton is the exact replacement (the
    IMfant constructor expands a CountingMfsa for every non-counting
    backend)."""
    if backend == "counting":
        return "lazy"
    position = BACKEND_LADDER.index(backend)
    if position + 1 >= len(BACKEND_LADDER):
        return None
    return BACKEND_LADDER[position + 1]


#: Lazy-cache lookups a run must make before its hit rate is judged.
MIN_LOOKUPS = 1024
#: A judged run's hit rate below this counts as cache thrash.
THRASH_HIT_RATE = 0.5


@dataclass(frozen=True)
class DegradationStep:
    """One recorded step down the ladder."""

    from_backend: str
    to_backend: str
    reason: str


@dataclass
class GuardedRunResult:
    """One guarded scan: matches in *original* rule ids + provenance."""

    matches: set
    stats: ExecutionStats
    #: backend that produced the merged-MFSA matches
    backend: str
    #: ladder steps taken so far (cumulative over the matcher's life)
    degradations: list = field(default_factory=list)
    #: original ids of quarantined rules matched via per-rule fallback
    fallback_rules: list = field(default_factory=list)


class GuardedMatcher:
    """Degradation-aware matcher over one compilation's MFSAs.

    ``rule_map`` maps local rule ids (positions in the compiled ruleset)
    to original rule ids; ``quarantine`` supplies fallback FSAs for
    isolated rules.  Both default to the trivial un-quarantined case.
    ``degrade`` turns the ladder on or off; ``scan_deadline``,
    ``single_match`` and ``budget`` pass through to every
    :class:`~repro.engine.imfant.IMfantEngine`.
    """

    def __init__(
        self,
        mfsas: Sequence,
        *,
        rule_map: Optional[Sequence[int]] = None,
        quarantine: Optional[QuarantineReport] = None,
        backend: str = "python",
        degrade: bool = True,
        scan_deadline: Optional[float] = None,
        single_match: bool = False,
        budget=None,
    ) -> None:
        if backend not in BACKENDS:
            raise UsageError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.mfsas = list(mfsas)
        self.rule_map = list(rule_map) if rule_map is not None else None
        self.quarantine = quarantine or QuarantineReport()
        self.backend = backend
        self.degrade = degrade
        self.scan_deadline = scan_deadline
        self.single_match = single_match
        self.budget = budget
        self.degradations: list = []
        self._engines: Optional[list] = None

    @classmethod
    def from_compilation(cls, compilation, **kwargs) -> "GuardedMatcher":
        """Build from a :class:`~repro.guard.compiler.GuardedCompilation`."""
        if compilation.result is None:
            raise UsageError("compilation has no surviving rules to match")
        return cls(
            compilation.result.mfsas,
            rule_map=compilation.surviving_ids,
            quarantine=compilation.quarantine,
            **kwargs,
        )

    # -- ladder -----------------------------------------------------------

    def _degrade(self, reason: str) -> bool:
        """Step down one backend; False when already at the bottom."""
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
        registry = obs.get_registry()
        if registry is not None:
            registry.counter(
                "guard_degradations_total",
                help="backend degradation steps taken by guarded matchers",
            ).inc()
        return True

    _alloc_reason = staticmethod(alloc_degrade_reason)

    def _ensure_engines(self) -> list:
        while True:
            if self._engines is not None:
                return self._engines
            try:
                self._engines = [
                    IMfantEngine(
                        mfsa,
                        backend=self.backend,
                        single_match=self.single_match,
                        scan_deadline=self.scan_deadline,
                        budget=self.budget,
                    )
                    for mfsa in self.mfsas
                ]
            except AllocationFailed as exc:
                if not (self.degrade and self._degrade(self._alloc_reason(exc))):
                    raise

    # -- matching ---------------------------------------------------------

    def run(self, data) -> GuardedRunResult:
        """Scan ``data`` with each engine in turn; returns matches in
        original rule ids.

        Retries on allocation failure (one ladder step per retry);
        checks for lazy-cache thrash afterwards and pre-degrades the
        *next* run.  :class:`ScanDeadlineExceeded` propagates, its
        partial holding the engines that finished plus the one that
        timed out, in original rule ids.
        """
        payload = data.encode("latin-1") if isinstance(data, str) else data
        with obs.span("guard.run", backend=self.backend, automata=len(self.mfsas)):
            while True:
                engines = self._ensure_engines()
                before = self._cache_totals(engines)
                try:
                    matches, stats = self._scan(engines, payload)
                    break
                except AllocationFailed as exc:
                    if not (self.degrade and self._degrade(self._alloc_reason(exc))):
                        raise
            used_backend = self.backend
            if self.degrade and used_backend == "dense":
                self._check_dense_demotion(engines)
            if self.degrade and used_backend in ("lazy", "dense"):
                self._check_thrash(engines, before)

        matches = self._original_ids(matches)
        fallback_rules = []
        for entry in self.quarantine.salvaged():
            from repro.automata.simulate import find_match_ends

            fallback_rules.append(entry.rule)
            for end in find_match_ends(entry.fallback_fsa, payload):
                matches.add((entry.rule, end))
        return GuardedRunResult(
            matches=matches,
            stats=stats,
            backend=used_backend,
            degradations=list(self.degradations),
            fallback_rules=fallback_rules,
        )

    def _scan(self, engines, payload: bytes) -> tuple[set, ExecutionStats]:
        """Every engine over ``payload``, one after another: the union of
        their matches and their merged stats."""
        matches: set = set()
        totals = ExecutionStats()
        for engine in engines:
            try:
                result = engine.run(payload)
            except ScanDeadlineExceeded as exc:
                if exc.partial is not None:
                    matches |= exc.partial.matches
                    totals.merge(exc.partial.stats)
                exc.partial = RunResult(matches=self._original_ids(matches), stats=totals)
                raise
            matches |= result.matches
            totals.merge(result.stats)
        return matches, totals

    def _original_ids(self, matches: set) -> set:
        if self.rule_map is None:
            return matches
        return {(self.rule_map[rule], end) for rule, end in matches}

    def _check_dense_demotion(self, engines) -> None:
        """Step to ``lazy`` when any engine's dense promotion failed
        (allocation failure or modelled-memory budget): the failed run
        already answered lazily and exactly; the ladder step just stops
        re-attempting table builds on every subsequent payload."""
        if any(e.dense_disabled for e in engines):
            self._degrade("dense-promotion-failed: table build rejected")

    @staticmethod
    def _cache_totals(engines) -> tuple:
        hits = misses = 0
        for engine in engines:
            cache = getattr(engine, "lazy_cache", None)
            if cache is not None:
                hits += cache.stats.hits
                misses += cache.stats.misses
        return hits, misses

    def _check_thrash(self, engines, before: tuple) -> None:
        hits, misses = self._cache_totals(engines)
        run_hits, run_misses = hits - before[0], misses - before[1]
        lookups = run_hits + run_misses
        if lookups < MIN_LOOKUPS:
            return
        hit_rate = run_hits / lookups
        if hit_rate < THRASH_HIT_RATE:
            self._degrade(
                f"cache-thrash: hit rate {hit_rate:.1%} < "
                f"{THRASH_HIT_RATE:.1%} over {lookups} lookups"
            )
