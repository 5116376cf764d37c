"""The iMFAnt engine: streaming MFSA matching with activation sets (§V).

iMFAnt extends iNFAnt's symbol-indexed evaluation with the activation
function: the state vector stores, for each active state, the set of
active rule identifiers reaching it (a bitmask).  One evaluated
transition ``src --c--> dst`` contributes

    ``(J(src) ∪ init(src)) ∩ bel(src→dst)``

to ``J(dst)``; a non-empty contribution is a performed move, and bits of
``J(dst) ∩ final(dst)`` are reported as matches (see
:mod:`repro.mfsa.activation` for the semantics derivation).

Four interchangeable implementations:

* ``backend="python"`` — dict-based sparse state vector with arbitrary-
  precision int masks; clear and allocation-light.
* ``backend="lazy"`` — the python step memoized behind a bounded
  lazy-DFA configuration cache (:mod:`repro.engine.lazy`): steady-state
  scanning is one dict lookup per byte, falling back to the interpretive
  step on cache miss.
* ``backend="dense"`` — the lazy backend plus an auto-promoted dense
  compiled tier (:mod:`repro.engine.dense`): once the cache is warm and
  stable the interned config graph is compiled into byte-class-
  compressed NumPy tables and buffers are scanned in bulk (self-loop
  run skipping), de-opting to lazy interpretation wherever a scan
  escapes the compiled region.
* ``backend="counting"`` — counter registers
  (:mod:`repro.engine.counting`) for the counting arcs of a
  :class:`~repro.counting.mfsa.CountingMfsa`: bounded ``{m,n}`` repeats
  are fields of one packed register word that steps in a fixed handful
  of big-int operations per byte, instead of expanding into bound-many
  states.  The plain arcs' step is memoized in the same lazy cache the
  lazy backend uses (frontiers recur even while registers count),
  together with each step's register entries; in-range fields join the
  cached successor frontier.  A counting compile with no registers left
  is a plain :class:`~repro.mfsa.model.Mfsa` and scans on the lazy
  loop.

All produce identical matches and (modulo wall time) identical work
counters; tests enforce the agreement.
"""

from __future__ import annotations

import time

import repro.obs as obs
from repro.counting.mfsa import CountingMfsa
from repro.engine import counters
from repro.engine.counters import RunResult
from repro.engine.counting import RegisterBank
from repro.engine.dense import (
    DEFAULT_PROMOTE_AFTER,
    DENSE_MIN_HIT_RATE,
    DenseTier,
)
from repro.engine.lazy import LazyConfigCache
from repro.engine.tables import MfsaTables, limbs_for
from repro.guard import faultinject
from repro.guard.budget import Budget, BudgetMeter, MemoryBudgetExceeded
from repro.guard.errors import (
    AllocationFailed,
    CountingBudgetExceeded,
    ScanDeadlineExceeded,
    UsageError,
)
from repro.mfsa.activation import iter_bits
from repro.mfsa.model import Mfsa

#: Every backend the engine runs (the guard ladder's rungs plus counting).
BACKENDS = ("python", "lazy", "dense", "counting")


class IMfantEngine:
    """Streaming matcher for one MFSA.

    ``single_match=True`` enables the DPI *single-match* reporting mode
    (Hyperscan's ``HS_FLAG_SINGLEMATCH``): each rule reports only its
    first match, and every backend stops scanning once every rule has
    fired (``stats.chars_processed`` reports the bytes actually
    consumed) — the cheap mode IDS rules that only need a verdict use.

    The engine owns its tuning: the cache bound, the deadline-check
    stride and the promotion threshold are module constants, so the
    constructor takes only what varies between callers.  ``scan_deadline``
    bounds each :meth:`run` in wall-clock seconds (checked every
    :data:`~repro.engine.counters.DEADLINE_STRIDE` positions); ``budget``
    is a :class:`~repro.guard.budget.Budget` that only the dense and
    counting backends charge (table memory and registers respectively).

    ``backend="lazy"`` memoizes frontier transitions in a
    :class:`~repro.engine.lazy.LazyConfigCache` owned by the engine,
    bounded at :data:`~repro.engine.lazy.DEFAULT_CACHE_SIZE` entries (a
    full cache flushes, see :mod:`repro.engine.lazy`); the cache stays
    warm across :meth:`run` calls.  An engine runs one scan at a time:
    the cache has a single writer, so callers that share an engine
    across threads take turns (the serve pool's scan lock).

    ``backend="dense"`` starts out as the lazy backend and
    auto-promotes: once :data:`~repro.engine.dense.DEFAULT_PROMOTE_AFTER`
    bytes have been scanned lazily *and* the last run's cache hit rate
    cleared :data:`~repro.engine.dense.DENSE_MIN_HIT_RATE`, the config
    graph is compiled into a :class:`~repro.engine.dense.DenseTier` and
    subsequent runs scan in bulk (call :meth:`promote_dense` with
    ``force=True`` to skip the gates).  ``budget`` charges table builds
    against modelled memory; a build that exceeds it (or fails
    allocation) quietly disables promotion (``dense_disabled`` turns
    true) — the engine keeps serving exact results lazily, which is also
    how the :data:`~repro.guard.degrade.BACKEND_LADDER` treats the tier.

    ``backend="counting"`` accepts a
    :class:`~repro.counting.mfsa.CountingMfsa` and runs its counting
    arcs through counter registers (:mod:`repro.engine.counting`)
    alongside the plain arcs' step, which an engine-owned lazy cache
    memoizes exactly as under ``backend="lazy"``.  ``budget``
    charges one ``counting.registers`` allocation per register at
    engine construction; exceeding it raises
    :class:`~repro.guard.errors.AllocationFailed` with that stage, the
    signal the guard ladder demotes on.  A ``CountingMfsa`` handed to
    any *other* backend is first expanded (:meth:`CountingMfsa.expand`)
    into the equivalent plain automaton — the bridge that keeps the
    degradation ladder total, at the price of exactly the state growth
    counting avoids.  ``pop_on_final`` is rejected when counter
    registers exist (entries hold activation masks the pop cannot
    reach); it works as usual in the degenerate zero-register case.
    """

    def __init__(
        self,
        mfsa: "Mfsa | CountingMfsa",
        backend: str = "python",
        pop_on_final: bool = False,
        single_match: bool = False,
        scan_deadline: float | None = None,
        budget: "Budget | None" = None,
    ) -> None:
        if backend not in BACKENDS:
            raise UsageError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        if scan_deadline is not None and scan_deadline <= 0:
            raise UsageError(f"scan_deadline must be positive (got {scan_deadline})")
        self.backend = backend
        self.pop_on_final = pop_on_final
        self.single_match = single_match
        self.scan_deadline = scan_deadline
        self.budget = budget
        if isinstance(mfsa, CountingMfsa):
            if backend == "counting":
                if pop_on_final and mfsa.counting:
                    raise UsageError(
                        "pop_on_final is not supported with counter registers"
                    )
                self.counting_mfsa: CountingMfsa | None = mfsa
                base = mfsa.plain_view()
            else:
                self.counting_mfsa = None
                base = mfsa.expand()
        else:
            self.counting_mfsa = None
            base = mfsa
        self.tables = MfsaTables.build(base)
        self._init_backend()

    def _init_backend(self) -> None:
        """Allocate the backend's private mutable state and bind
        ``_scan`` — the one place the backend name picks behaviour."""
        self.lazy_cache: LazyConfigCache | None = None
        self.dense_tier: DenseTier | None = None
        #: True once a failed dense build stopped auto-promotion
        self.dense_disabled = False
        self._dense_lazy_bytes = 0
        self._deopt_since_build = 0
        self._last_lazy_hit_rate = 0.0
        self._registers: RegisterBank | None = None
        #: counting: (config id, fired guard bits) -> (merged config id,
        #: final hits, exiting registers); cleared with the lazy cache
        self._merges: dict[tuple[int, int], tuple[int, int, int]] = {}
        backend = self.backend
        try:
            faultinject.fire("alloc", backend=backend)
            if backend != "python":
                self.lazy_cache = LazyConfigCache(
                    self.tables, pop_on_final=self.pop_on_final
                )
            if backend == "counting":
                self._registers = self._alloc_registers()
        except MemoryError as exc:
            raise AllocationFailed(
                f"backend {backend!r} allocation failed: {exc}"
            ) from exc
        if backend == "python":
            self._scan = self._run_python
        elif backend == "dense":
            self._scan = self._run_dense
        elif self._registers is not None:
            self._scan = self._run_counting
        else:  # lazy, or counting with no registers
            self._scan = self._run_lazy

    def _alloc_registers(self) -> RegisterBank | None:
        """Compile the counting arcs into a register bank, charging each
        register against ``budget`` (and the ``counting.register_pressure``
        fault point); ``None`` when there are no counting arcs.
        Failures surface as :class:`AllocationFailed` with stage
        ``counting.registers`` — the typed signal
        :class:`~repro.guard.degrade.GuardedMatcher` demotes counting →
        lazy on."""
        if self.counting_mfsa is None or not self.counting_mfsa.counting:
            return None
        count = len(self.counting_mfsa.counting)
        try:
            faultinject.fire("counting.register_pressure", registers=count)
            if self.budget is not None:
                self.budget.start().charge_counting_registers(count)
        except (MemoryError, CountingBudgetExceeded) as exc:
            raise AllocationFailed(
                f"counting-register allocation failed: {exc}",
                stage="counting.registers",
            ) from exc
        return RegisterBank(self.counting_mfsa)

    def _deadline_at(self, started: float) -> float | None:
        return started + self.scan_deadline if self.scan_deadline is not None else None

    def _deadline_check(
        self, deadline_at: float, started: float, consumed: int, result: RunResult
    ) -> None:
        """Stride-gated scan-deadline check (also the step-delay fault point).

        On expiry the partial :class:`RunResult` is finalized with honest
        counters (matches so far, ``chars_processed`` = bytes actually
        consumed) and attached to the raised error — callers never get a
        silent truncation."""
        faultinject.fire("engine.step_delay")
        now = time.perf_counter()
        if now <= deadline_at:
            return
        stats = result.stats
        stats.wall_seconds = now - started
        stats.chars_processed = consumed
        stats.match_count = len(result.matches)
        raise ScanDeadlineExceeded(
            f"scan exceeded deadline of {self.scan_deadline:.3f}s "
            f"after {consumed} bytes",
            limit=self.scan_deadline,
            used=now - started,
            partial=result,
        )

    # -- public API -------------------------------------------------------

    def run(self, data: bytes | str, collect_stats: bool = True) -> RunResult:
        payload = data.encode("latin-1") if isinstance(data, str) else data
        with obs.span(
            "imfant.run",
            backend=self.backend,
            states=self.tables.num_states,
            rules=self.tables.num_rules,
            bytes=len(payload),
        ) as sp:
            result = self._scan(payload, collect_stats)
            if self.single_match:
                firsts: dict[int, int] = {}
                for rule, end in result.matches:
                    if rule not in firsts or end < firsts[rule]:
                        firsts[rule] = end
                result.matches = {(rule, end) for rule, end in firsts.items()}
                result.stats.match_count = len(result.matches)
            sp.set(matches=result.stats.match_count)
        return result

    def _start_run(self, payload: bytes) -> tuple[RunResult, int, int]:
        """The prologue every scan loop shares, once per run: a fresh
        result holding the ε-rules' match at every offset, the mask of
        all rule slots, and the slots those ε-rules have matched."""
        tables = self.tables
        result = RunResult()
        result.stats.mask_limbs = limbs_for(tables.num_rules)
        matched_rules = 0
        for rule in tables.empty_matching_rules:
            result.matches.update((rule, end) for end in range(len(payload) + 1))
            matched_rules |= 1 << tables.slot_to_rule.index(rule)
        return result, (1 << tables.num_rules) - 1, matched_rules

    # -- python backend ---------------------------------------------------------

    def _run_python(self, payload: bytes, collect_stats: bool) -> RunResult:
        """The interpretive activation step over the shared symbol
        tables: the oracle every other backend reproduces."""
        tables = self.tables
        by_symbol = tables.by_symbol
        init_mask = tables.init_mask
        final_mask = tables.final_mask
        slot_to_rule = tables.slot_to_rule
        pop_on_final = self.pop_on_final

        result, all_rules_mask, matched_rules = self._start_run(payload)
        stats = result.stats
        matches = result.matches
        consumed = 0
        sampler = obs.engine_sampler("imfant")
        stride = sampler.stride if sampler is not None else 0
        dstride = counters.DEADLINE_STRIDE
        started = time.perf_counter()
        deadline_at = self._deadline_at(started)
        active: dict[int, int] = {}  # state -> activation bitmask J
        for position, byte in enumerate(payload, start=1):
            consumed = position
            if deadline_at is not None and position % dstride == 0:
                self._deadline_check(deadline_at, started, consumed, result)
            enabled = by_symbol[byte]
            nxt: dict[int, int] = {}
            for src, dst, bel in enabled:
                mask = (active.get(src, 0) | init_mask[src]) & bel
                if mask:
                    nxt[dst] = nxt.get(dst, 0) | mask
                    if collect_stats:
                        stats.transitions_taken += 1
            active = nxt
            for state, mask in nxt.items():
                hit = mask & final_mask[state]
                if hit:
                    matched_rules |= hit
                    for slot in iter_bits(hit):
                        matches.add((slot_to_rule[slot], position))
                    if pop_on_final:
                        active[state] = mask & ~hit
            if self.single_match and matched_rules == all_rules_mask:
                break
            if collect_stats:
                stats.transitions_examined += len(enabled)
                total = 0
                peak = stats.max_state_activation
                for mask in active.values():
                    n = mask.bit_count()
                    total += n
                    if n > peak:
                        peak = n
                stats.active_pair_total += total
                stats.max_state_activation = peak
            if sampler is not None and position % stride == 0:
                pairs = 0
                width = 0
                for mask in active.values():
                    if mask:
                        width += 1
                        pairs += mask.bit_count()
                sampler.observe(pairs, width, len(enabled))
        stats.wall_seconds = time.perf_counter() - started
        stats.chars_processed = consumed if self.single_match else len(payload)
        stats.match_count = len(matches)
        return result

    # -- lazy backend -----------------------------------------------------------

    def _run_lazy(self, payload: bytes, collect_stats: bool) -> RunResult:
        """The python step behind a lazy-DFA configuration cache.

        Steady state is one dict lookup per byte; misses fall back to
        :meth:`LazyConfigCache.step` (one interpretive step + memoize).
        Stats and sampled observations reproduce the python backend
        exactly — cached entries carry their step's work counters and
        interned configurations their activation statistics.
        """
        cache = self.lazy_cache
        assert cache is not None
        tables = self.tables
        slot_to_rule = tables.slot_to_rule
        transitions = cache.transitions
        step = cache.step
        config_stats = cache.config_stats
        examined_by_byte = cache.examined_by_byte
        single_match = self.single_match

        result, all_rules_mask, matched_rules = self._start_run(payload)
        stats = result.stats
        matches = result.matches
        consumed = 0
        hits = misses = 0
        flushes_before = cache.stats.flushes
        sampler = obs.engine_sampler("imfant")
        stride = sampler.stride if sampler is not None else 0
        dstride = counters.DEADLINE_STRIDE
        started = time.perf_counter()
        deadline_at = self._deadline_at(started)
        cur = 0  # config id 0 == empty frontier
        for position, byte in enumerate(payload, start=1):
            consumed = position
            if deadline_at is not None and position % dstride == 0:
                self._deadline_check(deadline_at, started, consumed, result)
            key = (cur << 8) | byte
            entry = transitions.get(key)
            if entry is None:
                entry = step(cur, byte)
                misses += 1
            else:
                hits += 1
            cur = entry[0]
            if collect_stats:
                # the python backend counts taken transitions *during*
                # the step, so the early-exit position still counts them
                stats.transitions_taken += entry[3]
            if entry[2]:
                matched_rules |= entry[2]
                for slot in entry[1]:
                    matches.add((slot_to_rule[slot], position))
            if single_match and matched_rules == all_rules_mask:
                break
            if collect_stats:
                stats.transitions_examined += examined_by_byte[byte]
                total, peak, _ = config_stats[cur]
                stats.active_pair_total += total
                if peak > stats.max_state_activation:
                    stats.max_state_activation = peak
            if sampler is not None and position % stride == 0:
                total, _, width = config_stats[cur]
                sampler.observe(total, width, examined_by_byte[byte])
        stats.wall_seconds = time.perf_counter() - started
        stats.chars_processed = consumed if single_match else len(payload)
        stats.match_count = len(matches)

        self._record_cache(hits, misses, flushes_before)
        return result

    def _record_cache(self, hits: int, misses: int, flushes_before: int) -> None:
        """Fold one run's cache lookups into :attr:`LazyConfigCache.stats`
        and the ``imfant_lazy_*`` metrics (lazy, dense and counting)."""
        cache = self.lazy_cache
        cache.stats.hits += hits
        cache.stats.misses += misses
        registry = obs.get_registry()
        if registry is not None:
            registry.counter(
                "imfant_lazy_cache_hits_total",
                help="lazy-backend transition-cache hits",
            ).inc(hits)
            registry.counter(
                "imfant_lazy_cache_misses_total",
                help="lazy-backend transition-cache misses (interpretive steps)",
            ).inc(misses)
            registry.counter(
                "imfant_lazy_cache_flushes_total",
                help="lazy-backend whole-cache flushes",
            ).inc(cache.stats.flushes - flushes_before)
            registry.gauge(
                "imfant_lazy_distinct_configs",
                help="distinct frontier configurations currently interned",
            ).set(cache.num_configs)

    # -- counting backend -------------------------------------------------------

    def _run_counting(self, payload: bytes, collect_stats: bool) -> RunResult:
        """The lazy-cached plain step plus the packed register word.

        Per byte: the plain arcs' successor comes from the lazy cache
        (as in :meth:`_run_lazy`), whose entries this engine widens with
        the step's register entry word and entered-register count
        (:meth:`RegisterBank.entries`, read from the pre-step frontier
        before a miss can flush and renumber it).  The register word
        steps in one expression (see :mod:`repro.engine.counting`); its
        in-range fields join the successor through a ``(successor,
        fired)`` memo of the merged config, its final bits and the
        exiting-register count, which a cache flush clears.
        ``transitions_examined`` still charges every register on every
        byte and live entries join ``active_pair_total``.
        """
        cache = self.lazy_cache
        bank = self._registers
        assert cache is not None and bank is not None
        tables = self.tables
        final_mask = tables.final_mask
        slot_to_rule = tables.slot_to_rule
        transitions = cache.transitions
        step = cache.step
        configs = cache.configs
        config_stats = cache.config_stats
        examined_by_byte = cache.examined_by_byte
        intern = cache.config_id_of
        single_match = self.single_match
        num_registers = len(bank)
        keep = bank.keep
        sticky = bank.sticky
        window = bank.window
        guard = bank.guard
        live_mask = bank.live
        merges = self._merges

        result, all_rules_mask, matched_rules = self._start_run(payload)
        stats = result.stats
        matches = result.matches
        consumed = 0
        hits = misses = 0
        entries_total = peak_live = 0
        flushes = flushes_before = cache.stats.flushes
        sampler = obs.engine_sampler("imfant")
        stride = sampler.stride if sampler is not None else 0
        dstride = counters.DEADLINE_STRIDE
        started = time.perf_counter()
        deadline_at = self._deadline_at(started)
        regs = 0  # the packed register word
        cur = 0  # config id 0 == empty frontier
        for position, byte in enumerate(payload, start=1):
            consumed = position
            if deadline_at is not None and position % dstride == 0:
                self._deadline_check(deadline_at, started, consumed, result)
            key = (cur << 8) | byte
            entry = transitions.get(key)
            if entry is None:
                # read the frontier before a miss can flush; a flush
                # renumbers it, so the widened entry goes under its new id
                frontier = configs[cur]
                entering = bank.entries(frontier, byte)
                entry = step(cur, byte)
                misses += 1
                if cache.stats.flushes != flushes:
                    flushes = cache.stats.flushes
                    merges.clear()
                    key = (intern(dict(frontier)) << 8) | byte
                entry = transitions[key] = entry + entering
            else:
                hits += 1
            cur = entry[0]
            taken = entry[3]
            if entry[2]:
                matched_rules |= entry[2]
                for slot in entry[1]:
                    matches.add((slot_to_rule[slot], position))
            regs = (((regs << 1) | (regs & sticky)) & keep[byte]) | entry[4]
            fired = (regs + window) & guard
            if fired:
                merge = merges.get((cur, fired))
                if merge is None:
                    exits, exited = bank.exits(fired)
                    merged = dict(configs[cur])
                    hit = 0
                    for dst, bit in exits:
                        merged[dst] = merged.get(dst, 0) | bit
                        hit |= bit & final_mask[dst]
                    if len(merges) >= cache.max_entries:
                        merges.clear()
                    merge = merges[(cur, fired)] = (intern(merged), hit, exited)
                cur, hit, exited = merge
                taken += exited
                if hit:
                    matched_rules |= hit
                    for slot in iter_bits(hit):
                        matches.add((slot_to_rule[slot], position))
            if collect_stats:
                stats.transitions_taken += taken
            entries_total += entry[5]
            if single_match and matched_rules == all_rules_mask:
                break
            if collect_stats:
                live = (regs & live_mask).bit_count()
                if live > peak_live:
                    peak_live = live
                stats.transitions_examined += examined_by_byte[byte] + num_registers
                total, peak, _ = config_stats[cur]
                stats.active_pair_total += total + live
                if peak > stats.max_state_activation:
                    stats.max_state_activation = peak
            elif entry[5]:
                # live entries only fall on a byte without entries, so
                # the peak can rise only where entries arrive
                live = (regs & live_mask).bit_count()
                if live > peak_live:
                    peak_live = live
            if sampler is not None and position % stride == 0:
                total, _, width = config_stats[cur]
                sampler.observe(total, width, examined_by_byte[byte] + num_registers)
        stats.wall_seconds = time.perf_counter() - started
        stats.chars_processed = consumed if single_match else len(payload)
        stats.match_count = len(matches)

        self._record_cache(hits, misses, flushes_before)
        registry = obs.get_registry()
        if registry is not None:
            registry.gauge(
                "imfant_counting_registers",
                help="counter registers held by the counting backend",
            ).set(num_registers)
            registry.counter(
                "imfant_counting_entries_total",
                help="activation entries pushed into counter registers",
            ).inc(entries_total)
            registry.gauge(
                "imfant_counting_live_entries_peak",
                help="peak live register entries observed in a scan",
            ).set(peak_live)
        return result

    # -- dense backend ----------------------------------------------------------

    def _dense_counter(self, registry, name: str, help_: str, delta: int) -> None:
        if registry is not None and delta:
            registry.counter(name, help=help_).inc(delta)

    def _run_dense(self, payload: bytes, collect_stats: bool) -> RunResult:
        """Lazy until promoted, then bulk scans over the compiled tier.

        A cache flush invalidates the tier (config ids renumber): the
        tier is dropped and the engine falls back to lazy scanning until
        it re-promotes.  De-opt bytes accumulate toward a rebuild once
        the cache has learned the escaped region (see
        :meth:`_maybe_rebuild`).
        """
        tier = self.dense_tier
        if tier is not None and not tier.valid():
            self.dense_tier = None
            self._dense_lazy_bytes = 0
            registry = obs.get_registry()
            self._dense_counter(
                registry,
                "imfant_dense_invalidations_total",
                "dense tiers dropped because the lazy cache flushed",
                1,
            )
            tier = None
        if tier is None:
            cache = self.lazy_cache
            assert cache is not None
            hits0, misses0 = cache.stats.hits, cache.stats.misses
            result = self._run_lazy(payload, collect_stats)
            dh = cache.stats.hits - hits0
            dm = cache.stats.misses - misses0
            self._last_lazy_hit_rate = dh / (dh + dm) if (dh + dm) else 1.0
            self._dense_lazy_bytes += len(payload)
            if (
                not self.dense_disabled
                and self._dense_lazy_bytes > DEFAULT_PROMOTE_AFTER
            ):
                self.promote_dense()
            return result
        return self._scan_dense(tier, payload, collect_stats)

    def promote_dense(self, force: bool = False) -> bool:
        """Compile the lazy cache into a dense tier now.

        Without ``force`` the warm gate applies (last run's hit rate ≥
        :data:`~repro.engine.dense.DENSE_MIN_HIT_RATE`) and failures —
        including a :class:`~repro.guard.errors.MemoryBudgetExceeded` /
        :class:`~repro.guard.errors.AllocationFailed` build under
        ``budget`` — disable auto-promotion and return ``False``
        (the engine keeps running lazily: the dense rung of the guard
        ladder degrades, never crashes).  With ``force`` the gates are
        skipped and build errors propagate.  Returns ``True`` when a
        tier was (re)built.
        """
        if self.backend != "dense":
            raise UsageError("promote_dense requires backend='dense'")
        cache = self.lazy_cache
        assert cache is not None
        if not force:
            if self.dense_disabled:
                return False
            if self._last_lazy_hit_rate < DENSE_MIN_HIT_RATE:
                return False
        meter = BudgetMeter(self.budget) if self.budget is not None else None
        try:
            tier = DenseTier.build(cache, meter=meter)
        except (AllocationFailed, MemoryBudgetExceeded):
            if force:
                raise
            self.dense_disabled = True
            self._dense_counter(
                obs.get_registry(),
                "imfant_dense_promotion_failures_total",
                "dense promotions abandoned (budget/allocation failure)",
                1,
            )
            return False
        self.dense_tier = tier
        self._dense_lazy_bytes = 0
        self._deopt_since_build = 0
        registry = obs.get_registry()
        if registry is not None:
            registry.counter(
                "imfant_dense_promotions_total",
                help="lazy caches promoted to dense compiled tiers",
            ).inc()
            registry.counter(
                "imfant_dense_build_seconds_total",
                help="wall seconds spent compiling dense tiers",
            ).inc(tier.build_seconds)
            registry.gauge(
                "imfant_dense_configs",
                help="configs compiled into the current dense tier",
            ).set(tier.num_configs)
        return True

    def _maybe_rebuild(self, tier: DenseTier) -> None:
        """Re-promote after the de-opted region stabilizes: enough
        de-opt bytes accumulated *and* the cache has interned configs
        the tier does not know.  The threshold scales with the table
        footprint so rebuild time stays small next to the de-opt time
        it can save (big graphs de-opt a little on every payload; a
        rebuild per payload would dominate the scan).  A failed rebuild
        keeps the old tier."""
        threshold = max(DEFAULT_PROMOTE_AFTER, tier.nbytes // 8)
        if self._deopt_since_build < threshold:
            return
        cache = self.lazy_cache
        assert cache is not None
        self._deopt_since_build = 0
        if not tier.valid() or cache.num_configs <= tier.num_configs:
            return
        meter = BudgetMeter(self.budget) if self.budget is not None else None
        try:
            self.dense_tier = DenseTier.build(cache, meter=meter)
        except (AllocationFailed, MemoryBudgetExceeded):
            return
        self._dense_counter(
            obs.get_registry(),
            "imfant_dense_rebuilds_total",
            "dense tiers rebuilt after de-opt churn",
            1,
        )

    def _scan_dense(
        self, tier: DenseTier, payload: bytes, collect_stats: bool
    ) -> RunResult:
        tables = self.tables
        slot_to_rule = tables.slot_to_rule
        single_match = self.single_match

        result, all_rules_mask, matched_rules = self._start_run(payload)
        stats = result.stats
        matches = result.matches
        sampler = obs.engine_sampler("imfant")
        started = time.perf_counter()
        deadline_at = self._deadline_at(started)

        outcome = tier.scan(
            payload,
            start_config=0,
            collect_stats=collect_stats,
            stats=stats,
            sampler=sampler,
            single_match=single_match,
            matched_rules=matched_rules,
            all_rules_mask=all_rules_mask,
            deadline_at=deadline_at,
        )
        if outcome.reason == "invalidated":
            # The cache flushed mid-scan: every config id (and the
            # tier) is stale.  Rerun the whole payload lazily — exact
            # and rare (only under cache pressure, where dense should
            # not have promoted in the first place).
            self.dense_tier = None
            self._dense_lazy_bytes = 0
            self._dense_counter(
                obs.get_registry(),
                "imfant_dense_invalidations_total",
                "dense tiers dropped because the lazy cache flushed",
                1,
            )
            return self._run_lazy(payload, collect_stats)

        emissions = tier.emissions
        for eid, lo, hi in outcome.events:
            slots, _mask = emissions[eid]
            if lo == hi:
                for slot in slots:
                    matches.add((slot_to_rule[slot], lo))
            else:
                for slot in slots:
                    rule = slot_to_rule[slot]
                    matches.update((rule, pos) for pos in range(lo, hi + 1))

        self._deopt_since_build += outcome.deopt_bytes
        registry = obs.get_registry()
        self._dense_counter(
            registry,
            "imfant_dense_deopts_total",
            "dense scans de-opting to lazy interpretation",
            outcome.deopts,
        )
        self._dense_counter(
            registry,
            "imfant_dense_deopt_bytes_total",
            "bytes interpreted lazily inside dense scans",
            outcome.deopt_bytes,
        )
        self._dense_counter(
            registry,
            "imfant_dense_skipped_bytes_total",
            "bytes skipped by self-loop runs (block search)",
            outcome.skipped_bytes,
        )

        if outcome.reason == "deadline":
            stats.match_count = len(matches)
            self._deadline_check(deadline_at, started, outcome.consumed, result)
        stats.wall_seconds = time.perf_counter() - started
        stats.chars_processed = (
            outcome.consumed if single_match else len(payload)
        )
        stats.match_count = len(matches)
        self._maybe_rebuild(tier)
        return result
