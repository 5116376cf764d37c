"""Lazy-DFA configuration cache: memoized iMFAnt frontier transitions.

Real streams drive an automaton through a small recurring set of frontier
*configurations* — the ``{state: activation-mask}`` dict the interpretive
iMFAnt backend rebuilds from scratch on every byte.  Because the
activation step is a pure function of ``(configuration, byte)``, the
steady state of a scan can be determinized *on the fly* (the classic
lazy-DFA / subset-construction-at-match-time idea, cf. RE2 and the
"insomnia" cure of Quesada et al.): freeze each frontier into an
interned integer id and memoize

    ``(config_id, byte) -> (next_config_id, emitted-rule slots, …)``

so a warm scan costs one dict lookup per byte instead of one loop over
the symbol's enabled transitions.

The cache is **bounded** (``max_entries``) so adversarial inputs that
keep minting fresh configurations degrade gracefully to interpretive
speed instead of exploding memory.  Eviction is RE2-style: when the
transition cache is full, drop *everything* and re-intern only the live
frontier — O(1) per hot step (plain dict), worst-case recompute after a
flush.  The configuration table is additionally bounded by a full flush
when it outgrows ``2 * max_entries``.

Every cached entry also stores the step's work counters and every
interned configuration its activation statistics, so a lazy run
reproduces the python backend's :class:`~repro.engine.counters.
ExecutionStats` and strided engine-sampler observations *exactly* —
the cross-backend invariant the engine tests enforce.

Cache activity is surfaced, never fatal: per-run hit/miss/flush
deltas land on the :mod:`repro.obs` metrics registry (when one is
active) as ``imfant_lazy_cache_*_total`` counters plus an
``imfant_lazy_distinct_configs`` gauge, and cumulative totals are
readable on :attr:`LazyConfigCache.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.tables import MfsaTables
from repro.guard import faultinject

__all__ = ["DEFAULT_CACHE_SIZE", "LazyCacheStats", "LazyConfigCache"]

#: Default transition-cache budget (entries, i.e. (config, byte) pairs).
DEFAULT_CACHE_SIZE = 1 << 16

#: One frozen frontier: sorted ``(state, activation-mask)`` pairs with
#: zero masks dropped (canonical — two equal frontiers intern equal).
_Config = tuple


@dataclass
class LazyCacheStats:
    """Cumulative cache activity (monotonic across runs)."""

    hits: int = 0
    misses: int = 0
    flushes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in [0, 1]; 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "flushes": self.flushes,
            "hit_rate": self.hit_rate,
        }


class LazyConfigCache:
    """Bounded memo of frontier transitions for one :class:`MfsaTables`.

    The cache owns all mutable lazy-backend state; the tables it wraps
    are immutable after construction.

    Entry layout (a plain tuple, unpacked in the hot loop):
    ``(next_config_id, emit_slots, emit_mask, transitions_taken)``.
    Config id ``0`` is always the empty frontier.
    """

    def __init__(
        self,
        tables: MfsaTables,
        pop_on_final: bool = False,
        max_entries: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if max_entries < 1:
            raise ValueError("lazy cache needs max_entries >= 1")
        pressure = faultinject.value("lazy.cache_pressure")
        if pressure is not None:
            # Injected cache pressure: clamp the budget so flush/thrash
            # paths exercise without multi-megabyte adversarial inputs.
            max_entries = 1 if pressure is True else max(1, min(max_entries, int(pressure)))
        self.tables = tables
        self.pop_on_final = pop_on_final
        self.max_entries = max_entries
        self.stats = LazyCacheStats()
        #: (config_id << 8 | byte) -> entry
        self.transitions: dict[int, tuple] = {}
        #: config id -> frozen (state, mask) pairs
        self._configs: list[_Config] = []
        #: config id -> (active_pair_total, peak_state_activation, width)
        self.config_stats: list[tuple[int, int, int]] = []
        self._ids: dict[_Config, int] = {}
        #: transitions examined per byte — constant per symbol, hoisted
        #: out of the per-step entries
        self.examined_by_byte: list[int] = [len(lst) for lst in tables.by_symbol]
        self._intern(())

    # -- configuration interning ------------------------------------------

    @property
    def num_configs(self) -> int:
        """Distinct frontier configurations currently interned."""
        return len(self._configs)

    @property
    def configs(self) -> list[_Config]:
        """Config id → frozen ``(state, mask)`` pairs (read-only; a flush
        clears it in place, so a hot-loop reference stays valid)."""
        return self._configs

    def config_id_of(self, active: dict[int, int]) -> int:
        """Intern an explicit frontier dict (id 0 == empty frontier)."""
        return self._intern(tuple(sorted((s, m) for s, m in active.items() if m)))

    def frontier_of(self, config_id: int) -> dict[int, int]:
        """The ``{state: mask}`` frontier a config id stands for."""
        return dict(self._configs[config_id])

    def _intern(self, frozen: _Config) -> int:
        ident = self._ids.get(frozen)
        if ident is None:
            ident = len(self._configs)
            self._ids[frozen] = ident
            self._configs.append(frozen)
            total = 0
            peak = 0
            for _, mask in frozen:
                bits = mask.bit_count()
                total += bits
                if bits > peak:
                    peak = bits
            self.config_stats.append((total, peak, len(frozen)))
        return ident

    # -- eviction ----------------------------------------------------------

    def _flush(self, live_id: int) -> int:
        """Drop every cached transition and configuration except the live
        frontier; returns its re-interned id.  Clears in place so hot-loop
        references to ``transitions`` / ``config_stats`` stay valid."""
        live = self._configs[live_id]
        self.transitions.clear()
        self._ids.clear()
        del self._configs[:]
        del self.config_stats[:]
        self.stats.flushes += 1
        self._intern(())
        return self._intern(live)

    # -- pure transition (no memoization) ---------------------------------

    def compute(self, config_id: int, byte: int) -> tuple:
        """The transition of ``(config_id, byte)`` **without** touching
        the cache: nothing is memoized, nothing is interned, no flush
        can occur.

        Returns ``(next_config_id_or_None, emit_slots, emit_mask,
        transitions_taken)`` — ``next_config_id`` is ``None`` when the
        successor frontier is not (yet) interned.  This is the read-only
        step the dense-tier compiler (:mod:`repro.engine.dense`) uses to
        close the warm config graph without perturbing it.
        """
        frozen, emit_slots, emit_mask, taken = self._transition(config_id, byte)
        return (self._ids.get(frozen), emit_slots, emit_mask, taken)

    def _transition(self, config_id: int, byte: int) -> tuple:
        """One interpretive frontier step: ``(frozen_next, emit_slots,
        emit_mask, taken)`` — pure w.r.t. the cache."""
        tables = self.tables
        init_mask = tables.init_mask
        final_mask = tables.final_mask
        active = dict(self._configs[config_id])
        taken = 0
        nxt: dict[int, int] = {}
        for src, dst, bel in tables.by_symbol[byte]:
            mask = (active.get(src, 0) | init_mask[src]) & bel
            if mask:
                nxt[dst] = nxt.get(dst, 0) | mask
                taken += 1
        emit_mask = 0
        for state, mask in nxt.items():
            hit = mask & final_mask[state]
            if hit:
                emit_mask |= hit
                if self.pop_on_final:
                    nxt[state] = mask & ~hit
        emit_slots: tuple[int, ...] = ()
        if emit_mask:
            slots = []
            bits = emit_mask
            while bits:
                low = bits & -bits
                slots.append(low.bit_length() - 1)
                bits ^= low
            emit_slots = tuple(slots)
        frozen = tuple(sorted((s, m) for s, m in nxt.items() if m))
        return (frozen, emit_slots, emit_mask, taken)

    # -- the miss path -----------------------------------------------------

    def step(self, config_id: int, byte: int) -> tuple:
        """Compute, memoize, and return the transition for a cache miss.

        May flush (a full transition cache, or a config-table overflow)
        — the caller's ``config_id`` becomes stale, but the returned
        entry's ``next_config_id`` is always valid.
        """
        if len(self.transitions) >= self.max_entries or (
            # configs interned through config_id_of (mapping scans) add
            # no transitions; a rare full flush bounds those too
            len(self._configs) > 2 * self.max_entries
        ):
            config_id = self._flush(config_id)

        frozen, emit_slots, emit_mask, taken = self._transition(config_id, byte)
        entry = (self._intern(frozen), emit_slots, emit_mask, taken)
        self.transitions[(config_id << 8) | byte] = entry
        return entry
