"""SFA-style composable chunk mappings: exact data-parallel scanning.

Overlap/stitch chunking (the historical contract of
:mod:`repro.engine.chunkscan` and :mod:`repro.serve.shards`) prepends
``max_width − 1`` context bytes to every chunk — sound only when every
rule's match width is bounded, and silently *sequential* otherwise
(``.*``, unbounded repeats).  Simultaneous Finite Automata (Sin'ya &
Matsuzaki, PAPERS.md) give the principled replacement: scan each chunk
from **every possible entry state at once**, producing a state-to-state
mapping; mappings compose associatively, so chunks scan with *zero*
shared bytes and a cheap reduce recovers the single-shot answer exactly
— for any ruleset, bounded or not.

The MFSA twist is that the execution state is not one NFA state set but
the activation function ``J : state → rule bitmask`` (paper §V), and
the per-symbol step

    ``J'(dst) = ⋃ (J(src) ∪ init(src)) ∩ bel(src→dst)``

is *affine over bitmask union*: ``(J|init)&bel = (J&bel) | (init&bel)``,
and the linear half treats every ``(state, rule-slot)`` bit
independently (a single slot bit can only stay that slot bit or die —
``mask & bel`` never moves bits between slots).  So the simultaneous
run needs exactly one column per possible *entry pair* ``(q, s)`` —
a state ``q`` holding a live bit of rule slot ``s`` — plus one affine
"empty entry" column that carries the ``init`` feeding.  All columns
advance in a single pass with the same per-transition AND/OR the plain
python backend performs, just on wider masks (the layout puts the
empty-entry column in the low ``num_rules`` bits and entry-pair columns
above them), keeping the simultaneous-run overhead a constant factor
rather than the |Q|× of textbook SFA construction.

Entry pairs are restricted to *live* pairs — ``(q, s)`` such that ``q``
has at least one outgoing transition belonging to ``s`` on some symbol.
A bit anywhere else can never move again and never report again (match
events fire on *entering* a final state), so dropping dead bits is
match-preserving; it is also what makes the mapping algebra a clean
monoid (``compose`` with :meth:`SfaScanner.identity` is exact equality,
property-tested).  Consequently :meth:`ChunkMapping.apply` returns the
*live projection* of the engine's activation state — byte-identical
matches, with provably irrelevant dead bits pruned.

Match events come in two kinds, mirroring the affine split:

* *const matches* — produced from the empty entry (with ``init``
  feeding every position): exactly what a standalone scan of the chunk
  reports.  Always valid, whatever the true entry activation.
* *conditional matches* — keyed by entry pair: reported only when that
  pair's bit is live at chunk entry.

Positions are stored as **runs** (inclusive ``(lo, hi)`` ranges) rather
than enumerated offsets — the compact-tabulation idea of Bille
(PAPERS.md): a ``.*``-style rule that matches at every position from
some point on costs one run, not one tuple per byte (the same shape as
the serve layer's ``all_offsets_rules`` compaction).

Rules whose language contains ε match at every offset ``0..n``; like
everywhere else in the codebase they are handled *outside* the mapping
(see ``MfsaTables.empty_matching_rules``) and completed by the caller.

:class:`ChunkMapping` is pure picklable data (worker processes ship
mappings home); the :class:`SfaScanner` that understands its layout is
rebuilt per process from the same MFSA and re-attached via
:meth:`SfaScanner.attach` (a structural fingerprint guards mismatches).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import repro.obs as obs
from repro.engine import counters
from repro.engine.counters import ExecutionStats, RunResult
from repro.engine.dense import DEFAULT_PROMOTE_AFTER, DenseTier
from repro.engine.lazy import LazyConfigCache
from repro.engine.tables import MfsaTables, limbs_for
from repro.guard.errors import AllocationFailed, ScanDeadlineExceeded, UsageError
from repro.mfsa.activation import iter_bits
from repro.mfsa.model import Mfsa

__all__ = [
    "ChunkMapping",
    "MappingScan",
    "SfaScanner",
    "expand_runs",
    "fold_mappings",
]

#: Bulk-kernel rebuild gate: a tier is only recompiled after a de-opt
#: window during which the extended config graph grew by fewer than
#: this many configs.  Rulesets whose entry-pair graph never converges
#: (``.*``-heavy ones mint fresh configs every byte) would otherwise
#: trigger ever-larger table builds that cost more than they save; they
#: stay on the de-opt (memoizing lazy) driver instead, which is no
#: slower than the interpretive pass.
_BULK_STABLE_GROWTH = 1024

#: Never compile an extended-config tier larger than this: the table
#: build is an O(configs × classes) pure-python pass, and past this
#: size its one-off cost stops amortising against chunk traffic.  The
#: small resident tier keeps serving whatever it covers; everything
#: else stays on the memoizing de-opt driver.
_BULK_MAX_CONFIGS = 1 << 13

#: Inclusive position runs, sorted, disjoint, non-adjacent (canonical).
Runs = tuple  # tuple[tuple[int, int], ...]


def _canon_runs(runs: Iterable[tuple[int, int]]) -> Runs:
    """Canonical run list: sorted, overlapping/adjacent runs merged."""
    merged: list[list[int]] = []
    for lo, hi in sorted(runs):
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def _shift_runs(runs: Runs, offset: int) -> Iterable[tuple[int, int]]:
    return ((lo + offset, hi + offset) for lo, hi in runs)


def expand_runs(runs: Runs) -> Iterable[int]:
    """Enumerate the positions of a canonical run list."""
    for lo, hi in runs:
        yield from range(lo, hi + 1)


def _append_pos(runs: list[list[int]], pos: int) -> None:
    """Append one position to an in-construction run list (positions
    arrive non-decreasing — several final states can hit the same slot
    at one position — so this is O(1) and stays canonical)."""
    if runs:
        last = runs[-1][1]
        if pos == last:
            return
        if pos == last + 1:
            runs[-1][1] = pos
            return
    runs.append([pos, pos])


def _append_run(runs: list[list[int]], lo: int, hi: int) -> None:
    """Append one inclusive run (runs arrive in position order from the
    dense stepper's event stream; adjacent/overlapping runs merge so the
    result is canonical — identical to what :func:`_append_pos` builds
    position by position)."""
    if runs and lo <= runs[-1][1] + 1:
        if hi > runs[-1][1]:
            runs[-1][1] = hi
        return
    runs.append([lo, hi])



@dataclass(frozen=True)
class ChunkMapping:
    """The simultaneous-run summary of one chunk (pure picklable data).

    ``exit_reach``/``cond_matches`` encode the linear half over *entry
    pairs* (see module docstring); ``const_exit``/``const_matches`` the
    affine empty-entry column.  All positions are chunk-relative ends in
    ``1..length``; activation masks are over dense rule *slots*.

    Use via an attached :class:`SfaScanner` (``scanner.compose(a, b)``,
    ``mapping.apply(entry)``); the convenience methods delegate to the
    scanner captured at construction (dropped on pickle — reattach with
    :meth:`SfaScanner.attach`).
    """

    #: structural fingerprint of the MFSA layout this mapping is for
    signature: str
    #: chunk length in bytes
    length: int
    #: state → slot mask: exit activation from the empty entry (live
    #: projection — dead bits pruned, see module docstring)
    const_exit: dict
    #: rule id → runs of match end positions from the empty entry
    const_matches: dict
    #: state → entry-pair mask: which entry pairs reach this state
    exit_reach: dict
    #: entry pair → runs of match end positions conditional on it
    cond_matches: dict
    #: the scanner this mapping was built by (not pickled, not compared)
    scanner: Optional["SfaScanner"] = field(
        default=None, compare=False, repr=False
    )

    def __getstate__(self):
        state = self.__dict__.copy()
        state["scanner"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def _require_scanner(self) -> "SfaScanner":
        if self.scanner is None:
            raise UsageError(
                "mapping is detached (pickled?); re-attach with SfaScanner.attach"
            )
        return self.scanner

    def compose(self, other: "ChunkMapping") -> "ChunkMapping":
        """``self`` then ``other`` — associative (property-tested)."""
        return self._require_scanner().compose(self, other)

    def apply(
        self, entry: Optional[dict] = None, base: int = 0
    ) -> tuple[set, dict]:
        """Matches and exit activation given the entry activation.

        ``entry`` is a ``state → slot mask`` activation (``None``/empty
        = stream start); returned match ends are rebased by ``base``.
        The exit activation is the live projection of what a
        byte-by-byte engine run would hold after this chunk.
        """
        return self._require_scanner().apply(self, entry, base)


@dataclass
class MappingScan:
    """One chunk scanned: its mapping plus execution provenance."""

    mapping: ChunkMapping
    #: const-column work counters — what a standalone scan would report
    stats: ExecutionStats
    #: transitions where the simultaneous (entry-pair) half was live —
    #: the extra work the mapping costs over a plain scan; feeds
    #: :meth:`repro.engine.cost.CostModel.mapping_run_cost`
    linear_ops: int = 0


class SfaScanner:
    """Simultaneous-run scanner for one MFSA: builds, composes and
    applies :class:`ChunkMapping`\\ s.

    A scanner runs one scan at a time, as an
    :class:`~repro.engine.imfant.IMfantEngine` does: bulk scans warm its
    own lazy cache, which has a single writer.  Build one per process
    and :meth:`attach` mappings that crossed a process boundary.
    """

    def __init__(
        self,
        mfsa: Mfsa,
        pop_on_final: bool = False,
        tables: Optional[MfsaTables] = None,
        scan_deadline: Optional[float] = None,
    ) -> None:
        if scan_deadline is not None and scan_deadline <= 0:
            raise UsageError(f"scan_deadline must be positive (got {scan_deadline})")
        if getattr(mfsa, "counting", ()):
            # A mapping composes pure state-to-state reachability; counter
            # registers carry positions, which no finite mapping can.
            raise UsageError(
                "SfaScanner cannot scan counter registers; expand() the "
                "CountingMfsa first or use overlap chunking"
            )
        self.pop_on_final = pop_on_final
        self.scan_deadline = scan_deadline
        self.tables = tables if tables is not None else MfsaTables.build(mfsa)
        self._build_index()
        #: bulk-kernel state: a lazy cache and dense tier over the
        #: extended column layout, built by the first bulk scan
        self._bulk_cache: Optional[LazyConfigCache] = None
        self._bulk_tier: Optional[DenseTier] = None
        self._bulk_disabled = False
        self._bulk_start_config = 0
        self._bulk_since_build = 0
        self._bulk_configs_at_check = 0
        self._ext_tables_cache: Optional[MfsaTables] = None

    # -- index construction ------------------------------------------------

    def _build_index(self) -> None:
        tables = self.tables
        num_rules = tables.num_rules
        num_states = tables.num_states

        # ε-matching rules are handled entirely outside the mapping
        # (they match at *every* offset — the all_offsets_rules
        # convention); drop their slots from the tracked universe so
        # mappings never carry or report them
        eps_slots = 0
        for slot, rule in enumerate(tables.slot_to_rule):
            if rule in tables.empty_matching_rules:
                eps_slots |= 1 << slot
        self.eps_slots = eps_slots
        keep = ((1 << num_rules) - 1) & ~eps_slots

        # live slots per state: slots with >=1 outgoing belonging
        # transition on some symbol — the only (state, slot) bits that
        # can ever move or report again
        live_slots = [0] * num_states
        for triples in tables.by_symbol:
            for src, _dst, bel in triples:
                live_slots[src] |= bel & keep
        self.live_slots = live_slots

        # entry pairs, state-major, slot-ascending (deterministic)
        pairs: list[tuple[int, int]] = []
        pairs_at_state = [0] * num_states
        for state in range(num_states):
            for slot in iter_bits(live_slots[state]):
                pairs_at_state[state] |= 1 << len(pairs)
                pairs.append((state, slot))
        self.pairs = pairs
        self.num_pairs = len(pairs)
        self.pairs_at_state = pairs_at_state

        # per slot: mask of all pairs carrying that slot
        slot_pairs = [0] * num_rules
        for index, (_state, slot) in enumerate(pairs):
            slot_pairs[slot] |= 1 << index
        self.slot_pairs = slot_pairs

        # combined-column layout: slots in bits [0, num_rules), pairs
        # shifted above them — one AND/OR advances both halves
        shift = num_rules
        self.pair_shift = shift
        self.slots_area = (1 << num_rules) - 1

        def lift(pair_mask: int) -> int:
            return pair_mask << shift

        # per-state extended masks (all restricted to non-ε slots)
        self.init_ext = [m & keep for m in tables.init_mask]  # feeds const only
        self.final_ext = [0] * num_states
        self.live_ext = [0] * num_states
        for state in range(num_states):
            fin = tables.final_mask[state] & keep
            fin_pairs = 0
            for slot in iter_bits(fin):
                fin_pairs |= slot_pairs[slot]
            self.final_ext[state] = fin | lift(fin_pairs)
            live_pairs = 0
            for slot in iter_bits(live_slots[state]):
                live_pairs |= slot_pairs[slot]
            self.live_ext[state] = live_slots[state] | lift(live_pairs)

        # per-symbol transition triples with extended belonging masks
        self.by_symbol_ext: list[list[tuple[int, int, int]]] = []
        for triples in tables.by_symbol:
            extended = []
            for src, dst, bel in triples:
                bel_kept = bel & keep
                bel_pairs = 0
                for slot in iter_bits(bel_kept):
                    bel_pairs |= slot_pairs[slot]
                ext = bel_kept | lift(bel_pairs)
                if ext:
                    extended.append((src, dst, ext))
            self.by_symbol_ext.append(extended)

        self.signature = self._fingerprint()

    def _fingerprint(self) -> str:
        """Stable structural id of the MFSA layout (cross-process)."""
        import hashlib

        h = hashlib.sha256()
        tables = self.tables
        h.update(f"{tables.num_states}:{tables.num_rules}:".encode())
        h.update(",".join(str(r) for r in tables.slot_to_rule).encode())
        h.update(b"|")
        h.update(",".join(str(m) for m in tables.init_mask).encode())
        h.update(b"|")
        h.update(",".join(str(m) for m in tables.final_mask).encode())
        h.update(b"|")
        for symbol, triples in enumerate(tables.by_symbol):
            if not triples:
                continue
            h.update(str(symbol).encode())
            for src, dst, bel in triples:
                h.update(f":{src},{dst},{bel}".encode())
        h.update(f"|pop={int(self.pop_on_final)}".encode())
        return h.hexdigest()[:16]

    # -- mapping construction ----------------------------------------------

    def identity(self) -> ChunkMapping:
        """The empty chunk: neutral element of :meth:`compose`."""
        exit_reach = {
            state: mask >> 0
            for state, mask in enumerate(self.pairs_at_state)
            if mask
        }
        return ChunkMapping(
            signature=self.signature,
            length=0,
            const_exit={},
            const_matches={},
            exit_reach=exit_reach,
            cond_matches={},
            scanner=self,
        )

    def attach(self, mapping: ChunkMapping) -> ChunkMapping:
        """Re-bind a detached (unpickled) mapping to this scanner."""
        if mapping.signature != self.signature:
            raise UsageError(
                f"mapping signature {mapping.signature} does not match "
                f"scanner {self.signature} (different MFSA or pop_on_final)"
            )
        if mapping.scanner is self:
            return mapping
        return ChunkMapping(
            signature=mapping.signature,
            length=mapping.length,
            const_exit=mapping.const_exit,
            const_matches=mapping.const_matches,
            exit_reach=mapping.exit_reach,
            cond_matches=mapping.cond_matches,
            scanner=self,
        )

    def _deadline_check(
        self,
        deadline_at: float,
        started: float,
        consumed: int,
        matches: set,
        stats: ExecutionStats,
    ) -> None:
        from repro.guard import faultinject

        faultinject.fire("engine.step_delay")
        now = time.perf_counter()
        if now <= deadline_at:
            return
        stats.wall_seconds = now - started
        stats.chars_processed = consumed
        stats.match_count = len(matches)
        partial = RunResult(matches=matches, stats=stats)
        raise ScanDeadlineExceeded(
            f"mapping scan exceeded deadline after {consumed} bytes",
            limit=self.scan_deadline,
            used=now - started,
            partial=partial,
        )

    # -- the bulk kernel (dense stepper over entry-pair columns) -----------

    def _ext_tables(self) -> MfsaTables:
        """Synthetic :class:`MfsaTables` over the combined-column bit
        layout: ``num_rules + num_pairs`` rule slots, ``init_ext``
        feeding only the const half, extended belonging masks.  The
        lazy cache's interpretive step over these tables *is* the
        simultaneous-run step (same ``(J|init)&bel`` recurrence on
        wider masks), so the whole lazy→dense machinery applies to
        mapping scans unchanged."""
        cached = self._ext_tables_cache
        if cached is None:
            total = self.tables.num_rules + self.num_pairs
            cached = MfsaTables(
                num_states=self.tables.num_states,
                num_rules=total,
                slot_to_rule=list(range(total)),
                init_mask=list(self.init_ext),
                final_mask=list(self.final_ext),
                by_symbol=self.by_symbol_ext,
                empty_matching_rules=[],
            )
            self._ext_tables_cache = cached
        return cached

    @staticmethod
    def _rebuild_traffic(tier, cache) -> int:
        """De-opt bytes that must accrue before the next rebuild check:
        scales with both the resident table and the *projected* one, so
        a rebuild's O(configs × classes) build cost is always financed
        by proportional scan traffic."""
        k = tier.num_classes
        projected = cache.num_configs * (3 * k * 4 + (k + 1) * 8)
        return max(DEFAULT_PROMOTE_AFTER, tier.nbytes // 8, projected // 8)

    def _start_frontier(self) -> dict:
        shift = self.pair_shift
        return {
            state: mask << shift
            for state, mask in enumerate(self.pairs_at_state)
            if mask
        }

    def _bulk_scan_chunk(
        self, payload: bytes, deadline_at: Optional[float], started: float
    ) -> Optional[MappingScan]:
        """Scan one chunk with the dense bulk kernel; ``None`` falls
        back to the interpretive pass (build failure, or a mid-scan
        cache flush that invalidated the tier).

        The scanner's cache interprets cold regions (warming as it
        goes) and the compiled tier bulk-steps warm ones — chunk scans
        start at lazy-cache speed and converge to dense speed as the
        entry-pair config graph stabilises.  ``linear_ops`` is reported
        as 0 on this path: the κ-counters that feed
        :meth:`~repro.engine.cost.CostModel.mapping_run_cost` come from
        ``collect_stats=True`` scans, which keep the exact interpretive
        loop.
        """
        if self._bulk_disabled:
            return None
        cache = self._bulk_cache
        if cache is None:
            cache = self._bulk_cache = LazyConfigCache(
                self._ext_tables(), pop_on_final=self.pop_on_final
            )
        tier = self._bulk_tier
        if tier is not None and not tier.valid():
            tier = None  # flushed between chunks: ids renumbered
        if tier is not None and self._bulk_since_build >= self._rebuild_traffic(
            tier, cache
        ):
            # End of a de-opt observation window.  Fold the de-opt
            # region into a fresh tier only when the graph *stabilised*
            # over the window; a graph still minting configs (dotstar-
            # style entry-pair explosion) would make every rebuild
            # bigger and still useless, so just open a new window.
            grown = cache.num_configs - self._bulk_configs_at_check
            self._bulk_configs_at_check = cache.num_configs
            self._bulk_since_build = 0
            if (
                grown < _BULK_STABLE_GROWTH
                and tier.num_configs < cache.num_configs <= _BULK_MAX_CONFIGS
            ):
                tier = None
        if tier is None:
            self._bulk_start_config = cache.config_id_of(self._start_frontier())
            try:
                tier = DenseTier.build(cache)
            except AllocationFailed:
                self._bulk_disabled = True
                return None
            self._bulk_tier = tier
            self._bulk_since_build = 0
            self._bulk_configs_at_check = cache.num_configs

        outcome = tier.scan(
            payload,
            start_config=self._bulk_start_config,
            deadline_at=deadline_at,
        )
        self._bulk_since_build += outcome.deopt_bytes
        if outcome.reason == "invalidated":
            self._bulk_tier = None  # rebuilt (and start re-interned) next chunk
            return None

        # decode emission events: slots below pair_shift are const
        # (empty-entry) matches, the rest are entry-pair conditionals
        slot_to_rule = self.tables.slot_to_rule
        shift = self.pair_shift
        const_runs: dict[int, list[list[int]]] = {}
        cond_runs: dict[int, list[list[int]]] = {}
        emissions = tier.emissions
        for eid, lo, hi in outcome.events:
            slots, _mask = emissions[eid]
            for slot in slots:
                if slot < shift:
                    rule = slot_to_rule[slot]
                    runs = const_runs.get(rule)
                    if runs is None:
                        runs = const_runs[rule] = []
                    _append_run(runs, lo, hi)
                else:
                    pair = slot - shift
                    runs = cond_runs.get(pair)
                    if runs is None:
                        runs = cond_runs[pair] = []
                    _append_run(runs, lo, hi)

        stats = ExecutionStats()
        stats.mask_limbs = limbs_for(self.tables.num_rules)
        if outcome.reason == "deadline":
            const_match_set = {
                (rule, pos)
                for rule, runs in const_runs.items()
                for lo, hi in runs
                for pos in range(lo, hi + 1)
            }
            self._deadline_check(
                deadline_at, started, outcome.consumed, const_match_set, stats
            )

        frontier = cache.frontier_of(outcome.final_config)
        slots_area = self.slots_area
        live_ext = self.live_ext
        const_exit: dict[int, int] = {}
        exit_reach: dict[int, int] = {}
        for state, mask in frontier.items():
            live = mask & live_ext[state]
            if not live:
                continue
            slots = live & slots_area
            if slots:
                const_exit[state] = slots
            reach = live >> shift
            if reach:
                exit_reach[state] = reach

        mapping = ChunkMapping(
            signature=self.signature,
            length=len(payload),
            const_exit=const_exit,
            const_matches={
                rule: tuple(tuple(r) for r in runs)
                for rule, runs in const_runs.items()
            },
            exit_reach=exit_reach,
            cond_matches={
                pair: tuple(tuple(r) for r in runs)
                for pair, runs in cond_runs.items()
            },
            scanner=self,
        )
        stats.wall_seconds = time.perf_counter() - started
        stats.chars_processed = len(payload)
        stats.match_count = sum(
            hi - lo + 1 for runs in const_runs.values() for lo, hi in runs
        )
        return MappingScan(mapping=mapping, stats=stats, linear_ops=0)

    def scan_chunk(
        self,
        data: bytes | str,
        collect_stats: bool = True,
        deadline_at: Optional[float] = None,
    ) -> MappingScan:
        """One simultaneous pass over ``data`` → its :class:`ChunkMapping`.

        ``deadline_at`` is an absolute ``time.perf_counter`` expiry (the
        serve convention); on expiry the raised
        :class:`~repro.guard.errors.ScanDeadlineExceeded` carries the
        honest partial *const* matches — genuine matches of the scanned
        prefix, valid whatever the entry activation.  A truncated
        mapping is never returned: partial mappings do not compose.

        ``collect_stats=False`` scans take the dense **bulk kernel**
        (:meth:`_bulk_scan_chunk`): the scanner's lazy cache + compiled
        tier over the extended entry-pair columns replaces the
        byte-by-byte interpretation — same mapping, byte-identical
        matches (property-tested).  Stats scans keep the interpretive
        loop, whose exact κ-counters feed the cost model.
        """
        payload = data.encode("latin-1") if isinstance(data, str) else data
        if deadline_at is None and self.scan_deadline is not None:
            deadline_at = time.perf_counter() + self.scan_deadline

        if not collect_stats:
            with obs.span(
                "sfa.bulk_chunk",
                pairs=self.num_pairs,
                bytes=len(payload),
            ):
                scan = self._bulk_scan_chunk(
                    payload, deadline_at, time.perf_counter()
                )
            if scan is not None:
                return scan

        tables = self.tables
        by_symbol_ext = self.by_symbol_ext
        init_ext = self.init_ext
        final_ext = self.final_ext
        slots_area = self.slots_area
        pair_shift = self.pair_shift
        slot_to_rule = tables.slot_to_rule
        pop_on_final = self.pop_on_final
        dstride = counters.DEADLINE_STRIDE

        stats = ExecutionStats()
        stats.mask_limbs = limbs_for(tables.num_rules)
        #: const matches recorded engine-style for the deadline partial
        const_match_set: set[tuple[int, int]] = set()
        const_runs: dict[int, list[list[int]]] = {}
        cond_runs: dict[int, list[list[int]]] = {}
        linear_ops = 0

        with obs.span(
            "sfa.scan_chunk",
            states=tables.num_states,
            rules=tables.num_rules,
            pairs=self.num_pairs,
            bytes=len(payload),
        ) as sp:
            started = time.perf_counter()
            # combined column vector: low bits const J, high bits pairs
            active: dict[int, int] = {
                state: mask << pair_shift
                for state, mask in enumerate(self.pairs_at_state)
                if mask
            }
            consumed = 0
            for position, byte in enumerate(payload, start=1):
                consumed = position
                if deadline_at is not None and position % dstride == 0:
                    self._deadline_check(
                        deadline_at, started, consumed, const_match_set, stats
                    )
                enabled = by_symbol_ext[byte]
                nxt: dict[int, int] = {}
                for src, dst, bel_ext in enabled:
                    mask = (active.get(src, 0) | init_ext[src]) & bel_ext
                    if mask:
                        nxt[dst] = nxt.get(dst, 0) | mask
                        if collect_stats:
                            if mask & slots_area:
                                stats.transitions_taken += 1
                            if mask >> pair_shift:
                                linear_ops += 1
                active = nxt
                for state, mask in nxt.items():
                    hit = mask & final_ext[state]
                    if hit:
                        chit = hit & slots_area
                        if chit:
                            for slot in iter_bits(chit):
                                rule = slot_to_rule[slot]
                                const_match_set.add((rule, position))
                                runs = const_runs.get(rule)
                                if runs is None:
                                    runs = const_runs[rule] = []
                                _append_pos(runs, position)
                        phit = hit >> pair_shift
                        if phit:
                            for pair in iter_bits(phit):
                                runs = cond_runs.get(pair)
                                if runs is None:
                                    runs = cond_runs[pair] = []
                                _append_pos(runs, position)
                        if pop_on_final:
                            active[state] = mask & ~hit
                if collect_stats:
                    stats.transitions_examined += len(enabled)
                    total = 0
                    peak = stats.max_state_activation
                    for mask in active.values():
                        n = (mask & slots_area).bit_count()
                        total += n
                        if n > peak:
                            peak = n
                    stats.active_pair_total += total
                    stats.max_state_activation = peak
            stats.wall_seconds = time.perf_counter() - started
            stats.chars_processed = len(payload)
            stats.match_count = len(const_match_set)

            # live projection: prune bits that can never act again
            const_exit: dict[int, int] = {}
            exit_reach: dict[int, int] = {}
            live_ext = self.live_ext
            for state, mask in active.items():
                live = mask & live_ext[state]
                if not live:
                    continue
                slots = live & slots_area
                if slots:
                    const_exit[state] = slots
                reach = live >> pair_shift
                if reach:
                    exit_reach[state] = reach

            mapping = ChunkMapping(
                signature=self.signature,
                length=len(payload),
                const_exit=const_exit,
                const_matches={
                    rule: tuple(tuple(r) for r in runs)
                    for rule, runs in const_runs.items()
                },
                exit_reach=exit_reach,
                cond_matches={
                    pair: tuple(tuple(r) for r in runs)
                    for pair, runs in cond_runs.items()
                },
                scanner=self,
            )
            sp.set(
                const_matches=len(const_match_set),
                cond_pairs=len(cond_runs),
                linear_ops=linear_ops,
            )
        return MappingScan(mapping=mapping, stats=stats, linear_ops=linear_ops)

    # -- the mapping algebra -----------------------------------------------

    def _entry_pair_mask(self, activation: Optional[dict]) -> int:
        """state → slot-mask activation → mask over live entry pairs
        (bits at dead (state, slot) positions are dropped — they can
        never move or report again)."""
        if not activation:
            return 0
        pairs_at_state = self.pairs_at_state
        pairs = self.pairs
        live_slots = self.live_slots
        mask = 0
        for state, slots in activation.items():
            if not slots:
                continue
            live = slots & live_slots[state]
            if not live:
                continue
            candidate = pairs_at_state[state]
            for pair in iter_bits(candidate):
                if (1 << pairs[pair][1]) & live:
                    mask |= 1 << pair
        return mask

    def compose(self, a: ChunkMapping, b: ChunkMapping) -> ChunkMapping:
        """The mapping of ``a``'s chunk followed by ``b``'s chunk.

        Associative with :meth:`identity` as the neutral element —
        relation composition per rule slot, plus run-list unions with
        ``b``'s positions shifted by ``a.length`` (property-tested in
        tests/test_sfa_mapping.py).
        """
        if a.signature != self.signature or b.signature != self.signature:
            raise UsageError("cannot compose mappings from different MFSAs")
        pairs = self.pairs
        slot_pairs = self.slot_pairs
        a_reach = a.exit_reach
        shift = a.length

        # entry pairs of b fed by a's const (empty-entry) column
        mid_const = self._entry_pair_mask(a.const_exit)

        # const matches: a's, b's shifted, and b's conditionals lit by
        # a's const exit
        const_runs: dict[int, list[tuple[int, int]]] = {
            rule: list(runs) for rule, runs in a.const_matches.items()
        }
        for rule, runs in b.const_matches.items():
            const_runs.setdefault(rule, []).extend(_shift_runs(runs, shift))
        for pair in iter_bits(mid_const):
            runs = b.cond_matches.get(pair)
            if runs:
                rule = self.tables.slot_to_rule[pairs[pair][1]]
                const_runs.setdefault(rule, []).extend(_shift_runs(runs, shift))

        # const exit: b's own, plus a's const bits pushed through b
        const_exit = dict(b.const_exit)
        if mid_const:
            for state, reach in b.exit_reach.items():
                sel = reach & mid_const
                if sel:
                    slots = 0
                    for pair in iter_bits(sel):
                        slots |= 1 << pairs[pair][1]
                    const_exit[state] = const_exit.get(state, 0) | slots

        # linear half: back-compose b's reach through a's reach, and
        # light b's conditionals from whichever entry pairs of a reach
        # their trigger pair
        def back(pair: int) -> int:
            """Entry pairs of ``a`` that exit at pair's (state, slot)."""
            state, slot = pairs[pair]
            return a_reach.get(state, 0) & slot_pairs[slot]

        exit_reach: dict[int, int] = {}
        for state, reach in b.exit_reach.items():
            acc = 0
            for pair in iter_bits(reach):
                acc |= back(pair)
            if acc:
                exit_reach[state] = acc

        cond_runs: dict[int, list[tuple[int, int]]] = {
            pair: list(runs) for pair, runs in a.cond_matches.items()
        }
        for pair, runs in b.cond_matches.items():
            triggers = back(pair)
            if triggers:
                shifted = list(_shift_runs(runs, shift))
                for entry in iter_bits(triggers):
                    cond_runs.setdefault(entry, []).extend(shifted)

        return ChunkMapping(
            signature=self.signature,
            length=a.length + b.length,
            const_exit=const_exit,
            const_matches={
                rule: _canon_runs(runs) for rule, runs in const_runs.items()
            },
            exit_reach=exit_reach,
            cond_matches={
                pair: _canon_runs(runs) for pair, runs in cond_runs.items()
            },
            scanner=self,
        )

    def apply(
        self,
        mapping: ChunkMapping,
        entry: Optional[dict] = None,
        base: int = 0,
    ) -> tuple[set, dict]:
        """Replay ``mapping`` from ``entry``: ``(matches, exit_activation)``.

        Matches are ``(rule id, absolute end)`` with ends rebased by
        ``base``; the exit activation is the live projection of the
        byte-by-byte engine state after the chunk (ε-rule every-offset
        matches are the caller's to complete, as everywhere else).
        """
        if mapping.signature != self.signature:
            raise UsageError("cannot apply a mapping from a different MFSA")
        pairs = self.pairs
        slot_to_rule = self.tables.slot_to_rule
        entry_mask = self._entry_pair_mask(entry)

        matches: set[tuple[int, int]] = set()
        for rule, runs in mapping.const_matches.items():
            for pos in expand_runs(runs):
                matches.add((rule, pos + base))
        if entry_mask:
            for pair, runs in mapping.cond_matches.items():
                if (entry_mask >> pair) & 1:
                    rule = slot_to_rule[pairs[pair][1]]
                    for pos in expand_runs(runs):
                        matches.add((rule, pos + base))

        exit_activation = dict(mapping.const_exit)
        if entry_mask:
            for state, reach in mapping.exit_reach.items():
                sel = reach & entry_mask
                if sel:
                    slots = 0
                    for pair in iter_bits(sel):
                        slots |= 1 << pairs[pair][1]
                    if slots:
                        exit_activation[state] = (
                            exit_activation.get(state, 0) | slots
                        )
        return matches, exit_activation

    def live_activation(self, activation: Optional[dict]) -> dict:
        """The live projection of an engine activation state — what
        :meth:`apply` exits compare equal to (dead bits pruned)."""
        if not activation:
            return {}
        out = {}
        for state, slots in activation.items():
            live = slots & self.live_slots[state]
            if live:
                out[state] = live
        return out


def fold_mappings(
    scans: Sequence[Optional[ChunkMapping]],
    lengths: Sequence[int],
    scanner: SfaScanner,
) -> tuple[set, Optional[dict]]:
    """Left-fold a chunk sequence's mappings into absolute matches.

    The cheap dispatcher-side reduce: thread the exit activation of each
    chunk into the next mapping's :meth:`~SfaScanner.apply` — O(state
    width), no byte rescanning, equivalent to composing all mappings and
    applying the empty entry (associativity is what lets workers finish
    out of order; only this final fold is ordered).

    A ``None`` entry stands for a chunk whose mapping could not be
    computed (deadline): its const matches were salvaged by the caller;
    the fold continues from the *empty* activation — a sound
    under-approximation (the step function is monotone in the entry
    activation), so later chunks still contribute every match that does
    not depend on the lost boundary state.  Returns ``(matches,
    exit_activation)`` with ``exit_activation=None`` when the final
    chunk's mapping was lost.
    """
    if len(scans) != len(lengths):
        raise UsageError("scans and lengths disagree")
    matches: set[tuple[int, int]] = set()
    activation: Optional[dict] = {}
    base = 0
    for mapping, length in zip(scans, lengths):
        if mapping is None:
            activation = {}
            base += length
            continue
        found, activation = scanner.apply(mapping, activation, base)
        matches |= found
        base += mapping.length
    return matches, activation
