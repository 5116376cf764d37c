"""Dense compiled-DFA tier: bulk scanning above the lazy config cache.

The lazy backend (:mod:`repro.engine.lazy`) wins 5.6–85× over the
interpretive engine but tops out around a few MB/s: a warm scan is
still *one Python dict lookup per byte*.  On real traffic the cache is
warm and **stable** (hit rate >99 %, no flushes — the profile
BENCH_lazy.json demonstrates), so the interned config graph can be
*compiled* once and then driven without touching the interpreter per
byte.  This module is that tier:

* **Byte-class compression** — the 256-symbol alphabet collapses to the
  equivalence classes of :func:`repro.engine.tables.byte_classes` (two
  bytes with the same enabled-transition list step identically), so the
  transition table is ``num_configs × num_classes``, not ``× 256``, and
  a whole buffer is class-translated at C speed with
  ``bytes.translate``.
* **Dense tables** — ``(config, class) → next config`` as a NumPy
  ``int32`` matrix plus per-edge emission ids and work counters; a
  sentinel ``-1`` marks edges that leave the compiled region.
* **Self-loop run skipping** — most of a scan sits in a config that
  maps most classes back to itself (the "resting" frontier between
  rule prefixes).  Those runs are skipped wholesale: a vectorized NumPy
  block search finds the first escaping class.  Emitting self-loops
  (``.*``-style post-match runs) are extracted vectorized as
  run-length-compressed emission events, never per byte.
* **Mid-buffer de-opt** — an edge marked ``-1`` drops to lazy
  interpretation *at that offset* (warming the cache as it goes) and
  re-enters compiled code as soon as the frontier is a compiled config
  again; a cache flush mid-scan invalidates the table and the caller
  falls back to a plain lazy run (flush renumbers every config id).

The tier is a *pure accelerator*: it produces byte-identical matches,
:class:`~repro.engine.counters.ExecutionStats` and engine-sampler
observations (the cross-backend invariant the conformance suite
enforces), because every edge carries the exact work counters of the
interpretive step it replaces.

Table builds are charged against :class:`repro.guard.budget.Budget`
modelled memory when a meter is supplied — dense tables are
``configs × classes`` large and promotion must degrade gracefully
(:data:`repro.guard.degrade.BACKEND_LADDER`), never OOM.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.engine import counters
from repro.engine.lazy import LazyConfigCache
from repro.engine.tables import ByteClasses, byte_classes
from repro.guard import faultinject
from repro.guard.budget import BudgetMeter
from repro.guard.errors import AllocationFailed

__all__ = [
    "DEFAULT_PROMOTE_AFTER",
    "DENSE_MIN_HIT_RATE",
    "DenseScanOutcome",
    "DenseTier",
]

#: Sentinel for transitions leaving the compiled region (de-opt edges).
DEOPT = -1

#: Bytes a ``backend="dense"`` engine scans lazily before auto-promoting,
#: and the floor of its de-opt rebuild threshold.
DEFAULT_PROMOTE_AFTER = 1 << 16

#: Auto-promotion gate: the cache must be this warm (and eviction-free).
DENSE_MIN_HIT_RATE = 0.99

#: Initial block size (bytes) of the vectorized escape search.  Blocks
#: double per miss (up to 1 MiB), so a short run costs one small gather
#: while a megabyte-long quiet stretch still takes a handful of scans.
ESCAPE_BLOCK = 64

#: A skip run shorter than this counts as "short"; a config that keeps
#: producing short runs stops trying to skip (search overhead would
#: exceed stepping).
SHORT_RUN_BYTES = 8
SHORT_RUN_STRIKES = 16

_ENC_SHIFT = 24
_ENC_MASK = (1 << _ENC_SHIFT) - 1


@dataclass
class DenseScanOutcome:
    """One :meth:`DenseTier.scan` result — raw events, not matches.

    ``events`` are run-length-compressed emissions: ``(emission id,
    first position, last position)`` with 1-based inclusive positions;
    decode ids via :attr:`DenseTier.emissions`.  ``reason`` is one of
    ``"end"``, ``"single_match"``, ``"deadline"``, ``"invalidated"``
    (cache flushed mid-scan: every table row is stale, rerun lazily).
    """

    events: list = field(default_factory=list)
    final_config: int = 0
    consumed: int = 0
    reason: str = "end"
    matched_rules: int = 0
    #: de-opt entries / bytes interpreted lazily during them
    deopts: int = 0
    deopt_bytes: int = 0
    #: bytes skipped by self-loop runs (block search)
    skipped_bytes: int = 0
    #: bytes consumed by stepping
    stepped_bytes: int = 0


class DenseTier:
    """Dense numpy transition tables compiled from a warm lazy cache.

    Built by :meth:`build` over a :class:`LazyConfigCache` snapshot;
    :meth:`scan` then drives whole buffers.  The tier keeps a reference
    to the cache: de-opt segments interpret (and keep warming) it, and
    a flush there — which renumbers every config id — flips
    :meth:`valid` to ``False``.
    """

    def __init__(self) -> None:  # populated by build()
        self.cache: LazyConfigCache = None  # type: ignore[assignment]
        self.classes: ByteClasses = None  # type: ignore[assignment]
        self.num_configs = 0
        self.num_classes = 0
        self.flush_epoch = 0
        self.build_seconds = 0.0
        self.nbytes = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        cache: LazyConfigCache,
        *,
        meter: Optional[BudgetMeter] = None,
        classes: Optional[ByteClasses] = None,
    ) -> "DenseTier":
        """Compile the cache's interned config graph into dense tables.

        Pure w.r.t. the cache: every edge is read via memoized entries
        or :meth:`LazyConfigCache.compute` — nothing is interned or
        memoized, so building cannot flush or evict.  Edges whose
        successor frontier is not interned yet become :data:`DEOPT`.

        ``meter`` charges the table footprint against modelled memory
        *before* allocation (raising
        :class:`~repro.guard.errors.MemoryBudgetExceeded`);
        ``MemoryError`` during allocation raises
        :class:`~repro.guard.errors.AllocationFailed` — both step the
        guard ladder back to lazy instead of crashing a scan.
        """
        started = time.perf_counter()
        tier = cls()
        tier.cache = cache
        tier.flush_epoch = cache.stats.flushes
        tables = cache.tables
        bc = classes if classes is not None else byte_classes(tables.by_symbol)
        tier.classes = bc
        n = cache.num_configs
        k = bc.num_classes
        if n >= 1 << _ENC_SHIFT:
            raise AllocationFailed(
                f"dense tier cannot encode {n} configs (limit {1 << _ENC_SHIFT})"
            )
        tier.num_configs = n
        tier.num_classes = k

        # trans/emit/taken int32 + reference step-rows (pointers) + translate
        nbytes = 3 * n * k * 4 + n * (k + 1) * 8 + 256
        tier.nbytes = nbytes
        if meter is not None:
            meter.charge_memory(nbytes, stage="dense.promote")
        try:
            faultinject.fire("alloc", backend="dense")
            trans = np.empty((n, k), dtype=np.int32)
            emit = np.zeros((n, k), dtype=np.int32)
            taken = np.zeros((n, k), dtype=np.int32)
        except MemoryError as exc:
            raise AllocationFailed(f"dense table allocation failed: {exc}") from exc

        # emission interning: id 0 is "no emission"
        emissions: list[tuple[tuple[int, ...], int]] = [((), 0)]
        eid_of: dict[int, int] = {0: 0}
        memo = cache.transitions
        compute = cache.compute
        reps = bc.representatives
        for c in range(n):
            base = c << 8
            row_t = trans[c]
            row_e = emit[c]
            row_k = taken[c]
            for j, rep in enumerate(reps):
                entry = memo.get(base | rep)
                if entry is not None:
                    nid, slots, mask, tk = entry
                    if nid >= n:
                        nid = DEOPT
                else:
                    nid, slots, mask, tk = compute(c, rep)
                    if nid is None or nid >= n:
                        nid = DEOPT
                row_t[j] = nid
                row_k[j] = tk
                if mask:
                    eid = eid_of.get(mask)
                    if eid is None:
                        eid = len(emissions)
                        eid_of[mask] = eid
                        emissions.append((slots, mask))
                    row_e[j] = eid
        tier.trans_np = trans
        tier.emit_np = emit
        tier.taken_np = taken
        tier.emissions = emissions
        tier._eid_of = eid_of

        # python-list step tables: enc = (eid << 24) | next, -1 = de-opt
        enc = np.where(
            trans >= 0, (emit.astype(np.int64) << _ENC_SHIFT) | trans, -1
        )
        tier.enc_rows = [row.tolist() for row in enc]
        tier.taken_rows = [row.tolist() for row in taken]

        # self-loop structure per config
        loop = trans == np.arange(n, dtype=np.int32)[:, None]  # (n, k)
        esc = ~loop
        tier.esc_np = [row.copy() for row in esc]
        tier.loop_b: list[Optional[bytes]] = []
        tier.emit_loop: list[bool] = []
        for c in range(n):
            row = loop[c]
            if not row.any():
                tier.loop_b.append(None)
                tier.emit_loop.append(False)
                continue
            tier.loop_b.append(row.astype(np.uint8).tobytes())
            tier.emit_loop.append(bool((row & (emit[c] > 0)).any()))
        tier._short_runs = [0] * n

        # reference step-rows: entry ``j`` is *the next config's row
        # object* on quiet in-region edges (no emission, no de-opt, not
        # a skippable self-loop), so the non-stats scan follows row
        # references with ~4 interpreter ops per byte; every special
        # case is ``None`` and breaks the burst back to the full-logic
        # step.  ``row[num_classes]`` carries the config id so the
        # burst can recover where it landed.
        trans_l = trans.tolist()
        skip_rows = np.fromiter(
            (tier.loop_b[c] is not None for c in range(n)), dtype=bool, count=n
        )
        burst_ok = (trans >= 0) & (emit == 0) & ~(loop & skip_rows[:, None])
        rows: list[list] = [[None] * (k + 1) for _ in range(n)]
        for c in range(n):
            rows[c][k] = c
        for c in range(n):
            row = rows[c]
            tr = trans_l[c]
            for j in np.flatnonzero(burst_ok[c]).tolist():
                row[j] = rows[tr[j]]
        tier.ref_rows = rows

        tier.examined_np = np.array(
            [cache.examined_by_byte[rep] for rep in reps], dtype=np.int64
        )
        tier.examined_list = tier.examined_np.tolist()

        tier.build_seconds = time.perf_counter() - started
        return tier

    def valid(self) -> bool:
        """``False`` once the cache flushed (config ids renumbered)."""
        return self.cache.stats.flushes == self.flush_epoch

    # -- scanning ----------------------------------------------------------

    def _intern_eid(self, mask: int, slots: tuple) -> int:
        eid = self._eid_of.get(mask)
        if eid is None:
            eid = len(self.emissions)
            self._eid_of[mask] = eid
            self.emissions.append((slots, mask))
        return eid

    def scan(
        self,
        payload: bytes,
        *,
        start_config: int = 0,
        collect_stats: bool = False,
        stats=None,
        sampler=None,
        single_match: bool = False,
        matched_rules: int = 0,
        all_rules_mask: int = 0,
        deadline_at: Optional[float] = None,
    ) -> DenseScanOutcome:
        """Bulk-scan ``payload`` from ``start_config``.

        Returns raw emission events (see :class:`DenseScanOutcome`);
        the caller decodes them into matches.  With ``collect_stats``
        the supplied :class:`~repro.engine.counters.ExecutionStats` is
        advanced exactly as the python backend would (taken/examined/
        active-pair/peak per position); with ``sampler`` the strided
        engine-sampler observations are reproduced exactly.  Deadline
        expiry *returns* (reason ``"deadline"``) rather than raising —
        only the caller can build the honest partial result.  The clock
        is read every :data:`~repro.engine.counters.DEADLINE_STRIDE`
        positions.
        """
        n = len(payload)
        dstride = counters.DEADLINE_STRIDE
        out = DenseScanOutcome(matched_rules=matched_rules)
        events = out.events
        cls_b = payload.translate(self.classes.translate)
        cls_np = np.frombuffer(cls_b, dtype=np.uint8)
        cur = start_config
        pos = 0
        num_configs = self.num_configs
        enc_rows = self.enc_rows
        loop_b = self.loop_b
        emissions = self.emissions
        cstats = self.cache.config_stats
        stride = sampler.stride if sampler is not None else 0
        track = collect_stats or sampler is not None
        ref_rows = self.ref_rows
        tail = self.num_classes
        since_check = 0

        def deadline_hit() -> bool:
            faultinject.fire("engine.step_delay")
            return time.perf_counter() > deadline_at

        def run_stats(c: int, a: int, b: int) -> None:
            """Stats/sampler for a constant-config run (indexes [a, b),
            positions a+1..b, post-step config ``c``)."""
            if a >= b:
                return
            total, peak, width = cstats[c]
            if collect_stats:
                seg = cls_np[a:b]
                stats.transitions_taken += int(self.taken_np[c][seg].sum())
                stats.transitions_examined += int(self.examined_np[seg].sum())
                stats.active_pair_total += total * (b - a)
                if peak > stats.max_state_activation:
                    stats.max_state_activation = peak
            if sampler is not None:
                p = a + 1
                p = ((p + stride - 1) // stride) * stride
                examined_list = self.examined_list
                while p <= b:
                    sampler.observe(total, width, examined_list[cls_b[p - 1]])
                    p += stride

        def add_event(eid: int, lo: int, hi: int) -> None:
            if events:
                last = events[-1]
                if last[0] == eid and last[2] + 1 == lo:
                    events[-1] = (eid, last[1], hi)
                    return
            events.append((eid, lo, hi))

        while pos < n:
            if deadline_at is not None and since_check >= dstride:
                since_check = 0
                if deadline_hit():
                    out.reason = "deadline"
                    out.consumed = pos
                    break

            if cur >= num_configs:
                # interpreted region (also the entry path when the
                # start frontier was interned after the build)
                out.deopts += 1
                cur, pos, done = self._lazy_phase(
                    payload, cls_b, pos, cur, out, add_event,
                    collect_stats, stats, sampler, stride,
                    single_match, all_rules_mask, deadline_at,
                )
                since_check += 1
                if done:
                    break
                continue

            k = cls_b[pos]
            lb = loop_b[cur]
            if lb is not None and lb[k]:
                # -- skip phase: find the first escaping index ---------
                j = self._find_escape(cls_np, cur, pos, n)
                run_len = j - pos
                if run_len < SHORT_RUN_BYTES:
                    strikes = self._short_runs[cur] + 1
                    self._short_runs[cur] = strikes
                    if strikes >= SHORT_RUN_STRIKES and not self.emit_loop[cur]:
                        self._disable_skip(cur)  # stop trying to skip here
                else:
                    self._short_runs[cur] = 0
                if self.emit_loop[cur]:
                    if single_match:
                        stop = self._emitting_run_scalar(
                            cls_b, cur, pos, j, out, add_event,
                            collect_stats, stats, sampler, stride,
                            all_rules_mask,
                        )
                        if stop:
                            out.skipped_bytes += out.consumed - pos
                            return self._finish(out, cur, "single_match")
                    else:
                        self._extract_emissions(
                            cls_np, cur, pos, j, out, add_event
                        )
                        if track:
                            run_stats(cur, pos, j)
                elif track:
                    run_stats(cur, pos, j)
                out.skipped_bytes += run_len
                pos = j
                since_check += 1
                continue

            # -- step phase -------------------------------------------
            if not track:
                # burst mode: follow row references on quiet edges —
                # emissions, de-opts, and skip opportunities are baked
                # in as None breaks, so the hot loop is a handful of
                # interpreter ops per byte
                p0 = pos
                limit = n
                if deadline_at is not None:
                    limit = min(n, pos + max(1, dstride - since_check))
                row = ref_rows[cur]
                while pos < limit:
                    nxt = row[cls_b[pos]]
                    if nxt is None:
                        break
                    row = nxt
                    pos += 1
                cur = row[tail]
                since_check += pos - p0
                out.stepped_bytes += pos - p0
                if pos >= limit:
                    continue  # payload end or deadline-check window
                k = cls_b[pos]
                lb = loop_b[cur]
                if lb is not None and lb[k]:
                    continue  # outer loop engages the skip phase
                v = enc_rows[cur][k]
                if v < 0:
                    out.deopts += 1
                    cur, pos, done = self._lazy_phase(
                        payload, cls_b, pos, cur, out, add_event,
                        collect_stats, stats, sampler, stride,
                        single_match, all_rules_mask, deadline_at,
                    )
                    since_check += 1
                    if done:
                        break
                    continue
                pos += 1
                since_check += 1
                out.stepped_bytes += 1
                nxt_id = v & _ENC_MASK
                eid = v >> _ENC_SHIFT
                if eid:
                    add_event(eid, pos, pos)
                    out.matched_rules |= emissions[eid][1]
                    if single_match and out.matched_rules == all_rules_mask:
                        out.consumed = pos
                        return self._finish(out, nxt_id, "single_match")
                cur = nxt_id
                continue

            # exact-stats stepping (python-backend parity): one byte at
            # a time with the interpretive step's precise counters
            row = enc_rows[cur]
            stepped0 = pos
            deopt_edge = False
            while pos < n:
                k = cls_b[pos]
                v = row[k]
                if v < 0:
                    deopt_edge = True
                    break
                pos += 1
                nxt = v & _ENC_MASK
                eid = v >> _ENC_SHIFT
                if track:
                    if collect_stats:
                        stats.transitions_taken += self.taken_rows[cur][k]
                if eid:
                    add_event(eid, pos, pos)
                    out.matched_rules |= emissions[eid][1]
                    if single_match and out.matched_rules == all_rules_mask:
                        out.stepped_bytes += pos - stepped0
                        out.consumed = pos
                        return self._finish(out, nxt, "single_match")
                cur = nxt
                if track:
                    total, peak, width = cstats[cur]
                    if collect_stats:
                        stats.transitions_examined += self.examined_list[k]
                        stats.active_pair_total += total
                        if peak > stats.max_state_activation:
                            stats.max_state_activation = peak
                    if sampler is not None and pos % stride == 0:
                        sampler.observe(total, width, self.examined_list[k])
                since_check += 1
                if deadline_at is not None and since_check >= dstride:
                    since_check = 0
                    if deadline_hit():
                        out.stepped_bytes += pos - stepped0
                        out.consumed = pos
                        return self._finish(out, cur, "deadline")
                lb = loop_b[cur]
                if lb is not None and pos < n and lb[cls_b[pos]]:
                    break
                row = enc_rows[cur]
            out.stepped_bytes += pos - stepped0
            if deopt_edge:
                out.deopts += 1
                cur, pos, done = self._lazy_phase(
                    payload, cls_b, pos, cur, out, add_event,
                    collect_stats, stats, sampler, stride,
                    single_match, all_rules_mask, deadline_at,
                )
                if done:
                    break

        if out.reason == "end":
            out.consumed = n
        out.final_config = cur
        return out

    def _finish(self, out: DenseScanOutcome, cur: int, reason: str) -> DenseScanOutcome:
        out.reason = reason
        out.final_config = cur
        return out

    def _disable_skip(self, c: int) -> None:
        """Adaptive short-run fallback: config ``c`` keeps producing
        runs too short to amortise escape searches, so stop skipping it
        and restore its quiet self-loop edges to burst references."""
        self.loop_b[c] = None
        row = self.ref_rows[c]
        quiet_loops = (self.trans_np[c] == c) & (self.emit_np[c] == 0)
        for j in np.flatnonzero(quiet_loops).tolist():
            row[j] = row

    # -- skip-phase helpers ------------------------------------------------

    def _find_escape(self, cls_np: np.ndarray, cur: int, pos: int, n: int) -> int:
        """First index ``>= pos`` whose class escapes ``cur``'s
        self-loop (``n`` if none), by vectorized block search."""
        lut = self.esc_np[cur]
        j = pos
        block = ESCAPE_BLOCK
        while j < n:
            seg = lut[cls_np[j : j + block]]
            i = int(seg.argmax())
            if seg[i]:
                return j + i
            j += seg.size
            if block < (1 << 20):
                block *= 2
        return n

    def _extract_emissions(
        self,
        cls_np: np.ndarray,
        cur: int,
        a: int,
        b: int,
        out: DenseScanOutcome,
        add_event,
    ) -> None:
        """Vectorized emission extraction over a self-loop run [a, b)."""
        if a >= b:
            return
        em = self.emit_np[cur][cls_np[a:b]]
        hits = np.flatnonzero(em)
        if not hits.size:
            return
        eids = em[hits]
        acc = 0
        if hits.size == 1:
            p = a + int(hits[0]) + 1
            add_event(int(eids[0]), p, p)
            acc = self.emissions[int(eids[0])][1]
        else:
            brk = np.flatnonzero((np.diff(hits) != 1) | (np.diff(eids) != 0))
            starts = np.concatenate(([0], brk + 1))
            ends = np.concatenate((brk, [hits.size - 1]))
            emissions = self.emissions
            for s, e in zip(starts.tolist(), ends.tolist()):
                eid = int(eids[s])
                add_event(eid, a + int(hits[s]) + 1, a + int(hits[e]) + 1)
                acc |= emissions[eid][1]
        out.matched_rules |= acc

    def _emitting_run_scalar(
        self,
        cls_b: bytes,
        cur: int,
        a: int,
        b: int,
        out: DenseScanOutcome,
        add_event,
        collect_stats: bool,
        stats,
        sampler,
        stride: int,
        all_rules_mask: int,
    ) -> bool:
        """Single-match path over an emitting self-loop run [a, b):
        per-position processing so the early exit lands on the exact
        byte (and its break-position stats match the python backend).
        Returns True when every rule has now fired; ``out.consumed`` is
        then the break position."""
        emit_row = self.emit_np[cur]
        taken_row = self.taken_rows[cur]
        examined_list = self.examined_list
        total, peak, width = self.cache.config_stats[cur]
        emissions = self.emissions
        for i in range(a, b):
            k = cls_b[i]
            p = i + 1
            if collect_stats:
                stats.transitions_taken += taken_row[k]
            eid = int(emit_row[k])
            if eid:
                add_event(eid, p, p)
                out.matched_rules |= emissions[eid][1]
                if out.matched_rules == all_rules_mask:
                    out.consumed = p
                    return True
            if collect_stats:
                stats.transitions_examined += examined_list[k]
                stats.active_pair_total += total
                if peak > stats.max_state_activation:
                    stats.max_state_activation = peak
            if sampler is not None and p % stride == 0:
                sampler.observe(total, width, examined_list[k])
        return False

    # -- de-opt (interpreted) phase ---------------------------------------

    def _lazy_phase(
        self,
        payload: bytes,
        cls_b: bytes,
        pos: int,
        cur: int,
        out: DenseScanOutcome,
        add_event,
        collect_stats: bool,
        stats,
        sampler,
        stride: int,
        single_match: bool,
        all_rules_mask: int,
        deadline_at: Optional[float],
    ) -> tuple[int, int, bool]:
        """Interpret lazily from index ``pos`` until the frontier is a
        compiled config again (or the payload ends).  Memoizes through
        the cache — de-opt traffic keeps warming it for re-promotion —
        but a flush (renumbering every id) aborts the scan with reason
        ``"invalidated"``.  Returns ``(config, index, scan_done)``.
        """
        cache = self.cache
        transitions = cache.transitions
        step = cache.step
        cstats = cache.config_stats
        examined_by_byte = cache.examined_by_byte
        flush_epoch = self.flush_epoch
        num_configs = self.num_configs
        n = len(payload)
        dstride = counters.DEADLINE_STRIDE
        start = pos
        since_check = 0
        while pos < n:
            byte = payload[pos]
            key = (cur << 8) | byte
            entry = transitions.get(key)
            if entry is None:
                entry = step(cur, byte)
                if cache.stats.flushes != flush_epoch:
                    out.deopt_bytes += pos - start
                    out.consumed = pos
                    out.reason = "invalidated"
                    return cur, pos, True
            pos += 1
            cur = entry[0]
            if collect_stats:
                stats.transitions_taken += entry[3]
            if entry[2]:
                eid = self._intern_eid(entry[2], entry[1])
                add_event(eid, pos, pos)
                out.matched_rules |= entry[2]
                if single_match and out.matched_rules == all_rules_mask:
                    out.deopt_bytes += pos - start
                    out.consumed = pos
                    out.reason = "single_match"
                    return cur, pos, True
            if collect_stats:
                stats.transitions_examined += examined_by_byte[byte]
                total, peak, _ = cstats[cur]
                stats.active_pair_total += total
                if peak > stats.max_state_activation:
                    stats.max_state_activation = peak
            if sampler is not None and pos % stride == 0:
                total, _, width = cstats[cur]
                sampler.observe(total, width, examined_by_byte[byte])
            since_check += 1
            if deadline_at is not None and since_check >= dstride:
                since_check = 0
                faultinject.fire("engine.step_delay")
                if time.perf_counter() > deadline_at:
                    out.deopt_bytes += pos - start
                    out.consumed = pos
                    out.reason = "deadline"
                    return cur, pos, True
            if cur < num_configs:
                break
        out.deopt_bytes += pos - start
        return cur, pos, False
