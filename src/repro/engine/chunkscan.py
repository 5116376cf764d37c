"""Chunked scanning of one stream, and the scan plan behind it.

Figs. 9–10 parallelise across *automata*; the orthogonal axis is
parallelising one automaton across *stream chunks* — the standard
technique when one flow dominates.  Chunks scan independently of each
other, so worker processes can take them
(:class:`~repro.serve.shards.ShardPool`); :func:`chunk_scan` runs them
in order in the calling process.  Two strategies exist:

* ``"overlap"`` — the classic bounded-width scheme: a match of width
  ≤ w that crosses a chunk boundary lies entirely within a w-byte lead
  prepended to the next chunk, so chunks scan independently on the
  fastest byte engine (lazy DFA / dense tier) and :func:`rebase_matches`
  stitches them by absolute offset.
* ``"sfa"`` — simultaneous-run mappings (:mod:`repro.engine.sfa`):
  every chunk is scanned from every possible entry activation at once,
  with **zero** lead bytes, and :func:`~repro.engine.sfa.fold_mappings`
  reduces the per-chunk :class:`~repro.engine.sfa.ChunkMapping`\\ s to
  the exact single-shot answer.  Correct for any ruleset, at the cost
  of the simultaneous entry-pair columns (overhead factor κ ≥ 1).

The compiled automaton chooses, not the caller: :func:`resolve_strategy`
reads the per-rule width bound of :func:`mfsa_max_width` and returns
overlap when every rule is bounded, SFA mappings when some rule is
not.  Counting automata (:class:`~repro.counting.mfsa.CountingMfsa`
with live counter registers) are the third case: the mapping
interpreter has no register semantics, so an unbounded counting
ruleset has no parallel plan and scans as one sequential job.
:class:`~repro.serve.shards.ShardPool` runs the same planner
(:func:`plan_shards`), stitcher and fold over its resident workers.

Matches are exactly those of a single-shot scan under every plan
(property-tested, both here and in tests/test_sfa_mapping.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.engine.imfant import IMfantEngine
from repro.engine.sfa import SfaScanner, fold_mappings
from repro.guard.errors import UsageError
from repro.mfsa.model import Mfsa, empty_matching_rules


@dataclass(frozen=True)
class ShardJob:
    """One worker's slice: scan ``payload[start - lead : stop]``."""

    start: int
    lead: int
    stop: int

    @property
    def segment_slice(self) -> slice:
        return slice(self.start - self.lead, self.stop)


def plan_shards(
    payload_len: int, num_shards: int, overlap: Optional[int]
) -> list[ShardJob]:
    """Split ``[0, payload_len)`` into ≤ ``num_shards`` overlapping jobs.

    Shards are contiguous, near-equal ranges; each (except the first)
    carries ``min(overlap, start)`` bytes of left context.  Shard sizes
    below the overlap would re-scan more than they advance, so the
    planner lowers the shard count until every shard makes progress.
    ``overlap=None`` (no finite width and no mappings) plans one job.
    """
    if num_shards < 1:
        raise UsageError(f"num_shards must be >= 1 (got {num_shards})")
    # every shard must advance past its own lead
    effective = (
        1 if overlap is None else min(num_shards, max(1, payload_len // (overlap + 1)))
    )
    base, remainder = divmod(payload_len, effective)
    jobs: list[ShardJob] = []
    start = 0
    for index in range(effective):
        stop = start + base + (1 if index < remainder else 0)
        jobs.append(ShardJob(start=start, lead=min(overlap or 0, start), stop=stop))
        start = stop
    return jobs


def rebase_matches(
    matches: Sequence[tuple[int, int]], job: ShardJob
) -> set[tuple[int, int]]:
    """Job-relative match ends → absolute ends, lead-claimed ones dropped.

    A match ending inside the lead belongs to the previous shard (it was
    found there in full); keeping the first shard's ``end >= 0`` matches
    preserves offset-0 empty-width matches.
    """
    base = job.start - job.lead
    return {
        (rule, end + base)
        for rule, end in matches
        if end > job.lead or (job.start == 0 and end >= 0)
    }


def mfsa_max_width(mfsa) -> Optional[int]:
    """The longest match any rule of a compiled MFSA admits; None if unbounded.

    Merging (paper Algorithm 1) shares sub-paths across rules, but a
    rule's activation bit only moves along arcs whose belonging set
    holds that rule (Eqs. 4–6).  So the bound is taken per rule: the
    longest path from the rule's initial state over only its own arcs.
    Unlike a graph-wide longest path, the bound can be finite on a
    cyclic merged graph: a cycle that no single rule goes all the way
    round (one rule owns the arc into a shared state, another the arc
    back out) lengthens no match.  Only a rule's *own* cycle admits
    unboundedly long matches.  Needs no source patterns, so it works on
    loaded artifacts too.

    Accepts a :class:`~repro.counting.mfsa.CountingMfsa` as well: a plain
    arc weighs one byte, a ``{m,n}`` counter arc weighs ``n`` (its
    longest admissible run), and a rule reaching an unbounded ``{m,}``
    arc is unbounded.
    """
    plain = mfsa.transitions if isinstance(mfsa, Mfsa) else mfsa.plain
    # src -> [(dst, weight, bel)], weight None for an {m,} arc
    out: dict[int, list] = {}
    for t in plain:
        out.setdefault(t.src, []).append((t.dst, 1, t.bel))
    for arc in getattr(mfsa, "counting", ()):
        out.setdefault(arc.src, []).append((arc.dst, arc.high, arc.bel))
    widest = 0
    for rule, q0 in mfsa.initials.items():
        width = _longest_path(out, rule, q0)
        if width is None:
            return None
        widest = max(widest, width)
    return widest


def _longest_path(out: dict[int, list], rule: int, root: int) -> Optional[int]:
    """Longest weighted path from ``root`` over ``rule``'s arcs; None when
    a cycle or an unbounded (``None``-weight) arc is reachable on them."""
    longest: dict[int, int] = {}
    on_path = {root}
    stack = [(root, iter(out.get(root, ())))]
    while stack:
        state, pending = stack[-1]
        for dst, weight, bel in pending:
            if rule not in bel:
                continue
            if weight is None or dst in on_path:
                return None
            if dst not in longest:
                on_path.add(dst)
                stack.append((dst, iter(out.get(dst, ()))))
                break
        else:
            stack.pop()
            on_path.discard(state)
            longest[state] = max(
                (w + longest[d] for d, w, bel in out.get(state, ()) if rule in bel),
                default=0,
            )
    return longest[root]


def resolve_strategy(mfsas: Sequence) -> tuple[str, Optional[int]]:
    """The scan plan a compiled ruleset admits: ``(strategy, width)``.

    * ``("overlap", w)`` — every rule of every automaton is bounded by
      ``w`` bytes: chunks carry a ``w``-byte lead and run the fastest
      byte engine;
    * ``("sfa", None)`` — some rule is unbounded: zero-lead chunks
      reduced by SFA mappings;
    * ``("overlap", None)`` — live counter registers and some rule
      unbounded: the mapping interpreter cannot carry registers, so the
      plan is one sequential job.
    """
    widths = [mfsa_max_width(mfsa) for mfsa in mfsas]
    if None not in widths:
        return "overlap", max(widths, default=0)
    if any(getattr(mfsa, "counting", ()) for mfsa in mfsas):
        return "overlap", None
    return "sfa", None


def chunk_scan(
    mfsa,
    data: bytes | str,
    chunk_size: int = 4096,
    backend: str = "python",
    scan_deadline: Optional[float] = None,
) -> set[tuple[int, int]]:
    """Scan ``data`` chunk by chunk; returns the single-shot matches.

    Plans ``ceil(len / chunk_size)`` chunks under :func:`resolve_strategy`
    (the planner lowers the count when chunks would not outgrow the
    overlap lead); a one-chunk plan is a plain sequential scan.
    ``backend`` selects the byte engine for sequential and overlap
    scans; mapping scans are a dedicated simultaneous-run interpreter
    and ignore it.  ``scan_deadline`` applies per chunk; a chunk
    exceeding it raises :class:`~repro.guard.errors.ScanDeadlineExceeded`.

    One engine (or one :class:`~repro.engine.sfa.SfaScanner`) runs the
    planned chunks in order.  Every run starts from the empty frontier,
    so the chunks share one lazy cache exactly, and later chunks scan
    on the cache the earlier ones warmed.
    """
    payload = data.encode("latin-1") if isinstance(data, str) else data
    if chunk_size < 1:
        raise UsageError(f"chunk_size must be >= 1 (got {chunk_size})")
    strategy, width = resolve_strategy([mfsa])
    chunks = max(1, -(-len(payload) // chunk_size))
    jobs = plan_shards(len(payload), chunks, 0 if strategy == "sfa" else width)
    if strategy == "sfa" and len(jobs) > 1:
        scanner = SfaScanner(mfsa, scan_deadline=scan_deadline)
        mappings = [
            scanner.scan_chunk(payload[job.segment_slice], collect_stats=False).mapping
            for job in jobs
        ]
        matches, _exit = fold_mappings(
            mappings, [job.stop - job.start for job in jobs], scanner
        )
    else:
        engine = IMfantEngine(mfsa, backend=backend, scan_deadline=scan_deadline)
        if len(jobs) == 1:
            return engine.run(payload, collect_stats=False).matches
        matches = set()
        for job in jobs:
            found = engine.run(payload[job.segment_slice], collect_stats=False).matches
            matches |= rebase_matches(found, job)
    # ε-accepting rules match at every offset; chunks only see their own
    # ranges (mappings skip them entirely), so complete the full range
    for rule in empty_matching_rules(mfsa):
        matches.update((rule, end) for end in range(len(payload) + 1))
    return matches
