"""Chunk-parallel scanning of a single stream (data-parallel DPI).

Figs. 9–10 parallelise across *automata*; the orthogonal axis is
parallelising one automaton across *stream chunks* — the standard
technique when one flow dominates.  Two strategies are available:

* ``"sfa"`` — simultaneous-run mappings (:mod:`repro.engine.sfa`):
  every chunk is scanned from every possible entry activation at once,
  with **zero** shared bytes, and the per-chunk :class:`ChunkMapping`\\ s
  reduce by associative composition to the exact single-shot answer.
  Correct for *any* ruleset — bounded, unbounded (``.*``), mixed.
* ``"overlap"`` — the classic bounded-width scheme: a match of width
  ≤ w that crosses a chunk boundary lies entirely within a w−1-byte
  overlap prepended to the next chunk, so chunks scan independently and
  matches deduplicate by absolute offset.  Requires every rule's match
  width to be bounded, but each chunk runs on the fastest available
  byte engine (lazy DFA / dense tier), which the pure-python mapping scan
  cannot.

``strategy="auto"`` (the default) resolves by :func:`mfsa_max_width`:
bounded automata keep the overlap fast path, unbounded ones — which the
old code could only scan *sequentially* — now go data-parallel via
mappings.  The crossover is modelled in
:meth:`repro.engine.cost.CostModel.mapping_run_cost` and measured by
``pipeline.autotune.choose_scan_strategy``.

Counting automata (:class:`~repro.counting.mfsa.CountingMfsa` with live
counter registers) are a capability special case: the SFA mapping
interpreter has no register semantics, so explicit ``strategy="sfa"``
is a :class:`~repro.guard.errors.UsageError` and ``"auto"`` resolves to
``"overlap"`` with the width bound derived from the counter arcs' upper
bounds (a ``{m,n}`` arc contributes ``n`` to the longest path, which is
the whole point — the bound survives without expansion).  A ruleset
with an *unbounded* counting repeat (``{m,}``) has neither an overlap
bound nor mapping support, so :func:`chunk_scan` runs it in one exact
sequential pass.

Matches are exactly those of a single-shot scan under either strategy
(property-tested, both here and in tests/test_sfa_mapping.py).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.engine.imfant import IMfantEngine
from repro.engine.lazy import DEFAULT_CACHE_SIZE
from repro.engine.multithread import map_pool, run_pool
from repro.engine.sfa import SfaScanner, fold_mappings
from repro.frontend.analysis import max_width
from repro.frontend.parser import parse
from repro.guard.errors import UsageError
from repro.mfsa.model import Mfsa

SCAN_STRATEGIES = ("auto", "sfa", "overlap")


def ruleset_max_width(patterns: Sequence[str]) -> Optional[int]:
    """The longest possible match over the ruleset; None when unbounded."""
    widest = 0
    for pattern in patterns:
        width = max_width(parse(pattern))
        if width is None:
            return None
        widest = max(widest, width)
    return widest


def mfsa_max_width(mfsa) -> Optional[int]:
    """Structural match-width bound of a compiled MFSA; None if unbounded.

    The width of any match is bounded by the longest path in the
    transition graph — finite exactly when the graph is acyclic (a
    cycle reachable from an initial state admits unboundedly long
    matches for at least one of its belonging rules).  Unlike
    :func:`ruleset_max_width` this needs no source patterns, so it
    works on deserialized artifacts and post-merge automata.

    Accepts a :class:`~repro.counting.mfsa.CountingMfsa` too: a plain
    arc weighs one byte along the path, a ``{m,n}`` counter arc weighs
    ``n`` (its longest admissible run), and any unbounded ``{m,}`` arc
    makes the whole automaton unbounded immediately.
    """
    plain = mfsa.transitions if isinstance(mfsa, Mfsa) else mfsa.plain
    weights: dict[int, dict[int, int]] = {}
    for t in plain:
        dsts = weights.setdefault(t.src, {})
        dsts[t.dst] = max(dsts.get(t.dst, 0), 1)
    for arc in getattr(mfsa, "counting", ()):
        if arc.high is None:
            return None  # an {m,} repeat admits unboundedly long matches
        dsts = weights.setdefault(arc.src, {})
        dsts[arc.dst] = max(dsts.get(arc.dst, 0), arc.high)

    # iterative DFS: weighted longest path if acyclic, None on any cycle
    WHITE, GREY, BLACK = 0, 1, 2
    color = [WHITE] * mfsa.num_states
    longest = [0] * mfsa.num_states
    for root in range(mfsa.num_states):
        if color[root] != WHITE:
            continue
        stack: list[tuple[int, object]] = [(root, None)]
        while stack:
            state, it = stack[-1]
            if it is None:
                color[state] = GREY
                it = iter(weights.get(state, {}))
                stack[-1] = (state, it)
            advanced = False
            for nxt in it:  # type: ignore[union-attr]
                if color[nxt] == GREY:
                    return None  # cycle
                if color[nxt] == WHITE:
                    stack.append((nxt, None))
                    advanced = True
                    break
                longest[state] = max(longest[state], weights[state][nxt] + longest[nxt])
            if advanced:
                continue
            # children exhausted (account the one finished just above too)
            for nxt, weight in weights.get(state, {}).items():
                longest[state] = max(longest[state], weight + longest[nxt])
            color[state] = BLACK
            stack.pop()
    return max(longest, default=0)


def resolve_strategy(mfsa, strategy: str = "auto") -> str:
    """``"auto"`` → ``"overlap"`` when the automaton is width-bounded
    (fast byte engines per chunk), ``"sfa"`` otherwise (the case overlap
    chunking could only serve sequentially).  Counting automata always
    resolve to ``"overlap"`` — the mapping interpreter cannot carry
    counter registers, so explicitly asking for ``"sfa"`` is an error.
    """
    if strategy not in SCAN_STRATEGIES:
        raise UsageError(
            f"unknown scan strategy {strategy!r} (choose from {SCAN_STRATEGIES})"
        )
    has_registers = bool(getattr(mfsa, "counting", ()))
    if strategy == "sfa" and has_registers:
        raise UsageError(
            "the 'sfa' strategy cannot scan counter registers; counting "
            "rulesets chunk by bounded overlap (unbounded repeats scan "
            "sequentially)"
        )
    if strategy != "auto":
        return strategy
    if has_registers:
        return "overlap"
    return "overlap" if mfsa_max_width(mfsa) is not None else "sfa"


def _complete_eps_rules(
    mfsa: Mfsa, matches: set[tuple[int, int]], length: int
) -> set[tuple[int, int]]:
    """ε-accepting rules match at every offset; chunked scans only see
    their own ranges (or, for mappings, skip them entirely), so complete
    the full range explicitly."""
    for rule, q0 in mfsa.initials.items():
        if q0 in mfsa.finals[rule]:
            matches.update((rule, end) for end in range(length + 1))
    return matches


def chunk_scan(
    mfsa,
    data: bytes | str,
    strategy: str = "auto",
    chunk_size: int = 4096,
    num_threads: int = 4,
    backend: str = "python",
    lazy_cache_size: int = DEFAULT_CACHE_SIZE,
    scan_deadline: Optional[float] = None,
    overlap: Union[int, str, None] = "auto",
) -> set[tuple[int, int]]:
    """Scan ``data`` in parallel chunks; returns the single-shot matches.

    ``strategy`` picks the parallelism contract (see module docstring);
    streams no longer than ``chunk_size`` take one sequential scan under
    any strategy.  ``overlap`` only applies to the ``"overlap"``
    strategy: ``"auto"`` derives the width bound from the automaton
    (:func:`mfsa_max_width`), an int pins it explicitly.  ``backend``
    selects the per-chunk byte engine for overlap scans; mapping scans
    are a dedicated simultaneous-run interpreter and ignore it.

    Under ``backend="lazy"`` (and ``"dense"``, which layers compiled
    tables above the same cache) each overlap-chunk worker *owns* its
    cache: workers run concurrently and the lazy cache is single-writer
    mutable state, so sharing one would either race or need a lock on
    the hot path.  The per-chunk caches share the engine's immutable tables (via
    :meth:`IMfantEngine.fork`) and their cold-start misses amortise over
    the chunk length; ``lazy_cache_size`` bounds each worker's cache.
    """
    payload = data.encode("latin-1") if isinstance(data, str) else data
    resolved = resolve_strategy(mfsa, strategy)
    sequential = len(payload) <= chunk_size
    if not sequential and getattr(mfsa, "counting", ()) and mfsa_max_width(mfsa) is None:
        # An unbounded {m,} counter arc: no overlap bound exists and the
        # mapping interpreter has no register semantics, so the only
        # exact option is a single sequential pass.
        sequential = True
    if sequential:
        engine = IMfantEngine(
            mfsa,
            backend=backend,
            lazy_cache_size=lazy_cache_size,
            scan_deadline=scan_deadline,
        )
        return engine.run(payload, collect_stats=False).matches
    if resolved == "sfa":
        return mapping_chunk_scan(
            mfsa,
            payload,
            chunk_size=chunk_size,
            num_threads=num_threads,
            scan_deadline=scan_deadline,
        )
    return overlap_chunk_scan(
        mfsa,
        payload,
        overlap=overlap,
        chunk_size=chunk_size,
        num_threads=num_threads,
        backend=backend,
        lazy_cache_size=lazy_cache_size,
        scan_deadline=scan_deadline,
    )


def mapping_chunk_scan(
    mfsa: Mfsa,
    data: bytes | str,
    chunk_size: int = 4096,
    num_threads: int = 4,
    scan_deadline: Optional[float] = None,
    scanner: Optional[SfaScanner] = None,
) -> set[tuple[int, int]]:
    """Zero-overlap data-parallel scan via composable chunk mappings.

    Chunks share no bytes; each worker computes its chunk's
    :class:`~repro.engine.sfa.ChunkMapping` independently (any order),
    and a sequential O(chunks × state-width) fold threads the exit
    activations through — exactly the single-shot match set, for any
    ruleset including unbounded ones.  ``scan_deadline`` is per chunk
    (the legacy contract); a chunk exceeding it raises
    :class:`~repro.guard.errors.ScanDeadlineExceeded`.
    """
    payload = data.encode("latin-1") if isinstance(data, str) else data
    if chunk_size < 1:
        raise UsageError(f"chunk_size must be >= 1 (got {chunk_size})")
    sc = scanner if scanner is not None else SfaScanner(
        mfsa, scan_deadline=scan_deadline
    )
    chunks = [
        payload[start : start + chunk_size]
        for start in range(0, len(payload), chunk_size)
    ] or [b""]

    def make_task(segment: bytes):
        def task():
            return sc.scan_chunk(segment, collect_stats=False).mapping

        return task

    mappings = map_pool(
        [make_task(c) for c in chunks], num_threads=num_threads, label="mapping_scan"
    )
    matches, _exit = fold_mappings(mappings, [len(c) for c in chunks], sc)
    return _complete_eps_rules(mfsa, matches, len(payload))


def overlap_chunk_scan(
    mfsa,
    data: bytes | str,
    overlap: Union[int, str, None] = "auto",
    chunk_size: int = 4096,
    num_threads: int = 4,
    backend: str = "python",
    lazy_cache_size: int = DEFAULT_CACHE_SIZE,
    scan_deadline: Optional[float] = None,
) -> set[tuple[int, int]]:
    """The classic bounded-width overlap/stitch scan.

    ``overlap`` must cover the ruleset's maximum match width; ``"auto"``
    (or ``None``) derives it from the automaton and raises
    :class:`~repro.guard.errors.UsageError` when the ruleset is
    unbounded — use :func:`mapping_chunk_scan` (or ``strategy="auto"``)
    for those.  ``chunk_size`` must exceed the overlap for the split to
    make progress.
    """
    payload = data.encode("latin-1") if isinstance(data, str) else data
    if overlap == "auto" or overlap is None:
        overlap = mfsa_max_width(mfsa)
        if overlap is None:
            if getattr(mfsa, "counting", ()):
                raise UsageError(
                    "overlap scan requires a bounded ruleset; this counting "
                    "automaton carries an unbounded {m,} repeat — scan it "
                    "sequentially (chunk_scan does so automatically)"
                )
            raise UsageError(
                "overlap scan requires a bounded ruleset; this automaton "
                "admits unbounded matches — use the 'sfa' strategy"
            )
    engine = IMfantEngine(
        mfsa, backend=backend, lazy_cache_size=lazy_cache_size, scan_deadline=scan_deadline
    )
    if len(payload) <= chunk_size:
        return engine.run(payload, collect_stats=False).matches
    if chunk_size <= overlap:
        raise ValueError(f"chunk_size ({chunk_size}) must exceed overlap ({overlap})")

    # Chunk k covers [start, end) with `lead` bytes of left context; any
    # match ending inside [start, end) started within the context, so it
    # is found — and matches ending inside the context are the previous
    # chunk's responsibility (dropped here to avoid double reporting of
    # empty-rule offsets; set-dedup covers the rest anyway).
    jobs = []
    for start in range(0, len(payload), chunk_size):
        lead = min(overlap, start)
        segment = payload[start - lead : min(start + chunk_size, len(payload))]
        jobs.append((start, lead, segment))

    def make_runner(start: int, lead: int, segment: bytes):
        # each worker gets private mutable state (its own lazy cache);
        # fork() is cheap (tables are shared, never rebuilt)
        worker_engine = engine.fork()

        def run():
            result = worker_engine.run(segment, collect_stats=False)
            rebased = {
                (rule, end + start - lead)
                for rule, end in result.matches
                if end > lead or (start == 0 and end >= 0)
            }
            result.matches = rebased
            return result
        return run

    matches, _ = run_pool(
        [make_runner(start, lead, segment) for start, lead, segment in jobs],
        num_threads=num_threads,
    )
    return _complete_eps_rules(mfsa, matches, len(payload))
