"""Property tests for sharded scanning: any split equals a single pass.

The shard planner (:func:`repro.engine.chunkscan.plan_shards`) picks
near-equal boundaries, but correctness must not depend on *where* the
cuts fall — a match of width ≤ overlap that straddles any boundary lies
entirely inside the next shard's lead.  So beyond the planner's own
splits, these tests drive the stitch machinery with **arbitrary**
hypothesis-chosen cut points and assert the stitched union equals the
single-pass oracle, including boundary-spanning and empty-width matches.

Unbounded-width rulesets (``a*`` reaching any length) have no sound
finite overlap; for those the pool's sequential fallback is asserted
instead.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.chunkscan import mfsa_max_width
from repro.engine.imfant import IMfantEngine
from repro.mfsa.merge import merge_fsas
from repro.mfsa.model import empty_matching_rules
from repro.serve.artifacts import Artifact, ArtifactStore, ruleset_key
from repro.serve.shards import ShardJob, ShardPool, plan_shards, rebase_matches

from conftest import compile_ruleset_fsas, ere_patterns, input_strings


def _single_pass(mfsa, text: str) -> set[tuple[int, int]]:
    return IMfantEngine(mfsa).run(text, collect_stats=False).matches


def _complete_empty_rules(mfsa, matches: set, payload_len: int) -> set:
    """ε-accepting rules match at every offset; shards only see their own."""
    for rule in empty_matching_rules(mfsa):
        matches |= {(rule, end) for end in range(payload_len + 1)}
    return matches


def _jobs_from_cuts(payload_len: int, cuts: list[int], overlap: int) -> list[ShardJob]:
    """ShardJobs for arbitrary (sorted, in-range) cut positions."""
    bounds = [0] + sorted({c for c in cuts if 0 < c < payload_len}) + [payload_len]
    return [
        ShardJob(start=start, lead=min(overlap, start), stop=stop)
        for start, stop in zip(bounds, bounds[1:])
    ]


def _scan_jobs(mfsa, payload: str, jobs: list[ShardJob]) -> set[tuple[int, int]]:
    """The pool's per-job scan + stitch, minus the pool: one engine scans
    every job in order, then rebase."""
    engine = IMfantEngine(mfsa)
    stitched: set = set()
    for job in jobs:
        segment = payload[job.segment_slice]
        found = engine.run(segment, collect_stats=False).matches
        stitched |= rebase_matches(list(found), job)
    return _complete_empty_rules(mfsa, stitched, len(payload))


# ---------------------------------------------------------------------------
# Planner invariants
# ---------------------------------------------------------------------------


@given(
    payload_len=st.integers(min_value=0, max_value=10_000),
    num_shards=st.integers(min_value=1, max_value=64),
    overlap=st.none() | st.integers(min_value=0, max_value=200),
)
@settings(max_examples=200, deadline=None)
def test_plan_shards_invariants(payload_len, num_shards, overlap):
    jobs = plan_shards(payload_len, num_shards, overlap)
    assert 1 <= len(jobs) <= num_shards
    if overlap is None:
        assert len(jobs) == 1  # no finite lead: one sequential job
    # contiguous exact cover of [0, payload_len)
    assert jobs[0].start == 0
    assert jobs[-1].stop == payload_len
    for left, right in zip(jobs, jobs[1:]):
        assert left.stop == right.start
    for job in jobs:
        assert job.lead == min(overlap or 0, job.start)
        assert job.segment_slice.start == job.start - job.lead >= 0
        if payload_len > 0 and len(jobs) > 1:
            # every shard advances past its own lead
            assert job.stop - job.start >= 1


# ---------------------------------------------------------------------------
# Arbitrary cut points == single pass
# ---------------------------------------------------------------------------


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_arbitrary_cuts_equal_single_pass(data):
    patterns = data.draw(st.lists(ere_patterns(), min_size=1, max_size=4))
    text = data.draw(input_strings(max_size=48))
    mfsa = merge_fsas(compile_ruleset_fsas(patterns))
    oracle = _single_pass(mfsa, text)

    overlap = mfsa_max_width(mfsa)
    if overlap is None:
        # unbounded width: no finite overlap is sound — the only correct
        # "sharding" is a single job, which is trivially the oracle.
        jobs = [ShardJob(0, 0, len(text))]
        assert _scan_jobs(mfsa, text, jobs) == oracle
        return

    cuts = data.draw(
        st.lists(st.integers(min_value=1, max_value=max(1, len(text))), max_size=6)
    )
    jobs = _jobs_from_cuts(len(text), cuts, overlap)
    assert _scan_jobs(mfsa, text, jobs) == oracle, (
        f"cuts={sorted(set(cuts))} overlap={overlap} patterns={patterns!r}"
    )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_planner_cuts_equal_single_pass(data):
    """The planner's own splits, any shard count, any payload length."""
    patterns = data.draw(st.lists(ere_patterns(), min_size=1, max_size=4))
    text = data.draw(input_strings(max_size=48))
    num_shards = data.draw(st.integers(min_value=1, max_value=8))
    mfsa = merge_fsas(compile_ruleset_fsas(patterns))
    oracle = _single_pass(mfsa, text)

    jobs = plan_shards(len(text), num_shards, mfsa_max_width(mfsa))
    assert _scan_jobs(mfsa, text, jobs) == oracle


# ---------------------------------------------------------------------------
# The real ShardPool, end to end (fewer examples: worker processes are heavy)
# ---------------------------------------------------------------------------


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_shard_pool_equals_single_pass(data):
    patterns = data.draw(st.lists(ere_patterns(), min_size=1, max_size=3))
    text = data.draw(input_strings(max_size=40))
    num_shards = data.draw(st.integers(min_value=1, max_value=4))
    backend = data.draw(st.sampled_from(["python", "lazy"]))

    fsas = compile_ruleset_fsas(patterns)
    mfsa = merge_fsas(fsas)
    oracle = _single_pass(mfsa, text)

    # worker processes (num_shards > 1) load the artifact from disk
    with tempfile.TemporaryDirectory() as root:
        key = ruleset_key(patterns)
        artifact = Artifact(
            key=key,
            patterns=list(patterns),
            mfsas=[mfsa],
            loaded_from_cache=False,
            path=ArtifactStore(root).save(key, patterns, [mfsa]),
        )
        with ShardPool(artifact, num_shards=num_shards, backend=backend) as pool:
            result = pool.scan(text.encode("latin-1"))
    # ε-accepting rules travel compactly (all_offsets_rules), never as
    # enumerated tuples; full_matches() re-expands to oracle semantics.
    assert result.full_matches() == oracle
    everywhere = set(result.all_offsets_rules)
    assert not any(rule in everywhere for rule, _ in result.matches)
    assert not result.partial
