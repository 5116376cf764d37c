"""End-to-end integration across all six synthetic suites.

For every suite (at a tiny scale), the full pipeline is run at several
merging factors, through ANML and back, on all engines — verifying that
every execution path reports identical matches on the suite's stream.
This is the repository's broadest single correctness gate.
"""

import pytest

from repro.anml import read_anml, write_anml
from repro.datasets import DATASET_PROFILES, generate_ruleset, generate_stream
from repro.decompose.engine import PrefilterEngine
from repro.engine.imfant import IMfantEngine
from repro.engine.infant import INfantEngine
from repro.engine.streaming import StreamingMatcher
from repro.pipeline.compiler import CompileOptions, compile_ruleset

SCALE = 30  # 8–10 REs per suite keeps the cross-product fast
STREAM = 512


@pytest.fixture(scope="module", params=sorted(DATASET_PROFILES))
def suite(request):
    profile = DATASET_PROFILES[request.param].scaled(SCALE)
    ruleset = generate_ruleset(profile)
    stream = generate_stream(ruleset, STREAM)
    return ruleset, stream


@pytest.fixture(scope="module")
def baseline(suite):
    """Per-rule iNFAnt matches — the ground truth for the suite."""
    ruleset, stream = suite
    compiled = compile_ruleset(ruleset.patterns, CompileOptions(merging_factor=1, emit_anml=False))
    matches = set()
    for rule_id, fsa in enumerate(compiled.fsas):
        matches |= INfantEngine(fsa, rule_id).run(stream).matches
    return matches


@pytest.mark.parametrize("merging_factor", [1, 3, 0])
def test_imfant_matches_baseline(suite, baseline, merging_factor):
    ruleset, stream = suite
    compiled = compile_ruleset(
        ruleset.patterns, CompileOptions(merging_factor=merging_factor, emit_anml=False)
    )
    for backend in ("python", "lazy"):
        got = set()
        for mfsa in compiled.mfsas:
            got |= IMfantEngine(mfsa, backend=backend).run(stream).matches
        assert got == baseline, (ruleset.name, merging_factor, backend)


def test_anml_roundtrip_matches_baseline(suite, baseline):
    ruleset, stream = suite
    compiled = compile_ruleset(ruleset.patterns, CompileOptions(merging_factor=0))
    recovered = read_anml(compiled.anml[0])
    got = IMfantEngine(recovered).run(stream).matches
    assert got == baseline, ruleset.name


def test_streaming_chunks_match_baseline(suite, baseline):
    ruleset, stream = suite
    compiled = compile_ruleset(ruleset.patterns, CompileOptions(merging_factor=0, emit_anml=False))
    matcher = StreamingMatcher(compiled.mfsas[0])
    for start in range(0, len(stream), 97):  # deliberately odd chunking
        matcher.feed(stream[start : start + 97])
    assert matcher.matches == baseline, ruleset.name


def test_prefilter_engine_matches_baseline(suite, baseline):
    ruleset, stream = suite
    engine = PrefilterEngine(ruleset.patterns)
    got, _ = engine.run(stream)
    assert got == baseline, ruleset.name


def test_clustered_grouping_matches_baseline(suite, baseline):
    ruleset, stream = suite
    compiled = compile_ruleset(
        ruleset.patterns,
        CompileOptions(merging_factor=3, grouping="clustered", emit_anml=False),
    )
    got = set()
    for mfsa in compiled.mfsas:
        got |= IMfantEngine(mfsa).run(stream).matches
    assert got == baseline, ruleset.name


def test_stratified_matches_baseline(suite, baseline):
    ruleset, stream = suite
    compiled = compile_ruleset(
        ruleset.patterns,
        CompileOptions(merging_factor=0, stratify_charclasses=True, emit_anml=False),
    )
    got = IMfantEngine(compiled.mfsas[0]).run(stream).matches
    assert got == baseline, ruleset.name
