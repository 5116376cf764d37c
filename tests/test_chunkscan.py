"""Tests for chunk-parallel scanning and the scan plan the automaton picks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import list_builtin, load_builtin
from repro.engine.chunkscan import chunk_scan, mfsa_max_width, resolve_strategy
from repro.engine.imfant import IMfantEngine
from repro.frontend.analysis import max_width
from repro.frontend.parser import parse
from repro.mfsa.merge import merge_fsas
from repro.mfsa.model import Mfsa
from repro.pipeline.compiler import CompileOptions, compile_ruleset

from conftest import compile_ruleset_fsas, ere_patterns


def build(patterns):
    return merge_fsas(compile_ruleset_fsas(patterns))


def pattern_bound(patterns):
    """The source-level bound: the widest pattern, None if any is unbounded."""
    widths = [max_width(parse(pattern)) for pattern in patterns]
    return None if None in widths else max(widths, default=0)


def compiled_width(patterns, options=CompileOptions(emit_anml=False)):
    """``mfsa_max_width`` over every automaton of a compiled ruleset."""
    widths = [mfsa_max_width(m) for m in compile_ruleset(patterns, options).mfsas]
    return None if None in widths else max(widths, default=0)


class TestRulesetMaxWidth:
    def test_bounded(self):
        assert compiled_width(["abc", "a{2,5}", "[xy]z"]) == 5

    def test_unbounded(self):
        assert compiled_width(["abc", "a+b"]) is None

    def test_empty(self):
        assert mfsa_max_width(Mfsa()) == 0


class TestMfsaMaxWidth:
    def test_bounded_matches_source_bound(self):
        patterns = ["abc", "a{2,5}", "[xy]z"]
        assert mfsa_max_width(build(patterns)) == pattern_bound(patterns)

    def test_unbounded_is_none(self):
        assert mfsa_max_width(build(["abc", "a+b"])) is None
        assert mfsa_max_width(build(["x.*y"])) is None

    @pytest.mark.parametrize("counting", [False, True], ids=["plain", "counting"])
    @pytest.mark.parametrize("name", list_builtin())
    def test_builtin_width_equals_pattern_bound(self, name, counting):
        """Merged builtins share sub-paths across rules, so the merged
        graph has cycles no single rule can go round; the bound follows
        each rule's own arcs and equals the widest pattern."""
        patterns = list(load_builtin(name).patterns)
        options = CompileOptions(emit_anml=False, counting=counting)
        assert compiled_width(patterns, options) == pattern_bound(patterns)

    def test_counter_arcs_weigh_their_own_rule_only(self):
        """The longest path of the merged graph runs 65 bytes through
        arcs of different rules; no match is longer than 61."""
        patterns = ["a{40,60}b", "(ab){2,3}", "zz"]
        options = CompileOptions(emit_anml=False, counting=True, count_threshold=32)
        assert compiled_width(patterns, options) == pattern_bound(patterns) == 61

    def test_strategy_resolution(self):
        assert resolve_strategy([build(["abc"])]) == ("overlap", 3)
        assert resolve_strategy([build(["a.*b"])]) == ("sfa", None)
        # one unbounded automaton moves the whole ruleset to mappings
        assert resolve_strategy([build(["abc"]), build(["a.*b"])]) == ("sfa", None)
        for name, width in (("tokens_exact", 29), ("protein_motifs", 27)):
            patterns = list(load_builtin(name).patterns)
            compiled = compile_ruleset(patterns, CompileOptions(emit_anml=False))
            assert resolve_strategy(compiled.mfsas) == ("overlap", width)
        # counter registers with no finite width: one sequential job
        counting = compile_ruleset(
            ["ab{40,}c"], CompileOptions(emit_anml=False, counting=True, count_threshold=32)
        )
        assert resolve_strategy(counting.mfsas) == ("overlap", None)


class TestChunkScan:
    def test_boundary_straddling_match(self):
        patterns = ["needle"]
        mfsa = build(patterns)
        stream = b"x" * 4094 + b"needle" + b"y" * 100  # straddles 4096
        got = chunk_scan(mfsa, stream, chunk_size=4096)
        assert got == {(0, 4100)}

    def test_matches_equal_single_shot(self):
        patterns = ["ab", "a[bc]d", "xyz"]
        mfsa = build(patterns)
        stream = (b"abxyzabcd" * 300)
        expected = IMfantEngine(mfsa).run(stream).matches
        got = chunk_scan(mfsa, stream, chunk_size=256)
        assert got == expected

    def test_unbounded_scans_data_parallel(self):
        # the case the old code served sequentially: zero overlap bytes,
        # mapping composition, byte-identical matches
        patterns = ["a.*b"]
        mfsa = build(patterns)
        stream = b"a" + b"x" * 500 + b"b"
        assert resolve_strategy([mfsa]) == ("sfa", None)
        got = chunk_scan(mfsa, stream, chunk_size=64)
        assert got == IMfantEngine(mfsa).run(stream).matches

    def test_small_stream_single_shot(self):
        mfsa = build(["ab"])
        assert chunk_scan(mfsa, b"ab", chunk_size=4096) == {(0, 2)}

    def test_chunk_size_below_width_stays_exact(self):
        # the planner lowers the chunk count until chunks outgrow the lead
        mfsa = build(["a[bc]{40}d", "xyz"])
        assert mfsa_max_width(mfsa) == 42
        stream = (b"a" + b"bc" * 20 + b"d" + b"xyz") * 50
        expected = IMfantEngine(mfsa).run(stream).matches
        assert expected
        for chunk_size in (1, 16, 42):
            assert chunk_scan(mfsa, stream, chunk_size=chunk_size) == expected

    def test_empty_matching_rule_full_range(self):
        patterns = ["a*", "zq"]
        mfsa = build(patterns)
        stream = b"b" * 600
        got = chunk_scan(mfsa, stream, chunk_size=256)
        assert got == IMfantEngine(mfsa).run(stream).matches


@pytest.mark.sfa
class TestMappingChunkScan:
    def test_zero_overlap_boundary_match(self):
        mfsa = build(["needle", "q.*z"])
        assert resolve_strategy([mfsa]) == ("sfa", None)
        stream = b"x" * 61 + b"needle" + b"y" * 61  # straddles every cut
        for chunk_size in (32, 64, 67):
            got = chunk_scan(mfsa, stream, chunk_size=chunk_size)
            assert got == {(0, 67)}

    def test_unbounded_mixed_ruleset(self):
        patterns = ["a.*b", "ab", "[ab]+c"]
        mfsa = build(patterns)
        assert resolve_strategy([mfsa]) == ("sfa", None)
        stream = (b"aabcabxb" * 217)
        expected = IMfantEngine(mfsa).run(stream).matches
        got = chunk_scan(mfsa, stream, chunk_size=100)
        assert got == expected

    def test_empty_payload(self):
        mfsa = build(["a*", "bc"])
        assert resolve_strategy([mfsa]) == ("sfa", None)
        assert chunk_scan(mfsa, b"") == IMfantEngine(mfsa).run(b"").matches


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_chunkscan_equivalence_property(data):
    patterns = data.draw(st.lists(ere_patterns(max_depth=2), min_size=1, max_size=3))
    repeats = data.draw(st.integers(min_value=10, max_value=60))
    base = data.draw(st.text(alphabet="abcd", min_size=1, max_size=12))
    stream = (base * repeats).encode()
    # sizes below the width too: the planner, not the caller, keeps
    # chunks longer than their lead
    chunk_size = data.draw(st.sampled_from([7, 64, 100, 257]))

    mfsa = build(patterns)
    expected = IMfantEngine(mfsa).run(stream).matches
    assert chunk_scan(mfsa, stream, chunk_size=chunk_size) == expected
