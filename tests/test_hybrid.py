"""Mixed ("hybrid") rulesets: ordinary rules next to large bounded repeats.

One counting compile — ``CompileOptions(counting=True,
count_threshold=N)`` — serves the whole mix: repeats reaching ``N``
copies become counter registers, every other rule expands and merges as
usual, and the result runs on ``backend="counting"``.  These tests pin
the split, rule-id bookkeeping and chunked scans of such rulesets
against the loop-expanded oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.optimize import compile_re_to_fsa
from repro.automata.simulate import find_match_ends
from repro.engine.chunkscan import chunk_scan, resolve_strategy
from repro.engine.imfant import IMfantEngine
from repro.pipeline.compiler import CompileOptions, compile_ruleset

from conftest import ere_patterns, input_strings

pytestmark = pytest.mark.counting

#: the repeat size from which the tests' compiles count instead of expand
THRESHOLD = 32


def compile_mixed(patterns, threshold=THRESHOLD, merging_factor=0):
    return compile_ruleset(
        patterns,
        CompileOptions(counting=True, count_threshold=threshold,
                       merging_factor=merging_factor, emit_anml=False),
    ).mfsas


def counted_rules(patterns, threshold=THRESHOLD) -> set:
    """Rule ids owning at least one counter register."""
    return {
        rule
        for mfsa in compile_mixed(patterns, threshold)
        for arc in getattr(mfsa, "counting", ())
        for rule in arc.bel
    }


def run(patterns, data, backend="counting", **kwargs) -> set:
    out = set()
    for mfsa in compile_mixed(patterns, **kwargs):
        out |= IMfantEngine(mfsa, backend=backend).run(data).matches
    return out


def expected(patterns, text) -> set:
    out = set()
    for rule_id, pattern in enumerate(patterns):
        out |= {(rule_id, e) for e in find_match_ends(compile_re_to_fsa(pattern), text)}
    return out


class TestSplit:
    def test_detects_large_repeats(self):
        assert counted_rules(["a{100}b"]) == {0}
        assert counted_rules(["x[0-9]{50,90}"]) == {0}
        assert counted_rules(["abc"]) == set()
        assert counted_rules(["a{3}b"]) == set()
        assert counted_rules(["(ab){100}"]) == set()  # width-2 body: expands

    def test_threshold_dial(self):
        assert counted_rules(["a{10}"], threshold=5) == {0}
        assert counted_rules(["a{10}"], threshold=50) == set()

    def test_unbounded_low_counts(self):
        assert counted_rules(["a{100,}b"]) == {0}

    def test_engine_reports_split(self):
        patterns = ["abc", "x{99}y", "def"]
        assert counted_rules(patterns) == {1}
        (mfsa,) = compile_mixed(patterns)
        assert set(mfsa.initials) == {0, 1, 2}  # one automaton for the mix


class TestMatching:
    def test_mixed_ruleset(self):
        patterns = ["abc", "a{40}b", "xyz"]
        text = "abc" + "a" * 40 + "b" + "xyz"
        assert run(patterns, text) == expected(patterns, text)

    def test_rule_ids_preserved_after_split(self):
        """Counting rules in the middle must not shift their neighbours'
        rule ids."""
        assert run(["aaa", "z{60}", "bbb"], "aaabbb") == {(0, 3), (2, 6)}

    def test_all_counting(self):
        patterns = ["a{40}", "b{50}"]
        assert counted_rules(patterns) == {0, 1}
        assert run(patterns, "a" * 40) == {(0, 40)}

    def test_all_merged(self):
        patterns = ["ab", "cd"]
        mfsas = compile_mixed(patterns)
        assert len(mfsas) == 1 and not getattr(mfsas[0], "counting", ())
        assert run(patterns, "abcd") == {(0, 2), (1, 4)}

    def test_huge_bound_correct(self):
        """A bound far past the expansion budget still matches exactly."""
        text = "ab" + "x" * 500 + "y"
        assert run(["ab", "x{500}y"], text) == {(0, 2), (1, 503)}

    def test_merging_factor_forwarded(self):
        assert len(compile_mixed(["ab", "cd", "ef"], merging_factor=1)) == 3


class TestRunParallel:
    def test_matches_equal_sequential_run(self):
        patterns = ["abc", "a.*b", "x{40,60}y", "(ab)+"]
        data = b"abc" + b"a" + b"q" * 100 + b"b" + b"x" * 50 + b"y" + b"abab" * 20
        sequential = run(patterns, data)
        parallel = set()
        for mfsa in compile_mixed(patterns):
            parallel |= chunk_scan(mfsa, data, backend="counting", chunk_size=32)
        assert parallel == sequential

    def test_auto_resolves_per_mfsa(self):
        # bounded-only ruleset: overlap chunking
        assert resolve_strategy(compile_mixed(["abc", "defg"])) == ("overlap", 4)
        # an unbounded rule flips it to mapping scans
        assert resolve_strategy(compile_mixed(["abc", "a.*b"])) == ("sfa", None)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_hybrid_equals_baseline_property(data):
    """With a low threshold (everything countable counts), the counting
    compile equals the per-rule expansion baseline."""
    patterns = data.draw(st.lists(ere_patterns(), min_size=1, max_size=4))
    text = data.draw(input_strings())
    assert run(patterns, text, threshold=2) == expected(patterns, text)
