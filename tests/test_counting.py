"""Tests for counting automata: construction, and single-rule execution
on ``backend="counting"`` (a single counting FSA is a one-rule MFSA)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.optimize import compile_re_to_fsa
from repro.automata.simulate import find_match_ends
from repro.counting import build_counting_fsa
from repro.counting.model import CountingTransition
from repro.engine.imfant import IMfantEngine
from repro.labels import CharClass
from repro.mfsa.merge import merge_fsas
from repro.pipeline.compiler import CompileOptions, compile_ruleset

pytestmark = pytest.mark.counting


def engine_for(cfsa, rule_id: int = 0) -> IMfantEngine:
    return IMfantEngine(merge_fsas([(rule_id, cfsa)]), backend="counting")


def matches(pattern: str, text: str, min_count_bound: int = 1) -> set:
    cfsa = build_counting_fsa(pattern, min_count_bound=min_count_bound)
    return engine_for(cfsa).run(text).matches


def expected(pattern: str, text: str) -> set:
    return {(0, e) for e in find_match_ends(compile_re_to_fsa(pattern), text)}


class TestModel:
    def test_counting_arc_bounds_checked(self):
        with pytest.raises(ValueError):
            CountingTransition(0, 1, CharClass.single("a"), low=0, high=3)
        with pytest.raises(ValueError):
            CountingTransition(0, 1, CharClass.single("a"), low=3, high=2)
        with pytest.raises(ValueError):
            CountingTransition(0, 1, CharClass.empty(), low=1, high=2)


class TestConstruction:
    def test_large_bound_stays_compressed(self):
        cfsa = build_counting_fsa("a{500}b")
        assert len(cfsa.counting) == 1
        assert cfsa.num_states < 10
        expanded = compile_re_to_fsa("a{200}b")  # budget caps at 256
        assert expanded.num_states > 100

    def test_small_bound_expands(self):
        cfsa = build_counting_fsa("a{2}b", min_count_bound=4)
        assert not cfsa.counting

    def test_min_count_bound_dial(self):
        assert build_counting_fsa("a{2}b", min_count_bound=1).counting
        assert not build_counting_fsa("a{2}b", min_count_bound=10).counting

    def test_only_width1_bodies_count(self):
        cfsa = build_counting_fsa("(ab){100}")
        assert not cfsa.counting  # multi-symbol body expands

    def test_uncounted_repeat_expands_as_the_plain_pipeline(self):
        """A repeat that does not count goes through the plain loop
        expansion: as many arcs as the expanded compile, not a flat
        chain of optionals whose ε-closures square them."""
        counting = compile_ruleset(
            ["(xy){0,70}"], CompileOptions(counting=True, count_threshold=2)
        ).fsas[0]
        expanded = compile_ruleset(["(xy){0,70}"]).fsas[0]
        assert counting.num_transitions == expanded.num_transitions == 140

    def test_unbounded_low_counts(self):
        cfsa = build_counting_fsa("[xy]{50,}z")
        assert len(cfsa.counting) == 1
        assert cfsa.counting[0].high is None

    def test_optional_counting_has_bypass(self):
        cfsa = build_counting_fsa("a{0,100}b", min_count_bound=1)
        assert cfsa.counting
        # the ε bypass survives as a plain path: "b" alone matches
        assert engine_for(cfsa).run("b").matches == {(0, 1)}

    def test_epsilon_free(self):
        cfsa = build_counting_fsa("(a|b{10,20})c")
        cfsa.validate()


class TestEngine:
    @pytest.mark.parametrize("pattern,text", [
        ("a{3}", "aaaa"),
        ("a{2,4}b", "aaab aaaaab"),
        ("x[ab]{2,3}y", "xaby xabay xabbby xabbbby"),
        ("a{3,}b", "aab aaab aaaaaab"),
        ("(a{2,3}|bc)d", "aad bcd aaaad"),
        ("za{0,2}b", "zb zab zaab zaaab"),
        ("a{2}a{2}", "aaaa"),
    ])
    def test_agrees_with_expansion_pipeline(self, pattern, text):
        assert matches(pattern, text) == expected(pattern, text)

    def test_large_bound_correctness(self):
        """The case expansion cannot reach: a 500-bound repeat."""
        pattern = "a{498,500}b"
        text = "a" * 499 + "b" + "a" * 10
        oracle = re.compile("a{498,500}b")
        expect = {(0, m.start() + len(m.group())) for m in
                  (oracle.match(text, s) for s in range(len(text))) if m}
        assert matches(pattern, text) == expect

    def test_overlapping_runs(self):
        """Multiple concurrent counter entries (counting-set behaviour)."""
        assert matches("ba{2,3}", "baaa") == expected("ba{2,3}", "baaa")

    def test_mismatch_resets_counter(self):
        assert matches("a{3}b", "aaxaaab") == {(0, 7)}

    def test_unbounded_saturation(self):
        got = matches("a{3,}", "a" * 6)
        assert got == {(0, e) for e in (3, 4, 5, 6)}

    def test_counts_do_not_leak_across_runs(self):
        engine = engine_for(build_counting_fsa("a{3}b"))
        assert engine.run("aaab").matches == {(0, 4)}
        assert engine.run("ab").matches == set()  # fresh state per run

    def test_rule_id_tagging(self):
        cfsa = build_counting_fsa("a{2}")
        assert engine_for(cfsa, rule_id=9).run("aa").matches == {(9, 2)}

    def test_stats(self):
        stats = engine_for(build_counting_fsa("a{5}b")).run("a" * 10).stats
        assert stats.chars_processed == 10
        assert stats.transitions_examined > 0
        assert stats.active_pair_total > 0


@given(
    low=st.integers(min_value=1, max_value=6),
    extra=st.integers(min_value=0, max_value=4),
    text=st.text(alphabet="abz", max_size=30),
)
@settings(max_examples=150, deadline=None)
def test_bounded_counting_equivalence_property(low, extra, text):
    pattern = f"a{{{low},{low + extra}}}b"
    assert matches(pattern, text) == expected(pattern, text)


@given(
    low=st.integers(min_value=1, max_value=6),
    text=st.text(alphabet="ab", max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_unbounded_counting_equivalence_property(low, text):
    pattern = f"[ab]{{{low},}}a"
    assert matches(pattern, text) == expected(pattern, text)


@given(text=st.text(alphabet="xyz", max_size=40))
@settings(max_examples=100, deadline=None)
def test_mixed_pattern_property(text):
    pattern = "x[yz]{2,5}x"
    assert matches(pattern, text) == expected(pattern, text)
