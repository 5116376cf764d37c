"""Tests for counting-MFSA merging and its execution on
``backend="counting"``, against the loop-expanded per-rule oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.optimize import compile_re_to_fsa
from repro.automata.simulate import find_match_ends
from repro.counting import build_counting_fsa
from repro.engine.imfant import IMfantEngine
from repro.mfsa.merge import MergeReport, merge_fsas

from conftest import ere_patterns, input_strings

pytestmark = pytest.mark.counting


def build_merged(patterns, min_count_bound=1):
    items = [(i, build_counting_fsa(p, min_count_bound=min_count_bound))
             for i, p in enumerate(patterns)]
    return merge_fsas(items)


def run_counting(z, text):
    return IMfantEngine(z, backend="counting").run(text)


def per_rule_matches(patterns, text):
    """The loop-expanded oracle, rule by rule."""
    out = set()
    for rule_id, pattern in enumerate(patterns):
        out |= {(rule_id, e) for e in find_match_ends(compile_re_to_fsa(pattern), text)}
    return out


class TestMerging:
    def test_shared_counting_arc(self):
        """Identical counted runs merge: one counter, both belongings."""
        z = build_merged(["x[0-9]{5}a", "x[0-9]{5}b"])
        assert len(z.counting) == 1
        assert z.counting[0].bel == frozenset({0, 1})

    def test_different_bounds_do_not_merge(self):
        z = build_merged(["x[0-9]{5}a", "x[0-9]{6}a"])
        assert len(z.counting) == 2
        assert all(len(arc.bel) == 1 for arc in z.counting)

    def test_different_labels_do_not_merge(self):
        z = build_merged(["x[0-9]{5}a", "x[a-f]{5}a"])
        assert len(z.counting) == 2

    def test_plain_prefix_still_merges(self):
        z = build_merged(["abc[x]{9}", "abd"])
        shared = [t for t in z.plain if len(t.bel) == 2]
        assert shared  # the ab prefix

    def test_compression_report(self):
        """The shared ``q`` arc and the shared counter both count as
        merged transitions, and Algorithm 1's counters are filled."""
        report = MergeReport()
        items = [(i, build_counting_fsa(p)) for i, p in
                 enumerate(["q[0-9]{4}z", "q[0-9]{4}y"])]
        z = merge_fsas(items, report=report)
        assert [len(arc.bel) for arc in z.counting] == [2]
        assert report.merged_transitions == 2
        assert report.label_comparisons > 0 and report.walk_steps > 0
        assert report.state_compression > 0

    def test_errors(self):
        with pytest.raises(ValueError):
            merge_fsas([])
        cfsa = build_counting_fsa("a{5}")
        with pytest.raises(ValueError):
            merge_fsas([(1, cfsa), (1, cfsa)])
        with pytest.raises(ValueError):
            merge_fsas([(1, cfsa), (2, compile_re_to_fsa("a{5}"))])


class TestEngine:
    @pytest.mark.parametrize("patterns,text", [
        (["x[ab]{3}y", "x[ab]{3}z"], "xabay xbbbz xaby"),
        (["a{2,4}b", "a{2,4}c"], "aaab aaaac ab"),
        (["p[0-9]{2}", "q[0-9]{2}"], "p12 q99 p1"),
        (["a{3,}b", "a{3,}c"], "aaaab aaac aab"),
        (["k{5}", "m"], "kkkkkm"),
    ])
    def test_merged_equals_per_rule(self, patterns, text):
        z = build_merged(patterns)
        got = run_counting(z, text).matches
        assert got == per_rule_matches(patterns, text)

    def test_shared_counter_distinguishes_rules(self):
        """Both rules share the counter but only the right suffix fires."""
        patterns = ["x[ab]{3}y", "x[ab]{3}z"]
        z = build_merged(patterns)
        got = run_counting(z, "xabay").matches
        assert got == {(0, 5)}

    def test_overlapping_entries_with_masks(self):
        patterns = ["ba{2,3}c", "a{2,3}c"]
        z = build_merged(patterns)
        for text in ("baac", "baaac", "aac", "aaac", "baacaaac"):
            assert run_counting(z, text).matches == \
                per_rule_matches(patterns, text), text

    def test_expansion_reference(self):
        """The merged counting automaton equals the fully-expanded NFAs."""
        patterns = ["x[ab]{2,3}y", "x[ab]{2,3}z"]
        z = build_merged(patterns)
        text = "xaby xaaby xbbbz xz"
        assert run_counting(z, text).matches == per_rule_matches(patterns, text)

    def test_large_shared_bound(self):
        patterns = ["h[ab]{200}x", "h[ab]{200}y"]
        z = build_merged(patterns)
        assert len(z.counting) == 1
        assert z.num_states < 12
        text = "h" + "ab" * 100 + "x"
        assert run_counting(z, text).matches == {(0, 202)}

    def test_stats(self):
        z = build_merged(["a{3}b", "c"])
        stats = run_counting(z, "aaab c").stats
        assert stats.chars_processed == 6
        assert stats.match_count == 2


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_counting_mfsa_equivalence_property(data):
    patterns = data.draw(st.lists(ere_patterns(), min_size=1, max_size=3))
    text = data.draw(input_strings())
    z = build_merged(patterns, min_count_bound=2)
    got = run_counting(z, text).matches
    assert got == per_rule_matches(patterns, text)


@given(
    low=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=3),
    text=st.text(alphabet="abz", max_size=25),
)
@settings(max_examples=100, deadline=None)
def test_shared_counter_property(low, extra, text):
    patterns = [f"z[ab]{{{low},{low + extra}}}a", f"z[ab]{{{low},{low + extra}}}b"]
    z = build_merged(patterns)
    assert len(z.counting) == 1  # the counter is shared
    got = run_counting(z, text).matches
    assert got == per_rule_matches(patterns, text)
