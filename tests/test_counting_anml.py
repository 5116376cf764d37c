"""Tests for the counting-MFSA ANML dialect."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anml.reader import AnmlFormatError
from repro.counting import build_counting_fsa
from repro.counting.anml import read_counting_anml, write_counting_anml
from repro.engine.imfant import IMfantEngine
from repro.mfsa.merge import merge_fsas

from conftest import ere_patterns, input_strings

pytestmark = pytest.mark.counting


def run_matches(z, text):
    return IMfantEngine(z, backend="counting").run(text).matches


def build(patterns, min_count_bound=1):
    items = [(i, build_counting_fsa(p, min_count_bound=min_count_bound))
             for i, p in enumerate(patterns)]
    return merge_fsas(items)


def cmfsa_equal(a, b):
    return (
        a.num_states == b.num_states
        and a.initials == b.initials
        and a.finals == b.finals
        and a.patterns == b.patterns
        and {(t.src, t.dst, t.label.mask, t.bel) for t in a.plain}
        == {(t.src, t.dst, t.label.mask, t.bel) for t in b.plain}
        and {(t.src, t.dst, t.label.mask, t.low, t.high, t.bel) for t in a.counting}
        == {(t.src, t.dst, t.label.mask, t.low, t.high, t.bel) for t in b.counting}
    )


class TestRoundTrip:
    def test_counting_arcs_survive(self):
        z = build(["x[0-9]{5}a", "x[0-9]{5}b"])
        recovered = read_counting_anml(write_counting_anml(z))
        assert cmfsa_equal(z, recovered)
        assert len(recovered.counting) == 1
        assert recovered.counting[0].bel == frozenset({0, 1})

    def test_unbounded_high_omits_attribute(self):
        z = build(["a{9,}b"])
        text = write_counting_anml(z)
        assert "low=" in text and "high=" not in text
        recovered = read_counting_anml(text)
        assert recovered.counting[0].high is None

    def test_engine_equivalence_through_xml(self):
        patterns = ["k[ab]{3}x", "k[ab]{3}y"]
        z = build(patterns)
        recovered = read_counting_anml(write_counting_anml(z))
        stream = "kabax kbbby"
        assert run_matches(recovered, stream) == run_matches(z, stream)

    def test_network_id(self):
        assert 'id="demo"' in write_counting_anml(build(["a{5}"]), network_id="demo")


class TestErrors:
    def test_wrong_root(self):
        with pytest.raises(AnmlFormatError):
            read_counting_anml("<automata-network/>")

    def test_malformed(self):
        with pytest.raises(AnmlFormatError):
            read_counting_anml("<oops")

    def test_missing_rules(self):
        with pytest.raises(AnmlFormatError):
            read_counting_anml('<counting-automata-network states="1"/>')

    def test_missing_attribute(self):
        bad = ('<counting-automata-network states="2"><rules>'
               '<rule id="0" initial-state="0" final-states="1"/></rules>'
               '<counting-transition from-state="0" to-state="1" symbol-set="a"'
               ' belongs-to="0"/></counting-automata-network>')
        with pytest.raises(AnmlFormatError):
            read_counting_anml(bad)  # missing low


@given(st.lists(ere_patterns(), min_size=1, max_size=3), input_strings())
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(patterns, text):
    z = build(patterns, min_count_bound=2)
    recovered = read_counting_anml(write_counting_anml(z))
    assert cmfsa_equal(z, recovered)
    assert run_matches(recovered, text) == run_matches(z, text)
