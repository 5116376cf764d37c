"""Tests for the MFSA's index/accessor helpers."""

from repro.labels import CharClass
from repro.mfsa.merge import merge_fsas
from repro.mfsa.model import Mfsa

from conftest import compile_ruleset_fsas


def sample_mfsa() -> Mfsa:
    return merge_fsas(compile_ruleset_fsas(["ab", "a[bc]", "ad"]))


class TestArcsByLabel:
    def test_groups_by_exact_mask(self):
        mfsa = sample_mfsa()
        index = mfsa.arcs_by_label()
        a_mask = CharClass.single("a").mask
        bc_mask = CharClass.from_chars("bc").mask
        assert a_mask in index
        assert bc_mask in index
        # every index entry points at arcs with that exact label
        for mask, arc_ids in index.items():
            for i in arc_ids:
                assert mfsa.transitions[i].label.mask == mask

    def test_covers_all_transitions(self):
        mfsa = sample_mfsa()
        total = sum(len(ids) for ids in mfsa.arcs_by_label().values())
        assert total == mfsa.num_transitions


class TestOutgoingIndex:
    def test_sources_complete(self):
        mfsa = sample_mfsa()
        index = mfsa.outgoing_index()
        for i, t in enumerate(mfsa.transitions):
            assert i in index[t.src]

    def test_states_without_arcs_absent(self):
        mfsa = sample_mfsa()
        index = mfsa.outgoing_index()
        sources = {t.src for t in mfsa.transitions}
        assert set(index) == sources


class TestAlphabetAndPatterns:
    def test_alphabet_union(self):
        mfsa = sample_mfsa()
        assert mfsa.alphabet_mask() == CharClass.from_chars("abcd").mask

    def test_patterns_recorded_per_rule(self):
        mfsa = sample_mfsa()
        assert mfsa.patterns == {0: "ab", 1: "a[bc]", 2: "ad"}

    def test_mtransition_repr_lists_belongings(self):
        mfsa = sample_mfsa()
        shared = next(t for t in mfsa.transitions if len(t.bel) > 1)
        text = repr(shared)
        for rule in sorted(shared.bel):
            assert str(rule) in text
