"""Direct tests for the engine pre-processing tables (iNFAnt/iMFAnt layouts)."""

import pytest

from repro.automata.optimize import compile_re_to_fsa
from repro.engine.tables import FsaTables, MfsaTables, limbs_for
from repro.mfsa.merge import merge_fsas

from conftest import compile_ruleset_fsas


class TestLimbsFor:
    def test_limbs_for_boundaries(self):
        assert [limbs_for(n) for n in (0, 1, 63, 64, 65, 128, 129)] == \
               [1, 1, 1, 1, 2, 2, 3]


class TestFsaTables:
    def test_accepts_empty_flag(self):
        assert FsaTables.build(compile_re_to_fsa("a*")).accepts_empty
        assert not FsaTables.build(compile_re_to_fsa("a")).accepts_empty

    def test_finals_frozen(self):
        tables = FsaTables.build(compile_re_to_fsa("ab|c"))
        assert isinstance(tables.finals, frozenset)

    def test_per_symbol_entries_cover_all_transitions(self):
        fsa = compile_re_to_fsa("a[bc]d")
        tables = FsaTables.build(fsa)
        total = sum(len(pairs) for pairs in tables.by_symbol)
        expected = sum(len(t.label) for t in fsa.labelled_transitions())
        assert total == expected


class TestMfsaTables:
    @pytest.fixture
    def tables(self):
        mfsa = merge_fsas(compile_ruleset_fsas(["ab", "a[bc]", "ad"]))
        return MfsaTables.build(mfsa)

    def test_slot_to_rule_dense(self, tables):
        assert sorted(tables.slot_to_rule) == [0, 1, 2]

    def test_empty_matching_rules_listed(self):
        mfsa = merge_fsas(compile_ruleset_fsas(["a*", "b"]))
        tables = MfsaTables.build(mfsa)
        assert tables.empty_matching_rules == [0]
