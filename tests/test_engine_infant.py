"""Tests for the baseline iNFAnt engine."""

import pytest
from hypothesis import given, settings

from repro.automata.optimize import compile_re_to_fsa
from repro.automata.simulate import find_match_ends
from repro.engine.infant import INfantEngine
from repro.engine.tables import FsaTables

from conftest import ere_patterns, input_strings


class TestTables:
    def test_symbol_index_shape(self):
        tables = FsaTables.build(compile_re_to_fsa("a[bc]"))
        assert len(tables.by_symbol) == 256
        assert len(tables.by_symbol[ord("a")]) == 1
        assert len(tables.by_symbol[ord("b")]) == 1
        assert len(tables.by_symbol[ord("c")]) == 1
        assert tables.by_symbol[ord("z")] == []

    def test_cc_transition_fans_out(self):
        tables = FsaTables.build(compile_re_to_fsa("[a-d]"))
        pair_sets = [tables.by_symbol[ord(c)] for c in "abcd"]
        assert all(p == pair_sets[0] for p in pair_sets)

    def test_rejects_epsilon(self):
        from repro.automata.thompson import thompson_construct
        from repro.frontend.parser import parse

        with pytest.raises(ValueError):
            FsaTables.build(thompson_construct(parse("ab")))


class TestEngine:
    def test_matches_reference(self):
        fsa = compile_re_to_fsa("ab+c")
        engine = INfantEngine(fsa, rule_id=3)
        result = engine.run("zabbbcab")
        assert result.matches == {(3, e) for e in find_match_ends(fsa, "zabbbcab")}

    def test_rule_id_tagging(self):
        engine = INfantEngine(compile_re_to_fsa("a"), rule_id=42)
        assert engine.run("a").matches == {(42, 1)}

    def test_restart_every_offset(self):
        engine = INfantEngine(compile_re_to_fsa("ab"))
        assert engine.run("abab").matches == {(0, 2), (0, 4)}

    def test_empty_stream(self):
        result = INfantEngine(compile_re_to_fsa("a")).run(b"")
        assert result.matches == set()
        assert result.stats.chars_processed == 0

    def test_empty_matching_rule(self):
        result = INfantEngine(compile_re_to_fsa("a*")).run("bb")
        assert result.matches == {(0, 0), (0, 1), (0, 2)}

    def test_bytes_input(self):
        engine = INfantEngine(compile_re_to_fsa("\\x00\\x01"))
        assert engine.run(bytes([0, 1])).matches == {(0, 2)}

    def test_stats_counters(self):
        fsa = compile_re_to_fsa("ab")
        stats = INfantEngine(fsa).run("aab").stats
        assert stats.chars_processed == 3
        # 'a' arc examined twice, 'b' arc once
        assert stats.transitions_examined == 3
        assert stats.active_pair_total >= 2
        assert stats.wall_seconds is not None

    def test_stats_disabled(self):
        stats = INfantEngine(compile_re_to_fsa("ab")).run("aab", collect_stats=False).stats
        assert stats.transitions_examined == 0
        assert stats.chars_processed == 3


@given(pattern=ere_patterns(), text=input_strings())
@settings(max_examples=100, deadline=None)
def test_agrees_with_reference_property(pattern, text):
    fsa = compile_re_to_fsa(pattern)
    engine = INfantEngine(fsa, rule_id=0)
    assert engine.run(text).matches == {(0, e) for e in find_match_ends(fsa, text)}
