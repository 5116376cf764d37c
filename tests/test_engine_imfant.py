"""Tests for the iMFAnt engine (python and lazy backends)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.optimize import compile_re_to_fsa
from repro.engine.imfant import IMfantEngine
from repro.engine.infant import INfantEngine
from repro.engine.tables import MfsaTables, limbs_for
from repro.mfsa.activation import ActivationConfig, reference_match
from repro.mfsa.merge import merge_fsas

from conftest import compile_ruleset_fsas, ere_patterns, input_strings


def build(patterns):
    return merge_fsas(compile_ruleset_fsas(patterns))


class TestTables:
    def test_limbs_for(self):
        assert limbs_for(1) == 1
        assert limbs_for(64) == 1
        assert limbs_for(65) == 2
        assert limbs_for(300) == 5

    def test_build_masks(self):
        mfsa = build(["ab", "ac"])
        tables = MfsaTables.build(mfsa)
        assert tables.num_rules == 2
        assert sum(1 for m in tables.init_mask if m) == 1  # shared initial
        assert sum(1 for m in tables.final_mask if m) == 2


class TestBackends:
    @pytest.mark.parametrize("backend", ["python", "lazy"])
    def test_matches_reference(self, backend):
        mfsa = build(["(ad|cb)ab", "a(b|c)"])
        engine = IMfantEngine(mfsa, backend=backend)
        assert engine.run("acbab").matches == reference_match(mfsa, "acbab")

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            IMfantEngine(build(["a"]), backend="cuda")

    @pytest.mark.parametrize("backend", ["python", "lazy"])
    def test_empty_matching_rules(self, backend):
        mfsa = build(["a*", "b"])
        got = IMfantEngine(mfsa, backend=backend).run("b").matches
        assert got == {(0, 0), (0, 1), (1, 1)}

    @pytest.mark.parametrize("backend", ["python", "lazy"])
    def test_dead_symbol_discards_paths(self, backend):
        mfsa = build(["ab"])
        engine = IMfantEngine(mfsa, backend=backend)
        assert engine.run("azb").matches == set()

    def test_backends_agree_on_counters(self):
        mfsa = build(["abc", "a[bc]d", "xy"])
        text = "abcxydabcd"
        py = IMfantEngine(mfsa, backend="python").run(text).stats
        lazy = IMfantEngine(mfsa, backend="lazy").run(text).stats
        assert py.transitions_examined == lazy.transitions_examined
        assert py.transitions_taken == lazy.transitions_taken
        assert py.active_pair_total == lazy.active_pair_total
        assert py.max_state_activation == lazy.max_state_activation

    def test_multi_limb_rules(self):
        """More than 64 rules: activation masks wider than one word."""
        patterns = [f"x{chr(97 + i % 26)}{chr(97 + (i // 26) % 26)}y" for i in range(70)]
        mfsa = build(patterns)
        text = "xaay xbay xzzy"
        expected = reference_match(mfsa, text)
        assert IMfantEngine(mfsa, backend="lazy").run(text).matches == expected
        assert IMfantEngine(mfsa, backend="python").run(text).matches == expected

    @pytest.mark.parametrize("backend", ["python", "lazy"])
    def test_pop_on_final(self, backend):
        mfsa = build(["ab+"])
        engine = IMfantEngine(mfsa, backend=backend, pop_on_final=True)
        expected = reference_match(mfsa, "abbb", ActivationConfig(pop_on_final=True))
        assert engine.run("abbb").matches == expected


class TestAgainstInfant:
    def test_m1_equals_infant(self):
        """A single-rule MFSA under iMFAnt equals iNFAnt on the raw FSA."""
        fsa = compile_re_to_fsa("a(b|c)+d")
        mfsa = merge_fsas([(7, fsa)])
        text = "zabcbd" * 3
        assert IMfantEngine(mfsa).run(text).matches == INfantEngine(fsa, 7).run(text).matches


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_backend_agreement_property(data):
    patterns = data.draw(st.lists(ere_patterns(), min_size=1, max_size=4))
    text = data.draw(input_strings())
    mfsa = build(patterns)
    expected = reference_match(mfsa, text)
    py = IMfantEngine(mfsa, backend="python").run(text)
    lazy = IMfantEngine(mfsa, backend="lazy").run(text)
    assert py.matches == expected
    assert lazy.matches == expected
    assert py.stats.active_pair_total == lazy.stats.active_pair_total


class TestSingleMatch:
    @pytest.mark.parametrize("backend", ["python", "lazy"])
    def test_first_match_per_rule_only(self, backend):
        mfsa = build(["ab", "cd"])
        engine = IMfantEngine(mfsa, backend=backend, single_match=True)
        got = engine.run("ababcdcd").matches
        assert got == {(0, 2), (1, 6)}

    @pytest.mark.parametrize("backend", ["python", "lazy"])
    def test_early_exit_stops_scanning(self, backend):
        mfsa = build(["ab"])
        engine = IMfantEngine(mfsa, backend=backend, single_match=True)
        stream = "ab" + "z" * 1000
        stats = engine.run(stream).stats
        assert stats.chars_processed == 2

    @pytest.mark.parametrize("backend", ["python", "lazy"])
    def test_no_early_exit_until_all_rules_fire(self, backend):
        mfsa = build(["ab", "zz"])
        engine = IMfantEngine(mfsa, backend=backend, single_match=True)
        stream = "ab" + "y" * 50 + "zz" + "y" * 50
        result = engine.run(stream)
        assert result.matches == {(0, 2), (1, 54)}
        assert result.stats.chars_processed == 54

    @pytest.mark.parametrize("backend", ["python", "lazy"])
    def test_empty_rule_counts_as_matched(self, backend):
        mfsa = build(["a*", "b"])
        engine = IMfantEngine(mfsa, backend=backend, single_match=True)
        result = engine.run("bzzzz")
        assert (1, 1) in result.matches
        assert result.stats.chars_processed == 1  # early exit after b

    def test_default_mode_unchanged(self):
        mfsa = build(["a+"])
        assert IMfantEngine(mfsa).run("aaa").matches == {(0, 1), (0, 2), (0, 3)}

    def test_backends_agree_on_single_match_stats(self):
        """Every backend early-exits like the python one and reports
        the bytes actually consumed; work counters agree position for
        position (taken is counted in-step, examined post-exit)."""
        mfsa = build(["abc", "a[bc]d", "xy"])
        text = "abcxyzacd" + "z" * 200 + "xy"
        results = {
            backend: IMfantEngine(mfsa, backend=backend, single_match=True).run(text)
            for backend in ("python", "lazy", "dense", "counting")
        }
        py = results["python"]
        assert py.stats.chars_processed < len(text)  # exit actually fired
        for backend in ("lazy", "dense", "counting"):
            other = results[backend]
            assert other.matches == py.matches, backend
            assert other.stats.chars_processed == py.stats.chars_processed, backend
            assert other.stats.transitions_examined == py.stats.transitions_examined, backend
            assert other.stats.transitions_taken == py.stats.transitions_taken, backend
            assert other.stats.active_pair_total == py.stats.active_pair_total, backend

    def test_dead_symbol_early_exit(self):
        """All rules ε-accepting: every backend consumes exactly one byte
        even when that byte enables no transitions."""
        mfsa = build(["a*", "b*"])
        for backend in ("python", "lazy", "dense", "counting"):
            stats = IMfantEngine(mfsa, backend=backend, single_match=True).run("zzzz").stats
            assert stats.chars_processed == 1, backend
