"""Tests for the DOT export."""

from repro.automata.optimize import compile_re_to_fsa
from repro.automata.thompson import thompson_construct
from repro.dfa import determinize
from repro.frontend.parser import parse
from repro.mfsa.merge import merge_fsas
from repro.viz import dfa_to_dot, fsa_to_dot, mfsa_to_dot

from conftest import compile_ruleset_fsas


class TestFsaDot:
    def test_structure(self):
        fsa = compile_re_to_fsa("a(b|c)")
        dot = fsa_to_dot(fsa, name="demo")
        assert dot.startswith('digraph "demo"')
        assert dot.count("->") == fsa.num_transitions + 1  # + start arrow
        assert "doublecircle" in dot

    def test_epsilon_arcs_dashed(self):
        nfa = thompson_construct(parse("a|b"))
        dot = fsa_to_dot(nfa)
        assert "style=dashed" in dot
        assert "ε" in dot

    def test_escaping(self):
        fsa = compile_re_to_fsa('\\"')
        assert '\\"' in fsa_to_dot(fsa)


class TestMfsaDot:
    def test_belonging_labels_and_colors(self):
        mfsa = merge_fsas(compile_ruleset_fsas(["abc", "abd"]))
        dot = mfsa_to_dot(mfsa)
        assert "{0,1}" in dot  # shared arcs carry both rule ids
        assert "#17becf" in dot  # shared colour
        assert "penwidth=2.0" in dot

    def test_initial_and_final_marks(self):
        mfsa = merge_fsas(compile_ruleset_fsas(["ab"]))
        dot = mfsa_to_dot(mfsa)
        assert "▸0" in dot
        assert "✓0" in dot

    def test_edge_count(self):
        mfsa = merge_fsas(compile_ruleset_fsas(["ab", "cd"]))
        dot = mfsa_to_dot(mfsa)
        assert dot.count("->") == mfsa.num_transitions


class TestDfaDot:
    def test_condensed_edges(self):
        dfa = determinize(compile_ruleset_fsas(["[ab]c"]))
        dot = dfa_to_dot(dfa)
        # the [ab] pair is condensed into one labelled edge per state pair
        assert 'digraph "dfa"' in dot
        assert "✓0" in dot

    def test_long_labels_truncated(self):
        dfa = determinize(compile_ruleset_fsas(["x"]))
        dot = dfa_to_dot(dfa, max_label_chars=5)
        for line in dot.splitlines():
            if 'label="' in line and "->" in line:
                label = line.split('label="')[1].split('"')[0]
                assert len(label) <= 6


class TestCountingMfsaDot:
    def test_counting_arcs_dashed_with_bounds(self):
        from repro.counting import build_counting_fsa
        from repro.mfsa.merge import merge_fsas
        from repro.viz import counting_mfsa_to_dot

        z = merge_fsas([
            (0, build_counting_fsa("x[ab]{5}y")),
            (1, build_counting_fsa("x[ab]{5}z")),
        ])
        dot = counting_mfsa_to_dot(z)
        assert "style=dashed" in dot
        assert "{5,5}" in dot
        assert "{0,1}" in dot  # the shared counter's belongings
