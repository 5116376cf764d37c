"""Unit tests for Thompson construction (AST → ε-NFA)."""

import random
import re

import pytest

from repro.automata.fsa import Fsa
from repro.automata.optimize import compile_re_to_fsa
from repro.automata.simulate import accepts
from repro.automata.thompson import thompson_construct
from repro.frontend.parser import parse


def build(pattern: str) -> Fsa:
    return thompson_construct(parse(pattern), pattern=pattern)


class TestStructure:
    def test_literal_shape(self):
        fsa = build("a")
        assert fsa.num_states == 2
        assert fsa.num_transitions == 1
        assert not fsa.has_epsilon()

    def test_single_initial_single_final(self):
        for pattern in ("a", "ab", "a|b", "a*", "(ab){2,4}"):
            fsa = build(pattern)
            assert len(fsa.finals) == 1

    def test_concat_uses_epsilon_glue(self):
        fsa = build("ab")
        assert sum(1 for t in fsa.transitions if t.is_epsilon()) == 1

    def test_pattern_recorded(self):
        assert build("ab").pattern == "ab"

    def test_validates(self):
        build("(a|b)*c{2,3}").validate()


class TestLanguage:
    @pytest.mark.parametrize("pattern,inside,outside", [
        ("a", ["a"], ["", "b", "aa"]),
        ("ab", ["ab"], ["a", "b", "ba"]),
        ("a|b", ["a", "b"], ["", "ab"]),
        ("a*", ["", "a", "aaaa"], ["b"]),
        ("a+", ["a", "aa"], [""]),
        ("a?", ["", "a"], ["aa"]),
        ("a{3}", ["aaa"], ["aa", "aaaa"]),
        ("a{2,}", ["aa", "aaaaa"], ["a"]),
        ("a{1,3}", ["a", "aa", "aaa"], ["", "aaaa"]),
        ("a{0,2}", ["", "a", "aa"], ["aaa"]),
        ("(ab|cd)+", ["ab", "abcd", "cdab"], ["", "ac"]),
        ("[a-c]x", ["ax", "bx", "cx"], ["dx", "x"]),
        ("(a|)b", ["ab", "b"], ["a"]),
        ("a{0}", [""], ["a"]),
    ])
    def test_membership(self, pattern, inside, outside):
        fsa = build(pattern)
        for s in inside:
            assert accepts(fsa, s), (pattern, s)
        for s in outside:
            assert not accepts(fsa, s), (pattern, s)

    def test_empty_pattern_accepts_only_empty(self):
        fsa = build("")
        assert accepts(fsa, "")
        assert not accepts(fsa, "a")

    def test_nested_stars(self):
        fsa = build("((a*)*)*")
        assert accepts(fsa, "")
        assert accepts(fsa, "aaa")

    def test_bounded_after_unbounded(self):
        fsa = build("(a{2,})?b")
        assert accepts(fsa, "b")
        assert accepts(fsa, "aab")
        assert not accepts(fsa, "ab")


class TestGeneralBounds:
    """Bounded repeats the loop expansion leaves compressed (over its
    256-copy budget) build as nested optional layers."""

    @pytest.mark.parametrize("pattern,arcs,body,low,high", [
        ("(ab|c){1,300}", 900, ["ab", "c"], 1, 300),
        ("a(bc){2,400}d", 1200, ["bc"], 2, 400),
        ("(xy){0,300}", 600, ["xy"], 0, 300),
    ], ids=["(ab|c){1,300}", "a(bc){2,400}d", "(xy){0,300}"])
    def test_arcs_linear_in_the_bound(self, pattern, arcs, body, low, high):
        """Each optional layer skips straight to the end, so the
        ε-removal adds no arc per later layer (a flat chain of ``x?``
        layers gives ``(xy){0,300}`` 45,450 arcs); the language is
        ``re``'s, checked on runs of the body around both bounds."""
        fsa = compile_re_to_fsa(pattern)
        assert fsa.num_transitions == arcs
        prefix, suffix = ("a", "d") if pattern.startswith("a(") else ("", "")
        rng = random.Random(pattern)
        for count in (0, 1, low - 1, low, low + 1, high - 1, high, high + 1):
            if count < 0:
                continue
            text = prefix + "".join(rng.choice(body) for _ in range(count)) + suffix
            assert accepts(fsa, text) == bool(re.fullmatch(pattern, text)), count

class TestBadInput:
    def test_unknown_node_type(self):
        with pytest.raises(TypeError):
            thompson_construct("not an ast")  # type: ignore[arg-type]
