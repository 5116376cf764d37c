"""Pinned regressions: bugs found and fixed during development.

Each test reproduces a specific defect's trigger so the fix cannot
silently regress.  The docstrings record the original failure mode.
"""

from repro.automata.optimize import compile_re_to_fsa
from repro.automata.simulate import find_match_ends
from repro.anml import read_anml, write_anml
from repro.mfsa.activation import reference_match
from repro.mfsa.merge import merge_fsas

from conftest import compile_ruleset_fsas, mfsa_equal


class TestMergerSelfLoopBinding:
    """The consistent-mapping pass originally checked each of a tuple's
    two bindings against the committed map but not against *each other*:
    a self-loop on one side matched to a plain arc on the other corrupted
    injectivity and broke per-rule projection isomorphism."""

    def test_selfloop_vs_plain_arc(self):
        # (a)* has a self-loop; 'aa' a plain 2-state chain over the same
        # label — the walk pairs them and must not collapse the chain.
        patterns = ["(a)*b", "aab"]
        fsas = compile_ruleset_fsas(patterns)
        mfsa = merge_fsas(fsas)
        from repro.mfsa.model import validate_projections

        validate_projections(mfsa, dict(fsas))
        text = "aab ab b aaab"
        expected = set()
        for rule, fsa in fsas:
            expected |= {(rule, e) for e in find_match_ends(fsa, text)}
        assert reference_match(mfsa, text) == expected


class TestAnmlStartArcLoss:
    """The first ANML reader lost arcs whose source state had no incoming
    arcs: pure initial states have no STE split, so their out-arcs only
    existed as start marks.  <start-on-input> extension records fixed it."""

    def test_initial_only_source_arcs_roundtrip(self):
        # rule 0's initial has no incoming arc; its out-arc is shared
        mfsa = merge_fsas(compile_ruleset_fsas(["ba", "bc"]))
        assert mfsa_equal(mfsa, read_anml(write_anml(mfsa)))

    def test_star_heavy_pattern_roundtrip(self):
        # the original trigger shape: nested stars + tiny alternations
        mfsa = merge_fsas(compile_ruleset_fsas(["(((b)*)*)*", "d", "((c)*|a)"]))
        assert mfsa_equal(mfsa, read_anml(write_anml(mfsa)))


class TestMapAstSmartConstructors:
    """map_ast originally rebuilt nodes with raw constructors, so a
    Repeat expanded to Empty stayed embedded in a Concat: a{0}b failed to
    normalise to b."""

    def test_zero_repeat_normalises(self):
        from repro.automata.loops import expand_loops
        from repro.frontend.parser import parse

        assert expand_loops(parse("a{0}b")) == parse("b")

    def test_all_empty_concat(self):
        from repro.automata.loops import expand_loops
        from repro.frontend.ast import Empty
        from repro.frontend.parser import parse

        assert expand_loops(parse("a{0}b{0}")) == Empty()


class TestDfaOffsetZeroMatches:
    """The DFA engines originally missed offset-0 matches of ε-accepting
    rules (their final sits inside the seed subset, reported only after
    consuming a byte)."""

    def test_epsilon_rule_matches_at_zero(self):
        from repro.dfa import DfaEngine, determinize

        dfa = determinize(compile_ruleset_fsas(["a*"]))
        assert (0, 0) in DfaEngine(dfa).run(b"").matches


class TestRequiredLiteralRuns:
    """required_literals originally returned single characters for
    concatenations (parse flattening makes each char its own part), so
    foo.*barbar produced factor 'f' instead of 'barbar'."""

    def test_long_factor_extracted(self):
        from repro.frontend.analysis import required_literals
        from repro.frontend.parser import parse

        req = required_literals(parse("foo.*barbar"))
        assert "barbar" in req.literals

    def test_optional_prefix_not_diluting(self):
        from repro.frontend.analysis import required_literals
        from repro.frontend.parser import parse

        assert required_literals(parse("(abc)?x")).literals == frozenset({"x"})


class TestMultiplicityNeedsSuffixMerge:
    """Thompson + ε-removal alone never yields parallel arcs between one
    state pair; without the suffix state merge the multiplicity pass was
    a no-op and the Fig. 5b [kh] fusion never happened."""

    def test_kh_fusion_happens_in_pipeline(self):
        from repro.labels import CharClass

        fsa = compile_re_to_fsa("(k|h)bc")
        labels = {t.label.mask for t in fsa.transitions}
        assert CharClass.from_chars("kh").mask in labels
