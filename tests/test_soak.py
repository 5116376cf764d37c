"""Env-scalable soak tests: the widest invariants at configurable depth.

By default these add a light extra pass over the heaviest cross-system
properties; set ``REPRO_SOAK_EXAMPLES=2000`` (or higher) to turn them
into a long-running confidence sweep before a release.

Determinism: the conftest seeds :mod:`random` before every test and
``REPRO_TEST_DETERMINISTIC=1`` loads a derandomized hypothesis profile,
so a soak failure replays exactly (docs/testing.md)."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.optimize import OptimizeOptions, compile_re_to_fsa
from repro.automata.simulate import accepts, find_match_ends
from repro.engine.imfant import IMfantEngine
from repro.mfsa.merge import merge_fsas
from repro.mfsa.model import validate_projections

from conftest import SOAK_EXAMPLES, compile_ruleset_fsas, ere_patterns, input_strings

WIDE_ALPHABET = "abcdwxyz09"


@given(ere_patterns(alphabet=WIDE_ALPHABET, max_depth=4),
       st.text(alphabet=WIDE_ALPHABET, max_size=40))
@settings(max_examples=SOAK_EXAMPLES, deadline=None)
def test_soak_construction_vs_re(pattern, subject):
    """Deeper patterns, wider alphabet, longer subjects than the CI runs."""
    for options in (OptimizeOptions(), OptimizeOptions(construction="glushkov")):
        fsa = compile_re_to_fsa(pattern, options)
        assert accepts(fsa, subject) == bool(
            re.compile(f"(?:{pattern})\\Z").match(subject)
        )


@given(st.data())
@settings(max_examples=SOAK_EXAMPLES, deadline=None)
def test_soak_merge_and_execute(data):
    """Bigger rulesets than the CI property tests use."""
    patterns = data.draw(st.lists(ere_patterns(max_depth=3), min_size=3, max_size=8))
    subject = data.draw(input_strings(max_size=40))
    fsas = compile_ruleset_fsas(patterns)
    mfsa = merge_fsas(fsas)
    validate_projections(mfsa, dict(fsas))
    expected = set()
    for rule, fsa in fsas:
        expected |= {(rule, e) for e in find_match_ends(fsa, subject)}
    for backend in ("python", "lazy"):
        assert IMfantEngine(mfsa, backend=backend).run(subject).matches == expected
