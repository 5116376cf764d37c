"""Grand differential property test: every execution path, one oracle.

For a random ruleset and stream, the following must all report the exact
same ``(rule, end)`` set:

1. per-rule reference NFA simulation (itself validated against `re`);
2. iNFAnt per rule;
3. iMFAnt over the merged MFSA (every backend), at several M;
4. the activation-function reference executor;
5. the streaming chunked matcher;
6. the ANML write→read→execute path;
7. the decomposition prefilter engine;
8. the DFA pipeline (subset construction → minimise → D2FA), when it
   fits the state budget;
9. the counting compile (every repeat as a counter register) on the
   counting backend.

One failing engine pinpoints itself via the labelled assertion.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anml import read_anml, write_anml
from repro.automata.optimize import compile_re_to_fsa
from repro.automata.simulate import find_match_ends
from repro.decompose.engine import PrefilterEngine
from repro.dfa import (
    D2faEngine,
    DfaEngine,
    DfaExplosionError,
    compress_default_transitions,
    determinize,
    minimize,
)
from repro.engine.imfant import IMfantEngine
from repro.engine.infant import INfantEngine
from repro.engine.streaming import StreamingMatcher
from repro.mfsa.activation import reference_match
from repro.mfsa.merge import merge_fsas, merge_ruleset
from repro.pipeline.compiler import CompileOptions, compile_ruleset

from conftest import ere_patterns, input_strings


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_all_engines_agree(data):
    patterns = data.draw(st.lists(ere_patterns(), min_size=1, max_size=4))
    text = data.draw(input_strings())
    fsas = [(i, compile_re_to_fsa(p)) for i, p in enumerate(patterns)]

    oracle = set()
    for rule_id, fsa in fsas:
        oracle |= {(rule_id, e) for e in find_match_ends(fsa, text)}

    # 2. iNFAnt per rule
    got = set()
    for rule_id, fsa in fsas:
        got |= INfantEngine(fsa, rule_id).run(text).matches
    assert got == oracle, "iNFAnt"

    # 3. iMFAnt at several merging factors (all four backends; lazy
    #    exercising its config-cache memoization, dense running cold —
    #    i.e. through the same lazy path under the dense driver — and
    #    counting on plain MFSAs, where zero registers mean the lazy loop)
    for m in (1, 2, 0):
        mfsas = merge_ruleset(fsas, m)
        for backend in ("python", "lazy", "dense", "counting"):
            got = set()
            for mfsa in mfsas:
                got |= IMfantEngine(mfsa, backend=backend).run(text).matches
            assert got == oracle, f"iMFAnt[{backend}] M={m}"

    # 3b. dense with its tier force-promoted at a hypothesis-drawn
    #     warm-up cut: wherever the compiled region ends, the scan must
    #     de-opt mid-buffer and still agree with the oracle
    cut = data.draw(st.integers(min_value=0, max_value=len(text)))
    got = set()
    for mfsa in merge_ruleset(fsas, 0):
        engine = IMfantEngine(mfsa, backend="dense")
        if cut:
            engine.run(text[:cut], collect_stats=False)
        engine.promote_dense(force=True)
        got |= engine.run(text).matches
    assert got == oracle, f"iMFAnt[dense promoted] cut={cut}"

    merged = merge_fsas(fsas)

    # 4. activation reference
    assert reference_match(merged, text) == oracle, "activation reference"

    # 5. streaming matcher, chunked at a prime stride
    matcher = StreamingMatcher(merged)
    for start in range(0, max(1, len(text)), 3):
        matcher.feed(text[start : start + 3])
    assert matcher.matches == oracle, "streaming"

    # 6. ANML round trip
    recovered = read_anml(write_anml(merged))
    assert IMfantEngine(recovered).run(text).matches == oracle, "ANML round-trip"

    # 7. decomposition prefilter
    prefilter_matches, _ = PrefilterEngine(patterns).run(text)
    assert prefilter_matches == oracle, "prefilter"

    # 8. DFA pipeline
    try:
        dfa = determinize(fsas, max_states=2000)
    except DfaExplosionError:
        dfa = None
    if dfa is not None:
        assert DfaEngine(dfa).run(text).matches == oracle, "DFA"
        small = minimize(dfa)
        assert DfaEngine(small).run(text).matches == oracle, "minDFA"
        d2fa = compress_default_transitions(small)
        assert D2faEngine(d2fa).run(text).matches == oracle, "D2FA"

    # 9. counting compile (counting enabled for any bound) on the
    #    counting backend
    counting = compile_ruleset(
        patterns, CompileOptions(counting=True, count_threshold=2, emit_anml=False)
    )
    got = set()
    for mfsa in counting.mfsas:
        got |= IMfantEngine(mfsa, backend="counting").run(text).matches
    assert got == oracle, "counting"
