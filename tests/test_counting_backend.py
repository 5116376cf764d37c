"""Differential oracle suite for the counting-automata engine backend.

``backend="counting"`` carries bounded ``{m,n}`` repeats as counter
registers on the merged automaton instead of expanded state chains.  The
loop-expanded pipeline over the *same* patterns is an independent oracle
— every property here pins the two against each other:

* byte-identical ``(rule, end)`` match sets on hypothesis-random
  rulesets full of bounded (and unbounded ``{m,}``) repeats, merged in
  sequential or similarity-clustered groups;
* agreement across every backend running the same counting compile (the
  counting backend drives the registers, the others the ``expand()``
  bridge);
* cut-point invariance: chunked scans at arbitrary chunk sizes equal
  the sequential scan;
* mid-scan deadlines surface sound partial results, never corruption;
* ``single_match`` = first (min-end) match per rule;
* the cached scan loop: a lazy cache that flushes on every miss changes
  nothing, the work counters of a fixed scan stay pinned, and a compile
  with no registers left scans on the lazy loop with python's counters;
* exact JSON round trips of counting automata;
* the headline capability: a ``[^\\n]{1000}``-style repeat compiles
  under a state budget that makes the expansion pipeline refuse, with
  byte-identical matches to the (unbudgeted) expanded oracle.

See docs/testing.md for the conformance-oracle pattern.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.engine.chunkscan import chunk_scan, mfsa_max_width
from repro.engine.imfant import IMfantEngine
from repro.guard import faultinject
from repro.guard.budget import Budget
from repro.guard.errors import BudgetExceeded, ScanDeadlineExceeded
from repro.mfsa import serialize
from repro.pipeline.compiler import CompileOptions, compile_ruleset

pytestmark = pytest.mark.counting

BACKENDS = ("python", "lazy", "dense", "counting")

#: Text alphabet covering every atom the pattern strategy can emit.
TEXT_ALPHABET = "abxy012 \n"

SUFFIXES = st.sampled_from(["", "y", "ba", "[01]"])


@st.composite
def counted_parts(draw) -> tuple:
    """(prefix, repeat, suffix) of one pattern built around a bounded or
    unbounded repeat.  Some bounds pass 64: over ``[^x]``, which most
    text runs match, the register's field spans several int digits of
    the packed word; over ``(xy)``, which does not count, the counting
    compile expands the repeat as the plain pipeline does."""
    wide = draw(st.integers(min_value=0, max_value=3)) == 0
    if wide:
        atom = draw(st.sampled_from(["[^x]", "(xy)"]))
    else:
        atom = draw(st.sampled_from(["a", "b", "[ab]", "[^x]", "[0-9]", "(xy)"]))
    low = draw(st.integers(min_value=0, max_value=70 if wide else 4))
    unbounded = low >= 1 and draw(st.booleans())
    if unbounded:
        bound = f"{{{low},}}"
    else:
        high = draw(st.integers(min_value=max(low, 1), max_value=80 if wide else 12))
        bound = f"{{{low}}}" if low == high else f"{{{low},{high}}}"
    prefix = draw(st.sampled_from(["", "x", "ab", "y?"]))
    return prefix, atom + bound, draw(SUFFIXES)


@st.composite
def rulesets(draw) -> list:
    """One to four counted patterns; some rulesets add a sibling that
    shares a pattern's prefix and repeat, so the merged register carries
    several rules."""
    parts = draw(st.lists(counted_parts(), min_size=1, max_size=4))
    if draw(st.booleans()):
        prefix, repeat, _ = draw(st.sampled_from(parts))
        parts.append((prefix, repeat, draw(SUFFIXES)))
    return ["".join(part) for part in parts]


#: Fixed cases the packed register word must get right whatever
#: hypothesis draws: counts that run on past an unbounded bound after a
#: prefix (the sticky bit) and fields wider than one int digit ...
WIDE_CASE = {
    "patterns": ["xb{3,}y", "ab[^x]{65,}", "x[0-9]{2,70}1"],
    "text": "xbbbbby ab" + "c" * 70 + " x" + "2" * 68 + "1",
}
#: ... and one register carrying three rules, whose entries carry
#: subsets of them.
SHARED_CASE = {
    "patterns": ["a[0-9]{2,5}b", "a[0-9]{2,5}c", "[ab][0-9]{2,5}c"],
    "text": "a12b b123c a1234c ba99c a123456b b12c aa123c",
}
#: Wide repeats of a two-symbol body, which expand, beside counted
#: ones: the counting compile must expand them as the plain pipeline
#: does, linear in the bound, or their arcs square and merging crawls.
EXPANDED_CASE = {
    "patterns": ["x[ab]{63,}[01]", "x(xy){70,}[01]", "(xy){0,70}", "ab[^x]{0,12}ba"],
    "text": "x" + "ab" * 35 + "1 x" + "xy" * 72 + "0 " + "xy" * 80 + " ab" + "c" * 9 + "ba",
}


def texts(max_size: int = 120):
    """Random text mixed with the patterns' prefixes and with runs of
    one character, some long enough for bounds past 64, so that counts
    start after a prefix and run on past their bounds."""
    length = st.integers(min_value=1, max_value=12) | st.integers(min_value=60, max_value=90)
    run = st.builds(str.__mul__, st.sampled_from([*TEXT_ALPHABET, "xy"]), length)
    piece = st.text(alphabet=TEXT_ALPHABET, max_size=12) | st.sampled_from(["x", "ab"]) | run
    return st.lists(piece, max_size=12).map(lambda parts: "".join(parts)[:max_size])


def _compile_counting(patterns, threshold: int = 2):
    return compile_ruleset(
        patterns,
        CompileOptions(counting=True, count_threshold=threshold, emit_anml=False),
    ).mfsas


def _compile_expanded(patterns):
    return compile_ruleset(patterns, CompileOptions(emit_anml=False)).mfsas


def _counters(stats) -> dict:
    """Every ExecutionStats field but the wall-clock one."""
    counters = stats.as_dict()
    counters.pop("wall_seconds")
    return counters


def _matches(mfsas, payload, backend: str = "python", **kwargs) -> set:
    out: set = set()
    for mfsa in mfsas:
        engine = IMfantEngine(mfsa, backend=backend, **kwargs)
        out |= engine.run(payload, collect_stats=False).matches
    return out


# ---------------------------------------------------------------------------
# The core differential property
# ---------------------------------------------------------------------------


@given(patterns=rulesets(), text=texts())
@example(**WIDE_CASE)
@example(**SHARED_CASE)
@example(**EXPANDED_CASE)
@settings(max_examples=60, deadline=None)
def test_counting_equals_expanded_oracle(patterns, text):
    """Counting backend == loop-expanded pipeline, byte for byte."""
    counting = _compile_counting(patterns)
    expanded = _compile_expanded(patterns)
    assert _matches(counting, text, "counting") == _matches(expanded, text)


@given(patterns=rulesets(), text=texts())
@example(**SHARED_CASE)
@settings(max_examples=20, deadline=None)
def test_clustered_grouping_equals_expanded_oracle(patterns, text):
    """Counting compiles merge through the plain grouping dispatch, so
    similarity-clustered groups of two run as sequential groups do."""
    counting = compile_ruleset(
        patterns,
        CompileOptions(counting=True, count_threshold=2, merging_factor=2,
                       grouping="clustered", emit_anml=False),
    ).mfsas
    assert _matches(counting, text, "counting") == _matches(_compile_expanded(patterns), text)


@given(patterns=rulesets(), text=texts(max_size=80))
@settings(max_examples=25, deadline=None)
def test_every_backend_agrees_on_counting_compile(patterns, text):
    """All four backends agree over the same counting compile: the
    counting backend runs the registers, the rest the expand() bridge."""
    counting = _compile_counting(patterns)
    reference = _matches(counting, text, "python")
    for backend in BACKENDS[1:]:
        assert _matches(counting, text, backend) == reference, backend


@given(
    patterns=rulesets(),
    text=texts(max_size=200),
    chunk_size=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=25, deadline=None)
def test_cut_point_invariance(patterns, text, chunk_size):
    """Chunked scans at arbitrary cut points equal the sequential scan —
    bounded counting rulesets via overlap chunking, unbounded ones via
    the automatic sequential fallback."""
    counting = _compile_counting(patterns)
    for mfsa in counting:
        sequential = IMfantEngine(mfsa, backend="counting").run(
            text, collect_stats=False
        ).matches
        chunked = chunk_scan(mfsa, text, backend="counting", chunk_size=chunk_size)
        assert chunked == sequential


@given(patterns=rulesets(), text=texts())
@settings(max_examples=25, deadline=None)
def test_single_match_is_first_match(patterns, text):
    counting = _compile_counting(patterns)
    full = _matches(counting, text, "counting")
    first = _matches(counting, text, "counting", single_match=True)
    expected: dict = {}
    for rule, end in full:
        if rule not in expected or end < expected[rule]:
            expected[rule] = end
    assert first == {(rule, end) for rule, end in expected.items()}


@given(patterns=rulesets())
@settings(max_examples=25, deadline=None)
def test_serialize_round_trip(patterns):
    """Counting automata survive the JSON cache format exactly."""
    for mfsa in _compile_counting(patterns):
        restored = serialize.loads(serialize.dumps(mfsa))
        assert type(restored) is type(mfsa)
        assert restored.num_states == mfsa.num_states
        assert restored.initials == mfsa.initials
        assert restored.finals == mfsa.finals
        if not hasattr(mfsa, "counting"):
            continue
        assert sorted(map(repr, restored.counting)) == sorted(map(repr, mfsa.counting))
        assert sorted(map(repr, restored.plain)) == sorted(map(repr, mfsa.plain))


# ---------------------------------------------------------------------------
# The cached scan loop
# ---------------------------------------------------------------------------


@given(
    patterns=rulesets(),
    text=texts(),
    cache_size=st.sampled_from([1, 4, 32]),
)
@example(**WIDE_CASE, cache_size=1)
@example(**SHARED_CASE, cache_size=4)
@settings(max_examples=40, deadline=None)
def test_flushing_cache_equals_expanded_oracle(patterns, text, cache_size):
    """A tiny lazy cache flushes mid-scan and renumbers the configs (a
    one-entry cache on every miss); the registers must still read the
    pre-step frontier and no merge may outlive its config ids."""
    expanded = _matches(_compile_expanded(patterns), text)
    counting = _compile_counting(patterns)
    with faultinject.inject("lazy.cache_pressure", cache_size):
        assert _matches(counting, text, "counting") == expanded


def test_counters_golden():
    """The work counters of one fixed counting scan stay pinned: every
    register is charged on every byte, and live register entries count
    as active pairs."""
    patterns = ["ab{3,9}c", "x[0-9]{2,}y", "[ab]{4}z", "[0-9]{3,5}-[0-9]{2,4}"]
    (mfsa,) = _compile_counting(patterns)
    assert len(mfsa.counting) == 5
    payload = b"zabbbbc x12y ababz 123-4567 abbbbbbbbbbc x1234567y 99999-999 " * 4
    stats = IMfantEngine(mfsa, backend="counting").run(payload).stats
    assert _counters(stats) == {
        "chars_processed": 244,
        "transitions_examined": 1276,
        "transitions_taken": 224,
        "active_pair_total": 828,
        "max_state_activation": 1,
        "match_count": 36,
        "mask_limbs": 1,
    }


def test_shared_register_counters_golden():
    """One register carries three rules: an entry counts once as a live
    entry, however many of the register's rules it carries."""
    (mfsa,) = _compile_counting(SHARED_CASE["patterns"])
    assert [len(arc.bel) for arc in mfsa.counting] == [3]
    payload = b"a12b b123c a1234c ba99c a123456b b12c aa123c " * 4
    stats = IMfantEngine(mfsa, backend="counting").run(payload).stats
    assert _counters(stats) == {
        "chars_processed": 180,
        "transitions_examined": 288,
        "transitions_taken": 148,
        "active_pair_total": 356,
        "max_state_activation": 3,
        "match_count": 36,
        "mask_limbs": 1,
    }


def test_register_free_compile_runs_the_lazy_loop():
    """Nothing clears the threshold: counting scans on the lazy cache,
    with the python backend's matches and counters."""
    (mfsa,) = _compile_counting(["ab{2,3}c", "xy"], threshold=64)
    payload = b"zabbcxyz abbbc xy" * 8
    engine = IMfantEngine(mfsa, backend="counting")
    assert engine.lazy_cache is not None
    engine.run(payload)
    hits = engine.lazy_cache.stats.hits
    result = engine.run(payload)
    assert engine.lazy_cache.stats.hits > hits
    oracle = IMfantEngine(mfsa, backend="python").run(payload)
    assert result.matches == oracle.matches
    assert _counters(result.stats) == _counters(oracle.stats)


# ---------------------------------------------------------------------------
# Deadlines and partial results
# ---------------------------------------------------------------------------


def test_mid_scan_deadline_yields_sound_partial(monkeypatch):
    from repro.engine import counters

    mfsas = _compile_counting(["ab{3,9}c", "x[0-9]{2,}y"], threshold=2)
    payload = b"zabbbbc x12y " * 256
    full = _matches(mfsas, payload, "counting")
    # check the deadline at every byte (the payload is under one stride)
    monkeypatch.setattr(counters, "DEADLINE_STRIDE", 1)
    engine = IMfantEngine(mfsas[0], backend="counting", scan_deadline=0.02)
    with faultinject.inject("engine.step_delay", 0.005):
        with pytest.raises(ScanDeadlineExceeded) as info:
            engine.run(payload)
    partial = info.value.partial
    assert partial is not None
    assert 0 < partial.stats.chars_processed < len(payload)
    assert partial.matches <= full  # sound under-approximation


# ---------------------------------------------------------------------------
# The headline capability (ISSUE acceptance criterion)
# ---------------------------------------------------------------------------


def test_large_bound_compiles_where_expansion_refuses():
    """``[^\\n]{1000}`` blows a 512-state budget when expanded but fits
    in a handful of states as a counter register — with byte-identical
    matches to the unbudgeted expanded oracle."""
    patterns = ["begin[^\n]{1000}end", "abc"]
    budget = Budget(max_states=512)
    with pytest.raises(BudgetExceeded):
        compile_ruleset(patterns, CompileOptions(emit_anml=False, budget=budget))
    counting = compile_ruleset(
        patterns,
        CompileOptions(emit_anml=False, counting=True, budget=budget),
    ).mfsas
    assert any(getattr(m, "counting", ()) for m in counting)
    assert sum(m.num_states for m in counting) <= 512

    body = bytes((33 + i % 90) for i in range(1000))  # printable, no \n
    payload = b"xxabc" + b"begin" + body + b"end" + b"abc"
    oracle = _matches(_compile_expanded(patterns), payload)
    assert _matches(counting, payload, "counting") == oracle
    assert any(rule == 0 for rule, _ in oracle)  # the repeat really fires


def test_below_threshold_drops_to_plain():
    """Repeats under the threshold expand as before — the compile
    returns plain MFSAs and the counting backend degenerates to the
    lazy scan."""
    patterns = ["ab{2,3}c", "xy"]
    mfsas = _compile_counting(patterns, threshold=64)
    assert all(not getattr(m, "counting", ()) for m in mfsas)
    payload = "zabbcxyz"
    assert _matches(mfsas, payload, "counting") == _matches(
        _compile_expanded(patterns), payload
    )


def test_unbounded_width_is_none_bounded_is_finite():
    bounded = _compile_counting(["ab{2,9}c"], threshold=2)[0]
    unbounded = _compile_counting(["ab{2,}c"], threshold=2)[0]
    assert mfsa_max_width(bounded) is not None
    assert mfsa_max_width(unbounded) is None


def test_counting_metrics_emitted():
    mfsas = _compile_counting(["ab{3,9}c"], threshold=3)
    with obs.capture() as cap:
        _matches(mfsas, b"zabbbbc" * 16, "counting")
    names = {inst.name for inst in cap.registry.instruments()}
    assert {
        "imfant_counting_registers",
        "imfant_counting_entries_total",
        "imfant_counting_live_entries_peak",
    } <= names
    gauge = cap.registry.get("imfant_counting_registers")
    assert gauge.snapshot()["value"] >= 1


def test_live_entries_peak_without_stats():
    """The peak is tracked from the running live-entry total on every
    byte, not only when per-byte stats are collected."""
    mfsas = _compile_counting(["ab{3,9}c"], threshold=3)
    with obs.capture() as cap:
        for mfsa in mfsas:
            IMfantEngine(mfsa, backend="counting").run(
                b"zabbbbc" * 16, collect_stats=False
            )
    peak = cap.registry.get("imfant_counting_live_entries_peak")
    assert peak.snapshot()["value"] >= 1
