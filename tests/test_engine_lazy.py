"""Tests for the lazy-DFA configuration-cache backend (backend="lazy").

The lazy backend must be *observationally identical* to the python
backend — match sets, work counters, single-match early exit — while
only its cache behaviour (hits/misses/flushes) differs with the cache
budget.  Property tests drive random rulesets and payloads through both,
including ε-accepting rules, ``pop_on_final``, and caches small enough
to flush mid-stream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.engine.chunkscan import chunk_scan
from repro.engine.imfant import IMfantEngine
from repro.engine.lazy import LazyConfigCache
from repro.engine.tables import MfsaTables
from repro.guard import faultinject
from repro.mfsa.activation import ActivationConfig, reference_match
from repro.mfsa.merge import merge_fsas
from repro.pipeline.compiler import CompileOptions, compile_ruleset

from conftest import compile_ruleset_fsas, ere_patterns, input_strings


def build(patterns):
    return merge_fsas(compile_ruleset_fsas(patterns))


def small_cache_engine(mfsa, entries, **kwargs):
    """A lazy engine whose cache is clamped to ``entries`` through the
    ``lazy.cache_pressure`` fault point (the cache size is not a knob)."""
    with faultinject.inject("lazy.cache_pressure", entries):
        return IMfantEngine(mfsa, backend="lazy", **kwargs)


STATS_FIELDS = (
    "chars_processed",
    "transitions_examined",
    "transitions_taken",
    "active_pair_total",
    "max_state_activation",
    "match_count",
    "mask_limbs",
)


def assert_stats_equal(a, b):
    for field in STATS_FIELDS:
        assert getattr(a, field) == getattr(b, field), field


class TestLazyBackend:
    def test_matches_reference(self):
        mfsa = build(["(ad|cb)ab", "a(b|c)"])
        engine = IMfantEngine(mfsa, backend="lazy")
        assert engine.run("acbab").matches == reference_match(mfsa, "acbab")

    def test_stats_agree_with_python(self):
        mfsa = build(["abc", "a[bc]d", "xy"])
        text = "abcxydabcd" * 3
        py = IMfantEngine(mfsa, backend="python").run(text)
        lazy = IMfantEngine(mfsa, backend="lazy").run(text)
        assert py.matches == lazy.matches
        assert_stats_equal(py.stats, lazy.stats)

    def test_empty_matching_rules(self):
        mfsa = build(["a*", "b"])
        got = IMfantEngine(mfsa, backend="lazy").run("b").matches
        assert got == {(0, 0), (0, 1), (1, 1)}

    def test_pop_on_final(self):
        mfsa = build(["ab+"])
        engine = IMfantEngine(mfsa, backend="lazy", pop_on_final=True)
        expected = reference_match(mfsa, "abbb", ActivationConfig(pop_on_final=True))
        assert engine.run("abbb").matches == expected

    def test_single_match_early_exit(self):
        mfsa = build(["ab"])
        engine = IMfantEngine(mfsa, backend="lazy", single_match=True)
        result = engine.run("ab" + "z" * 1000)
        assert result.matches == {(0, 2)}
        assert result.stats.chars_processed == 2

    def test_multi_limb_rules(self):
        patterns = [f"x{chr(97 + i % 26)}{chr(97 + (i // 26) % 26)}y" for i in range(70)]
        mfsa = build(patterns)
        text = "xaay xbay xzzy"
        assert IMfantEngine(mfsa, backend="lazy").run(text).matches == reference_match(mfsa, text)

    def test_invalid_cache_config(self):
        mfsa = build(["a"])
        with pytest.raises(ValueError):
            LazyConfigCache(MfsaTables.build(mfsa), max_entries=0)


class TestCacheBehaviour:
    def test_warm_cache_hits(self):
        mfsa = build(["abc", "bc+d"])
        engine = IMfantEngine(mfsa, backend="lazy")
        text = "abcdbcd" * 20
        engine.run(text)
        cold = engine.lazy_cache.stats
        assert cold.misses > 0
        misses_after_first = cold.misses
        engine.run(text)
        # steady state: the second pass re-walks only cached transitions
        assert engine.lazy_cache.stats.misses == misses_after_first
        assert engine.lazy_cache.stats.hits >= len(text)

    def test_cache_persists_across_runs(self):
        mfsa = build(["ab"])
        engine = IMfantEngine(mfsa, backend="lazy")
        engine.run("abab")
        configs = engine.lazy_cache.num_configs
        engine.run("abab")
        assert engine.lazy_cache.num_configs == configs

    def test_flush_eviction_bounds_cache(self):
        mfsa = build(["abc", "a[bc]d", "[a-d]+x"])
        engine = small_cache_engine(mfsa, 4)
        text = "abcdxadbcax" * 40
        result = engine.run(text)
        cache = engine.lazy_cache
        assert result.matches == IMfantEngine(mfsa).run(text).matches
        assert cache.stats.flushes > 0
        assert len(cache.transitions) <= 4
        assert cache.num_configs <= 4 + 2

    def test_cache_roundtrip_helpers(self):
        mfsa = build(["ab"])
        cache = LazyConfigCache(MfsaTables.build(mfsa))
        frontier = {3: 1, 1: 1}
        ident = cache.config_id_of(frontier)
        assert cache.frontier_of(ident) == frontier
        assert cache.config_id_of({}) == 0


class TestObsIntegration:
    def test_counters_exported(self):
        mfsa = build(["abc", "bcd"])
        engine = small_cache_engine(mfsa, 4)
        text = "abcdbcax" * 30
        with obs.capture() as cap:
            engine.run(text)
        reg = cap.registry
        hits = reg.get("imfant_lazy_cache_hits_total")
        misses = reg.get("imfant_lazy_cache_misses_total")
        flushes = reg.get("imfant_lazy_cache_flushes_total")
        configs = reg.get("imfant_lazy_distinct_configs")
        assert hits is not None and misses is not None
        assert hits.value + misses.value == len(text)
        assert flushes is not None and flushes.value >= 0
        assert configs is not None and configs.value == engine.lazy_cache.num_configs

    def test_sampler_histograms_agree_with_python(self):
        mfsa = build(["abc", "a[bc]d"])
        text = "abcadbcabcd" * 40
        with obs.capture(stride=8) as py_cap:
            IMfantEngine(mfsa, backend="python").run(text)
        with obs.capture(stride=8) as lazy_cap:
            IMfantEngine(mfsa, backend="lazy").run(text)
        for name in ("imfant_active_set_size", "imfant_frontier_width",
                     "imfant_transitions_per_byte"):
            py_hist = py_cap.registry.get(name)
            lazy_hist = lazy_cap.registry.get(name)
            assert py_hist.snapshot()["counts"] == lazy_hist.snapshot()["counts"], name


class TestPlumbing:
    def test_chunkscan_lazy(self):
        patterns = ["abc", "a[bc]d"]
        mfsa = build(patterns)
        data = "abcadxbcabcd" * 200
        expected = IMfantEngine(mfsa).run(data).matches
        with faultinject.inject("lazy.cache_pressure", 64):
            got = chunk_scan(mfsa, data, chunk_size=256, backend="lazy")
        assert got == expected

    def test_hybrid_lazy(self):
        """A mixed counting compile on the lazy backend (through the
        expand() bridge) matches the counting backend's registers."""
        patterns = ["abc", "x[^\\n]{40,60}y"]
        data = "abc" + "x" + "q" * 50 + "y" + "abc"
        options = CompileOptions(counting=True, count_threshold=32, emit_anml=False)
        for mfsa in compile_ruleset(patterns, options).mfsas:
            base = IMfantEngine(mfsa, backend="counting").run(data).matches
            lazy = small_cache_engine(mfsa, 128)
            assert lazy.run(data).matches == base


# ---------------------------------------------------------------------------
# Property tests (satellite: lazy/python equivalence under stress)
# ---------------------------------------------------------------------------


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lazy_agreement_property(data):
    """Random rulesets/payloads: lazy == python on matches and counters,
    for every cache size (including ones that flush mid-stream)."""
    patterns = data.draw(st.lists(ere_patterns(), min_size=1, max_size=4))
    text = data.draw(input_strings())
    pop = data.draw(st.booleans())
    cache_size = data.draw(st.sampled_from([1, 2, 8, 4096]))
    mfsa = build(patterns)
    py = IMfantEngine(mfsa, backend="python", pop_on_final=pop).run(text)
    lazy = small_cache_engine(mfsa, cache_size, pop_on_final=pop).run(text)
    assert py.matches == reference_match(
        mfsa, text, ActivationConfig(pop_on_final=pop))
    assert lazy.matches == py.matches
    assert_stats_equal(py.stats, lazy.stats)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_lazy_epsilon_rules_property(data):
    """Rulesets guaranteed to contain an ε-accepting rule (star of a
    pattern) still agree under cache pressure."""
    patterns = data.draw(st.lists(ere_patterns(), min_size=1, max_size=3))
    starred = data.draw(st.integers(min_value=0, max_value=len(patterns) - 1))
    patterns[starred] = f"({patterns[starred]})*"
    text = data.draw(input_strings())
    mfsa = build(patterns)
    py = IMfantEngine(mfsa, backend="python").run(text)
    lazy = small_cache_engine(mfsa, 2).run(text)
    assert lazy.matches == py.matches
    assert_stats_equal(py.stats, lazy.stats)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_lazy_single_match_property(data):
    """single_match: identical first-match sets and consumed-byte counts."""
    patterns = data.draw(st.lists(ere_patterns(), min_size=1, max_size=4))
    text = data.draw(input_strings())
    mfsa = build(patterns)
    py = IMfantEngine(mfsa, backend="python", single_match=True).run(text)
    lazy = small_cache_engine(mfsa, 4, single_match=True).run(text)
    assert lazy.matches == py.matches
    assert lazy.stats.chars_processed == py.stats.chars_processed


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_lazy_warm_cache_stays_correct_property(data):
    """Re-running different payloads through one warm engine never
    corrupts results (the cache carries state across runs)."""
    patterns = data.draw(st.lists(ere_patterns(), min_size=1, max_size=3))
    texts = data.draw(st.lists(input_strings(), min_size=2, max_size=4))
    mfsa = build(patterns)
    engine = small_cache_engine(mfsa, 8)
    for text in texts:
        expected = IMfantEngine(mfsa, backend="python").run(text)
        got = engine.run(text)
        assert got.matches == expected.matches
        assert_stats_equal(expected.stats, got.stats)
