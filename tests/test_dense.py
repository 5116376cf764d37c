"""Dense compiled-DFA tier tests (repro.engine.dense).

Covers the full promotion ladder: byte-class compression edge cases,
promotion gates (warm-and-stable only), mid-buffer de-opt parity with
the interpretive oracle, cache-flush invalidation, budget/allocation
failure stepping the guard ladder back to lazy, the SFA bulk kernel,
and self-loop run skipping.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _demo_stream
from repro.engine.dense import DEFAULT_PROMOTE_AFTER, DenseTier
from repro.engine.imfant import IMfantEngine
from repro.engine.lazy import LazyConfigCache
from repro.engine.tables import MfsaTables, byte_classes
from repro.guard import faultinject
from repro.guard.budget import Budget, BudgetMeter
from repro.guard.errors import AllocationFailed, MemoryBudgetExceeded
from repro.pipeline.compiler import CompileOptions, compile_ruleset

pytestmark = pytest.mark.dense


def _compile_one(patterns):
    result = compile_ruleset(list(patterns), CompileOptions(emit_anml=False))
    assert len(result.mfsas) == 1
    return result.mfsas[0]


def _python_matches(mfsa, payload: bytes) -> set:
    return IMfantEngine(mfsa, backend="python").run(payload).matches


def _promoted_engine(mfsa, warmup: bytes, **kwargs) -> IMfantEngine:
    """A dense engine with the tier force-compiled from a warm cache."""
    engine = IMfantEngine(mfsa, backend="dense", **kwargs)
    engine.run(warmup, collect_stats=False)
    assert engine.promote_dense(force=True)
    assert engine.dense_tier is not None
    return engine


# ---------------------------------------------------------------------------
# Byte-class compression edge cases (engine/tables.py)
# ---------------------------------------------------------------------------


class TestByteClassesEdgeCases:
    def test_all_bytes_distinct_gives_256_classes(self):
        bc = byte_classes([[("t", byte)] for byte in range(256)])
        assert bc.num_classes == 256
        # class ids are assigned by first appearance → identity here
        assert list(bc.translate) == list(range(256))
        assert bc.representatives == tuple(range(256))

    def test_single_live_byte_gives_two_classes(self):
        by_symbol: list[list] = [[] for _ in range(256)]
        by_symbol[65] = [("edge",)]
        bc = byte_classes(by_symbol)
        assert bc.num_classes == 2
        assert bc.translate[65] == 1
        assert all(bc.translate[b] == 0 for b in range(256) if b != 65)
        # the representative of a class is its smallest member
        assert bc.representatives == (0, 65)

    def test_uniform_alphabet_collapses_to_one_class(self):
        shared = [("only",)]
        bc = byte_classes([shared for _ in range(256)])
        assert bc.num_classes == 1
        assert bc.representatives == (0,)
        assert set(bc.translate) == {0}

    def test_translate_drives_bytes_translate(self):
        by_symbol: list[list] = [[] for _ in range(256)]
        by_symbol[ord("a")] = [("a",)]
        by_symbol[ord("b")] = [("b",)]
        bc = byte_classes(by_symbol)
        classes = b"aXb".translate(bc.translate)
        assert classes[0] == bc.translate[ord("a")]
        assert classes[1] == 0
        assert classes[2] == bc.translate[ord("b")]

    def test_mfsa_tables_byte_classes_consistent(self):
        mfsa = _compile_one(["ab|cd"])
        tables = MfsaTables.build(mfsa)
        bc = tables.byte_classes()
        # bytes in one class must enable identical transition lists
        for byte in range(256):
            rep = bc.representatives[bc.translate[byte]]
            assert tables.by_symbol[byte] == tables.by_symbol[rep]


class TestLimbBoundaryRulesets:
    """>64 rules → multi-limb activation masks through the dense path."""

    @pytest.mark.parametrize("num_rules", [65, 70])
    def test_dense_matches_python_past_one_limb(self, num_rules):
        from repro.engine.tables import limbs_for

        patterns = [f"t{i:03d}" for i in range(num_rules)]
        mfsa = _compile_one(patterns)
        assert limbs_for(num_rules) >= 2  # masks straddle the uint64 word
        payload = b"xx".join(
            f"t{i:03d}".encode() for i in range(0, num_rules, 7)
        ) + b" t064 t000 junk"
        expect = _python_matches(mfsa, payload)
        engine = _promoted_engine(mfsa, payload)
        assert engine.run(payload).matches == expect


# ---------------------------------------------------------------------------
# Promotion gates
# ---------------------------------------------------------------------------


class TestPromotionGates:
    def test_cold_engine_does_not_promote(self):
        engine = IMfantEngine(_compile_one(["abc"]), backend="dense")
        engine.run(b"xxabcxx")
        assert engine.dense_tier is None  # far below promote_after

    def test_auto_promotion_after_warm_stable_runs(self):
        engine = IMfantEngine(_compile_one(["ab"]), backend="dense")
        payload = b"xab" * 22000
        assert len(payload) > DEFAULT_PROMOTE_AFTER
        engine.run(payload, collect_stats=False)
        # one run is enough: past the threshold at a near-perfect hit rate
        assert engine.dense_tier is not None
        assert engine.run(payload).matches == _python_matches(
            _compile_one(["ab"]), payload
        )

    def test_gate_rejects_cold_cache_without_force(self):
        engine = IMfantEngine(_compile_one(["ab"]), backend="dense")
        engine.run(b"a")  # hit rate ~0: everything is a miss
        assert not engine.promote_dense()
        assert engine.dense_tier is None

    def test_force_promotion_skips_gates(self):
        engine = IMfantEngine(_compile_one(["ab"]), backend="dense")
        engine.run(b"a")
        assert engine.promote_dense(force=True)
        assert engine.dense_tier is not None and engine.dense_tier.valid()


# ---------------------------------------------------------------------------
# De-opt parity and flush invalidation
# ---------------------------------------------------------------------------

DEOPT_PATTERNS = ("GET /[a-z]+", "qwzjv", "ab*c")


class TestDeoptParity:
    def test_mid_buffer_deopt_agrees_with_python(self):
        mfsa = _compile_one(DEOPT_PATTERNS)
        # warm only on a prefix: the suffix visits configs the compiled
        # region has never seen, forcing mid-buffer de-opts
        payload = _demo_stream(list(DEOPT_PATTERNS), 4096, seed=11)
        engine = _promoted_engine(mfsa, payload[:16])
        run = engine.run(payload)
        assert run.matches == _python_matches(mfsa, payload)
        assert engine._deopt_since_build > 0  # the de-opt path really ran

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_deopt_cut_points_property(self, data):
        """Promote at an arbitrary hypothesis-drawn warm-up cut: matches
        must stay byte-identical wherever the compiled region ends."""
        mfsa = _compile_one(DEOPT_PATTERNS)
        payload = _demo_stream(list(DEOPT_PATTERNS), 1024, seed=13)
        cut = data.draw(st.integers(min_value=0, max_value=len(payload)))
        engine = IMfantEngine(mfsa, backend="dense")
        if cut:
            engine.run(payload[:cut], collect_stats=False)
        engine.promote_dense(force=True)
        assert engine.run(payload).matches == _python_matches(mfsa, payload)

    def test_flush_invalidation_recovers(self):
        """A mid-scan cache flush renumbers config ids: the tier must
        invalidate and the scan re-answer lazily — same matches."""
        mfsa = _compile_one(DEOPT_PATTERNS)
        payload = _demo_stream(list(DEOPT_PATTERNS), 4096, seed=17)
        with faultinject.inject("lazy.cache_pressure", 16):
            engine = IMfantEngine(mfsa, backend="dense")
        engine.run(payload[:64], collect_stats=False)
        engine.promote_dense(force=True)
        flushes_before = engine.lazy_cache.stats.flushes
        run = engine.run(payload)
        assert run.matches == _python_matches(mfsa, payload)
        assert engine.lazy_cache.stats.flushes > flushes_before
        tier = engine.dense_tier
        assert tier is None or tier.valid()  # stale tiers never survive


# ---------------------------------------------------------------------------
# Budget / allocation failure → guard ladder
# ---------------------------------------------------------------------------


@pytest.mark.guard
class TestDenseGuard:
    def test_meter_charges_table_before_allocation(self):
        engine = IMfantEngine(_compile_one(["ab"]), backend="dense")
        engine.run(b"ab" * 64)
        meter = BudgetMeter(Budget(max_memory_bytes=1))
        with pytest.raises(MemoryBudgetExceeded):
            DenseTier.build(engine.lazy_cache, meter=meter)

    def test_budgeted_promotion_disables_not_crashes(self):
        engine = IMfantEngine(
            _compile_one(["ab"]),
            backend="dense",
            budget=Budget(max_memory_bytes=1),
        )
        payload = b"ab" * 200
        engine.run(payload, collect_stats=False)
        engine._last_lazy_hit_rate = 1.0  # pass the warmth gate
        assert not engine.promote_dense()
        assert engine.dense_disabled
        assert engine.run(payload).matches == _python_matches(
            _compile_one(["ab"]), payload
        )

    def test_injected_alloc_failure_steps_ladder_to_lazy(self):
        from repro.guard.degrade import GuardedMatcher

        patterns = ["ab"]
        mfsas = [_compile_one(patterns)]
        matcher = GuardedMatcher(mfsas, backend="dense")
        matcher._ensure_engines()  # construct before arming the fault
        payload = b"xab" * 22000  # past DEFAULT_PROMOTE_AFTER: auto-promotes
        with faultinject.inject("alloc", "dense"):
            first = matcher.run(payload)  # auto-promotion fails inside
        assert first.backend == "dense"  # the failing run still answered
        assert first.matches == _python_matches(mfsas[0], payload)
        assert matcher.backend == "lazy"
        assert any(
            step.reason.startswith("dense-promotion-failed")
            for step in matcher.degradations
        )
        second = matcher.run(payload)
        assert second.backend == "lazy"
        assert second.matches == first.matches


# ---------------------------------------------------------------------------
# SFA bulk kernel
# ---------------------------------------------------------------------------


@pytest.mark.sfa
class TestSfaBulkKernel:
    @pytest.mark.parametrize("name", ["tokens_exact", "dotstar_rules"])
    def test_bulk_mapping_equals_interpretive(self, name):
        from repro.datasets import load_builtin
        from repro.engine.sfa import SfaScanner

        patterns = list(load_builtin(name).patterns)
        mfsa = _compile_one(patterns)
        payload = _demo_stream(patterns, 3072, seed=5)
        interp = SfaScanner(mfsa).scan_chunk(payload, collect_stats=True)
        bulk_scanner = SfaScanner(mfsa)
        cold = bulk_scanner.scan_chunk(payload, collect_stats=False)
        warm = bulk_scanner.scan_chunk(payload, collect_stats=False)
        assert cold.mapping == interp.mapping
        assert warm.mapping == interp.mapping

    def test_bulk_disabled_on_alloc_failure_falls_back(self):
        from repro.engine.sfa import SfaScanner

        mfsa = _compile_one(["ab", "cd"])
        payload = b"xxabxxcdxx" * 20
        scanner = SfaScanner(mfsa)
        expect = SfaScanner(mfsa).scan_chunk(payload, collect_stats=True).mapping
        with faultinject.inject("alloc", "dense"):
            got = scanner.scan_chunk(payload, collect_stats=False)
        assert got.mapping == expect
        assert scanner._bulk_disabled  # interpretive fallback from now on
        again = scanner.scan_chunk(payload, collect_stats=False)
        assert again.mapping == expect


# ---------------------------------------------------------------------------
# Knobs: run skipping, promotion threshold
# ---------------------------------------------------------------------------


class TestDenseKnobs:
    def test_block_search_skips_self_loop_runs(self):
        mfsa = _compile_one(["needle"])
        noise = b"x" * 2048
        payload = noise + b"needle" + noise
        engine = IMfantEngine(mfsa, backend="dense")
        engine.run(payload, collect_stats=False)
        engine.promote_dense(force=True)
        outcome = engine.dense_tier.scan(payload, start_config=0)
        assert outcome.consumed == len(payload)
        assert outcome.skipped_bytes > 0

    def test_default_promote_after_is_sane(self):
        assert DEFAULT_PROMOTE_AFTER >= 4096  # promotion is for warm engines
