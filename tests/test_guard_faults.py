"""Fault-injection drills: every armed fault surfaces as a taxonomy
error (never a hang, never a bare traceback), within its deadline.
"""

import time

import pytest

import repro.obs as obs
from repro.engine import counters
from repro.engine.counters import ExecutionStats, RunResult
from repro.engine.imfant import IMfantEngine
from repro.guard import faultinject
from repro.guard.budget import Budget
from repro.guard.compiler import GuardedCompiler
from repro.guard.degrade import MIN_LOOKUPS, GuardedMatcher
from repro.guard.errors import (
    AllocationFailed,
    CompileError,
    ReproError,
    ScanDeadlineExceeded,
)
from repro.guard.faultinject import InjectedFaultError
from repro.pipeline.compiler import CompileOptions, compile_ruleset

pytestmark = pytest.mark.guard


@pytest.fixture(autouse=True)
def clean_faults():
    faultinject.clear()
    yield
    faultinject.clear()


@pytest.fixture
def mfsa():
    return compile_ruleset(["abc", "abd"]).mfsas[0]


class TestCompileFaults:
    def test_rule_fault_is_a_taxonomy_error(self):
        with faultinject.inject("compile.rule", "EVIL"):
            with pytest.raises(InjectedFaultError) as info:
                compile_ruleset(["abc", "EVILx", "abd"])
        assert isinstance(info.value, CompileError)
        assert info.value.rule == 1

    def test_rule_fault_quarantines_exactly_the_victim(self):
        with faultinject.inject("compile.rule", "EVIL"):
            compilation = GuardedCompiler().compile(["abc", "EVILx", "abd"])
        assert compilation.quarantine.rules() == [1]
        assert compilation.surviving_ids == [0, 2]
        assert compilation.quarantine.entry_for(1).error_type == "InjectedFaultError"

    def test_stage_fault_names_the_stage(self):
        with faultinject.inject("compile.stage", "merging"):
            with pytest.raises(InjectedFaultError) as info:
                compile_ruleset(["abc"])
        assert info.value.stage == "merging"

    def test_disarmed_points_cost_nothing(self):
        assert not faultinject.active_points()
        compile_ruleset(["abc"])  # no fault, no error


@pytest.fixture
def check_every_byte(monkeypatch):
    """Check the scan deadline at every position (payloads here are far
    shorter than the production stride)."""
    monkeypatch.setattr(counters, "DEADLINE_STRIDE", 1)


class TestScanFaults:
    def test_step_delay_trips_the_scan_deadline(self, mfsa, check_every_byte):
        engine = IMfantEngine(mfsa, scan_deadline=0.02)
        started = time.perf_counter()
        with faultinject.inject("engine.step_delay", 0.005):
            with pytest.raises(ScanDeadlineExceeded) as info:
                engine.run(b"zzabczz" * 64)
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0  # the deadline bound, not a hang
        error = info.value
        assert isinstance(error, ReproError)
        assert error.limit == 0.02
        partial = error.partial
        assert partial is not None
        assert 0 < partial.stats.chars_processed < 7 * 64
        assert partial.stats.wall_seconds > 0

    def test_partial_result_keeps_matches_found_so_far(self, mfsa, check_every_byte):
        engine = IMfantEngine(mfsa, scan_deadline=0.02)
        payload = b"abc" + b"z" * 1024
        with faultinject.inject("engine.step_delay", 0.005):
            with pytest.raises(ScanDeadlineExceeded) as info:
                engine.run(payload)
        assert (0, 3) in info.value.partial.matches

    def test_matcher_partial_keeps_finished_engines(self, monkeypatch):
        """A deadline in the second automaton still reports the first
        automaton's matches, and the partial speaks original rule ids."""
        mfsas = compile_ruleset(["abc", "xyz"], CompileOptions(merging_factor=1)).mfsas
        assert len(mfsas) == 2
        matcher = GuardedMatcher(mfsas, rule_map=[7, 9])
        timed_out = RunResult(matches={(1, 3)}, stats=ExecutionStats(chars_processed=3))

        def blow_deadline(data, collect_stats=True):
            raise ScanDeadlineExceeded("scan exceeded deadline", partial=timed_out)

        monkeypatch.setattr(matcher._ensure_engines()[1], "run", blow_deadline)
        payload = b"zzabczzxyz"
        with pytest.raises(ScanDeadlineExceeded) as info:
            matcher.run(payload)
        partial = info.value.partial
        assert partial.matches == {(7, 5), (9, 3)}
        assert partial.stats.chars_processed == len(payload) + 3

    def test_no_deadline_means_no_check(self, mfsa):
        # armed delay but no deadline: slow, not fatal (stride gates fire)
        engine = IMfantEngine(mfsa)
        result = engine.run(b"zzabczz")
        assert (0, 5) in result.matches


class TestAllocFaults:
    def test_alloc_fault_becomes_allocation_failed(self, mfsa):
        with faultinject.inject("alloc", "lazy"):
            with pytest.raises(AllocationFailed) as info:
                IMfantEngine(mfsa, backend="lazy")
        assert isinstance(info.value, ReproError)
        assert "lazy" in str(info.value)

    def test_guarded_matcher_degrades_past_the_fault(self, mfsa):
        payload = b"zzabczzabdzz"
        with faultinject.inject("alloc", "lazy"):
            matcher = GuardedMatcher([mfsa], backend="lazy")
            run = matcher.run(payload)
        assert matcher.backend == "python"
        assert [(s.from_backend, s.to_backend) for s in run.degradations] == [
            ("lazy", "python")
        ]
        assert run.degradations[0].reason.startswith("allocation-failure:")
        assert run.matches == IMfantEngine(mfsa).run(payload).matches
        assert (0, 5) in run.matches and (1, 10) in run.matches

    def test_ladder_bottom_propagates(self, mfsa):
        with faultinject.inject("alloc", True):
            with pytest.raises(AllocationFailed):
                GuardedMatcher([mfsa], backend="lazy").run(b"abc")

    def test_policy_can_refuse_to_degrade(self, mfsa):
        with faultinject.inject("alloc", "lazy"):
            with pytest.raises(AllocationFailed):
                GuardedMatcher([mfsa], backend="lazy", degrade=False).run(b"abc")


class TestCachePressureFaults:
    def test_pressure_clamps_the_lazy_cache(self, mfsa):
        with faultinject.inject("lazy.cache_pressure", True):
            engine = IMfantEngine(mfsa, backend="lazy")
        assert engine.lazy_cache.max_entries == 1

    def test_thrash_degrades_the_next_run(self, mfsa):
        payload = b"abcdzzabdzz" * 100
        assert len(payload) >= MIN_LOOKUPS  # long enough to be judged
        with faultinject.inject("lazy.cache_pressure", True):
            matcher = GuardedMatcher([mfsa], backend="lazy")
            first = matcher.run(payload)
        # the thrashing run itself is exact ...
        assert (0, 3) in first.matches
        # ... and the matcher has stepped down for subsequent runs
        assert matcher.backend == "python"
        assert any("cache-thrash" in s.reason for s in matcher.degradations)


class TestEnvActivation:
    def test_repro_faults_env_parses(self):
        armed = faultinject.load_env(
            {"REPRO_FAULTS": "engine.step_delay=0.01, alloc=lazy"}
        )
        assert armed == 2
        assert faultinject.value("engine.step_delay") == 0.01
        assert faultinject.value("alloc") == "lazy"

    def test_unknown_point_is_loud(self):
        with pytest.raises(ValueError):
            faultinject.load_env({"REPRO_FAULTS": "compile.rul=EVIL"})

    def test_empty_env_arms_nothing(self):
        assert faultinject.load_env({}) == 0


class TestGuardCounters:
    def test_counters_visible_on_the_registry(self):
        with obs.capture() as cap:
            with faultinject.inject("compile.rule", "EVIL"):
                GuardedCompiler(budget=Budget(max_loop_copies=256)).compile(
                    ["abc", "EVILx", "x{5000}"]
                )
        names = {inst.name for inst in cap.registry.instruments()}
        assert {"guard_budget_exceeded_total", "guard_quarantined_rules",
                "guard_degradations_total"} <= names
        gauge = next(i for i in cap.registry.instruments()
                     if i.name == "guard_quarantined_rules")
        assert gauge.snapshot()["value"] == 2

    def test_degradations_counted(self, mfsa):
        with obs.capture() as cap:
            with faultinject.inject("alloc", "lazy"):
                GuardedMatcher([mfsa], backend="lazy").run(b"abc")
        counter = next(i for i in cap.registry.instruments()
                       if i.name == "guard_degradations_total")
        assert counter.snapshot()["value"] == 1


@pytest.mark.counting
class TestCountingRegisterPressure:
    """Budget exhaustion / injected pressure during counting-register
    allocation steps the ladder (counting → lazy) instead of crashing."""

    PAYLOAD = b"zz abbbbbc x1234y abc zz" * 8

    @pytest.fixture
    def counting_mfsas(self):
        mfsas = compile_ruleset(
            ["ab{3,9}c", "x[0-9]{4,}y"],
            CompileOptions(counting=True, count_threshold=3, emit_anml=False),
        ).mfsas
        assert any(getattr(m, "counting", ()) for m in mfsas)
        return mfsas

    def _oracle(self, mfsas):
        return GuardedMatcher(mfsas, backend="python").run(self.PAYLOAD).matches

    def test_pressure_becomes_allocation_failed(self, counting_mfsas):
        with faultinject.inject("counting.register_pressure", 1):
            with pytest.raises(AllocationFailed) as info:
                IMfantEngine(counting_mfsas[0], backend="counting")
        assert isinstance(info.value, ReproError)
        assert info.value.stage == "counting.registers"

    def test_matcher_demotes_counting_to_lazy(self, counting_mfsas):
        oracle = self._oracle(counting_mfsas)
        with faultinject.inject("counting.register_pressure", 1):
            matcher = GuardedMatcher(counting_mfsas, backend="counting")
            run = matcher.run(self.PAYLOAD)
        assert matcher.backend == "lazy"
        assert run.matches == oracle
        step = run.degradations[0]
        assert step.from_backend == "counting" and step.to_backend == "lazy"
        assert step.reason.startswith("counting-register-pressure:")

    def test_register_budget_exhaustion_steps_the_ladder(self, counting_mfsas):
        matcher = GuardedMatcher(
            counting_mfsas,
            backend="counting",
            budget=Budget(max_counting_registers=1),
        )
        run = matcher.run(self.PAYLOAD)
        assert matcher.backend == "lazy"
        assert run.matches == self._oracle(counting_mfsas)
        assert run.degradations[0].reason.startswith("counting-register-pressure:")

    def test_policy_can_refuse_to_demote(self, counting_mfsas):
        with faultinject.inject("counting.register_pressure", 1):
            with pytest.raises(AllocationFailed):
                GuardedMatcher(
                    counting_mfsas, backend="counting", degrade=False
                ).run(self.PAYLOAD)

    def test_threshold_above_register_count_is_inert(self, counting_mfsas):
        with faultinject.inject("counting.register_pressure", 99):
            engine = IMfantEngine(counting_mfsas[0], backend="counting")
        run = engine.run(self.PAYLOAD)
        assert run.matches == self._oracle(counting_mfsas)

    def test_shard_pool_demotes_counting_to_lazy(self, counting_mfsas):
        from repro.serve.artifacts import Artifact
        from repro.serve.shards import ShardPool

        artifact = Artifact(
            key="drill", patterns=["ab{3,9}c", "x[0-9]{4,}y"],
            mfsas=list(counting_mfsas), loaded_from_cache=False,
        )
        with faultinject.inject("counting.register_pressure", 1):
            with ShardPool(artifact, backend="counting") as pool:
                result = pool.scan(self.PAYLOAD)
        assert pool.backend == "lazy"
        assert result.matches == self._oracle(counting_mfsas)
        assert pool.degradations[0].reason.startswith("counting-register-pressure:")
