"""Tests for the cost model, the machine model and the schedulers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.optimize import compile_re_to_fsa
from repro.engine.cost import CostModel, throughput
from repro.engine.counters import ExecutionStats
from repro.engine.multithread import (
    MachineModel,
    list_schedule_makespan,
    simulate_parallel_latency,
)


def stats(chars=100, examined=50, active=20) -> ExecutionStats:
    return ExecutionStats(
        chars_processed=chars, transitions_examined=examined, active_pair_total=active
    )


class TestCostModel:
    def test_linear_combination(self):
        model = CostModel(c_char=1, c_trans=2, c_active=3)
        assert model.run_cost(stats()) == 100 + 2 * 50 + 3 * 20

    def test_total_is_sum(self):
        model = CostModel()
        runs = [stats(), stats(chars=10, examined=0, active=0)]
        assert model.total_cost(runs) == pytest.approx(
            model.run_cost(runs[0]) + model.run_cost(runs[1])
        )

    def test_throughput_formula(self):
        # #RE * Dsize / time (§VI-C)
        assert throughput(300, 1_000_000, 2.0) == 150_000_000

    def test_throughput_requires_positive_time(self):
        with pytest.raises(ValueError):
            throughput(1, 1, 0.0)


class TestExecutionStats:
    def test_merge_accumulates(self):
        a, b = stats(), stats(chars=10, examined=5, active=2)
        b.max_state_activation = 9
        b.wall_seconds = 0.5
        a.wall_seconds = 0.5
        a.merge(b)
        assert a.chars_processed == 110
        assert a.transitions_examined == 55
        assert a.max_state_activation == 9
        assert a.wall_seconds == 1.0

    def test_avg_active_pairs(self):
        s = stats(chars=10, active=30)
        assert s.avg_active_pairs == 3.0
        assert ExecutionStats().avg_active_pairs == 0.0


class TestMachineModel:
    def test_capacity_linear_up_to_cores(self):
        machine = MachineModel(physical_cores=4, hardware_threads=8, smt_efficiency=0.3)
        assert machine.capacity(1) == 1
        assert machine.capacity(4) == 4
        assert machine.capacity(6) == pytest.approx(4 + 0.3 * 2)
        assert machine.capacity(8) == pytest.approx(4 + 0.3 * 4)
        assert machine.capacity(100) == machine.capacity(8)
        assert machine.capacity(0) == 0.0


class TestSimulatedLatency:
    def test_single_thread_is_sum(self):
        works = [3.0, 5.0, 2.0]
        assert simulate_parallel_latency(works, 1) == pytest.approx(10.0)

    def test_halves_with_two_threads(self):
        works = [10.0] * 8
        t1 = simulate_parallel_latency(works, 1)
        t2 = simulate_parallel_latency(works, 2)
        assert t2 == pytest.approx(t1 / 2)

    def test_plateau_beyond_hardware_threads(self):
        works = [10.0] * 64
        machine = MachineModel()
        t8 = simulate_parallel_latency(works, 8, machine)
        t128 = simulate_parallel_latency(works, 128, machine)
        assert t128 == pytest.approx(t8, rel=0.05)

    def test_empty_and_errors(self):
        assert simulate_parallel_latency([], 4) == 0.0
        with pytest.raises(ValueError):
            simulate_parallel_latency([1.0], 0)

    def test_monotone_in_threads(self):
        works = [float(w) for w in (9, 3, 7, 1, 5, 5, 2, 8)]
        latencies = [simulate_parallel_latency(works, t) for t in (1, 2, 4, 8)]
        assert latencies == sorted(latencies, reverse=True)

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=20),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_bounds_property(self, works, threads):
        """Latency is between total/capacity and total, and at least the
        largest single work item."""
        machine = MachineModel()
        latency = simulate_parallel_latency(works, threads, machine)
        total = sum(works)
        assert latency <= total + 1e-6
        assert latency >= max(works) - 1e-6
        assert latency >= total / machine.capacity(min(threads, len(works))) - 1e-6


class TestListSchedule:
    def test_fifo_makespan(self):
        # t1: 4 then 1 (ends 5); t2: 3 then 2 (ends 5)
        assert list_schedule_makespan([4, 3, 2, 1], 2) == pytest.approx(5.0)

    def test_single_thread(self):
        assert list_schedule_makespan([1, 2, 3], 1) == 6.0

    def test_errors(self):
        with pytest.raises(ValueError):
            list_schedule_makespan([1.0], 0)


class TestLptSchedule:
    def test_lpt_never_worse_than_fifo_on_examples(self):
        from repro.engine.multithread import lpt_schedule_makespan

        works = [9.0, 1.0, 1.0, 1.0, 8.0, 2.0]
        assert lpt_schedule_makespan(works, 2) <= list_schedule_makespan(works, 2)

    def test_lpt_classic_improvement(self):
        from repro.engine.multithread import lpt_schedule_makespan

        # FIFO: t1=[5,3]=8, t2=[4,4]=8? -> order 5,4,3,4: t1:5+3=8 t2:4+4=8;
        # ruleset order 3,4,4,5: t1:3+4=7 t2:4+5=9 -> 9; LPT: 5,4,4,3 -> 8.
        works = [3.0, 4.0, 4.0, 5.0]
        assert list_schedule_makespan(works, 2) == pytest.approx(9.0)
        assert lpt_schedule_makespan(works, 2) == pytest.approx(8.0)

    @given(st.lists(st.floats(min_value=0.5, max_value=50), min_size=1, max_size=15),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_lpt_bounds_property(self, works, threads):
        from repro.engine.multithread import lpt_schedule_makespan

        lpt = lpt_schedule_makespan(works, threads)
        assert lpt >= max(works) - 1e-9
        assert lpt >= sum(works) / threads - 1e-9
        # list scheduling guarantee: makespan <= avg + pmax <= 2 * LB
        # (Graham's tighter 4/3 bound is relative to OPT, not to LB)
        lower_bound = max(max(works), sum(works) / threads)
        assert lpt <= 2 * lower_bound + 1e-6
