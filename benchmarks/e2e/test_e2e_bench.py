"""Unit tests of the end-to-end benchmark's own logic (no server needed).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from measure import Span, Tally  # noqa: E402


# -- tail percentiles --------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(99, None), (100, 0.9), (999, 0.9), (1000, 0.99), (5000, 0.99)],
)
def test_tail_needs_ten_samples_beyond(n, expected):
    assert measure.tail_quantile(n) == expected


def test_supported_tail_has_ten_larger_samples():
    values = list(range(1, 101))  # 100 distinct samples
    p90 = measure.percentile(values, 0.9)
    assert p90 == 90
    assert sum(v > p90 for v in values) == measure.samples_beyond(100, 0.9) == 10
    assert not measure.supported(100, 0.99)


def test_percentile_is_nearest_rank_and_order_free():
    assert measure.percentile([5.0, 1.0, 3.0], 0.5) == 3.0
    assert measure.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


# -- failure accounting ------------------------------------------------------


def test_every_failure_kind_counts_against_attempted():
    tally = Tally()
    assert tally.record("ok", True)
    assert not tally.record("partial")
    assert not tally.record("rejected")
    assert not tally.record("error")
    assert not tally.record(None)  # no answer in time
    assert not tally.record("ok", False, "payload 3: 2 differing matches")
    assert tally.attempted == 6
    assert (tally.partial, tally.rejected, tally.errors, tally.timeouts, tally.wrong) == (
        1, 1, 1, 1, 1)
    assert tally.failed == 5
    assert tally.failed_ratio == pytest.approx(5 / 6)
    assert tally.examples == ["payload 3: 2 differing matches"]


def test_tallies_merge():
    a, b = Tally(), Tally()
    a.record("ok", True)
    b.record("ok", False, "x")
    b.record("rejected")
    a.merge(b)
    assert (a.attempted, a.failed, a.wrong, a.examples) == (3, 2, 1, ["x"])
    assert Tally().failed_ratio == 0.0


# -- open-loop lateness ------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.slept.append(seconds)
        self.now += seconds


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    clock = FakeClock()
    service = iter([2.5, 0.1, 0.1, 0.1])

    def send():
        clock.now += next(service)
        return True

    samples = measure.open_loop([0.0, 1.0, 2.0, 3.0], send, clock, clock.sleep)
    # the first request stalls 2.5 s: the next two are sent late, at once
    assert [s.sent for s in samples] == pytest.approx([0.0, 2.5, 2.6, 3.0])
    assert [s.late for s in samples] == pytest.approx([0.0, 1.5, 0.6, 0.0])
    # latency counts from the slot, so the backlog shows in it
    assert [s.latency for s in samples] == pytest.approx([2.5, 1.6, 0.7, 0.1])
    assert clock.slept == pytest.approx([0.3])  # never sent early


def test_reload_gate_sends_one_write_per_batch_of_reads():
    gate = measure.ReloadGate(2)
    writes = []
    wrote = threading.Semaphore(0)

    def send():
        writes.append(time.perf_counter())
        wrote.release()
        return True

    samples = []
    writer = threading.Thread(target=lambda: samples.extend(measure.gated(gate, send)))
    writer.start()
    try:
        gate.tick()
        assert not wrote.acquire(timeout=0.2)  # one read is not enough
        gate.tick()
        assert wrote.acquire(timeout=5)
        # reads that land before the first write's reply is counted are
        # dropped, so keep reading until the next write goes out
        ticks = 0
        while not wrote.acquire(timeout=0.05):
            gate.tick()
            ticks += 1
            assert ticks < 100
        assert ticks >= 2
    finally:
        gate.close()
        writer.join(timeout=5)
    assert not writer.is_alive()
    assert len(samples) == len(writes) == 2
    assert all(s.ok for s in samples)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_same_thread_children():
    spans = [
        Span("parent", 1, 0.0, 10.0),
        Span("child", 1, 2.0, 5.0),
        Span("grandchild", 1, 3.0, 4.0),
        Span("child", 1, 6.0, 7.0),
        Span("elsewhere", 2, 1.0, 9.0),  # other thread, not handed off
    ]
    selfs = measure.self_times(spans, {})
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(8.0)


def test_self_time_takes_worker_spans_by_containment_and_union():
    spans = [
        Span("shards.scan", 1, 0.0, 10.0),
        Span("engine.run", 2, 1.0, 6.0),   # two shards in parallel:
        Span("engine.run", 3, 2.0, 8.0),   # their union [1, 8] is covered
        Span("protocol.decode_body", 4, 3.0, 3.5),  # not a hand-off
    ]
    selfs = measure.self_times(spans, {"shards.scan": ("engine.run",)})
    assert selfs[0] == pytest.approx(10.0 - 7.0)


def test_cross_thread_child_goes_to_the_latest_containing_scan():
    spans = [
        Span("shards.scan", 1, 0.0, 10.0),
        Span("shards.scan", 4, 5.0, 20.0),
        Span("engine.run", 2, 6.0, 9.0),   # inside both: the later scan owns it
        Span("engine.run", 2, 1.0, 2.0),   # inside the first only
        Span("engine.run", 1, 3.0, 4.0),   # same thread: a nested call
    ]
    selfs = measure.self_times(spans, {"shards.scan": ("engine.run",)})
    assert selfs[0] == pytest.approx(10.0 - 1.0 - 1.0)
    assert selfs[1] == pytest.approx(15.0 - 3.0)


def test_covered_merges_overlaps():
    assert measure.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert measure.covered([]) == 0.0


# -- compare verdicts --------------------------------------------------------


def _runs(values):
    return dict(enumerate(values))


def test_compare_verdicts():
    base = _runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    assert compare.verdict(base, _runs([v * 1.01 for v in base.values()]), True, 0.1) == "same"
    assert compare.verdict(base, _runs([v * 1.2 for v in base.values()]), True, 0.1) == "worse"
    assert compare.verdict(base, _runs([v * 0.8 for v in base.values()]), True, 0.1) == "better"
    # higher-is-better metrics flip the direction
    assert compare.verdict(base, _runs([v * 0.8 for v in base.values()]), False, 0.1) == "worse"
    assert compare.verdict(base, _runs([v * 1.2 for v in base.values()]), False, 0.1) == "better"
    assert compare.verdict(base, base, False, 0.1) == "same"
    noisy = _runs([50, 150, 60, 140, 100, 70, 130, 90, 110, 100])
    assert compare.verdict(base, noisy, True, 0.1) == "unresolved"
    assert compare.verdict(base, base, True, None) == "-"


def test_compare_refuses_runs_of_different_settings():
    settings = {"seconds": 15, "warmup": 3.0, "setups": 5}
    a = [{"workload": "bulk_sparse", "trace": 0, "settings": settings}]
    assert compare.mismatched_settings(a, a) == []
    # --seconds 15 on the command line reads as 15.0: the same setting
    same = [{"workload": "bulk_sparse", "trace": 0, "settings": {**settings, "seconds": 15.0}}]
    assert compare.mismatched_settings(a, same) == []
    shorter = [{"workload": "bulk_sparse", "trace": 0, "settings": {**settings, "seconds": 2}}]
    assert len(compare.mismatched_settings(a, shorter)) == 1
    assert len(compare.mismatched_settings(a + shorter, a)) == 1


# -- machine speed -----------------------------------------------------------


def test_slowdown_weights_each_cpu_by_its_busy_time():
    ref = measure.REFERENCE_PASS_S
    # CPU 0 probed at full speed then half speed (mean 1.5), CPU 1 at 3x
    before, after = [ref, 3 * ref], [2 * ref, 3 * ref]
    assert measure.interval_slowdown(before, after, [10, 0]) == pytest.approx(1.5)
    assert measure.interval_slowdown(before, after, [0, 10]) == pytest.approx(3.0)
    assert measure.interval_slowdown(before, after, [30, 10]) == pytest.approx(1.875)
    # an idle stretch takes the plain mean
    assert measure.interval_slowdown(before, after, [0, 0]) == pytest.approx(2.25)


def test_each_sample_is_scaled_by_its_own_block():
    # two 1 s blocks: 10 requests of 100 ms at full speed, then 5 of
    # 200 ms at half speed; at the reference speed both are 100 ms
    fast = run.Block(0.0, 1.0, 1.0, [measure.Sample(k / 10, k / 10, k / 10 + 0.1, True)
                                     for k in range(10)])
    slow = run.Block(1.0, 2.0, 2.0, [measure.Sample(1 + k / 5, 1 + k / 5, 1.2 + k / 5, True)
                                     for k in range(5)])
    blocks = [fast, slow]
    raw = {"closed": blocks, "tail": blocks, "blocks": blocks, "reloads": [], "tally": Tally()}
    metrics, extras = run.end_to_end(workloads.WORKLOADS["bulk_sparse"], raw, [0.3], 40.0)
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(100.0)
    # 15 requests over 1 + 0.5 reference seconds
    assert metrics["throughput_rps"]["value"] == pytest.approx(10.0)
    assert extras["slowdown"]["value"] == pytest.approx(1.5)
    assert run._slowdown_at(blocks, 1.5) == 2.0
    assert run._slowdown_at(blocks, 9.0) == 2.0


def test_reference_seconds_is_the_median_pass():
    ticks = iter([0.0, 1.0, 1.0, 4.0, 4.0, 6.0])  # passes of 1, 3 and 2 s
    assert measure.reference_seconds(3, clock=lambda: next(ticks)) == 2.0
    assert measure.reference_pass() == measure.reference_pass()  # fixed work


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_payloads_come_from_the_seed(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.payloads(workload, 7)
    assert first == workloads.payloads(workload, 7)
    assert first != workloads.payloads(workload, 8)
    assert len(first) == workload.pool
    assert all(len(p) == workload.payload_bytes for p in first)


def test_sparse_noise_is_disjoint_from_the_ruleset():
    workload = workloads.WORKLOADS["bulk_sparse"]
    payload = workloads.payloads(workload, 1)[0]
    literal_bytes = set("".join(workloads._literals(workloads.read_rules(workload.ruleset))))
    literal_share = sum(chr(b) in literal_bytes for b in payload) / len(payload)
    assert 0 < literal_share < 0.01


def test_churn_rulesets_keep_the_base_rule_ids():
    workload = workloads.WORKLOADS["reload_churn"]
    base = workloads.read_rules(workload.ruleset)
    first, second = (workloads.churn_ruleset(workload, 3, k) for k in (1, 2))
    assert len(base) == 24 and len(first) == len(second) == 74
    assert first[:24] == second[:24] == base
    assert first[24:] != second[24:]
    assert first == workloads.churn_ruleset(workload, 3, 1)
