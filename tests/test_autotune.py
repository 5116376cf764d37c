"""Tests for merging-factor auto-tuning."""

import pytest

from repro.datasets import generate_ruleset, generate_stream, get_profile
from repro.engine.imfant import IMfantEngine
from repro.pipeline.autotune import autotune_merging_factor
from repro.pipeline.compiler import CompileOptions, compile_ruleset


@pytest.fixture(scope="module")
def workload():
    ruleset = generate_ruleset(get_profile("TCP").scaled(15))
    sample = generate_stream(ruleset, 768)
    return ruleset, sample


class TestAutotune:
    def test_selects_a_candidate(self, workload):
        ruleset, sample = workload
        report = autotune_merging_factor(ruleset.patterns, sample,
                                         candidates=(1, 2, 5, 0))
        assert report.best in report.candidates
        assert {c.merging_factor for c in report.candidates} == {1, 2, 5, 0}

    def test_single_thread_prefers_heavy_merging(self, workload):
        """On one thread the per-automaton dispatch dominates: the winner
        is M=all (the paper's single-thread Fig. 9 conclusion)."""
        ruleset, sample = workload
        report = autotune_merging_factor(ruleset.patterns, sample, threads=1,
                                         candidates=(1, 2, 0))
        assert report.best.merging_factor == 0

    def test_many_threads_never_pick_no_merging(self, workload):
        ruleset, sample = workload
        report = autotune_merging_factor(ruleset.patterns, sample, threads=8,
                                         candidates=(1, 5, 0))
        assert report.best.merging_factor != 1

    def test_oversized_factors_alias_with_all(self, workload):
        ruleset, sample = workload
        report = autotune_merging_factor(ruleset.patterns, sample,
                                         candidates=(999, 0, 1000))
        assert len(report.candidates) == 1
        assert report.candidates[0].merging_factor == 0

    def test_render_marks_selection(self, workload):
        ruleset, sample = workload
        report = autotune_merging_factor(ruleset.patterns, sample,
                                         candidates=(1, 0))
        text = report.render()
        assert "<- selected" in text
        assert "M= all" in text or "M=all" in text.replace(" ", "")

    def test_empty_ruleset_rejected(self):
        with pytest.raises(ValueError):
            autotune_merging_factor([], b"data")

    def test_selected_factor_matches_equivalently(self, workload):
        """The tuner only changes performance: compiling at the selected
        factor yields the same matches as the baseline."""
        ruleset, sample = workload
        report = autotune_merging_factor(ruleset.patterns, sample,
                                         candidates=(1, 2, 0))
        chosen = compile_ruleset(
            list(ruleset.patterns),
            CompileOptions(merging_factor=report.best.merging_factor, emit_anml=False),
        )
        baseline = compile_ruleset(
            list(ruleset.patterns), CompileOptions(merging_factor=1, emit_anml=False)
        )
        got = set()
        for mfsa in chosen.mfsas:
            got |= IMfantEngine(mfsa).run(sample).matches
        expected = set()
        for mfsa in baseline.mfsas:
            expected |= IMfantEngine(mfsa).run(sample).matches
        assert got == expected
