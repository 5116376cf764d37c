"""Engine micro-benchmarks: iMFAnt backends and merge-algorithm scaling.

Not a paper figure; supporting measurements —

* interpretive python vs the lazy-DFA cache iMFAnt backend on one
  merged suite (lazy is measured warm: the cache persists across the
  timed runs);
* Algorithm 1 runtime growth with the merging factor, the empirical
  counterpart of the paper's complexity estimate (Eq. 3).
"""

import pytest

from repro.mfsa.merge import MergeReport, merge_ruleset
from repro.engine.imfant import IMfantEngine
from repro.reporting.experiments import dataset_bundle


@pytest.mark.parametrize("backend", ["python", "lazy"])
def test_imfant_backend_throughput(benchmark, config, backend):
    bundle = dataset_bundle("DS9", config)
    mfsa = bundle.compiled(0).mfsas[0]
    engine = IMfantEngine(mfsa, backend=backend)
    stream = bundle.stream

    result = benchmark(lambda: engine.run(stream, collect_stats=False))
    assert result.matches  # the stream plants ruleset material

    reference = IMfantEngine(mfsa, backend="python").run(stream).matches
    assert result.matches == reference


@pytest.mark.parametrize("m", [2, 10, 0])
def test_merge_runtime_growth(benchmark, config, m):
    """Eq. 3: merging cost grows superlinearly with the merging factor."""
    bundle = dataset_bundle("TCP", config)
    fsas = list(enumerate(bundle.compiled(1).fsas))

    report = MergeReport()
    benchmark.pedantic(
        lambda: merge_ruleset(fsas, m, report=MergeReport()), rounds=3, iterations=1
    )
    merge_ruleset(fsas, m, report=report)
    print(f"\nM={'all' if m == 0 else m}: {report.label_comparisons} label comparisons, "
          f"{report.walk_steps} walk steps, {report.state_compression:.1f}% state compression")
