"""Integration tests: the observability layer woven through the pipeline.

Covers the ISSUE-1 satellite requirements:

* cross-backend metric agreement — the python and lazy iMFAnt backends
  produce *identical* active-set / frontier / transitions histograms
  (the work-counter agreement invariant extended to distributions);
* CLI span capture — ``repro obs`` and ``repro match`` trace compile
  and the guarded scan.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.datasets import list_builtin, load_builtin
from repro.engine.imfant import IMfantEngine
from repro.pipeline.compiler import CompileOptions, compile_ruleset


def _stream_for(patterns, size=4096, seed=7):
    from repro.cli import _demo_stream

    return _demo_stream(list(patterns), size, seed=seed)


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


def test_compile_emits_stage_spans_matching_stage_times(small_ruleset):
    with obs.capture() as cap:
        result = compile_ruleset(small_ruleset)
    cap.tracer.validate()
    by_name = {s.name: s for s in cap.tracer.spans()}
    root = by_name["compile"]
    assert root.parent_id is None
    assert root.attributes["rules"] == len(small_ruleset)
    assert root.attributes["input_states"] == result.merge_report.input_states

    stage_to_attr = {
        "compile.frontend": "frontend",
        "compile.ast_to_fsa": "ast_to_fsa",
        "compile.single_opt": "single_opt",
        "compile.merging": "merging",
        "compile.backend": "backend",
    }
    stage_sum = 0.0
    for span_name, attr in stage_to_attr.items():
        span = by_name[span_name]
        assert span.parent_id == root.span_id
        reported = getattr(result.stage_times, attr)
        # span wraps the timed region: duration >= StageTimes entry
        assert span.duration >= reported - 1e-9
        stage_sum += span.duration
    # stage spans account for (nearly) the whole compile span
    assert stage_sum <= root.duration + 1e-9
    assert stage_sum >= 0.5 * root.duration


def test_compile_without_obs_unchanged(small_ruleset):
    obs.disable()
    result = compile_ruleset(small_ruleset)
    assert result.stage_times.total > 0
    assert result.mfsas


def test_merge_spans_report_walk_progress(small_ruleset):
    with obs.capture() as cap:
        compile_ruleset(small_ruleset, CompileOptions(merging_factor=0, emit_anml=False))
    groups = [s for s in cap.tracer.spans() if s.name == "merge.group"]
    per_fsa = [s for s in cap.tracer.spans() if s.name == "merge.fsa"]
    assert len(groups) == 1
    group = groups[0]
    assert group.attributes["rules"] == len(small_ruleset)
    assert group.attributes["seeds_tried"] >= 0
    assert "state_compression" in group.attributes
    # one merge.fsa per incoming FSA after the seed
    assert len(per_fsa) == len(small_ruleset) - 1
    for span in per_fsa:
        assert span.parent_id == group.span_id
        attrs = span.attributes
        assert attrs["walks_found"] == attrs["walks_kept"] + attrs["walks_discarded"]
        assert attrs["seeds_tried"] >= attrs["walks_found"]


def test_merge_min_walk_len_discards_are_visible(small_ruleset):
    with obs.capture() as cap:
        compile_ruleset(
            small_ruleset,
            CompileOptions(merging_factor=0, min_walk_len=3, emit_anml=False),
        )
    per_fsa = [s for s in cap.tracer.spans() if s.name == "merge.fsa"]
    assert sum(s.attributes["walks_discarded"] for s in per_fsa) > 0


def test_counting_merge_is_observed(small_ruleset):
    """A counting compile merges through Algorithm 1 as a plain one
    does: merge.fsa spans, min_walk_len discards and filled counters."""
    with obs.capture() as cap:
        result = compile_ruleset(
            small_ruleset,
            CompileOptions(merging_factor=0, min_walk_len=3, emit_anml=False,
                           counting=True, count_threshold=2),
        )
    assert any(getattr(m, "counting", ()) for m in result.mfsas)
    per_fsa = [s for s in cap.tracer.spans() if s.name == "merge.fsa"]
    assert len(per_fsa) == len(small_ruleset) - 1
    assert sum(s.attributes["walks_discarded"] for s in per_fsa) > 0
    assert result.merge_report.label_comparisons > 0
    assert result.merge_report.walk_steps > 0


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def test_imfant_run_span_attributes(small_ruleset):
    result = compile_ruleset(small_ruleset, CompileOptions(emit_anml=False))
    engine = IMfantEngine(result.mfsas[0])
    data = _stream_for(small_ruleset, 1024)
    with obs.capture() as cap:
        run = engine.run(data)
    (span,) = [s for s in cap.tracer.spans() if s.name == "imfant.run"]
    assert span.attributes["backend"] == "python"
    assert span.attributes["bytes"] == len(data)
    assert span.attributes["matches"] == run.stats.match_count
    assert span.attributes["rules"] == len(small_ruleset)


@pytest.mark.parametrize("ruleset_name", sorted(list_builtin()))
def test_cross_backend_histogram_agreement(ruleset_name):
    """Satellite: python and lazy backends sample identical distributions
    on every builtin ruleset."""
    patterns = list(load_builtin(ruleset_name).patterns)
    result = compile_ruleset(patterns, CompileOptions(merging_factor=0, emit_anml=False))
    data = _stream_for(patterns, 2048, seed=11)

    snapshots = {}
    for backend in ("python", "lazy"):
        engine = IMfantEngine(result.mfsas[0], backend=backend)
        with obs.capture(stride=16) as cap:
            engine.run(data)
        snapshots[backend] = {
            name: cap.registry.get(f"imfant_{name}").snapshot()
            for name in ("active_set_size", "frontier_width", "transitions_per_byte")
        }
        assert cap.registry.get("imfant_samples_total").value == len(data) // 16

    for name in ("active_set_size", "frontier_width", "transitions_per_byte"):
        py, lazy = snapshots["python"][name], snapshots["lazy"][name]
        assert py["counts"] == lazy["counts"], (ruleset_name, name)
        assert py["sum"] == lazy["sum"], (ruleset_name, name)
        assert py["count"] == lazy["count"], (ruleset_name, name)
        assert py["min"] == lazy["min"] and py["max"] == lazy["max"], (ruleset_name, name)


def test_cross_backend_agreement_with_stride_one(small_ruleset):
    """Stride 1 samples every byte — the strictest agreement check."""
    result = compile_ruleset(small_ruleset, CompileOptions(emit_anml=False))
    data = _stream_for(small_ruleset, 512)
    sums = {}
    for backend in ("python", "lazy"):
        with obs.capture(stride=1) as cap:
            IMfantEngine(result.mfsas[0], backend=backend).run(data)
        hist = cap.registry.get("imfant_active_set_size")
        sums[backend] = (hist.sum, hist.count, tuple(hist.counts))
        # stride 1: histogram sum equals the engine's own active-pair counter
    assert sums["python"] == sums["lazy"]


def test_stride_one_histogram_matches_work_counters(small_ruleset):
    result = compile_ruleset(small_ruleset, CompileOptions(emit_anml=False))
    data = _stream_for(small_ruleset, 512)
    engine = IMfantEngine(result.mfsas[0])
    with obs.capture(stride=1) as cap:
        run = engine.run(data)
    assert cap.registry.get("imfant_active_set_size").sum == run.stats.active_pair_total
    assert cap.registry.get("imfant_transitions_per_byte").sum == run.stats.transitions_examined


def test_engines_emit_no_metrics_when_disabled(small_ruleset):
    obs.disable()
    result = compile_ruleset(small_ruleset, CompileOptions(emit_anml=False))
    run = IMfantEngine(result.mfsas[0]).run(_stream_for(small_ruleset, 256))
    assert run.stats.chars_processed == 256
    assert obs.get_registry() is None


# ---------------------------------------------------------------------------
# Multithread span integrity (satellite)
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_obs_subcommand_writes_artifacts(tmp_path, capsys):
    from repro.cli import obs_main

    trace = tmp_path / "trace.json"
    spans = tmp_path / "spans.jsonl"
    prom = tmp_path / "metrics.prom"
    rc = obs_main([
        "--builtin", "tokens_exact", "--stream-size", "2048", "--stride", "16",
        "--trace-out", str(trace), "--spans-out", str(spans),
        "--metrics-out", str(prom),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "span tree" in out
    assert "imfant_active_set_size" in out

    import json

    doc = json.loads(trace.read_text())
    names = {e["name"] for e in doc["traceEvents"]}
    assert {"compile", "guard.run", "imfant.run"} <= names
    assert spans.read_text().strip()
    assert "imfant_active_set_size_bucket" in prom.read_text()
    # capture is scoped: globals restored
    assert obs.get_tracer() is None


def test_cli_umbrella_dispatch(tmp_path, capsys):
    from repro.cli import main

    assert main([]) == 2
    assert main(["--help"]) == 0
    assert main(["nope"]) == 2
    rules = tmp_path / "r.rules"
    rules.write_text("abc\nabd\n")
    assert main(["compile", str(rules), "-o", str(tmp_path / "out")]) == 0


def test_cli_compile_trace_and_metrics_flags(tmp_path, capsys):
    from repro.cli import compile_main

    rules = tmp_path / "r.rules"
    rules.write_text("abc\nabd\n")
    trace = tmp_path / "trace.json"
    prom = tmp_path / "m.prom"
    rc = compile_main([
        str(rules), "-o", str(tmp_path / "out"),
        "--trace-out", str(trace), "--metrics-out", str(prom),
    ])
    assert rc == 0
    import json

    doc = json.loads(trace.read_text())
    assert any(e["name"] == "compile" for e in doc["traceEvents"])
    assert prom.exists()
    assert obs.get_tracer() is None


def test_cli_match_trace_flag(tmp_path):
    from repro.cli import match_main

    rules = tmp_path / "r.rules"
    rules.write_text("abc\nabd\n")
    stream = tmp_path / "s.bin"
    stream.write_bytes(b"zabcz" * 200)
    trace = tmp_path / "trace.json"
    prom = tmp_path / "m.prom"
    rc = match_main([
        str(stream), "--ruleset", str(rules),
        "--trace-out", str(trace), "--metrics-out", str(prom),
    ])
    assert rc == 0
    import json

    names = {e["name"] for e in json.loads(trace.read_text())["traceEvents"]}
    assert {"compile", "guard.run", "imfant.run"} <= names
    assert "imfant_active_set_size" in prom.read_text()
