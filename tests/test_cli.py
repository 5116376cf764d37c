"""Tests for the command-line entry points."""

import pytest

from repro.cli import (
    compile_main,
    match_main,
    obs_main,
    report_main,
    serve_main,
    viz_main,
)


@pytest.fixture
def ruleset_file(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("# comment\nabc\nabd\na[bc]e\n\n")
    return path


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "stream.bin"
    path.write_bytes(b"zzabczzabdzz")
    return path


class TestCompileMain:
    def test_writes_anml(self, ruleset_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert compile_main([str(ruleset_file), "-o", str(out_dir)]) == 0
        files = list(out_dir.glob("*.anml"))
        assert len(files) == 1
        captured = capsys.readouterr().out
        assert "compiled 3 REs" in captured
        assert "compression" in captured

    def test_merging_factor(self, ruleset_file, tmp_path):
        out_dir = tmp_path / "out"
        compile_main([str(ruleset_file), "-m", "1", "-o", str(out_dir)])
        assert len(list(out_dir.glob("*.anml"))) == 3

    def test_empty_ruleset_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        assert compile_main([str(empty)]) == 2
        assert "error: usage:" in capsys.readouterr().err


class TestMatchMain:
    def test_compile_on_the_fly(self, ruleset_file, stream_file, capsys):
        assert match_main([str(stream_file), "--ruleset", str(ruleset_file)]) == 0
        out = capsys.readouterr().out
        assert "matches: " in out
        assert "rule 0 matched" in out

    def test_from_anml_dir(self, ruleset_file, stream_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        compile_main([str(ruleset_file), "-o", str(out_dir)])
        capsys.readouterr()
        assert match_main([str(stream_file), "--mfsa-dir", str(out_dir)]) == 0
        assert "matches: " in capsys.readouterr().out

    def test_anml_and_direct_agree(self, ruleset_file, stream_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        compile_main([str(ruleset_file), "-o", str(out_dir)])
        capsys.readouterr()
        match_main([str(stream_file), "--mfsa-dir", str(out_dir), "--show-matches", "100"])
        via_anml = capsys.readouterr().out
        match_main([str(stream_file), "--ruleset", str(ruleset_file), "--show-matches", "100"])
        direct = capsys.readouterr().out
        assert [l for l in via_anml.splitlines() if "rule" in l] == \
               [l for l in direct.splitlines() if "rule" in l]

    def test_missing_anml_dir(self, stream_file, tmp_path, capsys):
        assert match_main([str(stream_file), "--mfsa-dir", str(tmp_path / "nope")]) == 2
        assert "no .anml files" in capsys.readouterr().err

    def test_lazy_backend_and_threads(self, ruleset_file, stream_file, capsys):
        assert match_main([
            str(stream_file), "--ruleset", str(ruleset_file),
            "-m", "1", "--backend", "lazy",
        ]) == 0
        assert "3 MFSA(s)" in capsys.readouterr().out

    def test_removed_backend_and_dense_knobs_rejected(self, ruleset_file, stream_file):
        base = [str(stream_file), "--ruleset", str(ruleset_file)]
        for extra in (["--backend", "numpy"],
                      ["--backend", "dense", "--dense-stride", "2"],
                      ["--backend", "dense", "--no-prefilter"],
                      ["--backend", "lazy", "--lazy-eviction", "lru"],
                      ["--backend", "lazy", "--lazy-cache-size", "16"],
                      ["--backend", "dense", "--dense-promote-after", "256"]):
            with pytest.raises(SystemExit) as info:
                match_main(base + extra)
            assert info.value.code == 2, extra


class TestServeMain:
    def test_scan_plan_flag_removed(self, tmp_path):
        """The compiled automaton picks the scan plan; no flag overrides it."""
        with pytest.raises(SystemExit) as info:
            serve_main(["--builtin", "tokens_exact", "--artifact-dir", str(tmp_path),
                        "--scan-strategy", "sfa"])
        assert info.value.code == 2

    @pytest.mark.parametrize("extra", [
        pytest.param(["--mode", "process"], id="mode"),
        pytest.param(["--admission-window", "0"], id="admission-window"),
        pytest.param(["--dedup-ttl", "30"], id="dedup-ttl"),
    ])
    def test_serving_knob_removed(self, extra, tmp_path, capsys):
        """--shards alone picks worker processes; the admission window and
        the dedup TTL are constants."""
        # a missing ruleset: were the flag accepted, the run would fail on
        # the file instead of serving forever
        argv = ["--ruleset", str(tmp_path / "missing.txt"),
                "--artifact-dir", str(tmp_path)] + extra
        assert _exit_code(serve_main, argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--shards", "--batch-max", "--queue-depth"])
    def test_sizing_flag_rejects_zero_before_compiling(self, flag, tmp_path, capsys):
        """A zero size is a usage error before the ruleset compiles, so
        no artifact is written."""
        argv = ["--builtin", "tokens_exact", "--port", "0",
                "--artifact-dir", str(tmp_path), flag, "0"]
        assert _exit_code(serve_main, argv) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def _exit_code(main, argv) -> int:
    """A CLI entry point's exit code, whether argparse exits or it returns."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _base_argv(command, ruleset_file, stream_file, tmp_path) -> list:
    return {
        "compile": [str(ruleset_file), "-o", str(tmp_path / "out")],
        "match": [str(stream_file), "--ruleset", str(ruleset_file)],
        "obs": ["--ruleset", str(ruleset_file), "--stream-size", "256", "--quiet"],
        "serve": ["--ruleset", str(ruleset_file), "--artifact-dir", str(tmp_path)],
    }[command]


_MAINS = {"compile": compile_main, "match": match_main, "obs": obs_main,
          "serve": serve_main}


class TestEngineTuningFlagsRemoved:
    """The engine owns its cache bound and promotion threshold, and
    automata scan one after another (the match knob cases live in
    TestMatchMain)."""

    @pytest.mark.parametrize("command,extra", [
        pytest.param("obs", ["--backend", "lazy", "--lazy-cache-size", "16"],
                     id="obs-lazy-cache-size"),
        pytest.param("serve", ["--lazy-cache-size", "16"],
                     id="serve-lazy-cache-size"),
        pytest.param("obs", ["--backend", "dense", "--dense-promote-after", "256"],
                     id="obs-dense-promote-after"),
        pytest.param("match", ["-t", "2"], id="match-threads"),
        pytest.param("obs", ["-t", "2"], id="obs-threads"),
    ])
    def test_flag_exits_2(self, command, extra, ruleset_file, stream_file,
                          tmp_path, capsys):
        # serve reads a missing ruleset: were the flag accepted, the run
        # would fail on the file instead of serving forever
        if command == "serve":
            ruleset_file = tmp_path / "missing.txt"
        argv = _base_argv(command, ruleset_file, stream_file, tmp_path) + extra
        assert _exit_code(_MAINS[command], argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestErrorContract:
    """Out-of-range numbers are usage errors: exit 2 with a one-line
    message, never a traceback."""

    @pytest.mark.parametrize("command,extra", [
        pytest.param("match", ["-t", "0"], id="match-threads-0"),
        pytest.param("obs", ["-t", "0"], id="obs-threads-0"),
        pytest.param("obs", ["--stride", "0"], id="obs-stride-0"),
        pytest.param("match", ["--obs-stride", "0", "--metrics-out", "{tmp}/m.prom"],
                     id="match-obs-stride-0"),
        pytest.param("compile", ["--obs-stride", "0", "--metrics-out", "{tmp}/m.prom"],
                     id="compile-obs-stride-0"),
        pytest.param("compile", ["--deadline", "0"], id="compile-deadline-0"),
        pytest.param("compile", ["--deadline", "-1"], id="compile-deadline-neg"),
        pytest.param("match", ["--deadline", "0"], id="match-deadline-0"),
        pytest.param("match", ["--deadline", "-1"], id="match-deadline-neg"),
        pytest.param("obs", ["--deadline", "0"], id="obs-deadline-0"),
        pytest.param("obs", ["--deadline", "-1"], id="obs-deadline-neg"),
        pytest.param("compile", ["--budget-states", "0"], id="budget-states-0"),
        pytest.param("compile", ["--budget-transitions", "0"],
                     id="budget-transitions-0"),
        pytest.param("compile", ["--budget-loop-copies", "0"],
                     id="budget-loop-copies-0"),
        pytest.param("compile", ["--budget-memory-mb", "0"], id="budget-memory-mb-0"),
        pytest.param("match", ["--budget-states", "0"], id="match-budget-states-0"),
    ])
    def test_out_of_range_exits_2(self, command, extra, ruleset_file, stream_file,
                                  tmp_path, capsys):
        argv = _base_argv(command, ruleset_file, stream_file, tmp_path)
        argv += [item.format(tmp=tmp_path) for item in extra]
        assert _exit_code(_MAINS[command], argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error:" in err


class TestVizMain:
    def test_writes_dot_files(self, ruleset_file, tmp_path, capsys):
        out_dir = tmp_path / "dots"
        assert viz_main([str(ruleset_file), "-o", str(out_dir)]) == 0
        files = list(out_dir.glob("*.dot"))
        assert len(files) == 1
        assert files[0].read_text().startswith("digraph")
        assert "DOT file" in capsys.readouterr().out

    def test_per_rule_flag(self, ruleset_file, tmp_path):
        out_dir = tmp_path / "dots"
        viz_main([str(ruleset_file), "-o", str(out_dir), "--per-rule"])
        assert len(list(out_dir.glob("rule*.dot"))) == 3


class TestReportMain:
    @pytest.mark.parametrize("what,needle", [
        ("fig1", "INDEL"),
        ("table1", "Table I"),
        ("fig7", "compression"),
        ("table2", "active"),
    ])
    def test_sections(self, what, needle, capsys):
        assert report_main([what, "--scale", "30", "--stream-size", "256"]) == 0
        assert needle in capsys.readouterr().out

    def test_fig10_summary_lines(self, capsys):
        report_main(["fig10", "--scale", "30", "--stream-size", "256"])
        out = capsys.readouterr().out
        assert "speedup" in out


class TestReportDatasetFilter:
    def test_subset(self, capsys):
        report_main(["table1", "--scale", "30", "--stream-size", "256",
                     "--datasets", "bro,tcp"])
        out = capsys.readouterr().out
        assert "BRO" in out and "TCP" in out
        assert "DS9" not in out

    def test_unknown_dataset(self, capsys):
        assert report_main(["table1", "--datasets", "NOPE"]) == 2
        assert "unknown dataset" in capsys.readouterr().err


class TestSingleMatchFlag:
    def test_single_match(self, ruleset_file, tmp_path, capsys):
        stream = tmp_path / "s.bin"
        stream.write_bytes(b"abcabcabc")
        match_main([str(stream), "--ruleset", str(ruleset_file),
                    "--single-match", "--show-matches", "50"])
        out = capsys.readouterr().out
        # rule 0 ("abc") matches three times normally; once here
        assert out.count("rule 0 matched") == 1
