"""Command-line entry points.

* ``repro-compile`` — compile a ruleset file (one ERE per line) into
  extended-ANML MFSAs, mirroring the paper artifact's compiler driver.
* ``repro-match`` — run iMFAnt over an input stream with compiled MFSAs
  (or compile on the fly), one automaton after another; the paper's
  ``multithreaded_imfant`` scaling is modelled by ``repro-report fig10``.
* ``repro-report`` — regenerate the paper's tables/figures as text
  (the per-figure benchmarks with one command).
* ``repro-obs`` — compile + match one ruleset with the observability
  layer on; pretty-print the span tree and metrics, and export Chrome
  trace / JSONL / Prometheus artifacts.
* ``repro-serve`` / ``repro-client`` — resident sharded matching
  service and its protocol client (see docs/serving.md).
* ``repro`` — umbrella dispatcher:
  ``repro <compile|match|report|viz|obs|serve|client> …``.

``repro-compile`` and ``repro-match`` accept ``--trace-out FILE`` and
``--metrics-out FILE`` to capture any production invocation's spans
(Chrome trace-event JSON, Perfetto-loadable) and metrics (Prometheus
text exposition) without changing the command's behaviour.

All commands share one error contract: every deliberate failure is a
:class:`~repro.guard.errors.ReproError`, caught by a single top-level
handler that prints ``error: <stage>: <message>`` to stderr and exits
with the taxonomy code (0 ok, 1 error, 2 usage, 3 partial/quarantined,
4 budget/deadline).  ``repro compile``/``match``/``obs`` accept
``--budget-*``/``--deadline`` resource limits, ``--on-error
{fail,quarantine}`` per-rule failure isolation and (``match``)
``--degrade {off,auto}`` backend degradation — see docs/robustness.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
import time
from pathlib import Path

import repro.obs as obs
from repro.anml.reader import read_anml
from repro.counting import DEFAULT_MIN_COUNT_BOUND
from repro.engine.dense import DEFAULT_PROMOTE_AFTER
from repro.guard.budget import Budget
from repro.guard.degrade import GuardedMatcher
from repro.guard.errors import (
    EXIT_PARTIAL,
    ReproError,
    UsageError,
    exit_code_for,
    stage_of,
)
from repro.pipeline.compiler import CompileOptions, compile_ruleset
from repro.reporting import tables
from repro.reporting.experiments import (
    ExperimentConfig,
    experiment_active_sets,
    experiment_compilation_time,
    experiment_compression,
    experiment_dataset_stats,
    experiment_scaling,
    experiment_similarity,
    experiment_throughput,
    scaling_summary,
)


def _guarded(func):
    """The single top-level error handler every entry point runs under:
    a :class:`ReproError` becomes one ``error: <stage>: <message>`` line
    on stderr plus the taxonomy exit code — never a traceback."""

    @functools.wraps(func)
    def wrapper(argv: list[str] | None = None) -> int:
        try:
            return func(argv)
        except ReproError as error:
            print(f"error: {stage_of(error)}: {error}", file=sys.stderr)
            return exit_code_for(error)

    return wrapper


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (strides, shard and queue sizes)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {value})")
    return value


def _read_patterns(path: Path) -> list[str]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read ruleset {path}: {exc}") from exc
    patterns = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            patterns.append(line)
    if not patterns:
        raise UsageError(f"no patterns found in {path}")
    return patterns


def _add_guard_flags(parser: argparse.ArgumentParser, degrade: bool = False) -> None:
    group = parser.add_argument_group("resource governance")
    group.add_argument("--budget-states", type=int, default=None, metavar="N",
                       help="max automaton states constructed per compile")
    group.add_argument("--budget-transitions", type=int, default=None, metavar="N",
                       help="max automaton transitions constructed per compile")
    group.add_argument("--budget-loop-copies", type=int, default=None, metavar="N",
                       help="max loop-expansion copies (strict: over-budget "
                            "repeats fail instead of staying compressed)")
    group.add_argument("--budget-memory-mb", type=float, default=None, metavar="MB",
                       help="modelled memory ceiling for construction")
    group.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                       help="wall-clock deadline (covers the compile; for "
                            "match, also each engine scan)")
    group.add_argument("--on-error", choices=("fail", "quarantine"), default="fail",
                       help="quarantine: isolate failing rules per-rule and "
                            "ship the survivors (exit 3); fail: first error "
                            "aborts (default)")
    if degrade:
        group.add_argument("--degrade", choices=("off", "auto"), default="off",
                           help="auto: step the backend ladder dense->lazy->"
                                "python on allocation failure / cache "
                                "thrash / failed dense promotion")


def _add_counting_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("counting backend")
    group.add_argument("--count-threshold", type=int, default=None, metavar="N",
                       help="compile {m,n} repeats with max(m,n) >= N as "
                            "counter registers instead of expanded state "
                            "chains (only with --backend counting; "
                            "default: %d)" % DEFAULT_MIN_COUNT_BOUND)


def _counting_options(args: argparse.Namespace) -> dict:
    """CompileOptions kwargs from the counting flags: the counting
    compile path turns on exactly when the counting backend is chosen."""
    kwargs: dict = {"counting": getattr(args, "backend", None) == "counting"}
    if getattr(args, "count_threshold", None) is not None:
        kwargs["count_threshold"] = args.count_threshold
    return kwargs


def _budget_from(args: argparse.Namespace) -> Budget | None:
    """Build a Budget from the guard flags; None when none was given."""
    if (args.budget_states is None and args.budget_transitions is None
            and args.budget_loop_copies is None and args.budget_memory_mb is None
            and args.deadline is None):
        return None
    return Budget(
        max_states=args.budget_states,
        max_transitions=args.budget_transitions,
        max_loop_copies=args.budget_loop_copies,
        max_memory_bytes=(int(args.budget_memory_mb * 1024 * 1024)
                          if args.budget_memory_mb is not None else None),
        deadline=args.deadline,
    )


def _guarded_compile(patterns: list[str], options: CompileOptions,
                     args: argparse.Namespace):
    """Compile under the guard flags; prints the quarantine summary (if
    any) to stderr and returns the :class:`GuardedCompilation`."""
    from repro.guard.compiler import GuardedCompiler

    compiler = GuardedCompiler(options, budget=_budget_from(args),
                               on_error=args.on_error)
    compilation = compiler.compile(patterns)
    for line in compilation.quarantine.summary_lines():
        print(f"warning: {line}", file=sys.stderr)
    return compilation


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument("--trace-out", type=Path, default=None, metavar="FILE",
                       help="write a Chrome trace-event JSON of the run's spans")
    group.add_argument("--metrics-out", type=Path, default=None, metavar="FILE",
                       help="write the run's metrics in Prometheus text format")
    group.add_argument("--obs-stride", type=_positive_int, default=None, metavar="N",
                       help="engine sampling stride (default: %d)" % obs.DEFAULT_SAMPLE_STRIDE)


def _obs_scope(args: argparse.Namespace):
    """A capture scope when any observability flag was given, else no-op."""
    if args.trace_out is None and args.metrics_out is None:
        return contextlib.nullcontext(None)
    return obs.capture(stride=args.obs_stride)


def _export_obs(args: argparse.Namespace, cap: "obs.ObsCapture | None") -> None:
    if cap is None:
        return
    if args.trace_out is not None:
        obs.write_chrome_trace(cap.tracer, args.trace_out)
        print(f"wrote span trace ({len(cap.tracer.spans())} spans) to {args.trace_out}")
    if args.metrics_out is not None:
        obs.write_prometheus(cap.registry, args.metrics_out)
        print(f"wrote {len(cap.registry.instruments())} metric(s) to {args.metrics_out}")


def _merge_lazy_stats(engines) -> dict[str, float]:
    """Sum the per-engine lazy-cache counters into one summary dict."""
    totals = {"hits": 0.0, "misses": 0.0, "flushes": 0.0}
    for engine in engines:
        cache = getattr(engine, "lazy_cache", None)
        if cache is None:
            continue
        for key in ("hits", "misses", "flushes"):
            totals[key] += getattr(cache.stats, key)
    lookups = totals["hits"] + totals["misses"]
    totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
    return totals


@_guarded
def compile_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-compile``."""
    parser = argparse.ArgumentParser(
        prog="repro-compile",
        description="Compile a ruleset of POSIX EREs into extended-ANML MFSAs.",
    )
    parser.add_argument("ruleset", type=Path, help="file with one ERE per line ('#' comments)")
    parser.add_argument("-m", "--merging-factor", type=int, default=0,
                        help="group size M; 0 merges the whole ruleset (default)")
    parser.add_argument("-o", "--output-dir", type=Path, default=Path("mfsa_out"),
                        help="directory for the .anml files")
    parser.add_argument("--stratify", action="store_true",
                        help="enable partial character-class merging")
    _add_guard_flags(parser)
    _add_obs_flags(parser)
    args = parser.parse_args(argv)

    patterns = _read_patterns(args.ruleset)
    options = CompileOptions(merging_factor=args.merging_factor,
                             stratify_charclasses=args.stratify)
    with _obs_scope(args) as cap:
        compilation = _guarded_compile(patterns, options, args)
    result = compilation.result
    assert result is not None and result.anml is not None

    args.output_dir.mkdir(parents=True, exist_ok=True)
    for index, document in enumerate(result.anml):
        (args.output_dir / f"mfsa{index}.anml").write_text(document)

    report = result.merge_report
    print(f"compiled {len(result.patterns)} REs into {len(result.mfsas)} MFSA(s)")
    if compilation.partial:
        print(f"quarantined {len(compilation.quarantine)} of {len(patterns)} rule(s); "
              f"survivors shipped")
    print(f"states: {report.input_states} -> {report.output_states} "
          f"({report.state_compression:.2f}% compression)")
    print(f"transitions: {report.input_transitions} -> {report.output_transitions} "
          f"({report.transition_compression:.2f}% compression)")
    print("stage times (s): " + ", ".join(
        f"{name}={seconds:.4f}" for name, seconds in result.stage_times.as_dict().items()))
    print(f"wrote {len(result.anml)} file(s) to {args.output_dir}/")
    _export_obs(args, cap)
    return EXIT_PARTIAL if compilation.partial else 0


@_guarded
def match_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-match``."""
    parser = argparse.ArgumentParser(
        prog="repro-match",
        description="Match an input stream against MFSAs with the iMFAnt engine.",
    )
    parser.add_argument("stream", type=Path, help="input stream file (binary)")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--mfsa-dir", type=Path, help="directory of .anml MFSAs")
    source.add_argument("--ruleset", type=Path, help="compile this ruleset on the fly")
    parser.add_argument("-m", "--merging-factor", type=int, default=0,
                        help="merging factor when compiling on the fly")
    parser.add_argument("--backend",
                        choices=("python", "lazy", "dense", "counting"),
                        default="python")
    _add_counting_flags(parser)
    parser.add_argument("--single-match", action="store_true",
                        help="report each rule's first match only (early exit)")
    parser.add_argument("--show-matches", type=int, default=10, metavar="N",
                        help="print the first N matches (0 = none)")
    _add_guard_flags(parser, degrade=True)
    _add_obs_flags(parser)
    args = parser.parse_args(argv)

    quarantined = 0
    with _obs_scope(args) as cap:
        rule_map = None
        quarantine = None
        if args.mfsa_dir is not None:
            files = sorted(args.mfsa_dir.glob("*.anml"))
            if not files:
                raise UsageError(f"no .anml files in {args.mfsa_dir}")
            mfsas = [read_anml(path.read_text()) for path in files]
        else:
            patterns = _read_patterns(args.ruleset)
            compilation = _guarded_compile(
                patterns,
                CompileOptions(merging_factor=args.merging_factor, emit_anml=False,
                               **_counting_options(args)),
                args,
            )
            assert compilation.result is not None
            mfsas = compilation.result.mfsas
            quarantined = len(compilation.quarantine)
            if compilation.partial:
                rule_map = compilation.surviving_ids
                quarantine = compilation.quarantine

        try:
            data = args.stream.read_bytes()
        except OSError as exc:
            raise UsageError(f"cannot read stream {args.stream}: {exc}") from exc
        started = time.perf_counter()
        # --degrade off freezes the ladder; the matcher still does the
        # quarantine remapping/fallback
        matcher = GuardedMatcher(
            mfsas,
            rule_map=rule_map,
            quarantine=quarantine,
            backend=args.backend,
            degrade=args.degrade == "auto",
            scan_deadline=args.deadline,
            single_match=args.single_match,
        )
        run = matcher.run(data)
        matches, stats = run.matches, run.stats
        degradations = run.degradations
        engines = matcher._ensure_engines()
        elapsed = time.perf_counter() - started

    print(f"matched {len(data)} bytes against {len(mfsas)} MFSA(s) "
          f"({sum(len(m.initials) for m in mfsas)} rules)")
    print(f"matches: {len(matches)}   time: {elapsed:.4f}s   "
          f"transitions examined: {stats.transitions_examined}")
    for step in degradations:
        print(f"degraded {step.from_backend} -> {step.to_backend}: {step.reason}")
    if args.backend in ("lazy", "dense") and not degradations:
        totals = _merge_lazy_stats(engines)
        print(f"lazy cache: {totals['hits']:.0f} hits / {totals['misses']:.0f} misses "
              f"({totals['hit_rate']:.1%} hit rate), "
              f"{totals['flushes']:.0f} flush(es)")
    if args.backend == "dense" and not degradations:
        promoted = sum(1 for e in engines if getattr(e, "dense_tier", None) is not None)
        print(f"dense tier: {promoted}/{len(engines)} engine(s) promoted "
              f"(promotion threshold {DEFAULT_PROMOTE_AFTER} lazy bytes)")
    for rule, end in sorted(matches)[: args.show_matches]:
        print(f"  rule {rule} matched ending at offset {end}")
    _export_obs(args, cap)
    return EXIT_PARTIAL if quarantined else 0


@_guarded
def viz_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-viz``: render a ruleset's automata as DOT."""
    parser = argparse.ArgumentParser(
        prog="repro-viz",
        description="Render a ruleset's FSAs/MFSA as Graphviz DOT files.",
    )
    parser.add_argument("ruleset", type=Path, help="file with one ERE per line")
    parser.add_argument("-m", "--merging-factor", type=int, default=0)
    parser.add_argument("-o", "--output-dir", type=Path, default=Path("dot_out"))
    parser.add_argument("--per-rule", action="store_true",
                        help="also render each rule's optimised FSA")
    args = parser.parse_args(argv)

    from repro.viz import fsa_to_dot, mfsa_to_dot

    patterns = _read_patterns(args.ruleset)
    result = compile_ruleset(patterns, CompileOptions(merging_factor=args.merging_factor,
                                                      emit_anml=False))
    args.output_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for index, mfsa in enumerate(result.mfsas):
        (args.output_dir / f"mfsa{index}.dot").write_text(mfsa_to_dot(mfsa, f"mfsa{index}"))
        written += 1
    if args.per_rule:
        for rule_id, fsa in enumerate(result.fsas):
            (args.output_dir / f"rule{rule_id}.dot").write_text(
                fsa_to_dot(fsa, f"rule{rule_id}"))
            written += 1
    print(f"wrote {written} DOT file(s) to {args.output_dir}/ "
          f"(render with: dot -Tsvg {args.output_dir}/mfsa0.dot)")
    return 0


@_guarded
def report_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-report``: regenerate tables/figures as text."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Regenerate the paper's evaluation tables/figures.",
    )
    parser.add_argument("what", choices=("fig1", "table1", "fig7", "fig8", "fig9", "fig10", "table2", "all"))
    parser.add_argument("--scale", type=int, default=6,
                        help="dataset size divisor (1 = paper-scale; default 6)")
    parser.add_argument("--stream-size", type=int, default=4096,
                        help="input stream bytes (paper: 1 MB)")
    parser.add_argument("--export", type=Path, metavar="DIR", default=None,
                        help="additionally write raw CSV series to DIR")
    parser.add_argument("--datasets", type=str, default=None, metavar="ABBRS",
                        help="comma-separated suite subset, e.g. BRO,TCP")
    args = parser.parse_args(argv)
    if args.datasets:
        from repro.datasets import DATASET_PROFILES

        wanted_suites = tuple(s.strip().upper() for s in args.datasets.split(","))
        unknown = [s for s in wanted_suites if s not in DATASET_PROFILES]
        if unknown:
            raise UsageError(f"unknown dataset(s): {', '.join(unknown)}")
        config = ExperimentConfig(scale=args.scale, stream_size=args.stream_size,
                                  datasets=wanted_suites)
    else:
        config = ExperimentConfig(scale=args.scale, stream_size=args.stream_size)

    wanted = [args.what] if args.what != "all" else [
        "fig1", "table1", "fig7", "fig8", "fig9", "fig10", "table2"]
    for item in wanted:
        _REPORTS[item](config)
        print()
    if args.export is not None:
        from repro.reporting.export import export_all

        written = export_all(config, args.export)
        print(f"wrote {len(written)} raw-result files to {args.export}/")
    return 0


def _report_fig1(config: ExperimentConfig) -> None:
    from repro.reporting.plots import bar_chart

    sims = experiment_similarity(config)
    print(bar_chart(sims, title="Fig. 1 — normalised INDEL similarity"))


def _report_table1(config: ExperimentConfig) -> None:
    stats = experiment_dataset_stats(config)
    rows = [
        (abbr, int(s["num_res"]), int(s["total_states"]), int(s["total_transitions"]),
         int(s["total_cc_length"]), s["avg_states"], s["avg_transitions"])
        for abbr, s in stats.items()
    ]
    print(tables.format_table(
        ("Dataset", "#REs", "Tot Q", "Tot T", "Tot CC", "Avg Q", "Avg T"), rows,
        title="Table I — dataset characteristics"))


def _report_fig7(config: ExperimentConfig) -> None:
    data = experiment_compression(config)
    for abbr, per_m in data.items():
        rows = [(_m_label(m), f"{s:.2f}", f"{t:.2f}") for m, (s, t) in per_m.items()]
        print(tables.format_table(("M", "states %", "transitions %"), rows,
                                  title=f"Fig. 7 — compression ({abbr})"))


def _report_fig8(config: ExperimentConfig) -> None:
    data = experiment_compilation_time(config)
    for abbr, per_m in data.items():
        rows = [
            (_m_label(m), *(f"{stage_times[s]*1000:.2f}" for s in ("FE", "AST to FSA", "ME-single", "ME-merging", "BE")))
            for m, stage_times in per_m.items()
        ]
        print(tables.format_table(("M", "FE ms", "AST>FSA ms", "ME-single ms", "ME-merge ms", "BE ms"),
                                  rows, title=f"Fig. 8 — compilation stages ({abbr})"))


def _report_fig9(config: ExperimentConfig) -> None:
    data = experiment_throughput(config)
    for abbr, per_m in data.items():
        rows = [(_m_label(m), f"{row['work']:.0f}", f"{row['improvement']:.2f}x")
                for m, row in per_m.items()]
        print(tables.format_table(("M", "exec work", "throughput vs M=1"), rows,
                                  title=f"Fig. 9 — single-thread execution ({abbr})"))


def _report_fig10(config: ExperimentConfig) -> None:
    from repro.reporting.plots import line_chart

    data = experiment_scaling(config)
    for abbr, per_m in data.items():
        headers = ("M", *(f"T={t}" for t in config.threads))
        rows = [(_m_label(m), *(f"{series[t]:.0f}" for t in config.threads))
                for m, series in per_m.items()]
        summary = scaling_summary(per_m)
        print(tables.format_table(headers, rows, title=f"Fig. 10 — thread scaling ({abbr})"))
        series = {
            f"M={_m_label(m)}": [(math.log2(t), latency) for t, latency in sorted(per_m[m].items())]
            for m in per_m
        }
        print(line_chart(series, title=f"  latency vs log2(threads), log scale ({abbr})",
                         log_y=True))
        print(f"  best M>1 vs best M=1 speedup: {summary['speedup']:.2f}x; "
              f"threads for MFSA to match best single-FSA: "
              f"{summary['mfsa_threads_to_match_single']}")


def _report_table2(config: ExperimentConfig) -> None:
    data = experiment_active_sets(config)
    rows = [(abbr, f"{s['avg_active']:.2f}", int(s["max_active"])) for abbr, s in data.items()]
    print(tables.format_table(("Dataset", "Avg active", "Max active"), rows,
                              title="Table II — active sets during traversal (M=all)"))


def _m_label(m: int) -> str:
    return "all" if m == 0 else str(m)


_REPORTS = {
    "fig1": _report_fig1,
    "table1": _report_table1,
    "fig7": _report_fig7,
    "fig8": _report_fig8,
    "fig9": _report_fig9,
    "fig10": _report_fig10,
    "table2": _report_table2,
}


# ---------------------------------------------------------------------------
# repro obs — capture and pretty-print a run's observability artifacts
# ---------------------------------------------------------------------------


def _demo_stream(patterns: list[str], size: int, seed: int = 1) -> bytes:
    """A deterministic stream mixing ruleset literal material with noise
    (enough match activity to make the runtime histograms interesting)."""
    import random

    rng = random.Random(seed)
    literals = []
    for pattern in patterns:
        core = "".join(ch for ch in pattern if ch.isalnum() or ch in " _-/.:")
        if core:
            literals.append(core)
    alphabet = sorted({ch for lit in literals for ch in lit} | set("abcxyz 01"))
    chunks: list[str] = []
    produced = 0
    while produced < size:
        if literals and rng.random() < 0.3:
            piece = rng.choice(literals)
        else:
            piece = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 12)))
        chunks.append(piece)
        produced += len(piece)
    return "".join(chunks).encode("latin-1")[:size]


@_guarded
def obs_top_main(argv: list[str] | None = None) -> int:
    """``repro obs top``: live serve-stats console view over the stats op."""
    parser = argparse.ArgumentParser(
        prog="repro-obs top",
        description="One-shot (or --interval N repeated) console view of a "
                    "running repro serve instance: request counters, queue "
                    "depth, and per-phase latency percentiles.",
    )
    parser.add_argument("--socket", type=Path, default=None, metavar="PATH",
                        help="connect to a UNIX socket at PATH")
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None, metavar="N")
    parser.add_argument("--interval", type=float, default=None, metavar="SECONDS",
                        help="refresh every N seconds until --count/Ctrl-C "
                             "(default: one snapshot)")
    parser.add_argument("--count", type=int, default=None, metavar="N",
                        help="stop after N snapshots (default: 1 without "
                             "--interval, unlimited with it)")
    args = parser.parse_args(argv)
    if args.interval is not None and args.interval <= 0:
        raise UsageError("--interval must be positive")

    from repro.serve.client import MatchClient

    address = _client_address(args)
    limit = args.count if args.count is not None else (None if args.interval else 1)
    shown = 0
    try:
        while True:
            with MatchClient.connect(address) as client:
                stats = client.stats_full()
            server = stats.get("server", {})
            print(f"-- repro serve @ "
                  f"{address if isinstance(address, str) else ':'.join(map(str, address))} "
                  f"backend={server.get('backend')} shards={server.get('shards')}")
            print(f"   requests={server.get('requests_handled', 0)} "
                  f"rejected={server.get('requests_rejected', 0)} "
                  f"partial={server.get('requests_partial', 0)} "
                  f"batches={server.get('batches', 0)} "
                  f"queued={server.get('queued', 0)} "
                  f"degradations={server.get('degradations', 0)}")
            supervisor = server.get("supervisor") or {}
            admission = server.get("admission") or {}
            print(f"   resilience: deduped={server.get('requests_deduped', 0)} "
                  f"shed={admission.get('shed_total', 0)} "
                  f"restarts={supervisor.get('restarts_total', 0)} "
                  f"hangs={supervisor.get('hangs_total', 0)} "
                  f"breaker={'OPEN' if supervisor.get('breaker_open') else 'closed'} "
                  f"reloads={server.get('reload_swaps', 0)}")
            _print_latency_table(stats.get("latency_ms"))
            shown += 1
            if limit is not None and shown >= limit:
                break
            time.sleep(args.interval)
            print()
    except KeyboardInterrupt:
        pass
    return 0


@_guarded
def obs_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-obs`` (also ``repro obs``).

    ``repro obs top …`` dispatches to the live serve-stats view; every
    other invocation runs the capture-compile-match flow below.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "top":
        return obs_top_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Run compile+match with the observability layer on and "
                    "export/pretty-print the captured spans and metrics.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--ruleset", type=Path, help="ruleset file, one ERE per line")
    source.add_argument("--builtin", type=str, metavar="NAME",
                        help="curated builtin ruleset (see repro.datasets.list_builtin)")
    parser.add_argument("--stream", type=Path, default=None,
                        help="input stream file (default: generated)")
    parser.add_argument("--stream-size", type=int, default=65536, metavar="BYTES",
                        help="generated stream size (default 64 KiB)")
    parser.add_argument("-m", "--merging-factor", type=int, default=0)
    parser.add_argument("--backend",
                        choices=("python", "lazy", "dense", "counting"),
                        default="python")
    _add_counting_flags(parser)
    parser.add_argument("--stride", type=_positive_int, default=None, metavar="N",
                        help="engine sampling stride (default: %d)" % obs.DEFAULT_SAMPLE_STRIDE)
    parser.add_argument("--trace-out", type=Path, default=None, metavar="FILE",
                        help="write the Chrome trace-event JSON here")
    parser.add_argument("--spans-out", type=Path, default=None, metavar="FILE",
                        help="write the JSON-lines span dump here")
    parser.add_argument("--metrics-out", type=Path, default=None, metavar="FILE",
                        help="write the Prometheus text exposition here")
    parser.add_argument("--quiet", action="store_true",
                        help="skip the pretty-printed span tree / metric summary")
    _add_guard_flags(parser)
    args = parser.parse_args(argv)

    if args.builtin is not None:
        from repro.datasets import load_builtin

        try:
            patterns = list(load_builtin(args.builtin).patterns)
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from exc
    else:
        patterns = _read_patterns(args.ruleset)
    data = args.stream.read_bytes() if args.stream else _demo_stream(patterns, args.stream_size)

    with obs.capture(stride=args.stride) as cap:
        compilation = _guarded_compile(
            patterns,
            CompileOptions(merging_factor=args.merging_factor, emit_anml=True,
                           **_counting_options(args)),
            args,
        )
        result = compilation.result
        assert result is not None
        matches = GuardedMatcher(
            result.mfsas, backend=args.backend, degrade=False, scan_deadline=args.deadline
        ).run(data).matches
    cap.tracer.validate()

    print(f"captured {len(cap.tracer.spans())} span(s) and "
          f"{len(cap.registry.instruments())} metric(s): "
          f"{len(patterns)} rule(s), {len(result.mfsas)} MFSA(s), "
          f"{len(data)} bytes, {len(matches)} match(es)")
    if not args.quiet:
        print()
        print("span tree (wall / cpu):")
        for line in cap.tracer.tree_lines():
            print("  " + line)
        print()
        print("metrics:")
        for inst in cap.registry.instruments():
            snap = inst.snapshot()
            if snap["kind"] == "histogram":
                print(f"  {inst.name}: count={snap['count']} mean={inst.mean:.2f} "
                      f"min={snap['min']} max={snap['max']}")
            else:
                print(f"  {inst.name}: {snap['value']:g}")
    if args.trace_out is not None:
        obs.write_chrome_trace(cap.tracer, args.trace_out)
        print(f"wrote Chrome trace to {args.trace_out} (open in Perfetto)")
    if args.spans_out is not None:
        obs.write_jsonl(cap.tracer, args.spans_out)
        print(f"wrote span JSONL to {args.spans_out}")
    if args.metrics_out is not None:
        obs.write_prometheus(cap.registry, args.metrics_out)
        print(f"wrote Prometheus metrics to {args.metrics_out}")
    return EXIT_PARTIAL if compilation.partial else 0


# ---------------------------------------------------------------------------
# repro serve / repro client — the resident matching service
# ---------------------------------------------------------------------------


def _serve_patterns(args: argparse.Namespace) -> list[str]:
    """Resolve --ruleset/--builtin into the pattern list."""
    if args.builtin is not None:
        from repro.datasets import load_builtin

        try:
            return list(load_builtin(args.builtin).patterns)
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from exc
    return _read_patterns(args.ruleset)


def _client_address(args: argparse.Namespace):
    if args.socket is not None:
        return str(args.socket)
    if args.port is None:
        raise UsageError("specify --socket PATH or --port N")
    return (args.host, args.port)


def _print_latency_table(latency: dict | None) -> None:
    """Render the stats op's per-phase percentile decomposition."""
    if not latency:
        print("  (no latency percentiles: server metrics disabled or no "
              "requests served yet)")
        return
    header = f"  {'phase':<32} {'count':>8} {'mean':>9} {'p50':>9} {'p90':>9} {'p95':>9} {'p99':>9}  (ms)"
    print(header)
    for name in sorted(latency):
        row = latency[name]
        cells = "".join(
            f" {row.get(key):>9.3f}" if isinstance(row.get(key), (int, float)) else f" {'-':>9}"
            for key in ("mean", "p50", "p90", "p95", "p99")
        )
        print(f"  {name:<32} {row.get('count', 0):>8}{cells}")


@_guarded
def serve_health_main(argv: list[str]) -> int:
    """``repro serve --health``: probe a *running* instance's readiness.

    Exit 0 when the server answers ready, 1 when it answers not-ready
    or cannot be reached — the contract health probes (systemd, k8s,
    load-balancers) want.
    """
    parser = argparse.ArgumentParser(
        prog="repro-serve --health",
        description="Probe a running repro serve instance's health op.",
    )
    parser.add_argument("--socket", type=Path, default=None, metavar="PATH")
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None, metavar="N")
    parser.add_argument("--timeout", type=float, default=2.0, metavar="SECONDS",
                        help="probe connect/request timeout (default 2s)")
    parser.add_argument("--quiet", action="store_true",
                        help="no output; exit code only")
    args = parser.parse_args(argv)

    from repro.guard.errors import ConnectionLost
    from repro.serve.client import MatchClient
    from repro.serve.resilience import RetryPolicy

    address = _client_address(args)
    try:
        with MatchClient.connect(
            address, timeout=args.timeout, connect_timeout=args.timeout,
            retry=RetryPolicy.none(),
        ) as client:
            health = client.health()
    except (UsageError, ConnectionLost) as exc:
        if not args.quiet:
            print(f"unhealthy: {exc}")
        return 1
    ready = bool(health.get("ready"))
    if not args.quiet:
        state = "ready" if ready else ("healthy, not ready" if health.get("healthy") else "unhealthy")
        print(f"{state} (code {health.get('code')})")
        for name, ok in sorted((health.get("checks") or {}).items()):
            print(f"  {'ok  ' if ok else 'FAIL'} {name}")
    return 0 if ready else 1


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro serve``: run the resident matching service
    (or, with ``--health``, probe a running one)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--health" in argv:
        return serve_health_main([item for item in argv if item != "--health"])
    return _serve_run_main(argv)


@_guarded
def _serve_run_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a compiled ruleset over TCP/UNIX socket, scanning "
                    "in process or over --shards worker processes "
                    "(see docs/serving.md).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--ruleset", type=Path, help="ruleset file, one ERE per line")
    source.add_argument("--builtin", type=str, metavar="NAME",
                        help="curated builtin ruleset (see repro.datasets.list_builtin)")
    parser.add_argument("-m", "--merging-factor", type=int, default=0,
                        help="group size M; 0 merges the whole ruleset (default)")
    transport = parser.add_mutually_exclusive_group()
    transport.add_argument("--socket", type=Path, default=None, metavar="PATH",
                           help="serve on a UNIX socket at PATH")
    transport.add_argument("--port", type=int, default=None, metavar="N",
                           help="serve on TCP port N (0 = ephemeral; default)")
    parser.add_argument("--host", type=str, default="127.0.0.1",
                        help="TCP bind address (default 127.0.0.1)")
    sizing = parser.add_argument_group("sizing")
    sizing.add_argument("--shards", type=_positive_int, default=1, metavar="N",
                        help="jobs per payload: 1 scans in process (default); "
                             "N > 1 splits each payload over worker processes "
                             "that load the cached artifact")
    sizing.add_argument("--batch-max", type=_positive_int, default=8, metavar="N",
                        help="max requests coalesced per dispatch cycle (default 8)")
    sizing.add_argument("--queue-depth", type=_positive_int, default=64, metavar="N",
                        help="bounded request queue; full -> 429-style reject "
                             "(default 64)")
    parser.add_argument("--backend",
                        choices=("dense", "lazy", "python", "counting"),
                        default="lazy")
    _add_counting_flags(parser)
    parser.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                        help="default per-request wall-clock deadline "
                             "(requests may override via deadline_ms)")
    parser.add_argument("--artifact-dir", type=Path, default=Path("serve_cache"),
                        metavar="DIR",
                        help="compiled-ruleset cache directory (default ./serve_cache)")
    parser.add_argument("--no-shutdown-op", action="store_true",
                        help="ignore protocol shutdown requests")
    resilience = parser.add_argument_group("resilience")
    resilience.add_argument("--no-reload-op", action="store_true",
                            help="ignore protocol hot-reload requests")
    resilience.add_argument("--admission-target", type=float, default=None,
                            metavar="SECONDS",
                            help="CoDel-style admission control: shed new "
                                 "requests while the minimum queue wait stays "
                                 "above this (default: off)")
    resilience.add_argument("--heartbeat", type=float, default=None,
                            metavar="SECONDS",
                            help="probe a shard worker every N seconds and "
                                 "restart dead/hung executors between "
                                 "requests (default: off)")
    parser.add_argument("--trace-requests", action="store_true",
                        help="record per-request span trees (queue-wait/scan/"
                             "frame) and honour clients' ship_spans flag")
    parser.add_argument("--no-metrics", action="store_true",
                        help="disable the service-owned metrics registry "
                             "(stats op then reports counters only)")
    _add_obs_flags(parser)
    args = parser.parse_args(argv)

    import asyncio as _asyncio

    from repro.serve.artifacts import ArtifactStore
    from repro.serve.server import MatchServer, MatchService, ServeConfig

    patterns = _serve_patterns(args)
    with _obs_scope(args) as cap:
        store = ArtifactStore(args.artifact_dir)
        artifact = store.get_or_compile(
            patterns, CompileOptions(merging_factor=args.merging_factor, emit_anml=False,
                                     **_counting_options(args))
        )
        origin = "loaded from cache" if artifact.loaded_from_cache else "compiled"
        print(f"ruleset {artifact.key[:12]}…: {artifact.num_rules} rule(s), "
              f"{len(artifact.mfsas)} MFSA(s), {artifact.total_states} state(s) "
              f"({origin}: {artifact.path})")

        config = ServeConfig(
            shards=args.shards,
            batch_max=args.batch_max,
            queue_depth=args.queue_depth,
            backend=args.backend,
            default_deadline=args.deadline,
            allow_shutdown=not args.no_shutdown_op,
            allow_reload=not args.no_reload_op,
            admission_target=args.admission_target,
            heartbeat_interval=args.heartbeat,
            metrics=not args.no_metrics,
            trace_requests=args.trace_requests,
        )

        async def _run() -> None:
            service = MatchService(artifact, config, store=store)
            if args.socket is not None:
                server = MatchServer(service, socket_path=str(args.socket))
            else:
                server = MatchServer(service, host=args.host, port=args.port or 0)
            await server.start()
            address = server.address
            shown = address if isinstance(address, str) else f"{address[0]}:{address[1]}"
            print(f"serving on {shown} "
                  f"(shards={config.shards} batch_max={config.batch_max} "
                  f"queue_depth={config.queue_depth} backend={config.backend}) "
                  f"— Ctrl-C to stop", flush=True)
            await server.serve_until_stopped()

        try:
            _asyncio.run(_run())
        except KeyboardInterrupt:
            print("interrupted; shutting down")
    _export_obs(args, cap)
    return 0


@_guarded
def client_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro client``: talk to a running match service."""
    parser = argparse.ArgumentParser(
        prog="repro-client",
        description="Send payloads (or control ops) to a running repro serve "
                    "instance over its length-prefixed JSON protocol.",
    )
    parser.add_argument("stream", type=Path, nargs="?", default=None,
                        help="input stream file to match (omit for --ping/"
                             "--stats/--shutdown)")
    parser.add_argument("--socket", type=Path, default=None, metavar="PATH",
                        help="connect to a UNIX socket at PATH")
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None, metavar="N")
    parser.add_argument("--single-match", action="store_true",
                        help="report each rule's first match only")
    parser.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                        help="per-request wall-clock deadline in milliseconds")
    parser.add_argument("--show-matches", type=int, default=10, metavar="N",
                        help="print the first N matches (0 = none)")
    parser.add_argument("--ping", action="store_true", help="liveness probe")
    parser.add_argument("--health", action="store_true",
                        help="print the server's health/readiness document "
                             "(exit 1 when not ready)")
    parser.add_argument("--reload", type=Path, default=None, metavar="FILE",
                        help="hot-swap the server's ruleset to the patterns "
                             "in FILE (one ERE per line)")
    parser.add_argument("--timeout", type=float, default=30.0, metavar="SECONDS",
                        help="per-request socket timeout (default 30s)")
    parser.add_argument("--connect-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="dial timeout, decoupled from --timeout "
                             "(default: same as --timeout)")
    parser.add_argument("--retries", type=int, default=3, metavar="N",
                        help="total attempts per request incl. the first; "
                             "lost connections back off, reconnect and retry "
                             "idempotently (default 3)")
    parser.add_argument("--no-retry", action="store_true",
                        help="fail fast on the first connection loss")
    parser.add_argument("--stats", action="store_true",
                        help="print the server's counters snapshot plus its "
                             "per-phase latency percentiles (p50/p90/p95/p99)")
    parser.add_argument("--prometheus", action="store_true",
                        help="with --stats: also print the Prometheus text "
                             "exposition of the server's metrics")
    parser.add_argument("--shutdown", action="store_true",
                        help="ask the server to drain and stop")
    parser.add_argument("--trace", action="store_true",
                        help="trace the request end to end and print the "
                             "stitched span tree (server needs "
                             "--trace-requests)")
    parser.add_argument("--trace-out", type=Path, default=None, metavar="FILE",
                        help="write the merged client+server Chrome trace "
                             "here (implies --trace)")
    args = parser.parse_args(argv)

    from repro.serve.client import MatchClient
    from repro.serve.resilience import RetryPolicy

    if args.retries < 1:
        raise UsageError("--retries must be >= 1")
    retry = (
        RetryPolicy.none() if args.no_retry else RetryPolicy(max_attempts=args.retries)
    )
    exit_code = 0
    trace = args.trace or args.trace_out is not None
    with MatchClient.connect(
        _client_address(args), timeout=args.timeout,
        connect_timeout=args.connect_timeout, retry=retry,
    ) as client:
        if args.ping:
            alive = client.ping()
            print("pong" if alive else "no response")
            if not alive:
                return 1
        if args.health:
            health = client.health()
            ready = bool(health.get("ready"))
            print(f"health: {'ready' if ready else 'not ready'} "
                  f"(code {health.get('code')})")
            for name, ok in sorted((health.get("checks") or {}).items()):
                print(f"  {'ok  ' if ok else 'FAIL'} {name}")
            if not ready:
                exit_code = 1
        if args.reload is not None:
            new_patterns = _read_patterns(args.reload)
            info = client.reload(new_patterns)
            print(f"reloaded: ruleset {str(info.get('ruleset_key'))[:12]}… "
                  f"({info.get('rules')} rule(s), swap #{info.get('swaps')})")
        if args.stats:
            stats = client.stats_full(prometheus=args.prometheus)
            for key, value in sorted(stats.get("server", {}).items()):
                print(f"  {key}: {value}")
            print()
            print("latency decomposition:")
            _print_latency_table(stats.get("latency_ms"))
            if args.prometheus and stats.get("prometheus"):
                print()
                print(stats["prometheus"], end="")
        if args.stream is not None:
            try:
                data = args.stream.read_bytes()
            except OSError as exc:
                raise UsageError(f"cannot read stream {args.stream}: {exc}") from exc
            if trace:
                with obs.capture() as cap:
                    result = client.match(
                        data, single_match=args.single_match,
                        deadline_ms=args.deadline_ms, trace=True,
                    )
                print(f"trace {result.trace_id}: {len(result.spans)} server "
                      f"span(s) stitched under client.match")
                for depth, span in obs.iter_tree(cap.tracer):
                    print(f"  {'  ' * depth}{span.name:<28} "
                          f"{span.duration * 1e3:9.3f} ms  (pid {span.process_id})")
                if args.trace_out is not None:
                    obs.write_chrome_trace(cap.tracer, args.trace_out)
                    print(f"wrote merged Chrome trace "
                          f"({len(cap.tracer.spans())} spans) to {args.trace_out}")
            else:
                result = client.match(
                    data, single_match=args.single_match, deadline_ms=args.deadline_ms
                )
            print(f"status: {result.status} (code {result.code})   "
                  f"matches: {len(result.matches)}   backend: {result.backend}   "
                  f"shards: {result.shards}")
            if result.error:
                print(f"note: {result.error}")
            if result.stats:
                print(f"chars: {result.stats.get('chars_processed')}   "
                      f"transitions examined: {result.stats.get('transitions_examined')}")
            for rule, end in sorted(result.matches)[: args.show_matches]:
                print(f"  rule {rule} matched ending at offset {end}")
            if result.partial:
                exit_code = EXIT_PARTIAL
            elif not result.ok:
                exit_code = 1
        elif not (args.ping or args.stats or args.shutdown or args.health
                  or args.reload is not None):
            raise UsageError("nothing to do: give a stream file or --ping/"
                             "--stats/--health/--reload/--shutdown")
        if args.shutdown:
            print("shutdown acknowledged" if client.shutdown() else "shutdown refused")
    return exit_code


# ---------------------------------------------------------------------------
# repro — umbrella dispatcher
# ---------------------------------------------------------------------------

_SUBCOMMANDS = {
    "compile": compile_main,
    "match": match_main,
    "report": report_main,
    "viz": viz_main,
    "obs": obs_main,
    "serve": serve_main,
    "client": client_main,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro``: dispatch to ``repro <subcommand> …``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        names = ", ".join(sorted(_SUBCOMMANDS))
        print(f"usage: repro {{{names}}} [options]\n"
              f"run 'repro <subcommand> --help' for subcommand options")
        return 0 if argv else 2
    command = argv[0]
    handler = _SUBCOMMANDS.get(command)
    if handler is None:
        names = ", ".join(sorted(_SUBCOMMANDS))
        print(f"repro: unknown subcommand {command!r} (choose from {names})",
              file=sys.stderr)
        return 2
    return handler(argv[1:])


if __name__ == "__main__":
    sys.exit(main())
