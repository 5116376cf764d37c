"""Mixed rulesets — expand everything vs the counting compile.

A realistic mixed ruleset (literal signatures + a few huge bounded
repeats) is compiled two ways: everything expanded and merged (the
paper's pipeline), and the counting compile at ``count_threshold=32``,
where repeats reaching 32 copies become counter registers while every
other rule expands and merges as usual — one automaton, no rule split.
The counting compile keeps the merged automaton small *and* dodges the
expansion blow-up; matches are asserted identical.
"""

from repro.counting import CountingMfsa
from repro.engine.imfant import IMfantEngine
from repro.pipeline.compiler import CompileOptions, compile_ruleset
from repro.reporting.tables import format_table

RULES = [
    "GET /login",
    "POST /upload",
    "session=[0-9a-f]{64}",          # counted (64-run)
    "auth failure for [a-z]+",
    "padding[=:][A-Za-z0-9]{120}",   # counted (120-run)
    "set-cookie: tracker",
]

STREAM = (
    b"GET /login POST /upload auth failure for mallory "
    b"session=" + b"ab01" * 16 + b" padding=" + b"X" * 120 + b" set-cookie: tracker "
) * 6


def test_counting_compile_vs_expansion(benchmark):
    counting = compile_ruleset(
        RULES, CompileOptions(merging_factor=0, emit_anml=False,
                              counting=True, count_threshold=32)
    ).mfsas[0]
    engine = IMfantEngine(counting, backend="counting")
    counting_run = benchmark.pedantic(
        lambda: engine.run(STREAM), rounds=1, iterations=1
    )

    # baseline: everything expanded + merged
    expanded = compile_ruleset(RULES, CompileOptions(merging_factor=0, emit_anml=False))
    expanded_run = IMfantEngine(expanded.mfsas[0]).run(STREAM)
    assert expanded_run.matches == counting_run.matches

    assert isinstance(counting, CountingMfsa)
    print()
    print(format_table(
        ("configuration", "states", "counter registers", "work (trans. examined)"),
        [
            ("expanded + merged MFSA", expanded.mfsas[0].num_states, 0,
             expanded_run.stats.transitions_examined),
            ("counting compile (count_threshold=32)", counting.num_states,
             len(counting.counting), counting_run.stats.transitions_examined),
        ],
        title="Expansion vs counting compile on a mixed ruleset",
    ))

    # the two large repeats count; every other rule merged as usual
    assert len(counting.counting) == 2
    # the expanded automaton pays ~190 states for the two counted runs
    assert expanded.mfsas[0].num_states > 150
    assert counting.num_states < expanded.mfsas[0].num_states / 3
