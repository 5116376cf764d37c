"""Ablation — merging *counting* automata (MFSA × counting).

Combines the paper's merging with the related-work counting execution:
rules sharing a counted run (`[0-9]{1,3}\\.` …) share one counter with a
belonging set, the same way plain sub-paths share arcs.  The bench
builds a ranges-flavoured ruleset three ways — expanded + merged MFSA,
per-rule counting automata (one-rule MFSAs), merged counting MFSA — and
compares size and work, with matches asserted identical.  Both counting
forms run on ``backend="counting"``.
"""

from repro.counting import build_counting_fsa
from repro.engine.imfant import IMfantEngine
from repro.mfsa.merge import MergeReport, merge_fsas
from repro.pipeline.compiler import CompileOptions, compile_ruleset
from repro.reporting.tables import format_table

#: A ranges-style ruleset: heavy shared counted runs with distinct tails.
RULES = [
    "ip=[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3} allow",
    "ip=[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3} deny",
    "id=[0-9a-f]{32} ok",
    "id=[0-9a-f]{32} bad",
    "tok=[A-Za-z0-9]{24}=",
    "tok=[A-Za-z0-9]{24}!",
]

STREAM = (
    b"ip=192.168.001.200 allow ip=10.0.0.1 deny "
    b"id=0123456789abcdef0123456789abcdef ok "
    b"id=ffffffffffffffffffffffffffffffff bad "
    b"tok=AbCdEfGhIjKlMnOpQrStUvWx= tok=000000000000000000000000! "
) * 4


def _build():
    expanded = compile_ruleset(RULES, CompileOptions(merging_factor=0, emit_anml=False))
    per_rule = [(i, build_counting_fsa(p)) for i, p in enumerate(RULES)]
    report = MergeReport()
    merged_counting = merge_fsas(per_rule, report=report)
    return expanded, per_rule, merged_counting, report


def test_counting_mfsa_ablation(benchmark):
    expanded, per_rule, merged_counting, report = benchmark.pedantic(
        _build, rounds=1, iterations=1
    )

    mfsa_run = IMfantEngine(expanded.mfsas[0]).run(STREAM)
    separate = set()
    separate_work = 0
    for rule_id, cfsa in per_rule:
        one_rule = merge_fsas([(rule_id, cfsa)])
        run = IMfantEngine(one_rule, backend="counting").run(STREAM)
        separate |= run.matches
        separate_work += run.stats.transitions_examined
    merged_run = IMfantEngine(merged_counting, backend="counting").run(STREAM)

    assert mfsa_run.matches == separate == merged_run.matches

    print()
    print(format_table(
        ("representation", "states", "transitions", "work (trans. examined)"),
        [
            ("expanded MFSA (paper pipeline)",
             expanded.mfsas[0].num_states, expanded.mfsas[0].num_transitions,
             mfsa_run.stats.transitions_examined),
            ("per-rule counting automata",
             sum(c.num_states for _, c in per_rule),
             sum(c.num_transitions for _, c in per_rule),
             separate_work),
            ("merged counting MFSA",
             merged_counting.num_states, merged_counting.num_transitions,
             merged_run.stats.transitions_examined),
        ],
        title="Ablation — counting MFSA vs expansion vs per-rule counting",
    ))
    shared = [a for a in merged_counting.counting if len(a.bel) > 1]
    print(f"shared counters: {len(shared)} of {len(merged_counting.counting)} "
          f"({report.merged_transitions} arcs merged)")

    # the counting representations dodge the expansion blow-up
    assert merged_counting.num_states < expanded.mfsas[0].num_states / 2
    assert merged_run.stats.transitions_examined < mfsa_run.stats.transitions_examined / 2
    # and merging shares at least one counter across rules
    assert shared
