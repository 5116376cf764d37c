"""Tour of the representations: one ruleset, five executable forms.

Loads the curated `range_rules` suite (shipped with the package) and
compiles it into every representation the library offers — merged MFSA,
counting MFSA, union DFA (+ D2FA), and the literal-prefilter split —
then matches the same stream with each and compares size and work.

Run:  python examples/ruleset_formats.py
"""

from repro import CompileOptions, IMfantEngine, PrefilterEngine, compile_ruleset
from repro.datasets import load_builtin
from repro.dfa import (
    DfaEngine,
    DfaExplosionError,
    compress_default_transitions,
    determinize,
    minimize,
)
from repro.reporting.tables import format_table

STREAM = (
    b"at 2024-11-05T08:30 peer 10.20.30.40:8443 sent 0xdeadbeefcafebabe "
    b"trace 550e8400-e29b-41d4-a716-446655440000 paid $1299.99 "
    b"hash da39a3ee5e6b4b0d3255bfef95601890afd80709 color #ff8800 "
) * 3


def main() -> None:
    ruleset = load_builtin("range_rules")
    patterns = list(ruleset.patterns)
    print(f"{len(patterns)} range-heavy rules, e.g. {patterns[0]!r}\n")

    rows = []
    reference = None

    # 1. merged MFSA (the paper's representation)
    compiled = compile_ruleset(patterns, CompileOptions(merging_factor=0, emit_anml=False))
    run = IMfantEngine(compiled.mfsas[0]).run(STREAM)
    reference = run.matches
    rows.append(("merged MFSA", compiled.mfsas[0].num_states,
                 compiled.mfsas[0].num_transitions, run.stats.transitions_examined))

    # 2. counting MFSA (counted runs kept compressed and shared)
    counting = compile_ruleset(
        patterns, CompileOptions(merging_factor=0, emit_anml=False, counting=True)
    ).mfsas[0]
    run = IMfantEngine(counting, backend="counting").run(STREAM)
    assert run.matches == reference
    rows.append(("counting MFSA", counting.num_states,
                 counting.num_transitions, run.stats.transitions_examined))

    # 3. classic DFA pipeline (may explode on richer rulesets)
    try:
        dfa = minimize(determinize(list(enumerate(compiled.fsas)), max_states=30_000))
        run = DfaEngine(dfa).run(STREAM)
        assert run.matches == reference
        rows.append(("minimised union DFA", dfa.num_states,
                     dfa.num_transitions, run.stats.transitions_examined))
        d2fa = compress_default_transitions(dfa)
        rows.append(("D2FA (default transitions)", d2fa.num_states,
                     d2fa.num_stored_transitions, "—"))
    except DfaExplosionError as exc:
        print(f"union DFA exploded past {exc.budget} states — the classic "
              "failure mode MFSAs avoid\n")

    # 4. literal prefilter split (Hyperscan-style)
    prefilter = PrefilterEngine(patterns)
    matches, stats = prefilter.run(STREAM)
    assert matches == reference
    rows.append(("literal prefilter + per-rule FSAs",
                 f"{stats.rules_skipped}/{stats.total_rules} rules skipped",
                 "-", stats.engine.transitions_examined))

    print(format_table(
        ("representation", "states", "transitions", "work on stream"),
        rows,
        title=f"one ruleset, many engines — {len(reference)} matches each",
    ))


if __name__ == "__main__":
    main()
