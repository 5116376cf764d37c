"""Ablation — loop expansion vs counting execution (related work [12]).

The paper expands bounded repeats to maximise merging (Fig. 5a); the
cost is automaton size linear in the bound, and the expansion budget
gives up beyond it.  Counting automata keep the loop compressed and pay
a small per-byte counter cost instead.  This bench sweeps the bound for
a `[ab]{k}c`-style rule and measures both representations' size and
work, asserting the crossover the related work predicts.  The counting
side runs as a one-rule MFSA on ``backend="counting"``.
"""

from repro.automata.optimize import compile_re_to_fsa
from repro.automata.simulate import find_match_ends
from repro.counting import build_counting_fsa
from repro.engine.imfant import IMfantEngine
from repro.engine.infant import INfantEngine
from repro.mfsa.merge import merge_fsas
from repro.reporting.tables import format_table

BOUNDS = (8, 32, 128)
STREAM = ("ab" * 300 + "c" + "ba" * 100) * 2


def _counting_engine(cfsa) -> IMfantEngine:
    return IMfantEngine(merge_fsas([(0, cfsa)]), backend="counting")


def _sweep():
    rows = []
    for bound in BOUNDS:
        pattern = f"[ab]{{{bound}}}c"
        expanded = compile_re_to_fsa(pattern)
        counting = build_counting_fsa(pattern)
        run_expanded = INfantEngine(expanded).run(STREAM)
        run_counting = _counting_engine(counting).run(STREAM)
        assert run_counting.matches == run_expanded.matches, bound
        rows.append((bound, expanded, counting, run_expanded.stats, run_counting.stats))
    return rows


def test_counting_vs_expansion(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = []
    for bound, expanded, counting, exp_stats, cnt_stats in rows:
        table.append((
            bound,
            expanded.num_states, counting.num_states,
            exp_stats.transitions_examined, cnt_stats.transitions_examined,
            f"{exp_stats.wall_seconds * 1e3:.1f}", f"{cnt_stats.wall_seconds * 1e3:.1f}",
        ))
    print()
    print(format_table(
        ("bound k", "expanded Q", "counting Q", "expanded work", "counting work",
         "expanded ms", "counting ms"),
        table,
        title="Ablation — [ab]{k}c: expansion vs counting",
    ))

    # automaton size: expansion grows linearly with k, counting is flat
    q_expanded = [row[1].num_states for row in rows]
    q_counting = [row[2].num_states for row in rows]
    assert q_expanded[-1] > q_expanded[0] * 8
    assert q_counting[-1] == q_counting[0]
    # per-byte work: the expanded automaton evaluates k live copies of the
    # class transition; the counter does O(1) bookkeeping
    exp_work = [row[3].transitions_examined for row in rows]
    cnt_work = [row[4].transitions_examined for row in rows]
    assert exp_work[-1] > 10 * cnt_work[-1]


def test_counting_beyond_expansion_budget(benchmark):
    """Large bounds are exactly where counting wins: the expansion
    pipeline spends one state per repetition (the construction expands
    structurally even past the AST-pass budget), counting matches the
    same rule in constant space."""
    pattern = "[ab]{500}c"
    counting = build_counting_fsa(pattern)
    engine = _counting_engine(counting)
    stream = "ab" * 260 + "c"

    run = benchmark.pedantic(lambda: engine.run(stream), rounds=1, iterations=1)
    expanded = compile_re_to_fsa(pattern)
    print(f"\nbound 500: counting automaton has {counting.num_states} states "
          f"vs {expanded.num_states} for the expanded form")
    assert counting.num_states < 10
    assert expanded.num_states > 400
    assert run.matches == {(0, e) for e in find_match_ends(expanded, stream)}
