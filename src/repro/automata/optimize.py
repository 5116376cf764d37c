"""The composed single-FSA optimisation pipeline (paper §IV-B/§IV-C).

``compile_re_to_fsa`` takes one RE string through the full single-automaton
path — parse, loop-expand, Thompson-construct, ε-remove, multiplicity-
simplify — producing the ε-free, CC-normalised NFA the merger consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.ast import AstNode
from repro.frontend.parser import parse
from repro.automata.epsilon import remove_epsilon
from repro.automata.fsa import Fsa
from repro.automata.loops import DEFAULT_EXPANSION_BUDGET, LoopExpansionReport, expand_loops
from repro.automata.multiplicity import simplify_multiplicity
from repro.automata.statemerge import merge_suffix_states
from repro.automata.thompson import thompson_construct


@dataclass
class OptimizeOptions:
    """Knobs for the single-FSA passes (all on by default, as in the paper)."""

    #: "thompson" (the paper's construction, + ε-removal) or "glushkov"
    #: (position automaton, ε-free and homogeneous by construction)
    construction: str = "thompson"
    #: fold ASCII case at compile time (the DPI `nocase` behaviour)
    case_insensitive: bool = False
    expand_loops: bool = True
    loop_budget: int = DEFAULT_EXPANSION_BUDGET
    merge_suffix_states: bool = True
    simplify_multiplicity: bool = True


def optimize_ast(
    node: AstNode,
    options: OptimizeOptions | None = None,
    *,
    meter=None,
    rule=None,
    keep=None,
) -> AstNode:
    """AST-level passes: case folding, then loop expansion.

    ``meter``/``rule`` (an optional :class:`~repro.guard.budget.BudgetMeter`
    and the rule id being compiled) flow into loop expansion so strict
    loop budgets name their offender; so does ``keep``, the predicate of
    the repeats a counting compile leaves compressed."""
    options = options or OptimizeOptions()
    if options.case_insensitive:
        from repro.frontend.casefold import fold_case

        node = fold_case(node)
    if options.expand_loops:
        return expand_loops(
            node,
            budget=options.loop_budget,
            report=LoopExpansionReport(),
            meter=meter,
            rule=rule,
            keep=keep,
        )
    return node


def optimize_fsa(
    fsa: Fsa,
    options: OptimizeOptions | None = None,
    *,
    meter=None,
    rule=None,
) -> Fsa:
    """FSA-level passes: ε-removal, suffix state merging, multiplicity
    simplification (in that order; each is individually optional)."""
    options = options or OptimizeOptions()
    out = remove_epsilon(fsa, meter=meter, rule=rule)
    if options.merge_suffix_states:
        out = merge_suffix_states(out)
    if options.simplify_multiplicity:
        out = simplify_multiplicity(out)
        if options.merge_suffix_states:
            # Fused labels can expose further suffix equivalences.
            out = merge_suffix_states(out)
    if meter is not None:
        meter.check_deadline(stage="single_opt", rule=rule)
    return out


def construct_nfa(ast: AstNode, pattern: str | None, options: OptimizeOptions) -> Fsa:
    """Dispatch to the configured construction algorithm."""
    if options.construction == "thompson":
        return thompson_construct(ast, pattern=pattern)
    if options.construction == "glushkov":
        from repro.automata.glushkov import glushkov_construct

        return glushkov_construct(ast, pattern=pattern)
    from repro.guard.errors import UsageError

    raise UsageError(f"unknown construction {options.construction!r}")


def compile_re_to_fsa(pattern: str, options: OptimizeOptions | None = None) -> Fsa:
    """Full single-RE path: pattern string → optimised ε-free NFA."""
    options = options or OptimizeOptions()
    ast = optimize_ast(parse(pattern), options)
    nfa = construct_nfa(ast, pattern, options)
    return optimize_fsa(nfa, options)
