"""The compilation driver: REs in, MFSAs (+ extended ANML) out.

Mirrors the paper's Fig. 4 stage structure and timing attribution:

=============== ==========================================================
Stage           Work
=============== ==========================================================
``frontend``    lexical + syntactic analysis (pattern → AST)
``ast_to_fsa``  loop expansion (AST rewrite) + Thompson construction
``single_opt``  ε-removal + multiplicity simplification (per FSA)
``merging``     Algorithm 1 over M-sized sequential groups (K = ⌈N/M⌉)
``backend``     extended-ANML generation
=============== ==========================================================

Deviation note: the paper expands loops inside single-FSA optimisation;
we rewrite at AST level (provably equivalent output) so the expansion is
attributed to ``ast_to_fsa``.  DESIGN.md §5 records this.

A counting compile (``CompileOptions(counting=True)``) runs the same
stages with one more kind of arc: ``ast_to_fsa`` leaves the counted
repeats compressed, builds each as a counting arc and removes ε in the
same pass (:mod:`repro.counting.build`); ``single_opt`` is skipped;
merging and its grouping are the plain ones; the back-end writes the
counting ANML dialect for automata that keep counting arcs.

Timing is measured with ``time.perf_counter`` (monotonic,
high-resolution) and emitted through :mod:`repro.obs` spans — one
``compile`` root span with a ``compile.<stage>`` child per stage — while
the aggregate lands in the same :class:`StageTimes` result shape the
reporting layer consumes.  With observability disabled the spans are
no-ops and only the ``StageTimes`` arithmetic remains.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Sequence

import repro.obs as obs

from repro.automata.fsa import Fsa
from repro.automata.optimize import OptimizeOptions, construct_nfa, optimize_ast, optimize_fsa
from repro.anml.writer import write_anml
from repro.counting.anml import write_counting_anml
from repro.counting.build import (
    DEFAULT_MIN_COUNT_BOUND,
    build_counting_fsa_from_ast,
    counted_repeats,
)
from repro.counting.mfsa import CountingMfsa
from repro.frontend.parser import parse
from repro.guard import faultinject
from repro.guard.budget import Budget
from repro.guard.errors import CompileError, UsageError
from repro.mfsa.ccpartial import stratify_ruleset
from repro.mfsa.clustering import similarity_groups
from repro.mfsa.merge import DEFAULT_SEED_CAP, MergeReport, merge_groups, merge_ruleset
from repro.mfsa.model import Mfsa
from repro.mfsa.reduce import reduce_mfsa


@dataclass(frozen=True)
class CompileOptions:
    """Framework configuration.

    ``merging_factor`` follows the artifact's convention: 0 (or any value
    ≥ the ruleset size) merges the whole ruleset into one MFSA ("all");
    1 disables merging (the single-FSA baseline); otherwise REs are
    grouped sequentially in M-sized groups.
    """

    merging_factor: int = 0
    optimize: OptimizeOptions = field(default_factory=OptimizeOptions)
    #: how M-sized groups are formed: "sequential" (the paper's §VI
    #: sampling) or "clustered" (INDEL-similarity grouping — the paper's
    #: future-work extension, see repro.mfsa.clustering)
    grouping: str = "sequential"
    #: opt-in partial-CC merging via alphabet stratification (§VI-A ext.)
    stratify_charclasses: bool = False
    #: cap on same-label seed candidates in the merger (None = exhaustive)
    seed_cap: Optional[int] = DEFAULT_SEED_CAP
    #: discard shared sub-paths shorter than this many transitions before
    #: relabeling (1 = maximal merging; 2 reproduces the paper's
    #: compression levels at paper scale — see EXPERIMENTS.md)
    min_walk_len: int = 1
    #: run the post-merge belonging-aware suffix reduction
    #: (repro.mfsa.reduce) on every MFSA
    reduce_mfsa: bool = False
    #: generate the extended-ANML output (the back-end stage)
    emit_anml: bool = True
    #: resource budget for the whole compile (None = ungoverned); one
    #: :class:`~repro.guard.budget.BudgetMeter` spans every stage, so a
    #: deadline covers the compile end to end
    budget: Optional[Budget] = None
    #: compile for ``backend="counting"``: repeats of one character class
    #: that reach ``count_threshold`` survive loop expansion and become
    #: counting arcs (counter registers at run time) instead of state
    #: chains; the result's ``mfsas`` are
    #: :class:`~repro.counting.mfsa.CountingMfsa` (plain :class:`Mfsa`
    #: when every repeat fell below the threshold and expanded)
    counting: bool = False
    #: the expand-vs-count policy knob: repeats whose high bound (or an
    #: unbounded repeat's low bound) reaches this many copies become
    #: counter registers, smaller ones expand as usual
    count_threshold: int = DEFAULT_MIN_COUNT_BOUND


@dataclass
class StageTimes:
    """Per-stage wall-clock seconds (the Fig. 8 series)."""

    frontend: float = 0.0
    ast_to_fsa: float = 0.0
    single_opt: float = 0.0
    merging: float = 0.0
    backend: float = 0.0

    @property
    def total(self) -> float:
        return self.frontend + self.ast_to_fsa + self.single_opt + self.merging + self.backend

    def as_dict(self) -> dict[str, float]:
        return {
            "FE": self.frontend,
            "AST to FSA": self.ast_to_fsa,
            "ME-single": self.single_opt,
            "ME-merging": self.merging,
            "BE": self.backend,
        }


@dataclass
class CompilationResult:
    """Everything the framework produced for one ruleset + options."""

    patterns: list[str]
    options: CompileOptions
    #: optimised per-RE FSAs (the merger's input), indexed by rule id;
    #: :class:`~repro.counting.model.CountingFsa` under ``counting=True``
    fsas: list[Fsa]
    #: the K = ⌈N/M⌉ merged automata
    #: (:class:`~repro.counting.mfsa.CountingMfsa` under ``counting=True``
    #: when counting arcs survived the threshold)
    mfsas: list[Mfsa]
    stage_times: StageTimes
    merge_report: MergeReport
    #: one extended-ANML document per MFSA (None when emit_anml=False)
    anml: list[str] | None

    @property
    def total_input_states(self) -> int:
        return sum(fsa.num_states for fsa in self.fsas)

    @property
    def total_output_states(self) -> int:
        return sum(m.num_states for m in self.mfsas)


@contextmanager
def _stage(times: StageTimes, name: str, **span_attrs):
    """Time one stage into ``times.<name>`` and emit a ``compile.<name>``
    span around it (a no-op span when observability is off).  Each stage
    entry is a fault-injection point (``compile.stage``)."""
    with obs.span(f"compile.{name}", **span_attrs) as sp:
        faultinject.fire("compile.stage", stage=name)
        started = time.perf_counter()
        try:
            yield sp
        finally:
            setattr(times, name, time.perf_counter() - started)


def compile_ruleset(patterns: Sequence[str], options: CompileOptions | None = None) -> CompilationResult:
    """Run the full framework over a ruleset (see module docstring).

    With ``options.budget`` set, one :class:`~repro.guard.budget.
    BudgetMeter` is started here and charged cooperatively by every
    stage; violations surface as :class:`~repro.guard.errors.
    BudgetExceeded` branch errors naming the stage (and rule, when
    attributable).  Pathologically nested patterns that blow the
    interpreter's recursion limit are wrapped into
    :class:`~repro.guard.errors.CompileError` instead of escaping as
    bare ``RecursionError``."""
    options = options or CompileOptions()
    if options.counting:
        if options.stratify_charclasses:
            raise UsageError(
                "counting compiles do not support charclass stratification"
            )
        if options.reduce_mfsa:
            raise UsageError("counting compiles do not support MFSA reduction")
        if options.count_threshold < 2:
            raise UsageError(
                f"count_threshold must be >= 2 (got {options.count_threshold})"
            )
    times = StageTimes()
    meter = options.budget.start() if options.budget is not None else None

    with obs.span(
        "compile",
        rules=len(patterns),
        merging_factor=options.merging_factor,
        grouping=options.grouping,
    ) as root:
        # Front-end: lexical and syntactic analyses.
        with _stage(times, "frontend"):
            asts = []
            for rule, pattern in enumerate(patterns):
                faultinject.fire("compile.rule", pattern=pattern, rule=rule)
                try:
                    asts.append(parse(pattern))
                except RecursionError as exc:
                    raise CompileError(
                        "pattern nests beyond the recursion limit",
                        stage="frontend", rule=rule,
                    ) from exc
            if meter is not None:
                meter.check_deadline(stage="frontend")

        # Mid-end: AST → FSA (loop expansion + Thompson construction).  A
        # counting compile leaves the counted repeats compressed, builds
        # them as counting arcs and removes ε in the same pass.
        counted = counted_repeats(options.count_threshold) if options.counting else None
        with _stage(times, "ast_to_fsa"):
            asts = [
                optimize_ast(ast, options.optimize, meter=meter, rule=rule, keep=counted)
                for rule, ast in enumerate(asts)
            ]
            nfas = []
            for rule, (ast, pattern) in enumerate(zip(asts, patterns)):
                try:
                    if options.counting:
                        nfa = build_counting_fsa_from_ast(ast, pattern, options.count_threshold)
                    else:
                        nfa = construct_nfa(ast, pattern, options.optimize)
                except RecursionError as exc:
                    raise CompileError(
                        "automaton construction exceeded the recursion limit",
                        stage="ast_to_fsa", rule=rule,
                    ) from exc
                if meter is not None:
                    meter.charge_automaton(
                        nfa.num_states, nfa.num_transitions,
                        stage="ast_to_fsa", rule=rule,
                    )
                    if options.counting:
                        meter.charge_counting_registers(len(nfa.counting), rule=rule)
                nfas.append(nfa)

        # Mid-end: single-FSA optimisation.  Its passes know nothing of
        # counting arcs, so a counting compile skips it.
        if options.counting:
            fsas = nfas
        else:
            with _stage(times, "single_opt"):
                fsas = [
                    optimize_fsa(nfa, options.optimize, meter=meter, rule=rule)
                    for rule, nfa in enumerate(nfas)
                ]
                if options.stratify_charclasses:
                    fsas = stratify_ruleset(fsas)

        # Mid-end: merging.
        with _stage(times, "merging") as merge_span:
            merge_report = MergeReport()
            items = list(enumerate(fsas))
            if options.grouping == "sequential":
                mfsas = merge_ruleset(
                    items, options.merging_factor, report=merge_report,
                    seed_cap=options.seed_cap, min_walk_len=options.min_walk_len,
                    meter=meter,
                )
            elif options.grouping == "clustered":
                groups = similarity_groups(list(patterns), options.merging_factor)
                mfsas = merge_groups(items, groups, report=merge_report,
                                     seed_cap=options.seed_cap,
                                     min_walk_len=options.min_walk_len, meter=meter)
            else:
                raise UsageError(f"unknown grouping {options.grouping!r}")
            if options.reduce_mfsa:
                mfsas = [reduce_mfsa(m) for m in mfsas]
                merge_report.output_states = sum(m.num_states for m in mfsas)
                merge_report.output_transitions = sum(m.num_transitions for m in mfsas)
            if options.counting:
                # Every repeat below the threshold expanded: no registers
                # left, so hand downstream the unrestricted plain model.
                mfsas = [m if m.counting else m.to_plain() for m in mfsas]
                merge_span.set(counting_arcs=sum(
                    len(m.counting) for m in mfsas if isinstance(m, CountingMfsa)
                ))
            merge_span.set(
                mfsas=len(mfsas),
                state_compression=round(merge_report.state_compression, 3),
            )

        # Back-end: extended-ANML generation (the counting dialect for
        # automata with counting arcs).
        anml: list[str] | None = None
        if options.emit_anml:
            with _stage(times, "backend"):
                anml = [
                    write_counting_anml(m, network_id=f"cmfsa{i}")
                    if isinstance(m, CountingMfsa)
                    else write_anml(m, network_id=f"mfsa{i}")
                    for i, m in enumerate(mfsas)
                ]
                if meter is not None:
                    meter.check_deadline(stage="backend")

        root.set(
            input_states=merge_report.input_states,
            output_states=merge_report.output_states,
        )

    return CompilationResult(
        patterns=list(patterns),
        options=options,
        fsas=fsas,
        mfsas=mfsas,
        stage_times=times,
        merge_report=merge_report,
        anml=anml,
    )

