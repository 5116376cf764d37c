"""repro — MFSA multi-regular-expression compilation and execution.

A faithful, pure-Python reproduction of *"One Automaton to Rule Them All:
Beyond Multiple Regular Expressions Execution"* (CGO 2024): the MFSA
model, the merging-based multi-level compilation framework, the extended
ANML back-end, and the iMFAnt execution engine, together with the
synthetic dataset substrate and the full benchmark harness regenerating
every table and figure of the paper's evaluation.

Quick start::

    from repro import CompileOptions, IMfantEngine, compile_ruleset

    result = compile_ruleset(["he(llo|y) world", "hello w[aeiou]rld"],
                             CompileOptions(merging_factor=0))
    engine = IMfantEngine(result.mfsas[0])
    matches = engine.run(b"... hello world ...").matches
    # -> {(rule_id, end_offset), ...}

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for the reproduction results.
"""

from repro import obs
from repro.automata import compile_re_to_fsa
from repro.automata.fsa import Fsa, Transition
from repro.automata.optimize import OptimizeOptions
from repro.anml import read_anml, write_anml
from repro.decompose import PrefilterEngine
from repro.engine import (
    ChunkMapping,
    CostModel,
    IMfantEngine,
    INfantEngine,
    MachineModel,
    SfaScanner,
    fold_mappings,
    simulate_parallel_latency,
)
from repro.engine.chunkscan import chunk_scan
from repro.engine.spans import SpanFinder, find_spans
from repro.engine.streaming import StreamingMatcher
from repro.frontend import RegexSyntaxError, parse
from repro.labels import CharClass
from repro.mfsa import Mfsa, MergeReport, merge_fsas, merge_ruleset, reference_match
from repro.pipeline import CompilationResult, CompileOptions, StageTimes, compile_ruleset
from repro.similarity import normalized_indel_similarity
from repro.stringmatch import AhoCorasick

__version__ = "1.0.0"

__all__ = [
    "AhoCorasick",
    "CharClass",
    "ChunkMapping",
    "CompilationResult",
    "CompileOptions",
    "CostModel",
    "Fsa",
    "IMfantEngine",
    "INfantEngine",
    "MachineModel",
    "MergeReport",
    "Mfsa",
    "OptimizeOptions",
    "PrefilterEngine",
    "RegexSyntaxError",
    "SfaScanner",
    "SpanFinder",
    "StageTimes",
    "StreamingMatcher",
    "Transition",
    "chunk_scan",
    "compile_re_to_fsa",
    "compile_ruleset",
    "find_spans",
    "fold_mappings",
    "merge_fsas",
    "merge_ruleset",
    "normalized_indel_similarity",
    "obs",
    "parse",
    "read_anml",
    "reference_match",
    "simulate_parallel_latency",
    "write_anml",
    "__version__",
]
