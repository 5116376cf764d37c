"""Algorithm 1: merging a set of FSAs into a single MFSA (paper §III-A).

The merger consumes *optimised* ε-free FSAs (loop-expanded, multiplicity-
simplified — see :mod:`repro.automata.optimize`) and folds them into an
:class:`repro.mfsa.model.Mfsa` one at a time:

1. the first FSA seeds the MFSA verbatim (``generateNew(z, A[1])``);
2. for each incoming FSA ``a``, transitions of ``z`` and ``a`` with the
   *same label* (single character, or character class with the identical
   member set — the sets X and Y of §III-A) seed common sub-path walks;
   each maximal walk is recorded in a :class:`MergingStructure` holding
   the 4-tuples ``(q_i,z , q_j,z , q_n,a , q_m,a)``;
3. the merging structures are combined into a *consistent* state
   correspondence (injective, functional — see below), the incoming FSA
   is relabelled through it (``relabel``), and its transitions are merged
   into ``z``: shared arcs gain ``a``'s identifier in their belonging set,
   new arcs are copied (``generateNew(mrg, a)``).

Consistency requirement (implicit in the paper, enforced explicitly
here): the relabeling map ``a-state -> z-state`` must be injective and
functional, so that the per-rule projection of the resulting MFSA stays
isomorphic to the input FSA and no rule's morphology is disturbed.
Merging structures are committed greedily, longest walk first; tuples
that would break consistency are dropped.

The three outcomes of the paper's §III-A fall out naturally: no common
sub-paths → the FSA is copied disjointly; some common sub-paths → shared
arcs get the new identifier; identical FSA → every arc's belonging is
extended and no state is added.

Counting automata (:class:`~repro.counting.model.CountingFsa`) merge
through the same code into a :class:`~repro.counting.mfsa.CountingMfsa`.
Arcs are compared by a *merge key*: a plain arc's key is its label mask,
a counting arc's is ``(mask, low, high)``, so counters merge only when
class and bounds both coincide — the exact-set rule extended to
counters.  Each kind of arc is folded into its own list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional, Sequence

import repro.obs as obs
from repro.automata.fsa import Fsa
from repro.guard.budget import CHECK_STRIDE
from repro.guard.errors import UsageError
from repro.mfsa.model import Mfsa, MTransition, from_single_fsa


@dataclass(frozen=True)
class PathTuple:
    """One matched transition pair: the paper's 4-tuple plus its label.

    ``(z_src, z_dst)`` is the transition in the evolving MFSA,
    ``(a_src, a_dst)`` the isomorphic transition in the incoming FSA.
    """

    z_src: int
    z_dst: int
    a_src: int
    a_dst: int
    label_mask: int


@dataclass
class MergingStructure:
    """A maximal common sub-path: an ordered list of matched pairs (MS).

    ``seed_pairs`` records the (z-transition-index, a-transition-index)
    pairs making up the walk, used to avoid re-discovering suffixes of an
    already-found walk as separate structures.
    """

    tuples: list[PathTuple] = field(default_factory=list)
    seed_pairs: list[tuple[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tuples)

    def push(self, item: PathTuple) -> None:
        self.tuples.append(item)


@dataclass
class MergeReport:
    """Counters describing one ruleset merge (complexity/compression data)."""

    input_states: int = 0
    input_transitions: int = 0
    output_states: int = 0
    output_transitions: int = 0
    label_comparisons: int = 0
    walk_steps: int = 0
    merged_transitions: int = 0
    merging_structures: int = 0

    @property
    def state_compression(self) -> float:
        """%comp_states of §VI-A (0 when nothing was merged)."""
        if self.input_states == 0:
            return 0.0
        return 100.0 * (self.input_states - self.output_states) / self.input_states

    @property
    def transition_compression(self) -> float:
        if self.input_transitions == 0:
            return 0.0
        return 100.0 * (self.input_transitions - self.output_transitions) / self.input_transitions


#: Cap on same-label seed candidates examined per incoming transition.
#: Bounds the quadratic seed phase on labels that occur extremely often;
#: `None` disables the cap (paper-faithful exhaustive search).
DEFAULT_SEED_CAP: Optional[int] = 64


def merge_fsas(
    items: Sequence[tuple[int, Fsa]],
    report: MergeReport | None = None,
    seed_cap: Optional[int] = DEFAULT_SEED_CAP,
    collect_structures: bool = False,
    strategy: str = "longest-first",
    min_walk_len: int = 1,
    meter=None,
) -> Mfsa | tuple[Mfsa, list[MergingStructure]]:
    """Merge ``(rule_id, fsa)`` pairs into one MFSA (Algorithm 1).

    FSAs must be ε-free; rule ids must be distinct.  Counting FSAs
    (:class:`~repro.counting.model.CountingFsa`) merge into a
    :class:`~repro.counting.mfsa.CountingMfsa`.  When
    ``collect_structures`` is true the merging structures of the *last*
    incoming FSA are returned too (used by tests mirroring Fig. 2).
    ``meter`` is an optional :class:`~repro.guard.budget.BudgetMeter`:
    the output automaton's growth is charged per incoming FSA and the
    deadline is checked periodically inside the quadratic seed search.

    ``strategy`` picks the order in which merging structures commit into
    the relabeling map: ``"longest-first"`` (default — longer shared
    paths win conflicts) or ``"discovery-order"`` (the order Algorithm 1
    finds them; the ablation comparator).  ``min_walk_len`` discards
    merging structures shorter than the given number of transitions —
    at ruleset scale, 1-arc "coincidence" merges dominate unless
    filtered, and real engines prefer longer shared runs for locality.
    Either way the map stays a bijection, so correctness is unaffected —
    only compression varies.
    """
    if strategy not in _STRATEGIES:
        raise UsageError(f"unknown strategy {strategy!r}; choose from {_STRATEGIES}")
    if not items:
        raise UsageError("cannot merge an empty ruleset")
    seen_rules = [rule for rule, _ in items]
    if len(set(seen_rules)) != len(seen_rules):
        raise UsageError("duplicate rule ids in merge input")
    if len({isinstance(fsa, Fsa) for _, fsa in items}) > 1:
        raise UsageError("cannot merge plain and counting FSAs together")
    for _, fsa in items:
        if isinstance(fsa, Fsa) and fsa.has_epsilon():
            raise UsageError("merge requires ε-free FSAs (run the optimiser first)")

    stats = report if report is not None else MergeReport()
    stats.input_states = sum(fsa.num_states for _, fsa in items)
    stats.input_transitions = sum(fsa.num_transitions for _, fsa in items)

    with obs.span("merge.group", rules=len(items)) as group_span:
        first_rule, first_fsa = items[0]
        mfsa = _seed(first_rule, first_fsa)
        if meter is not None:
            meter.charge_automaton(
                mfsa.num_states, mfsa.num_transitions, stage="merging", rule=first_rule
            )
        structures: list[MergingStructure] = []
        for rule, fsa in items[1:]:
            structures = _merge_one(
                mfsa, rule, fsa, stats, seed_cap, strategy, min_walk_len, meter=meter
            )

        stats.output_states = mfsa.num_states
        stats.output_transitions = mfsa.num_transitions
        mfsa.validate()
        group_span.set(
            seeds_tried=stats.label_comparisons,
            walk_steps=stats.walk_steps,
            output_states=stats.output_states,
            state_compression=round(stats.state_compression, 3),
        )
    if collect_structures:
        return mfsa, structures
    return mfsa


def merge_ruleset(
    items: Sequence[tuple[int, Fsa]],
    merging_factor: int,
    report: MergeReport | None = None,
    seed_cap: Optional[int] = DEFAULT_SEED_CAP,
    min_walk_len: int = 1,
    meter=None,
) -> list[Mfsa]:
    """Merge a ruleset in M-sized sequential groups → K=⌈N/M⌉ MFSAs.

    ``merging_factor <= 0`` means "all" (merge the entire ruleset into one
    MFSA), matching the artifact's ``M=0`` convention.  Sequential
    sampling follows the paper's §VI; see :func:`merge_groups` for the
    similarity-clustered alternative.
    """
    if merging_factor <= 0 or merging_factor >= len(items):
        groups = [list(range(len(items)))]
    else:
        groups = [
            list(range(i, min(i + merging_factor, len(items))))
            for i in range(0, len(items), merging_factor)
        ]
    return merge_groups(items, groups, report=report, seed_cap=seed_cap,
                        min_walk_len=min_walk_len, meter=meter)


def merge_groups(
    items: Sequence[tuple[int, Fsa]],
    groups: Sequence[Sequence[int]],
    report: MergeReport | None = None,
    seed_cap: Optional[int] = DEFAULT_SEED_CAP,
    min_walk_len: int = 1,
    meter=None,
) -> list[Mfsa]:
    """Merge a ruleset along an explicit partition into item-index groups
    (e.g. from :func:`repro.mfsa.clustering.similarity_groups`)."""
    stats = report if report is not None else MergeReport()
    out: list[Mfsa] = []
    for group in groups:
        group_report = MergeReport()
        merged = merge_fsas([items[i] for i in group], report=group_report,
                            seed_cap=seed_cap, min_walk_len=min_walk_len, meter=meter)
        _accumulate(stats, group_report)
        out.append(merged)
    return out


def _accumulate(total: MergeReport, part: MergeReport) -> None:
    total.input_states += part.input_states
    total.input_transitions += part.input_transitions
    total.output_states += part.output_states
    total.output_transitions += part.output_transitions
    total.label_comparisons += part.label_comparisons
    total.walk_steps += part.walk_steps
    total.merged_transitions += part.merged_transitions
    total.merging_structures += part.merging_structures


# ---------------------------------------------------------------------------
# One incoming FSA
# ---------------------------------------------------------------------------


_STRATEGIES = ("longest-first", "discovery-order")

#: Merge keys (see the module docstring): a plain arc's label mask, a
#: counting arc's ``(mask, low, high)``.
_PLAIN_KEY = attrgetter("label.mask")
_COUNTING_KEY = attrgetter("label.mask", "low", "high")


def _plain_arc(arc, src: int, dst: int, bel: frozenset) -> MTransition:
    return MTransition(src, dst, arc.label, bel)


def _arc_kinds(mfsa, fsa) -> list[tuple]:
    """``(z arcs, z keys, incoming arcs, incoming keys, arc maker)`` for
    each kind of arc: plain arcs, then — merging counting automata —
    counting arcs.  The keys are computed here, once per merge step,
    never per comparison; the arc maker builds a z arc of that kind."""
    if isinstance(mfsa, Mfsa):
        kinds = [(mfsa.transitions, list(fsa.labelled_transitions()), _PLAIN_KEY, _plain_arc)]
    else:
        from repro.counting.mfsa import CMTransition  # repro.counting imports repro.mfsa

        def counting_arc(arc, src: int, dst: int, bel: frozenset) -> CMTransition:
            return CMTransition(src, dst, arc.label, arc.low, arc.high, bel)

        kinds = [
            (mfsa.plain, fsa.plain, _PLAIN_KEY, _plain_arc),
            (mfsa.counting, fsa.counting, _COUNTING_KEY, counting_arc),
        ]
    return [
        (z_arcs, list(map(key, z_arcs)), a_arcs, list(map(key, a_arcs)), make)
        for z_arcs, a_arcs, key, make in kinds
    ]


def _seed(rule: int, fsa):
    """Algorithm 1's ``generateNew(z, A[1])``: the first FSA, as it is."""
    if isinstance(fsa, Fsa):
        return from_single_fsa(rule, fsa)
    from repro.counting.mfsa import CountingMfsa  # repro.counting imports repro.mfsa

    mfsa = CountingMfsa()
    _relabel_and_merge(mfsa, rule, fsa, {}, MergeReport(), _arc_kinds(mfsa, fsa))
    return mfsa


def _merge_one(
    mfsa: Mfsa,
    rule: int,
    fsa: Fsa,
    stats: MergeReport,
    seed_cap: Optional[int],
    strategy: str = "longest-first",
    min_walk_len: int = 1,
    meter=None,
) -> list[MergingStructure]:
    seeds_before = stats.label_comparisons
    states_before = mfsa.num_states
    transitions_before = mfsa.num_transitions
    with obs.span("merge.fsa", rule=rule) as sp:
        kinds = _arc_kinds(mfsa, fsa)
        structures = _find_merging_structures(kinds, stats, seed_cap, meter=meter, rule=rule)
        walks_found = len(structures)
        if min_walk_len > 1:
            structures = [ms for ms in structures if len(ms) >= min_walk_len]
        mapping = _consistent_mapping(mfsa, structures, strategy)
        _relabel_and_merge(mfsa, rule, fsa, mapping, stats, kinds)
        if meter is not None:
            meter.charge_automaton(
                mfsa.num_states - states_before,
                mfsa.num_transitions - transitions_before,
                stage="merging",
                rule=rule,
            )
        sp.set(
            seeds_tried=stats.label_comparisons - seeds_before,
            walks_found=walks_found,
            walks_kept=len(structures),
            walks_discarded=walks_found - len(structures),
            mapped_states=len(mapping),
        )
    return structures


def _find_merging_structures(
    kinds: list[tuple],
    stats: MergeReport,
    seed_cap: Optional[int],
    meter=None,
    rule: Optional[int] = None,
) -> list[MergingStructure]:
    """Walk common sub-paths seeded at every same-key transition pair.

    Mirrors Algorithm 1's nested loops over the COO ``idx`` vectors: each
    (z-transition, a-transition) pair with an identical merge key starts
    a walk that extends while the successor transitions keep matching,
    and each maximal walk becomes one Merging Structure.  The seed search
    is the quadratic heart of the merge, so the budget deadline is
    checked every :data:`~repro.guard.budget.CHECK_STRIDE` label
    comparisons when a meter is present.
    """
    z_arcs: list = []
    z_keys: list = []
    a_arcs: list = []
    a_keys: list = []
    for kind_z_arcs, kind_z_keys, kind_a_arcs, kind_a_keys, _ in kinds:
        z_arcs += kind_z_arcs
        z_keys += kind_z_keys
        a_arcs += kind_a_arcs
        a_keys += kind_a_keys
    z_by_key: dict = {}
    z_out: dict[int, list[int]] = {}
    for i, (t, key) in enumerate(zip(z_arcs, z_keys)):
        z_by_key.setdefault(key, []).append(i)
        z_out.setdefault(t.src, []).append(i)
    a_out: dict[int, list[int]] = {}
    for i, t in enumerate(a_arcs):
        a_out.setdefault(t.src, []).append(i)
    z = (z_arcs, z_keys, z_out)
    a = (a_arcs, a_keys, a_out)

    structures: list[MergingStructure] = []
    seen_seeds: set[tuple[int, int]] = set()

    for ai, key in enumerate(a_keys):
        candidates = z_by_key.get(key, ())
        if seed_cap is not None:
            candidates = candidates[:seed_cap]
        for zi in candidates:
            stats.label_comparisons += 1
            if meter is not None and stats.label_comparisons % CHECK_STRIDE == 0:
                meter.check_deadline(stage="merging", rule=rule)
            if (zi, ai) in seen_seeds:
                continue
            ms = _walk(z, a, zi, ai, stats)
            # Mark every pair on the walk as seeded so overlapping suffix
            # walks are not re-discovered as separate structures.
            seen_seeds.update(ms.seed_pairs)
            structures.append(ms)
            stats.merging_structures += 1
    return structures


def _walk(z: tuple, a: tuple, zi: int, ai: int, stats: MergeReport) -> MergingStructure:
    """Extend a matched pair forward while successor keys keep matching.

    ``z`` and ``a`` are each side's ``(arcs, merge keys, out-arc index)``.
    Follows a single chain (the paper walks ``next(r), next(t)`` and stops
    at the first difference); at branch points the first matching
    successor pair in index order is taken.  A visited set prevents
    looping on cyclic automata (e.g. Kleene-star back arcs).
    """
    z_arcs, z_keys, z_out = z
    a_arcs, a_keys, a_out = a
    ms = MergingStructure()
    visited: set[tuple[int, int]] = set()
    cur_z, cur_a = zi, ai
    while (cur_z, cur_a) not in visited:
        visited.add((cur_z, cur_a))
        zt = z_arcs[cur_z]
        at = a_arcs[cur_a]
        ms.push(PathTuple(zt.src, zt.dst, at.src, at.dst, at.label.mask))
        ms.seed_pairs.append((cur_z, cur_a))
        stats.walk_steps += 1
        nxt = _next_matching_pair(z_keys, z_out, a_keys, a_out, zt.dst, at.dst, stats)
        if nxt is None:
            break
        cur_z, cur_a = nxt
    return ms


def _next_matching_pair(
    z_keys: list,
    z_out: dict[int, list[int]],
    a_keys: list,
    a_out: dict[int, list[int]],
    z_state: int,
    a_state: int,
    stats: MergeReport,
) -> tuple[int, int] | None:
    for ai in a_out.get(a_state, ()):
        a_key = a_keys[ai]
        for zi in z_out.get(z_state, ()):
            stats.label_comparisons += 1
            if z_keys[zi] == a_key:
                return zi, ai
    return None


def _consistent_mapping(
    mfsa: Mfsa,
    structures: list[MergingStructure],
    strategy: str = "longest-first",
) -> dict[int, int]:
    """Combine merging structures into an injective a-state → z-state map.

    Structures are committed longest-first; a tuple is committed only when
    both of its endpoint bindings are compatible with the map built so far
    (functional and injective).  Longer shared paths therefore win over
    shorter conflicting ones — the greedy heuristic behind Algorithm 1's
    ``relabel(ms, a)``.
    """
    forward: dict[int, int] = {}  # a-state -> z-state
    backward: dict[int, int] = {}  # z-state -> a-state
    ordered = (
        sorted(structures, key=len, reverse=True)
        if strategy == "longest-first"
        else structures
    )
    for ms in ordered:
        for item in ms.tuples:
            bindings = ((item.a_src, item.z_src), (item.a_dst, item.z_dst))
            if _jointly_compatible(forward, backward, bindings):
                for a, z in bindings:
                    forward[a] = z
                    backward[z] = a
            else:
                # An incompatible tuple interrupts this structure's chain:
                # the remaining suffix would attach to unmapped interior
                # states, so the rest of the walk is abandoned.
                break
    return forward


def _jointly_compatible(
    forward: dict[int, int],
    backward: dict[int, int],
    bindings: tuple[tuple[int, int], ...],
) -> bool:
    """Would committing all ``(a, z)`` bindings keep the map a bijection?

    The bindings of one tuple must be checked against each other as well
    as against the committed map: a self-loop on one side matched to a
    plain arc on the other would otherwise corrupt injectivity.
    """
    staged_fwd: dict[int, int] = {}
    staged_bwd: dict[int, int] = {}
    for a, z in bindings:
        bound_z = forward.get(a, staged_fwd.get(a))
        if bound_z is not None:
            if bound_z != z:
                return False
            continue
        bound_a = backward.get(z, staged_bwd.get(z))
        if bound_a is not None and bound_a != a:
            return False
        staged_fwd[a] = z
        staged_bwd[z] = a
    return True


def _relabel_and_merge(
    mfsa, rule: int, fsa, mapping: dict[int, int], stats: MergeReport, kinds: list[tuple]
) -> None:
    """Relabel the incoming FSA through ``mapping`` and fold it into ``z``.

    Unmapped states get fresh MFSA state numbers (disjoint relabeling);
    arcs already present in ``z`` (same endpoints and merge key) gain
    ``rule`` in their belonging set, new arcs are appended to the list of
    their kind with ``bel = {rule}``.
    """
    relabel = dict(mapping)
    for state in range(fsa.num_states):
        if state not in relabel:
            relabel[state] = mfsa.add_state()

    bel = frozenset((rule,))
    for z_arcs, z_keys, a_arcs, a_keys, make in kinds:
        arc_index = {(t.src, t.dst, k): i for i, (t, k) in enumerate(zip(z_arcs, z_keys))}
        for t, k in zip(a_arcs, a_keys):
            src, dst = relabel[t.src], relabel[t.dst]
            key = (src, dst, k)
            existing = arc_index.get(key)
            if existing is not None:
                old = z_arcs[existing]
                z_arcs[existing] = make(old, old.src, old.dst, old.bel | bel)
                stats.merged_transitions += 1
            else:
                arc_index[key] = len(z_arcs)
                z_arcs.append(make(t, src, dst, bel))

    mfsa.initials[rule] = relabel[fsa.initial]
    mfsa.finals[rule] = {relabel[f] for f in fsa.finals}
    if fsa.pattern is not None:
        mfsa.patterns[rule] = fsa.pattern
