"""Cross-backend conformance suite: one oracle, every execution surface.

The differential property tests (tests/test_differential.py) fuzz small
random rulesets; this suite pins down the *curated* surface instead —
every builtin ruleset, every iMFAnt backend (python / lazy / dense —
the last both cold and with its compiled tier force-promoted —
plus counting, which on plain automata has zero registers and scans on
the lazy loop) and the sharded serving path must report
byte-identical results:

* identical ``(rule, end)`` match sets;
* identical :class:`~repro.engine.counters.ExecutionStats` (modulo
  ``wall_seconds``, the only timing-dependent field);
* identical engine-sampler histograms (``imfant_active_set_size``,
  ``imfant_frontier_width``, ``imfant_transitions_per_byte``) captured
  under the same sampling stride;
* the serve path (ShardPool and the full socket round trip) equal to a
  single-process single-shard scan, including boundary-spanning matches
  and ``single_match`` semantics.

See docs/testing.md for the conformance-oracle pattern these implement.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.cli import _demo_stream
from repro.datasets import list_builtin, load_builtin
from repro.engine.chunkscan import resolve_strategy
from repro.engine.counters import ExecutionStats
from repro.engine.imfant import IMfantEngine
from repro.pipeline.compiler import CompileOptions, compile_ruleset

BACKENDS = ("python", "lazy", "dense", "counting")

#: The sampler quartet every backend must fill identically.  The lazy
#: backend additionally registers ``imfant_lazy_cache_*`` instruments;
#: those are backend-private and excluded on purpose.
SAMPLER_METRICS = (
    "imfant_active_set_size",
    "imfant_frontier_width",
    "imfant_transitions_per_byte",
    "imfant_samples_total",
)

STREAM_BYTES = 4096
SAMPLE_STRIDE = 17  # prime → samples hit varied positions


@pytest.fixture(scope="module")
def compiled_builtins():
    """name → (patterns, mfsas); compiled once for the whole module."""
    out = {}
    for name in list_builtin():
        patterns = list(load_builtin(name).patterns)
        result = compile_ruleset(patterns, CompileOptions(emit_anml=False))
        out[name] = (patterns, result.mfsas)
    return out


def _run_all(mfsas, text, backend, single_match=False, promote=False):
    """(matches, stats-dict-without-wall, sampler-snapshots) for one backend.

    ``promote=True`` (dense only) warms each engine on the full stream
    and force-compiles the tier first, so the measured run exercises the
    compiled tables + de-opt machinery instead of the lazy ramp-up.
    """
    engines = [
        IMfantEngine(mfsa, backend=backend, single_match=single_match)
        for mfsa in mfsas
    ]
    if promote:  # outside the capture: the warm-up must not be sampled
        for engine in engines:
            engine.run(text, collect_stats=False)
            assert engine.promote_dense(force=True)
    with obs.capture(stride=SAMPLE_STRIDE) as cap:
        matches: set = set()
        totals = ExecutionStats()
        for engine in engines:
            run = engine.run(text)
            matches |= run.matches
            totals.merge(run.stats)
        histograms = {
            name: cap.registry.get(name).snapshot() if cap.registry.get(name) else None
            for name in SAMPLER_METRICS
        }
    stats = totals.as_dict()
    stats.pop("wall_seconds")  # the only wall-clock-dependent field
    return matches, stats, histograms


# ---------------------------------------------------------------------------
# Backend conformance over every builtin ruleset
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "dotstar_rules",
    "http_signatures",
    "log_patterns",
    "protein_motifs",
    "range_rules",
    "tokens_exact",
])
def test_backends_agree_on_builtin(compiled_builtins, name):
    if name not in compiled_builtins:
        pytest.skip(f"builtin ruleset {name!r} not shipped")
    patterns, mfsas = compiled_builtins[name]
    text = _demo_stream(patterns, STREAM_BYTES).decode("latin-1")

    reference = _run_all(mfsas, text, "python")
    for backend in BACKENDS[1:]:
        matches, stats, histograms = _run_all(mfsas, text, backend)
        assert matches == reference[0], f"{name}: {backend} match set"
        assert stats == reference[1], f"{name}: {backend} ExecutionStats"
        assert histograms == reference[2], f"{name}: {backend} sampler histograms"

    # dense with the compiled tier actually active (cold dense above
    # runs the lazy ramp; this run steps the tables + de-opt machinery)
    matches, stats, histograms = _run_all(mfsas, text, "dense", promote=True)
    assert matches == reference[0], f"{name}: promoted dense match set"
    assert stats == reference[1], f"{name}: promoted dense ExecutionStats"
    assert histograms == reference[2], f"{name}: promoted dense sampler histograms"


@pytest.mark.counting
@pytest.mark.parametrize("name", [
    "dotstar_rules",
    "http_signatures",
    "log_patterns",
])
def test_counting_compile_conformance(compiled_builtins, name):
    """Builtins with ``{m,n}`` repeats compiled through the counting
    pipeline must agree with the expansion pipeline on every backend:
    the counting backend runs the registers, every other backend runs
    the ``expand()`` bridge over the same CountingMfsa.  Stats cannot
    match across differently-shaped automata, so this asserts the match
    sets (the stats legs above cover the per-automaton invariance)."""
    if name not in compiled_builtins:
        pytest.skip(f"builtin ruleset {name!r} not shipped")
    patterns, expanded_mfsas = compiled_builtins[name]
    counted = compile_ruleset(
        patterns,
        CompileOptions(emit_anml=False, counting=True, count_threshold=2),
    )
    text = _demo_stream(patterns, STREAM_BYTES).decode("latin-1")

    reference, _, _ = _run_all(expanded_mfsas, text, "python")
    for backend in BACKENDS:
        matches, _, _ = _run_all(counted.mfsas, text, backend)
        assert matches == reference, f"{name}: counting-compiled {backend}"


def test_builtin_parametrization_is_complete(compiled_builtins):
    """The explicit list above must cover every shipped builtin ruleset."""
    listed = {
        "dotstar_rules", "http_signatures", "log_patterns",
        "protein_motifs", "range_rules", "tokens_exact",
    }
    assert set(compiled_builtins) <= listed, (
        "new builtin ruleset shipped — add it to test_backends_agree_on_builtin"
    )


@pytest.mark.parametrize("name", ["tokens_exact", "log_patterns"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_single_match_conformance(compiled_builtins, name, backend):
    """single_match must be exactly 'first (min-end) match per rule'."""
    if name not in compiled_builtins:
        pytest.skip(f"builtin ruleset {name!r} not shipped")
    patterns, mfsas = compiled_builtins[name]
    text = _demo_stream(patterns, STREAM_BYTES).decode("latin-1")

    full: set = set()
    first: set = set()
    for mfsa in mfsas:
        full |= IMfantEngine(mfsa, backend=backend).run(text).matches
        first |= IMfantEngine(mfsa, backend=backend, single_match=True).run(text).matches

    expected = {}
    for rule, end in full:
        if rule not in expected or end < expected[rule]:
            expected[rule] = end
    assert first == {(rule, end) for rule, end in expected.items()}


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_matching_rules_conformance(backend):
    """Rules accepting ε must report a match at *every* position."""
    patterns = ["a*", "abc"]
    result = compile_ruleset(patterns, CompileOptions(emit_anml=False))
    text = "xxabcaax"
    matches: set = set()
    for mfsa in result.mfsas:
        matches |= IMfantEngine(mfsa, backend=backend).run(text).matches
    # rule 0 (a*) matches the empty string at every boundary 0..len.
    assert {(0, e) for e in range(len(text) + 1)} <= matches
    assert (1, 5) in matches  # "abc" ends at offset 5


# ---------------------------------------------------------------------------
# Serve-path conformance (ShardPool + full socket round trip)
# ---------------------------------------------------------------------------


def _oracle(mfsas, payload: bytes) -> set:
    text = payload.decode("latin-1")
    matches: set = set()
    for mfsa in mfsas:
        matches |= IMfantEngine(mfsa).run(text).matches
    return matches


def _stored_artifact(root, patterns, mfsas):
    """An on-disk artifact, which the pool's worker processes load."""
    from repro.serve.artifacts import Artifact, ArtifactStore, ruleset_key

    key = ruleset_key(patterns)
    path = ArtifactStore(root).save(key, patterns, mfsas)
    return Artifact(
        key=key, patterns=list(patterns), mfsas=list(mfsas),
        loaded_from_cache=False, path=path,
    )


@pytest.mark.serve
@pytest.mark.parametrize("num_shards", [2, 3, 5])
def test_shard_pool_equals_single_pass(compiled_builtins, num_shards, tmp_path):
    from repro.serve.shards import ShardPool

    patterns, mfsas = compiled_builtins["tokens_exact"]
    assert resolve_strategy(mfsas) == ("overlap", 29)  # bounded → really shards
    payload = _demo_stream(patterns, STREAM_BYTES)
    # Plant a boundary-spanning occurrence dead on every possible cut.
    token = b"MAIL FROM:<"
    for cut in range(1, num_shards):
        pos = cut * len(payload) // num_shards - len(token) // 2
        payload = payload[:pos] + token + payload[pos + len(token):]

    artifact = _stored_artifact(tmp_path, patterns, mfsas)
    with ShardPool(artifact, num_shards=num_shards, backend="lazy") as pool:
        result = pool.scan(payload)
    assert result.shards == num_shards
    assert not result.partial
    assert result.matches == _oracle(mfsas, payload)


@pytest.mark.serve
@pytest.mark.sfa
@pytest.mark.parametrize("name", ["dotstar_rules", "http_signatures"])
@pytest.mark.parametrize("num_shards", [2, 4])
def test_shard_pool_sfa_equals_single_pass(compiled_builtins, name, num_shards, tmp_path):
    """Mapping-mode sharding (zero overlap bytes) must stay byte-identical
    to the single-shot oracle on unbounded rulesets, where the overlap
    planner has no finite lead."""
    from repro.serve.shards import ShardPool

    patterns, mfsas = compiled_builtins[name]
    payload = _demo_stream(patterns, STREAM_BYTES)

    artifact = _stored_artifact(tmp_path, patterns, mfsas)
    with ShardPool(artifact, num_shards=num_shards) as pool:
        assert (pool.strategy, pool.overlap) == ("sfa", None)
        result = pool.scan(payload)
    assert result.shards == num_shards
    assert result.strategy == "sfa"
    assert not result.partial
    assert result.matches == _oracle(mfsas, payload)

    with ShardPool(artifact, num_shards=num_shards) as pool:
        first = pool.scan(payload, single_match=True)
    expected = {}
    for rule, end in result.matches:
        if rule not in expected or end < expected[rule]:
            expected[rule] = end
    assert first.matches == {(r, e) for r, e in expected.items()}


@pytest.mark.serve
def test_serve_socket_round_trip_equals_single_process(compiled_builtins, tmp_path):
    """End to end: repro serve + client == single-process match, ≥2 shards."""
    from repro.serve import ArtifactStore, MatchClient, ServeConfig, ServerThread

    patterns, mfsas = compiled_builtins["protein_motifs"]
    payload = _demo_stream(patterns, STREAM_BYTES, seed=3)
    # Straddle the 2-shard midpoint with a known motif occurrence.
    motif = patterns[0].encode("latin-1")
    if motif.isalnum():
        mid = len(payload) // 2 - len(motif) // 2
        payload = payload[:mid] + motif + payload[mid + len(motif):]

    artifact = ArtifactStore(tmp_path / "cache").get_or_compile(
        patterns, CompileOptions(emit_anml=False)
    )
    config = ServeConfig(shards=2, batch_max=4, queue_depth=16)
    with ServerThread(artifact, config) as address:
        with MatchClient.connect(address) as client:
            result = client.match(payload)
            single = client.match(payload, single_match=True)
    assert result.ok
    assert result.shards == 2
    oracle = _oracle(artifact.mfsas, payload)
    assert result.matches == oracle
    assert result.stats["match_count"] == len(oracle)

    expected_first = {}
    for rule, end in oracle:
        if rule not in expected_first or end < expected_first[rule]:
            expected_first[rule] = end
    assert single.matches == {(r, e) for r, e in expected_first.items()}
