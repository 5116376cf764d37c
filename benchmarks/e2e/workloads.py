"""The four end-to-end workloads and their seeded inputs.

Everything a workload sends is generated here from ``--seed`` and the
frozen rule files under ``rulesets/``; nothing is read from
``repro.datasets``, so an edit there cannot change what is measured.
The server only ever sees the generated payloads (and, on
``reload_churn``, the generated reload rulesets).

The payload generators are ports of ``repro.cli._demo_stream`` (literal
material mixed with short noise words: match-dense traffic) and
``benchmarks/bench_dense._sparse_stream`` (long runs of noise bytes
disjoint from the ruleset, literals at ~0.2% of bytes: DPI-style sparse
traffic).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

RULESETS = Path(__file__).resolve().parent / "rulesets"

#: literal density of the sparse streams (share of bytes that are
#: ruleset literal material)
SPARSE_DENSITY = 0.002


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one served ruleset."""

    name: str
    #: rule file under ``rulesets/`` the server is started with
    ruleset: str
    #: ``repro serve`` flags beyond the benchmark's fixed ones
    serve_flags: tuple[str, ...]
    #: ``demo`` (match-dense) or ``sparse`` (DPI-style) payloads
    payload_kind: str
    payload_bytes: int
    #: distinct payloads per run; requests cycle through them
    pool: int
    #: ``rpc`` (open loop, then a closed-loop capacity phase over two
    #: connections), ``closed`` (one connection) or ``churn`` (one
    #: closed-loop match connection plus one reload connection)
    shape: str
    #: ``rpc`` only: total open-loop send rate over both connections
    rate_rps: float = 0.0
    #: ``churn`` only: match replies between one reload's reply and the
    #: next reload (0 = no reloads)
    reload_every: int = 0
    #: ``churn`` only: rules drawn from ``ds9_pool.rules`` per ruleset
    churn_rules: int = 0


#: why each workload exists: README.md and the ``why`` of each workload
#: in BENCHMARK.json
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="small_rpc",
            ruleset="tokens_exact.rules",
            serve_flags=(),
            payload_kind="demo",
            payload_bytes=512,
            pool=256,
            shape="rpc",
            # at the reference speed, like every rate the benchmark reports.
            # The closed-loop capacity is ~1300 req/s in calm periods, but
            # under heavy contention it drops to ~550 req/s even after
            # scaling: the probe sees the CPUs slow down, not the longer
            # wake-ups a request/reply exchange pays.  300 is about half of
            # the heavy-period capacity, so the open loop never saturates
            # the server (see README.md, "Noise")
            rate_rps=300.0,
        ),
        Workload(
            name="bulk_sparse",
            ruleset="http_signatures.rules",
            serve_flags=(),
            payload_kind="sparse",
            payload_bytes=64 * 1024,
            # the per-payload scan cost varies by ~30% within a pool; 64
            # payloads keep the pool's median cost within ~2% across seeds
            pool=64,
            shape="closed",
        ),
        Workload(
            name="bounded_repeats",
            ruleset="range_rules.rules",
            serve_flags=("--backend", "counting"),
            payload_kind="demo",
            payload_bytes=4 * 1024,
            pool=32,
            shape="closed",
        ),
        Workload(
            name="reload_churn",
            ruleset="tokens_exact.rules",
            serve_flags=(),
            payload_kind="demo",
            payload_bytes=1024,
            pool=64,
            shape="churn",
            # about one reload a second at the parent commit
            reload_every=16,
            churn_rules=50,
        ),
    )
}


def read_rules(name: str) -> list[str]:
    """Patterns of one frozen rule file (one ERE per line, ``#`` comments)."""
    patterns = []
    for line in (RULESETS / name).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            patterns.append(line)
    return patterns


def _literals(patterns: list[str]) -> list[str]:
    literals = []
    for pattern in patterns:
        core = "".join(ch for ch in pattern if ch.isalnum() or ch in " _-/.:")
        if core:
            literals.append(core)
    return literals


def demo_stream(patterns: list[str], size: int, rng: random.Random) -> bytes:
    """Ruleset literal material mixed with short noise words."""
    literals = _literals(patterns)
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


def sparse_stream(
    patterns: list[str], size: int, rng: random.Random, density: float = SPARSE_DENSITY
) -> bytes:
    """Long noise runs, disjoint from the ruleset's bytes, with literal
    material at ~``density`` of the stream."""
    literals = _literals(patterns)
    used = {ch for lit in literals for ch in lit}
    noise = "".join(ch for ch in "~!@#$%^&*()+=|;,?\t" if ch not in used) or "\x01"
    chunks: list[str] = []
    produced = 0
    lit_bytes = max(1, sum(len(lit) for lit in literals) // max(1, len(literals)))
    gap = max(1, int(lit_bytes / max(density, 1e-6)))
    while produced < size:
        run = rng.randint(gap // 2, gap + gap // 2)
        chunks.append("".join(rng.choice(noise) for _ in range(run)))
        produced += run
        if literals:
            piece = rng.choice(literals)
            chunks.append(piece)
            produced += len(piece)
    return "".join(chunks).encode("latin-1")[:size]


def payloads(workload: Workload, seed: int) -> list[bytes]:
    """The workload's payload pool for ``seed`` (same seed, same bytes)."""
    patterns = read_rules(workload.ruleset)
    make = demo_stream if workload.payload_kind == "demo" else sparse_stream
    return [
        make(patterns, workload.payload_bytes, random.Random(f"{seed}:{workload.name}:{i}"))
        for i in range(workload.pool)
    ]


def churn_ruleset(workload: Workload, seed: int, index: int) -> list[str]:
    """The ``index``-th ruleset a churn workload serves: the base rules
    (ids ``0 .. len(base)-1``, unchanged) plus a fresh seeded draw from
    the DS9 pool.  Index 0 is the ruleset the server starts with."""
    pool = read_rules("ds9_pool.rules")
    rng = random.Random(f"{seed}:{workload.name}:reload:{index}")
    return read_rules(workload.ruleset) + rng.sample(pool, workload.churn_rules)
