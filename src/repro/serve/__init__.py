"""repro.serve — the resident sharded matching service.

The serving layer on top of the compile→match pipeline (docs/serving.md):

* :mod:`repro.serve.artifacts` — content-addressed cache of compiled
  rulesets (:class:`ArtifactStore`): compile once, every later start —
  and every worker process — loads the MFSAs via
  :mod:`repro.mfsa.serialize` instead of recompiling;
* :mod:`repro.serve.shards` — :class:`ShardPool`: one in-process scan
  per payload over the pool's one engine set, one scan at a time, or
  data-parallel jobs on worker processes under chunkscan's scan plan
  (overlap/stitch or SFA mappings, chosen from the compiled automaton);
  deadline-bounded partial results and the guard backend-degradation
  ladder;
* :mod:`repro.serve.protocol` — length-prefixed JSON frames with
  HTTP-flavoured status codes (200 ok / 206 partial / 429 rejected);
* :mod:`repro.serve.server` — the asyncio front door: request batching
  and coalescing, bounded-queue backpressure, per-request
  :class:`~repro.guard.budget.Budget` deadlines, ``serve_*`` metrics;
* :mod:`repro.serve.client` — blocking :class:`MatchClient` for
  scripts, tests and the ``repro client`` CLI, with retry/reconnect
  under a :class:`RetryPolicy`;
* :mod:`repro.serve.resilience` — the self-healing primitives:
  :class:`RetryPolicy` (backoff + full jitter), :class:`DedupWindow`
  (idempotent-retry replay), :class:`AdmissionController` (CoDel-style
  overload shedding) and :class:`ShardSupervisor` (worker restart
  backoff + circuit breaker); see docs/robustness.md.

Quick start::

    from repro.serve import ArtifactStore, MatchClient, ServeConfig, ServerThread

    artifact = ArtifactStore("/tmp/repro-cache").get_or_compile(patterns)
    with ServerThread(artifact, ServeConfig(shards=4)) as address:
        with MatchClient.connect(address) as client:
            result = client.match(payload)
"""

from __future__ import annotations

from repro.serve.artifacts import Artifact, ArtifactStore, ruleset_key
from repro.serve.client import ClientResult, MatchClient
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    STATUS_CODES,
    FrameError,
    MatchRequest,
)
from repro.serve.resilience import (
    AdmissionController,
    DedupWindow,
    RetryPolicy,
    ShardSupervisor,
)
from repro.serve.server import MatchServer, MatchService, ServeConfig, ServerThread
from repro.serve.shards import (
    ShardJob,
    ShardPool,
    ShardScanResult,
    plan_shards,
    rebase_matches,
)

__all__ = [
    "Artifact",
    "ArtifactStore",
    "ruleset_key",
    "ClientResult",
    "MatchClient",
    "FrameError",
    "MatchRequest",
    "MAX_FRAME_BYTES",
    "STATUS_CODES",
    "AdmissionController",
    "DedupWindow",
    "RetryPolicy",
    "ShardSupervisor",
    "MatchServer",
    "MatchService",
    "ServeConfig",
    "ServerThread",
    "ShardJob",
    "ShardPool",
    "ShardScanResult",
    "plan_shards",
    "rebase_matches",
]
