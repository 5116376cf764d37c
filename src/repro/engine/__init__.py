"""Execution engines: iNFAnt (single FSA) and iMFAnt (MFSA) (paper §V).

* :mod:`repro.engine.tables` — pre-processing: symbol-indexed transition
  tables (the iNFAnt data structure linking each of the 256 symbols to
  the transitions it enables).
* :mod:`repro.engine.infant` — the baseline iNFAnt engine over one FSA.
* :mod:`repro.engine.imfant` — the iMFAnt engine over an MFSA: pure-Python,
  lazy (memoized frontier transitions), dense and counting backends.
* :mod:`repro.engine.lazy` — the bounded lazy-DFA configuration cache
  behind ``backend="lazy"``.
* :mod:`repro.engine.dense` — the dense compiled-DFA tier above the
  lazy cache (``backend="dense"``): byte-class-compressed transition
  tables, self-loop run skipping by vectorized block search, and
  mid-buffer de-opt back to lazy interpretation.
* :mod:`repro.engine.counting` — counter registers behind
  ``backend="counting"``: bounded ``{m,n}`` repeats as fields of one
  packed register word, stepped by shift/mask word operations per byte,
  instead of expanded state chains.
* :mod:`repro.engine.counters` — execution statistics (work counters).
* :mod:`repro.engine.cost` — the work-based timing model used by the
  thread-scaling experiments.
* :mod:`repro.engine.multithread` — multi-automata scheduling on T
  threads, modelled: a deterministic machine-model simulator.
* :mod:`repro.engine.sfa` — composable chunk mappings (simultaneous run
  from every entry state): exact zero-overlap data parallelism for any
  ruleset (docs/parallelism.md).
* :mod:`repro.engine.chunkscan` — chunked scanning over one payload,
  and the scan plan it shares with the serve layer's shard pool:
  overlap chunking when every rule's match width is bounded, SFA
  mappings when one is not — chosen from the compiled automaton.
"""

from repro.engine.counters import ExecutionStats
from repro.engine.dense import DEFAULT_PROMOTE_AFTER, DenseScanOutcome, DenseTier
from repro.engine.infant import INfantEngine
from repro.engine.imfant import IMfantEngine
from repro.engine.lazy import DEFAULT_CACHE_SIZE, LazyCacheStats, LazyConfigCache
from repro.engine.tables import ByteClasses, FsaTables, MfsaTables, byte_classes
from repro.engine.cost import CostModel
from repro.engine.multithread import (
    MachineModel,
    simulate_parallel_latency,
)
from repro.engine.sfa import ChunkMapping, SfaScanner, fold_mappings

__all__ = [
    "ExecutionStats",
    "INfantEngine",
    "IMfantEngine",
    "LazyCacheStats",
    "LazyConfigCache",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_PROMOTE_AFTER",
    "DenseScanOutcome",
    "DenseTier",
    "ByteClasses",
    "byte_classes",
    "FsaTables",
    "MfsaTables",
    "CostModel",
    "MachineModel",
    "simulate_parallel_latency",
    "ChunkMapping",
    "SfaScanner",
    "fold_mappings",
]
