"""Context-aware path indexing — the offline phase (Section 5.1).

* :mod:`repro.index.paths` — the columnar :class:`PathCandidates`
  container every producer and every lookup speaks, and its compact
  binary codec (node ids + probability components),
* :mod:`repro.index.grid` — the bucket grid ``{β, β+γ, ..., 1}`` and its
  one rounding rule,
* :mod:`repro.index.context` — per-node context information
  ``c(v, σ)``, ``ppu(v, σ)``, ``fpu(v, σ)``,
* :mod:`repro.index.histogram` — per-label-sequence cardinality
  histograms with exponential-curve-fit estimation,
* :mod:`repro.index.builder` — the path enumeration (offline build,
  live absorb, on demand) with β pruning and symmetry canonicalisation,
  optionally on a process pool, and the one bucket writer,
* :mod:`repro.index.protocol` — canonical label-sequence orientation
  and store read accounting,
* :mod:`repro.index.path_index` — the queryable index: bucket range
  scans over one path store, orientation handling, cardinality
  estimates, and the live state that keeps it exact through mutations
  (dirty ids, the delta of paths through them, compaction),
* :mod:`repro.index.bundle` — the index and context saved as one
  directory.
"""

from repro.index.paths import (
    IndexedPath,
    PathCandidates,
    decode_paths,
    decode_path_arrays,
    decode_paths_above,
)
from repro.index.context import ContextInformation, build_context
from repro.index.histogram import CardinalityHistogram
from repro.index.protocol import (
    canonical_sequence,
    is_palindrome,
    orient_to_sequence,
)
from repro.index.path_index import PathIndex
from repro.index.builder import PathIndexBuilder, build_path_index

__all__ = [
    "IndexedPath",
    "PathCandidates",
    "decode_paths",
    "decode_path_arrays",
    "decode_paths_above",
    "ContextInformation",
    "build_context",
    "CardinalityHistogram",
    "canonical_sequence",
    "is_palindrome",
    "orient_to_sequence",
    "PathIndex",
    "PathIndexBuilder",
    "build_path_index",
]
