"""The queryable context-aware path index (Section 5.1).

Entries are keyed by ``(X, π)`` where ``X`` is a node-label sequence and
``π`` a probability bucket on the grid ``{β, β+γ, ..., 1}``; values are
the paths whose probability under ``X`` falls in ``[π, π+γ)``, each with
its ``Prle`` and ``Prn`` components. For undirected graphs, ``X`` and its
reverse share one stored entry (symmetry optimisation); lookups
transparently orient results to the requested sequence. Where a range
scan starts is asked of the index's ``grid``
(:class:`~repro.index.grid.BucketGrid`), which filed the paths.

:class:`PathIndex` is the one store-backed implementation of the
:class:`~repro.index.protocol.PathIndexProtocol`, over one
:class:`~repro.storage.kvstore.PathStore` (in memory or on disk).
"""

from __future__ import annotations

from repro.index.grid import BucketGrid
from repro.index.paths import (
    PathCandidates,
    concat_payloads,
    decode_paths_above,
)
from repro.index.protocol import (
    PathIndexProtocol,
    canonical_sequence,
    is_palindrome,
)
from repro.obs.trace import current_span
from repro.storage.kvstore import PathStore
from repro.utils.errors import IndexError_

__all__ = [
    "PathIndex",
    "canonical_sequence",
    "is_palindrome",
]


class PathIndex(PathIndexProtocol):
    """Two-level context-aware path index over a PEG.

    Constructed by :class:`~repro.index.builder.PathIndexBuilder`; query
    processing uses :meth:`lookup` and :meth:`estimate_cardinality`.
    """

    def __init__(
        self,
        store: PathStore,
        max_length: int,
        beta: float,
        gamma: float,
        histograms: dict,
        build_stats: dict | None = None,
    ) -> None:
        if not 0.0 < beta <= 1.0:
            raise IndexError_(f"beta must be in (0, 1], got {beta}")
        if not 0.0 < gamma <= 1.0:
            raise IndexError_(f"gamma must be in (0, 1], got {gamma}")
        if max_length < 1:
            raise IndexError_(f"max_length must be >= 1, got {max_length}")
        self.store = store
        self.max_length = int(max_length)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.histograms = dict(histograms)
        #: Bumped whenever compaction rewrites :attr:`histograms`
        #: (:meth:`repro.delta.overlay.DeltaOverlayIndex.compact`); plan
        #: cache keys mix it in, so it alone re-keys estimate-costed plans.
        self.histogram_epoch = 0
        self.build_stats = dict(build_stats or {})
        #: The grid the paths were filed on.
        self.grid = BucketGrid(self.beta, self.gamma)

    # ------------------------------------------------------------------
    # Lookup (the public lookup() lives on PathIndexProtocol)
    # ------------------------------------------------------------------

    def lookup_canonical(
        self, canonical_seq: tuple, alpha: float
    ) -> PathCandidates:
        """Stored paths of one canonical sequence with probability >= alpha.

        The range scan's bucket bodies are joined and bulk-decoded once
        (one ``frombuffer`` parse plus one array threshold test per
        lookup); the result stays columnar — see
        :func:`repro.index.paths.decode_paths_above`.
        """
        min_bucket = self.grid.bucket_of(alpha)
        buckets = self.store.scan_buckets(canonical_seq, min_bucket)
        results = decode_paths_above(
            concat_payloads(payload for _, payload in buckets),
            alpha,
            len(canonical_seq),
        )
        span = current_span()
        if span.enabled:
            span.incr("index_fetches")
            span.incr("paths_decoded", len(results))
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def size_bytes(self) -> int:
        """Approximate index footprint in bytes."""
        return self.store.size_bytes()

    def num_sequences(self) -> int:
        """Number of distinct canonical label sequences indexed."""
        return len(self.histograms)

    def num_paths(self) -> int:
        """Total number of stored (canonical) paths."""
        return sum(h.total() for h in self.histograms.values())

    def stats(self) -> dict:
        """Summary including builder statistics."""
        info = {
            "max_length": self.max_length,
            "beta": self.beta,
            "gamma": self.gamma,
            "sequences": self.num_sequences(),
            "paths": self.num_paths(),
            "size_bytes": self.size_bytes(),
        }
        info.update(self.build_stats)
        return info
