"""A caching index view for batched multi-query execution.

When a batch of queries is evaluated together, their decomposition
paths frequently share candidate label sequences — the same sequence
would be fetched from the (possibly sharded) store once per query.
:class:`BatchLookupIndex` wraps any
:class:`~repro.index.protocol.PathIndexProtocol` implementation and
memoizes canonical-space fetches for the lifetime of one batch, so each
``(canonical sequence)`` range scan hits the underlying store at most
once per batch; per-query thresholds are applied by filtering the
cached result.

The view is deliberately *not* thread-safe and *not* long-lived — it is
created per batch by :meth:`repro.query.engine.QueryEngine.query_batch`
and discarded with it. Long-lived cross-request caching belongs to the
serving layer's result cache (:mod:`repro.service.service`), which caches
whole query results, not index fetches.
"""

from __future__ import annotations

from typing import Sequence

from repro.index.paths import PathCandidates
from repro.index.protocol import PathIndexProtocol, canonical_sequence


class BatchLookupIndex(PathIndexProtocol):
    """Per-batch memoization of canonical index fetches.

    Cache entries map a canonical sequence to ``(alpha_fetched, paths)``
    where ``paths`` are the stored paths with probability >=
    ``alpha_fetched``. A cached entry answers any request with
    ``alpha >= alpha_fetched`` by filtering; a request below the fetched
    threshold refetches (and widens the entry). Prefetching with the
    batch-wide minimum alpha per sequence therefore guarantees one
    store fetch per distinct sequence.
    """

    def __init__(self, inner: PathIndexProtocol) -> None:
        self.inner = inner
        self.max_length = inner.max_length
        self.beta = inner.beta
        self.gamma = inner.gamma
        self._cache: dict = {}
        self.fetches = 0

    # ------------------------------------------------------------------

    def prefetch(self, label_seq: Sequence, alpha: float) -> None:
        """Warm the cache for one sequence at (at most) ``alpha``."""
        canonical = canonical_sequence(tuple(label_seq))
        entry = self._cache.get(canonical)
        if entry is not None and entry[0] <= alpha:
            return
        self._fetch(canonical, alpha)

    def _fetch(self, canonical: tuple, alpha: float) -> PathCandidates:
        paths = self.inner.lookup_canonical(canonical, alpha)
        self._cache[canonical] = (alpha, paths)
        self.fetches += 1
        return paths

    # ------------------------------------------------------------------
    # Lookup protocol
    # ------------------------------------------------------------------

    def lookup_canonical(
        self, canonical_seq: tuple, alpha: float
    ) -> PathCandidates:
        entry = self._cache.get(canonical_seq)
        if entry is not None and entry[0] <= alpha:
            return entry[1].above(alpha)
        return self._fetch(canonical_seq, alpha)

    def estimate_cardinality(self, label_seq: Sequence, alpha: float) -> float:
        return self.inner.estimate_cardinality(label_seq, alpha)

    # ------------------------------------------------------------------
    # Introspection (delegated)
    # ------------------------------------------------------------------

    def num_sequences(self) -> int:
        return self.inner.num_sequences()

    def num_paths(self) -> int:
        return self.inner.num_paths()

    def size_bytes(self) -> int:
        return self.inner.size_bytes()

    def stats(self) -> dict:
        return self.inner.stats()
