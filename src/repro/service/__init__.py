"""Query serving — amortizing one offline phase over many online queries.

The paper's architecture is a serving system in disguise: an expensive
offline phase (PEG construction + context-aware path index) and a cheap
online phase. This package supplies the serving layer the split calls
for:

* :class:`~repro.service.service.QueryService` — a shared, immutable
  engine behind a worker pool, with LRU result caching and
  single-flight deduplication of identical concurrent requests; every
  request takes one path, :meth:`~repro.service.service.QueryService.submit`,
  to the engine,
* :class:`~repro.utils.lru.ResultCache` — the thread-safe LRU
  keyed by canonical query signatures,
* :class:`~repro.service.stats.ServiceStats` — hits/misses, dedups,
  evictions, in-flight gauge, p50/p95 latency,
* warm-start snapshots via
  :meth:`~repro.service.service.QueryService.snapshot` and
  :meth:`~repro.service.service.QueryService.from_snapshot`, built on
  :mod:`repro.index.bundle`.
"""

from repro.service.service import QueryService, request_key
from repro.service.stats import ServiceStats
from repro.utils.lru import ResultCache

__all__ = [
    "QueryService",
    "ResultCache",
    "ServiceStats",
    "request_key",
]
