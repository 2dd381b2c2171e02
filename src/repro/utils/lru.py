"""The thread-safe LRU every cache of the stack is built on.

The serving layer's result cache keys it by canonical request
signatures (query canonical form + the result-relevant
:class:`~repro.query.engine.QueryOptions` fields + alpha), so two
structurally identical queries written with different node ids share
one entry; the plan cache and the link-structure cache bring their own
keys. Values are the owner's, treated as immutable once published.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class ResultCache:
    """Bounded LRU mapping with hit/miss/eviction accounting hooks.

    Parameters
    ----------
    capacity:
        Maximum number of entries; ``0`` disables caching entirely
        (every :meth:`get` misses, every :meth:`put` is dropped).
    on_evict:
        Optional callback ``(count) -> None`` invoked outside the lock
        after entries are evicted (the service wires this to
        :meth:`~repro.service.stats.ServiceStats.record_eviction`).
    """

    def __init__(self, capacity: int = 256, on_evict=None) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._on_evict = on_evict

    def get(self, key):
        """The cached value for ``key`` (refreshing recency), or ``None``."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        """Insert/replace ``key``, evicting least-recently-used overflow."""
        if self.capacity == 0:
            return
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                evicted += 1
        if evicted and self._on_evict is not None:
            self._on_evict(evicted)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        """Drop every entry (not counted as evictions)."""
        with self._lock:
            self._data.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache(size={len(self)}, capacity={self.capacity})"
