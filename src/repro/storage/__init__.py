"""Disk-backed storage substrate for the path index.

The paper stores its index in KyotoCabinet as a two-level structure: a
hash index on the label sequence and ordered access on the probability
bucket. What the algorithms need from it is *equality on X, range on
π*; this package provides that in pure Python with two files per store:

* :class:`~repro.storage.recordlog.RecordLog` — append-only blob store
  for bucket payloads,
* :class:`~repro.storage.kvstore.DiskPathStore` /
  :class:`~repro.storage.kvstore.InMemoryPathStore` — the two-level
  path-store interface the index builder writes to; on disk the two
  levels are one directory (a dict on the label sequence, each value
  sorted by bucket) pointing into the record log,
* :func:`~repro.storage.kvstore.atomic_write` — write-temp, ``fsync``,
  rename: the commit point of a store and of a bundle.
"""

from repro.storage.recordlog import RecordLog
from repro.storage.kvstore import (
    PathStore,
    InMemoryPathStore,
    DiskPathStore,
    atomic_write,
)

__all__ = [
    "RecordLog",
    "PathStore",
    "InMemoryPathStore",
    "DiskPathStore",
    "atomic_write",
]
