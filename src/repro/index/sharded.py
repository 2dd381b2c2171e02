"""Hash-sharded path store: the index's first level, partitioned.

The paper's index is a two-level structure: a hash directory on the
label sequence ``X``, then buckets ordered by probability ``π``.
Sharding partitions exactly that first level, so it is a property of
the *store*: :class:`ShardedPathStore` is a
:class:`~repro.storage.kvstore.PathStore` that routes every
``(label sequence, bucket)`` operation to one of ``N`` child stores by
a stable hash of the canonical label sequence
(:func:`shard_for_sequence`). Everything above the store — the one
:class:`~repro.index.path_index.PathIndex`, its builder, the offline
bundle, the delta overlay, the query engine — sees a plain
``PathStore`` and does not know whether it is sharded.

Because only the canonical orientation of a sequence is stored and a
sequence hashes like its reverse, no path lives in two children and the
union over children is exactly the unsharded store's content — the
invariant ``tests/test_storage_kvstore.py`` and
``tests/test_index_sharded.py`` pin down.

:func:`open_store` is the one place a ``(directory, shard count)`` pair
becomes a store, with the ``shard-NN/`` on-disk layout of
:func:`repro.storage.kvstore.shard_directory`.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.index.protocol import canonical_sequence
from repro.obs.metrics import get_registry
from repro.obs.trace import current_span
from repro.storage.kvstore import (
    DiskPathStore,
    InMemoryPathStore,
    PathStore,
    shard_directory,
)
from repro.utils.errors import IndexError_

#: Separator between labels in the shard hash input; a byte that cannot
#: appear ambiguously inside ``repr`` output of one label boundary.
_HASH_SEPARATOR = b"\x1f"

#: Registry counters per shard id, created on first fetch. Module-level
#: (not store attributes) so sharded stores stay picklable; all sharded
#: stores in the process share the per-shard-id series.
_FETCH_COUNTERS: dict = {}


def _shard_fetch_counter(shard_id: int):
    counter = _FETCH_COUNTERS.get(shard_id)
    if counter is None:
        counter = get_registry().counter(
            "repro_index_shard_fetches_total", shard=f"{shard_id:02d}"
        )
        _FETCH_COUNTERS[shard_id] = counter
    return counter


def shard_for_sequence(label_seq: Sequence, num_shards: int) -> int:
    """Stable shard of a label sequence.

    SHA-1 over the ``repr`` of each label of the **canonical**
    orientation, joined with a separator byte, modulo ``num_shards``.
    The hash depends only on label ``repr`` strings — never on Python's
    per-process randomized ``hash()`` — so the assignment is stable
    across processes, interpreter restarts, platforms, and
    ``PYTHONHASHSEED`` values; independently built shards, warm-started
    snapshots, and online lookups therefore always agree on where a
    sequence lives. A sequence and its reverse hash identically (both
    canonicalize first), matching the index's undirected symmetry.
    """
    if num_shards < 1:
        raise IndexError_(f"num_shards must be >= 1, got {num_shards}")
    canonical = canonical_sequence(tuple(label_seq))
    payload = _HASH_SEPARATOR.join(
        repr(label).encode("utf-8") for label in canonical
    )
    digest = hashlib.sha1(payload).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


class ShardedPathStore(PathStore):
    """N child stores behind the one :class:`PathStore` interface.

    Child ``i`` holds exactly the label sequences
    :func:`shard_for_sequence` assigns to it. Reads are counted per
    shard (``repro_index_shard_fetches_total{shard=…}`` and the
    ``shard_fetches[NN]`` attribute of the active span);
    ``read_count`` / ``bytes_read`` are the sums over the children.
    """

    def __init__(self, children: Sequence[PathStore]) -> None:
        self.children = tuple(children)
        if not self.children:
            raise IndexError_("a sharded store needs at least one child")

    def shard_for(self, label_seq: Sequence) -> int:
        """Id of the child owning a label sequence (orientation-invariant)."""
        return shard_for_sequence(label_seq, len(self.children))

    def _fetch_from(self, label_seq: tuple) -> PathStore:
        """The child owning ``label_seq``, counting one fetch against it."""
        shard_id = self.shard_for(label_seq)
        span = current_span()
        if span.enabled:
            span.incr(f"shard_fetches[{shard_id:02d}]")
        _shard_fetch_counter(shard_id).inc()
        return self.children[shard_id]

    @property
    def read_count(self) -> int:
        return sum(child.read_count for child in self.children)

    @property
    def bytes_read(self) -> int:
        return sum(child.bytes_read for child in self.children)

    def reset_read_count(self) -> None:
        for child in self.children:
            child.reset_read_count()

    def put_bucket(self, label_seq: tuple, bucket: int, payload: bytes) -> None:
        child = self.children[self.shard_for(label_seq)]
        child.put_bucket(label_seq, bucket, payload)

    def get_bucket(self, label_seq: tuple, bucket: int):
        return self._fetch_from(label_seq).get_bucket(label_seq, bucket)

    def scan_buckets(self, label_seq: tuple, min_bucket: int = 0):
        return self._fetch_from(label_seq).scan_buckets(label_seq, min_bucket)

    def label_sequences(self) -> tuple:
        return tuple(
            seq for child in self.children for seq in child.label_sequences()
        )

    def size_bytes(self) -> int:
        return sum(child.size_bytes() for child in self.children)

    def flush(self) -> None:
        for child in self.children:
            child.flush()

    def close(self) -> None:
        for child in self.children:
            child.close()


def open_store(directory: str | None, num_shards: int = 0) -> PathStore:
    """The one ``(directory, shard count)`` → store mapping.

    ``directory=None`` gives in-memory stores, otherwise disk stores
    (reopened if they exist — clear a reused directory with
    :func:`repro.index.bundle.clear_offline_artifacts` before building
    into it). ``num_shards=0`` is the paper's single store at the
    directory root; ``num_shards >= 1`` a :class:`ShardedPathStore`
    over ``shard-00/ ... shard-NN/`` children.
    """
    if num_shards < 0:
        raise IndexError_(f"num_shards must be >= 0, got {num_shards}")

    def leaf(path: str | None) -> PathStore:
        return InMemoryPathStore() if path is None else DiskPathStore(path)

    if not num_shards:
        return leaf(directory)
    return ShardedPathStore([
        leaf(None if directory is None else shard_directory(directory, i))
        for i in range(num_shards)
    ])
