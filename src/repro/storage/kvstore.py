"""The two-level path store: hash directory + B+ tree + record log.

First level: a hash directory mapping a canonical label sequence ``X``
to a dense integer id (equality access). Second level: a B+ tree over
composite keys ``(sequence id, probability bucket)`` supporting range
scans over buckets (range access on π). Payloads are stored in a record
log and pointed to from the tree.

Two implementations share the :class:`PathStore` interface:
:class:`InMemoryPathStore` for tests and small workloads, and
:class:`DiskPathStore` for the paper's disk-based setting.

Both count the read operations they serve (``read_count``), which the
batched query path and its benchmarks use to show that grouping queries
fetches each shard bucket range once instead of once per query. A
sharded store (:class:`repro.index.sharded.ShardedPathStore`) lays its
child stores out as ``shard-00/ ... shard-NN/`` subdirectories of one
bundle directory; the :func:`shard_directory` /
:func:`list_shard_directories` helpers define that naming in one place.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Tuple

from repro.storage.btree import BPlusTree
from repro.storage.recordlog import RecordLog
from repro.testing import faults
from repro.utils.errors import StorageError

_COMPOSITE = struct.Struct(">IH")   # (sequence id, bucket in milli-units)
_POINTER = struct.Struct(">QI")     # (record offset, record length)


class PathStore(ABC):
    """Bucketed key/value store keyed by ``(label sequence, bucket)``.

    Buckets are integers in milli-probability units (``0..1000``);
    payloads are opaque bytes-like buffers (the index builder
    serializes path lists into them). Reads return ``bytes`` or — for
    zero-copy implementations — a read-only ``memoryview``; consumers
    must treat payloads as buffers (``struct.unpack_from``,
    ``np.frombuffer``, ``bytes(payload)``) and call ``bytes()`` before
    pickling or using one as a dict key. Every store counts the read
    operations (:meth:`get_bucket` / :meth:`scan_buckets` calls) it
    serves in ``read_count``.
    """

    #: Read operations served; incremented by subclasses, reset with
    #: :meth:`reset_read_count`.
    read_count: int = 0

    #: Total payload bytes handed out by reads (observability: the
    #: engine reports per-query byte deltas in its lookup-stage spans).
    bytes_read: int = 0

    def reset_read_count(self) -> None:
        """Zero the read-operation and bytes-read counters."""
        self.read_count = 0
        self.bytes_read = 0

    @abstractmethod
    def put_bucket(self, label_seq: tuple, bucket: int, payload: bytes) -> None:
        """Store ``payload`` under ``(label_seq, bucket)`` (replaces)."""

    @abstractmethod
    def get_bucket(
        self, label_seq: tuple, bucket: int
    ) -> "bytes | memoryview | None":
        """Fetch the payload of one bucket, or ``None``."""

    @abstractmethod
    def scan_buckets(
        self, label_seq: tuple, min_bucket: int = 0
    ) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(bucket, payload)`` for buckets >= ``min_bucket``, ascending."""

    @abstractmethod
    def label_sequences(self) -> Iterable[tuple]:
        """All label sequences with at least one bucket."""

    @abstractmethod
    def size_bytes(self) -> int:
        """Approximate storage footprint in bytes."""

    @abstractmethod
    def flush(self) -> None:
        """Persist any buffered state."""

    @abstractmethod
    def close(self) -> None:
        """Release resources."""

    def __enter__(self) -> "PathStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _check_bucket(bucket: int) -> int:
    if not isinstance(bucket, int) or bucket < 0 or bucket > 1000:
        raise StorageError(f"bucket must be an int in [0, 1000], got {bucket!r}")
    return bucket


class InMemoryPathStore(PathStore):
    """Dictionary-backed path store for tests and small graphs."""

    def __init__(self) -> None:
        self._data: dict = {}

    def put_bucket(self, label_seq: tuple, bucket: int, payload: bytes) -> None:
        _check_bucket(bucket)
        self._data.setdefault(tuple(label_seq), {})[bucket] = bytes(payload)

    def get_bucket(self, label_seq: tuple, bucket: int) -> bytes | None:
        faults.check("store.read")
        self.read_count += 1
        payload = self._data.get(tuple(label_seq), {}).get(_check_bucket(bucket))
        if payload is not None:
            self.bytes_read += len(payload)
        return payload

    def scan_buckets(self, label_seq: tuple, min_bucket: int = 0):
        faults.check("store.read")
        self.read_count += 1
        buckets = self._data.get(tuple(label_seq), {})
        for bucket in sorted(buckets):
            if bucket >= min_bucket:
                self.bytes_read += len(buckets[bucket])
                yield bucket, buckets[bucket]

    def label_sequences(self):
        return tuple(self._data)

    def size_bytes(self) -> int:
        return sum(
            len(payload)
            for buckets in self._data.values()
            for payload in buckets.values()
        )

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: Files a DiskPathStore creates under its directory; cleanup code
#: (e.g. bundle rebuilds) iterates this instead of restating the names.
DISK_STORE_FILENAMES = ("index.btree", "index.log", "index.dir")


class DiskPathStore(PathStore):
    """Disk-backed path store: hash directory + B+ tree + record log.

    Creates the :data:`DISK_STORE_FILENAMES` files under ``directory``:
    ``index.btree`` (tree pages), ``index.log`` (payload record log)
    and ``index.dir`` (pickled label-sequence directory, written on
    flush/close).

    Payloads are returned as zero-copy ``memoryview`` slices over an
    mmap of the record log — bucket payloads feed ``np.frombuffer``
    bulk decoding without an intermediate copy — or as fresh ``bytes``
    where the log cannot be mapped
    (:meth:`~repro.storage.recordlog.RecordLog.read_view` decides).
    Views stay valid for the process lifetime (the log is append-only
    and the mapping survives :meth:`close` while referenced).

    All operations are serialized through one reentrant lock, so a store
    may be shared by concurrent readers (the tree's pager cache and the
    log's file handle are position-stateful and would otherwise race);
    :meth:`scan_buckets` materializes its scan under the lock before
    yielding.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.RLock()
        tree_name, log_name, dir_name = DISK_STORE_FILENAMES
        self._tree = BPlusTree(os.path.join(self.directory, tree_name))
        self._log = RecordLog(os.path.join(self.directory, log_name))
        self._dir_path = os.path.join(self.directory, dir_name)
        if os.path.exists(self._dir_path):
            with open(self._dir_path, "rb") as handle:
                self._sequence_ids = pickle.load(handle)
        else:
            self._sequence_ids = {}
        self._dirty_directory = False

    def _sequence_id(self, label_seq: tuple, create: bool) -> int | None:
        label_seq = tuple(label_seq)
        seq_id = self._sequence_ids.get(label_seq)
        if seq_id is None and create:
            seq_id = len(self._sequence_ids)
            self._sequence_ids[label_seq] = seq_id
            self._dirty_directory = True
        return seq_id

    def put_bucket(self, label_seq: tuple, bucket: int, payload: bytes) -> None:
        _check_bucket(bucket)
        with self._lock:
            seq_id = self._sequence_id(label_seq, create=True)
            offset, length = self._log.append(bytes(payload))
            key = _COMPOSITE.pack(seq_id, bucket)
            self._tree.put(key, _POINTER.pack(offset, length))

    def get_bucket(
        self, label_seq: tuple, bucket: int
    ) -> "bytes | memoryview | None":
        _check_bucket(bucket)
        faults.check("store.read")
        with self._lock:
            self.read_count += 1
            seq_id = self._sequence_id(label_seq, create=False)
            if seq_id is None:
                return None
            pointer = self._tree.get(_COMPOSITE.pack(seq_id, bucket))
            if pointer is None:
                return None
            offset, length = _POINTER.unpack(pointer)
            self.bytes_read += length
            return self._log.read_view(offset, length)

    def scan_buckets(self, label_seq: tuple, min_bucket: int = 0):
        faults.check("store.read")
        with self._lock:
            self.read_count += 1
            seq_id = self._sequence_id(label_seq, create=False)
            if seq_id is None:
                return
            lo = _COMPOSITE.pack(seq_id, _check_bucket(min_bucket))
            hi = _COMPOSITE.pack(seq_id, 1000) + b"\xff"
            results = []
            for key, pointer in self._tree.range(lo, hi):
                _, bucket = _COMPOSITE.unpack(key)
                offset, length = _POINTER.unpack(pointer)
                self.bytes_read += length
                results.append((bucket, self._log.read_view(offset, length)))
        yield from results

    def label_sequences(self):
        with self._lock:
            return tuple(self._sequence_ids)

    def size_bytes(self) -> int:
        with self._lock:
            return self._tree.size_bytes() + self._log.size_bytes()

    def flush(self) -> None:
        with self._lock:
            self._tree.flush()
            self._log.flush()
            if self._dirty_directory:
                with open(self._dir_path, "wb") as handle:
                    pickle.dump(self._sequence_ids, handle)
                self._dirty_directory = False

    def close(self) -> None:
        with self._lock:
            self.flush()
            self._tree.close()
            self._log.close()


# ----------------------------------------------------------------------
# Shard-aware on-disk layout
# ----------------------------------------------------------------------

_SHARD_PREFIX = "shard-"


def shard_directory(base_directory: str, shard_id: int) -> str:
    """Directory holding shard ``shard_id``'s store under a bundle dir."""
    if shard_id < 0:
        raise StorageError(f"shard id must be >= 0, got {shard_id}")
    return os.path.join(base_directory, f"{_SHARD_PREFIX}{shard_id:02d}")


def list_shard_directories(base_directory: str) -> list:
    """Existing shard store directories under ``base_directory``, in shard order."""
    if not os.path.isdir(base_directory):
        return []
    shards = []
    for name in os.listdir(base_directory):
        if not name.startswith(_SHARD_PREFIX):
            continue
        suffix = name[len(_SHARD_PREFIX):]
        if suffix.isdigit():
            shards.append((int(suffix), os.path.join(base_directory, name)))
    return [path for _, path in sorted(shards)]
