"""The two-level path store: a sorted directory over a record log.

First level: a hash directory — a plain dict — mapping a canonical
label sequence ``X`` to its buckets (equality access). Second level:
per sequence, the ``(bucket, offset, length)`` triples in ascending
bucket order, so a threshold scan is one bisect plus a slice (range
access on π). That is the access pattern the paper asks of its
off-the-shelf store — *equality on X, range on π* — without the tree:
the whole directory is a few hundred entries and lives in memory.
Payloads are stored in a record log and pointed to from the triples.

Two implementations share the :class:`PathStore` interface:
:class:`InMemoryPathStore` for tests and small workloads, and
:class:`DiskPathStore` for the paper's disk-based setting.

Both count the read operations they serve and the bytes they hand
out (``read_count`` / ``bytes_read``); the query engine attributes the
deltas to each query's lookup stage.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import Iterable, Iterator, Tuple

from repro.storage.recordlog import RecordLog
from repro.testing import faults
from repro.utils.errors import FaultError, StorageError

#: Suffix of the temporary file :func:`atomic_write` renames from; a
#: crash between the write and the rename leaves one behind.
TEMP_SUFFIX = ".tmp"


def atomic_write(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` so readers see all of it or none.

    Writes a temporary file beside ``path``, makes it durable, then
    renames it over ``path`` — the rename is the commit point. The
    ``store.commit`` fault site fires between the two, where a crash
    would leave the previous file in place and a stray temporary; it
    honours ``error`` only (callers commit under their lock, where an
    injected sleep has no business).
    """
    temp = path + TEMP_SUFFIX
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    action = faults.fire("store.commit")
    if action is not None and action.kind == "error":
        raise FaultError("injected fault at store.commit")
    os.replace(temp, path)


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
DISK_STORE_FILENAMES = ("index.log", "index.dir")

# index.dir = header + pickled {label sequence: [(bucket, offset, length)]}.
_DIR_HEADER = struct.Struct(">4sHQI")  # magic, version, body length, CRC32
_DIR_MAGIC = b"RPDX"
_DIR_VERSION = 1


class DiskPathStore(PathStore):
    """Disk-backed path store: a record log plus the directory indexing it.

    Creates the :data:`DISK_STORE_FILENAMES` files under ``directory``:
    ``index.log`` (append-only payload record log) and ``index.dir``
    (for each label sequence its ascending ``(bucket, offset, length)``
    triples, framed by a magic + version + length + CRC32 header). The
    directory is held in memory; :meth:`flush` makes the log durable
    and then publishes the directory with :func:`atomic_write`, whose
    rename is the store's one commit point: records appended since the
    last flush are unreferenced until it, so a reopened store is the
    state of its last completed flush, never a mix. Opening checks the
    frame and that every pointer ends inside the log; a short, corrupt,
    foreign-format or dangling directory is a :class:`StorageError`.

    Payloads are returned as zero-copy ``memoryview`` slices over an
    mmap of the record log — bucket payloads feed ``np.frombuffer``
    bulk decoding without an intermediate copy — or as fresh ``bytes``
    where the log cannot be mapped
    (:meth:`~repro.storage.recordlog.RecordLog.read_view` decides).
    Views stay valid for the process lifetime (the log is append-only
    and the mapping survives :meth:`close` while referenced).

    All operations are serialized through one reentrant lock, so a store
    may be shared by concurrent readers (the log's file handle and its
    lazily grown mapping are stateful and would otherwise race);
    :meth:`scan_buckets` materializes its scan under the lock before
    yielding.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.RLock()
        log_name, dir_name = DISK_STORE_FILENAMES
        self._log = RecordLog(os.path.join(self.directory, log_name))
        self._dir_path = os.path.join(self.directory, dir_name)
        try:
            self._directory = self._load_directory()
        except StorageError:
            self._log.close()
            raise
        # A new store publishes its (possibly empty) directory on the
        # first flush, so a closed store always holds both files.
        self._dirty = not os.path.exists(self._dir_path)

    def _load_directory(self) -> dict:
        try:
            with open(self._dir_path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return {}
        body = raw[_DIR_HEADER.size:]
        if len(raw) < _DIR_HEADER.size or _DIR_HEADER.unpack_from(raw) != (
            _DIR_MAGIC, _DIR_VERSION, len(body), zlib.crc32(body)
        ):
            raise StorageError(
                f"{self._dir_path!r} is not a complete version-"
                f"{_DIR_VERSION} store directory"
            )
        directory = pickle.loads(body)
        for triples in directory.values():
            for _bucket, offset, length in triples:
                if not self._log.holds(offset, length):
                    raise StorageError(
                        f"{self._dir_path!r} points past the end of the "
                        f"record log (offset {offset}, length {length})"
                    )
        return directory

    def put_bucket(self, label_seq: tuple, bucket: int, payload: bytes) -> None:
        _check_bucket(bucket)
        with self._lock:
            triples = self._directory.setdefault(tuple(label_seq), [])
            entry = (bucket, *self._log.append(bytes(payload)))
            at = bisect_left(triples, (bucket,))
            if at < len(triples) and triples[at][0] == bucket:
                triples[at] = entry
            else:
                triples.insert(at, entry)
            self._dirty = True

    def get_bucket(
        self, label_seq: tuple, bucket: int
    ) -> "bytes | memoryview | None":
        _check_bucket(bucket)
        faults.check("store.read")
        with self._lock:
            self.read_count += 1
            triples = self._directory.get(tuple(label_seq), ())
            at = bisect_left(triples, (bucket,))
            if at == len(triples) or triples[at][0] != bucket:
                return None
            _, offset, length = triples[at]
            self.bytes_read += length
            return self._log.read_view(offset, length)

    def scan_buckets(self, label_seq: tuple, min_bucket: int = 0):
        faults.check("store.read")
        with self._lock:
            self.read_count += 1
            triples = self._directory.get(tuple(label_seq))
            if triples is None:
                return
            results = []
            start = bisect_left(triples, (_check_bucket(min_bucket),))
            for bucket, offset, length in triples[start:]:
                self.bytes_read += length
                results.append((bucket, self._log.read_view(offset, length)))
        yield from results

    def label_sequences(self):
        with self._lock:
            return tuple(self._directory)

    def size_bytes(self) -> int:
        with self._lock:
            size = self._log.size_bytes()
            if os.path.exists(self._dir_path):
                size += os.path.getsize(self._dir_path)
            return size

    def flush(self) -> None:
        with self._lock:
            if not self._dirty:
                return
            self._log.sync()
            body = pickle.dumps(self._directory, pickle.HIGHEST_PROTOCOL)
            header = _DIR_HEADER.pack(
                _DIR_MAGIC, _DIR_VERSION, len(body), zlib.crc32(body)
            )
            atomic_write(self._dir_path, header + body)
            self._dirty = False

    def close(self) -> None:
        with self._lock:
            try:
                self.flush()
            finally:
                self._log.close()

