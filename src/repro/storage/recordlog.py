"""Append-only blob store for index payloads.

Bucket payloads (serialized path lists) are variable-length and large,
so the store's directory keeps fixed-size *pointers* ``(offset,
length)`` into this log instead of inlining values — the classic
indirection KyotoCabinet applies for large records. Appending never
moves a record, so a pointer published once stays valid for the life
of the file: that is what lets the directory's rename be the store's
only commit point.

Reads come in two flavors: :meth:`RecordLog.read` copies the record
into fresh bytes, while :meth:`RecordLog.read_view` returns a zero-copy
``memoryview`` over an mmap of the log — the payload feeds
``np.frombuffer`` bulk decoding without an intermediate copy. The log
is append-only, so mapped regions are immutable; the mapping is lazily
(re)created when a read reaches past its current size.
"""

from __future__ import annotations

import mmap
import os
import struct

from repro.utils.errors import StorageError

_HEADER = struct.Struct(">I")  # record length prefix


class RecordLog:
    """Append-only sequence of length-prefixed binary records."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        existed = os.path.exists(self.path)
        self._file = open(self.path, "r+b" if existed else "w+b")
        self._file.seek(0, os.SEEK_END)
        self._end = self._file.tell()
        self._map: mmap.mmap | None = None
        self._map_size = 0
        #: Updated by :meth:`records` scans: whether the last scan hit a
        #: torn tail, and where the last complete record ends.
        self.truncated_tail = False
        self.valid_end = self._end

    def append(self, payload: bytes) -> tuple:
        """Append ``payload`` and return its ``(offset, length)`` pointer."""
        if not isinstance(payload, (bytes, bytearray)):
            raise StorageError("record payload must be bytes")
        offset = self._end
        self._file.seek(offset)
        self._file.write(_HEADER.pack(len(payload)))
        self._file.write(payload)
        self._end = offset + _HEADER.size + len(payload)
        return offset, len(payload)

    def read(self, offset: int, length: int) -> bytes:
        """Read the record at ``offset`` (its length is also verified)."""
        if offset < 0 or offset + _HEADER.size > self._end:
            raise StorageError(f"record offset {offset} out of range")
        self._file.seek(offset)
        header = self._file.read(_HEADER.size)
        (stored_length,) = _HEADER.unpack(header)
        if stored_length != length:
            raise StorageError(
                f"record length mismatch at {offset}: "
                f"stored {stored_length}, requested {length}"
            )
        payload = self._file.read(length)
        if len(payload) != length:
            raise StorageError(f"short record read at offset {offset}")
        return payload

    def _drop_map(self) -> None:
        if self._map is not None:
            try:
                self._map.close()
            except BufferError:
                # Zero-copy views (numpy arrays, memoryviews) still
                # reference the mapping; it stays alive until they are
                # collected, which keeps those views valid.
                pass
            self._map = None
            self._map_size = 0

    def _mapped(self, end: int) -> mmap.mmap | None:
        """A read-only mapping covering ``[0, end)``, or ``None``."""
        if self._map is None or self._map_size < end:
            self._drop_map()
            self._file.flush()
            size = os.path.getsize(self.path)
            if size < end:
                return None
            try:
                self._map = mmap.mmap(
                    self._file.fileno(), size, access=mmap.ACCESS_READ
                )
            except (OSError, ValueError):  # pragma: no cover - platform quirk
                return None
            self._map_size = size
        return self._map

    def read_view(self, offset: int, length: int):
        """Zero-copy read: a ``memoryview`` over the mapped record.

        The view aliases the mmap directly (no payload copy); the
        length prefix is verified exactly like :meth:`read`. Falls back
        to the copying :meth:`read` when the log cannot be mapped
        (e.g. it is empty).
        """
        if offset < 0 or offset + _HEADER.size > self._end:
            raise StorageError(f"record offset {offset} out of range")
        end = offset + _HEADER.size + length
        mapping = self._mapped(end)
        if mapping is None:
            return self.read(offset, length)
        (stored_length,) = _HEADER.unpack_from(mapping, offset)
        if stored_length != length:
            raise StorageError(
                f"record length mismatch at {offset}: "
                f"stored {stored_length}, requested {length}"
            )
        return memoryview(mapping)[offset + _HEADER.size:end]

    def records(self, tolerate_truncation: bool = False):
        """Iterate ``(offset, payload)`` over every record, in write order.

        The length prefixes make the log self-delimiting, so a reopened
        log can be replayed without an external offset directory — this
        is what :class:`repro.delta.log.MutationLog` recovery uses.

        A truncated tail (a crash mid-append leaves a partial header or
        a short payload) raises :class:`StorageError` by default. With
        ``tolerate_truncation=True`` iteration instead stops cleanly at
        the last complete record, sets :attr:`truncated_tail` and
        leaves :attr:`valid_end` pointing at the first torn byte —
        callers can :meth:`truncate_to` it to make the log appendable
        again. Every complete prefix record is still yielded.
        """
        self.truncated_tail = False
        offset = 0
        while offset < self._end:
            if offset + _HEADER.size > self._end:
                if tolerate_truncation:
                    self.truncated_tail = True
                    self.valid_end = offset
                    return
                raise StorageError(
                    f"truncated record header at offset {offset}"
                )
            self._file.seek(offset)
            (length,) = _HEADER.unpack(self._file.read(_HEADER.size))
            payload = self._file.read(length)
            if len(payload) != length:
                if tolerate_truncation:
                    self.truncated_tail = True
                    self.valid_end = offset
                    return
                raise StorageError(f"short record read at offset {offset}")
            yield offset, payload
            offset += _HEADER.size + length
        self.valid_end = offset

    def truncate_to(self, offset: int) -> None:
        """Chop the log back to ``offset`` bytes (crash recovery).

        Used after a tolerant :meth:`records` scan found a torn tail:
        truncating to ``valid_end`` discards the partial record so
        subsequent appends produce a well-formed log again. The mmap is
        dropped first — a mapping over the shrunk region would be
        stale.
        """
        if offset < 0 or offset > self._end:
            raise StorageError(
                f"truncate offset {offset} out of range [0, {self._end}]"
            )
        self._drop_map()
        self._file.truncate(offset)
        self._file.flush()
        self._end = offset

    def size_bytes(self) -> int:
        """Total bytes written to the log."""
        return self._end

    def holds(self, offset: int, length: int) -> bool:
        """Whether the pointer ``(offset, length)`` ends inside the log."""
        return 0 <= offset and offset + _HEADER.size + length <= self._end

    def flush(self) -> None:
        self._file.flush()

    def sync(self) -> None:
        """Flush and ``fsync``: every appended record is durable on return."""
        self.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._drop_map()
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
