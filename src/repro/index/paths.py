"""Compact binary serialization of indexed paths.

A bucket payload is a sequence of paths sharing the same label sequence
and probability bucket. Each path stores its node ids and the two
probability components ``Prle`` and ``Prn`` (the label sequence lives in
the key, so it is not repeated per path).

All paths of one bucket share the key's label sequence, so records are
fixed-width and the codec is a pair of array functions:
:func:`encode_path_arrays` lays ``(nodes, prle, prn)`` columns out as
one payload and :func:`decode_path_arrays` parses a whole payload back
with ``np.frombuffer`` + offset arithmetic (zero-copy compatible with
the mmap-backed store reads). :class:`PathCandidates` is the container
of those columns on both sides of the store: the enumeration
(:mod:`repro.index.builder`) fills one per label sequence for the
offline build, a live absorb, compaction and on-demand enumeration
alike; every index lookup returns one, and the online phase filters,
orients and joins it without building a per-path object.
:class:`IndexedPath` objects appear only when a consumer indexes or
iterates one (the reference backends, ``candidate_of``). The
record-by-record scalar decoder remains as the reporter for
mixed-width or corrupt payloads; the record-by-record *encoder* is the
tests' byte oracle (:mod:`repro.testing.reference`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from repro.utils.errors import IndexError_

_COUNT = struct.Struct(">I")
_PATH_HEADER = struct.Struct(">B")
_NODE = struct.Struct(">I")
_PROBS = struct.Struct(">dd")


@dataclass(frozen=True)
class IndexedPath:
    """One indexed path under a fixed node-label assignment.

    Attributes
    ----------
    nodes:
        Node ids along the path (length = path length + 1).
    prle:
        Label-and-edge probability component under the key's label
        assignment.
    prn:
        Node-existence probability component of the path's node set.
    """

    nodes: Tuple[int, ...]
    prle: float
    prn: float

    @property
    def probability(self) -> float:
        """Full path probability ``Prle * Prn``."""
        return self.prle * self.prn

    def reversed(self) -> "IndexedPath":
        """The same path traversed from the other end."""
        return IndexedPath(tuple(reversed(self.nodes)), self.prle, self.prn)


class PathCandidates:
    """Candidate paths of one label sequence, as three row-aligned columns.

    ``nodes`` is an ``(n, w)`` int64 node-id matrix, ``prle`` and ``prn``
    float64 arrays of the two probability components. The columns are
    shared, never written: every transformation returns a new container.
    As a sequence it is lazy — ``len``/truth read the row count, while
    indexing and iteration build :class:`IndexedPath` objects on demand.
    """

    __slots__ = ("nodes", "prle", "prn")

    def __init__(
        self, nodes: np.ndarray, prle: np.ndarray, prn: np.ndarray
    ) -> None:
        self.nodes = nodes
        self.prle = prle
        self.prn = prn

    @classmethod
    def from_rows(cls, rows: list, width: int) -> "PathCandidates":
        """Columns of ``(nodes, prle, prn)`` rows of ``width`` nodes each."""
        nodes, prle, prn = zip(*rows) if rows else ((), (), ())
        return cls(
            np.array(nodes, dtype=np.int64).reshape(len(rows), width),
            np.array(prle, dtype=np.float64),
            np.array(prn, dtype=np.float64),
        )

    @classmethod
    def from_paths(
        cls, paths: Iterable[IndexedPath], width: int
    ) -> "PathCandidates":
        """Columns of ``paths``, every one of ``width`` nodes."""
        return cls.from_rows([(p.nodes, p.prle, p.prn) for p in paths], width)

    @classmethod
    def concat(cls, parts: Iterable["PathCandidates"]) -> "PathCandidates":
        """Rows of ``parts`` (same width), one after the other."""
        parts = list(parts)
        return cls(
            np.concatenate([part.nodes for part in parts]),
            np.concatenate([part.prle for part in parts]),
            np.concatenate([part.prn for part in parts]),
        )

    def take(self, selector: np.ndarray) -> "PathCandidates":
        """Rows picked by a boolean mask or an index array."""
        return PathCandidates(
            self.nodes[selector], self.prle[selector], self.prn[selector]
        )

    def above(self, alpha: float) -> "PathCandidates":
        """Rows with ``Prle * Prn >= alpha``."""
        keep = self.prle * self.prn >= alpha
        return self if keep.all() else self.take(keep)

    def reversed(self) -> "PathCandidates":
        """The same paths traversed from the other end."""
        return PathCandidates(
            np.ascontiguousarray(self.nodes[:, ::-1]), self.prle, self.prn
        )

    def __len__(self) -> int:
        return self.nodes.shape[0]

    def __getitem__(self, row: int) -> IndexedPath:
        return IndexedPath(
            tuple(self.nodes[row].tolist()),
            float(self.prle[row]),
            float(self.prn[row]),
        )

    def __iter__(self):
        return map(
            IndexedPath,
            map(tuple, self.nodes.tolist()),
            self.prle.tolist(),
            self.prn.tolist(),
        )

    def __eq__(self, other) -> bool:
        """Equal to any sequence of the same :class:`IndexedPath` rows."""
        try:
            return list(self) == list(other)
        except TypeError:
            return NotImplemented

    __hash__ = None


def as_candidates(paths, width: int) -> PathCandidates:
    """``paths`` as columns: itself, or its :class:`IndexedPath` rows."""
    if isinstance(paths, PathCandidates):
        return paths
    return PathCandidates.from_paths(paths, width)


def payload_count(payload: bytes) -> int:
    """Number of paths in a bucket payload (header only, no decode)."""
    (count,) = _COUNT.unpack_from(payload, 0)
    return count


def concat_payloads(payloads: Iterable[bytes]) -> bytes:
    """Merge bucket payloads of the same key without decoding.

    The format is a count header followed by self-delimiting records, so
    concatenation is summing the headers and joining the bodies — the
    parallel build merges its start-node chunks this way, and a lookup
    its buckets, so that one parse serves the whole range scan. A lone
    payload is returned as it is (no copy of an mmap-backed view).
    """
    payloads = list(payloads)
    if len(payloads) == 1:
        return payloads[0]
    total = sum(payload_count(payload) for payload in payloads)
    parts = [_COUNT.pack(total)]
    parts.extend(memoryview(payload)[_COUNT.size:] for payload in payloads)
    return b"".join(parts)


def _decode_paths_scalar(payload) -> list:
    """Record-by-record decoder: reads any mix of path lengths and
    reports what makes a payload corrupt."""
    (count,) = _COUNT.unpack_from(payload, 0)
    pos = _COUNT.size
    paths = []
    for _ in range(count):
        (num_nodes,) = _PATH_HEADER.unpack_from(payload, pos)
        pos += _PATH_HEADER.size
        nodes = struct.unpack_from(f">{num_nodes}I", payload, pos)
        pos += _NODE.size * num_nodes
        prle, prn = _PROBS.unpack_from(payload, pos)
        pos += _PROBS.size
        paths.append(IndexedPath(nodes, prle, prn))
    if pos != len(payload):
        raise IndexError_(
            f"corrupt bucket payload: {len(payload) - pos} trailing bytes"
        )
    return paths


def decode_path_arrays(payload, width: int | None = None):
    """Bulk-parse a fixed-width payload into numpy arrays.

    Returns ``(nodes, prle, prn)`` — an ``(count, width)`` int64 node-id
    matrix and two float64 arrays — or ``None`` when the payload is not
    fixed-width (mixed path lengths, or not ``width`` nodes per path);
    the scalar decoder then says what is wrong with it. ``width``
    defaults to the first record's (0 for an empty payload); callers
    that know the key's label sequence pass its length, so an empty
    bucket still yields a ``(0, width)`` matrix. Accepts any buffer
    (bytes, memoryview over an mmap) without copying the payload up
    front.
    """
    (count,) = _COUNT.unpack_from(payload, 0)
    if width is None:
        width = payload[_COUNT.size] if count else 0
    record = _PATH_HEADER.size + _NODE.size * width + _PROBS.size
    if len(payload) != _COUNT.size + count * record:
        return None
    raw = np.frombuffer(payload, dtype=np.uint8, offset=_COUNT.size)
    records = raw.reshape(count, record)
    if not (records[:, 0] == width).all():
        return None
    node_bytes = np.ascontiguousarray(
        records[:, _PATH_HEADER.size:record - _PROBS.size]
    )
    nodes = node_bytes.view(">u4").astype(np.int64).reshape(count, width)
    probs = np.ascontiguousarray(records[:, record - _PROBS.size:]).view(">f8")
    return nodes, probs[:, 0].astype(np.float64), probs[:, 1].astype(np.float64)


def encode_path_records(
    nodes: np.ndarray, prle: np.ndarray, prn: np.ndarray
) -> np.ndarray:
    """Columns as a ``(count, record bytes)`` uint8 matrix: per row the
    width byte, the node ids and the two probabilities, big-endian —
    without a per-path object. Any run of its rows behind a count
    header (:func:`records_payload`) is a bucket payload."""
    count, width = nodes.shape
    if width > 255:
        raise IndexError_("path too long to serialize (max 255 nodes)")
    records = np.empty(
        (count, _PATH_HEADER.size + _NODE.size * width + _PROBS.size),
        dtype=np.uint8,
    )
    records[:, 0] = width
    records[:, _PATH_HEADER.size:-_PROBS.size] = (
        np.ascontiguousarray(nodes, dtype=">u4")
        .view(np.uint8)
        .reshape(count, _NODE.size * width)
    )
    records[:, -_PROBS.size:] = (
        np.stack((prle, prn), axis=1).astype(">f8").view(np.uint8)
    )
    return records


def records_payload(records: np.ndarray) -> bytes:
    """Rows of :func:`encode_path_records` as one bucket payload."""
    return _COUNT.pack(records.shape[0]) + records.tobytes()


def encode_path_arrays(
    nodes: np.ndarray, prle: np.ndarray, prn: np.ndarray
) -> bytes:
    """The inverse of :func:`decode_path_arrays`: columns to one bucket
    payload, a count header and then the rows' records."""
    return records_payload(encode_path_records(nodes, prle, prn))


def decode_paths(payload) -> list:
    """Deserialize a bucket payload back into :class:`IndexedPath` objects."""
    arrays = decode_path_arrays(payload)
    if arrays is None:
        return _decode_paths_scalar(payload)
    return list(PathCandidates(*arrays))


def decode_paths_above(
    payload, alpha: float, width: int | None = None
) -> PathCandidates:
    """Paths of a payload with ``Prle * Prn >= alpha``, as columns.

    One parse and one array threshold test; no :class:`IndexedPath` is
    built. A payload the bulk parser refuses is an error: the scalar
    decoder raises if it is corrupt, and one it can read mixes path
    lengths (or is not of ``width``), which no bucket of one label
    sequence does.
    """
    arrays = decode_path_arrays(payload, width)
    if arrays is None:
        _decode_paths_scalar(payload)
        raise IndexError_(
            "corrupt bucket payload: paths of different lengths under one "
            "label sequence"
        )
    return PathCandidates(*arrays).above(alpha)
