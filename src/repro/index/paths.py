"""Compact binary serialization of indexed paths.

A bucket payload is a sequence of paths sharing the same label sequence
and probability bucket. Each path stores its node ids and the two
probability components ``Prle`` and ``Prn`` (the label sequence lives in
the key, so it is not repeated per path).

All paths of one bucket share the key's label sequence, so records are
fixed-width in practice; :func:`decode_path_arrays` exploits that to
parse a whole payload with ``np.frombuffer`` + offset arithmetic into
node-id/probability arrays (zero-copy compatible with the mmap-backed
store reads), and :func:`decode_paths_above` materializes
:class:`IndexedPath` objects only for the rows surviving a probability
threshold. A record-by-record scalar decoder remains as the fallback
for heterogeneous payloads and numpy-free environments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.utils.errors import IndexError_

try:  # numpy accelerates bulk decoding but is not a hard dependency here
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain ships numpy
    _np = None

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


def encode_paths(paths: Iterable[IndexedPath]) -> bytes:
    """Serialize a sequence of paths into a bucket payload."""
    paths = list(paths)
    parts = [_COUNT.pack(len(paths))]
    for path in paths:
        if len(path.nodes) > 255:
            raise IndexError_("path too long to serialize (max 255 nodes)")
        parts.append(_PATH_HEADER.pack(len(path.nodes)))
        parts.extend(_NODE.pack(node) for node in path.nodes)
        parts.append(_PROBS.pack(path.prle, path.prn))
    return b"".join(parts)


def payload_count(payload: bytes) -> int:
    """Number of paths in a bucket payload (header only, no decode)."""
    (count,) = _COUNT.unpack_from(payload, 0)
    return count


def concat_payloads(payloads: Iterable[bytes]) -> bytes:
    """Merge bucket payloads of the same key without decoding.

    The format is a count header followed by self-delimiting records, so
    concatenation is summing the headers and joining the bodies — the
    parallel build merges its start-node chunks this way.
    """
    payloads = list(payloads)
    total = sum(payload_count(payload) for payload in payloads)
    parts = [_COUNT.pack(total)]
    parts.extend(payload[_COUNT.size:] for payload in payloads)
    return b"".join(parts)


def _decode_paths_scalar(payload) -> list:
    """Record-by-record reference decoder (any mix of path lengths)."""
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


def decode_path_arrays(payload):
    """Bulk-parse a fixed-width payload into numpy arrays.

    Returns ``(nodes, prle, prn)`` — an ``(count, num_nodes)`` int64
    node-id matrix and two float64 arrays — or ``None`` when the
    payload is not fixed-width (mixed path lengths) or numpy is
    unavailable; callers then fall back to the scalar decoder. Accepts
    any buffer (bytes, memoryview over an mmap) without copying the
    payload up front.
    """
    if _np is None:
        return None
    (count,) = _COUNT.unpack_from(payload, 0)
    if count == 0:
        if len(payload) != _COUNT.size:
            return None  # scalar decoder reports the trailing bytes
        empty = _np.zeros((0, 0), dtype=_np.int64)
        return empty, _np.zeros(0), _np.zeros(0)
    num_nodes = payload[_COUNT.size]
    record = _PATH_HEADER.size + _NODE.size * num_nodes + _PROBS.size
    if len(payload) != _COUNT.size + count * record:
        return None
    raw = _np.frombuffer(payload, dtype=_np.uint8, offset=_COUNT.size)
    records = raw.reshape(count, record)
    if not (records[:, 0] == num_nodes).all():
        return None
    node_bytes = _np.ascontiguousarray(
        records[:, _PATH_HEADER.size:_PATH_HEADER.size + _NODE.size * num_nodes]
    )
    if num_nodes:
        nodes = node_bytes.view(">u4").astype(_np.int64)
    else:
        nodes = _np.zeros((count, 0), dtype=_np.int64)
    probs = _np.ascontiguousarray(records[:, record - _PROBS.size:]).view(">f8")
    return nodes, probs[:, 0].astype(_np.float64), probs[:, 1].astype(_np.float64)


def _materialize(nodes, prle, prn) -> list:
    """:class:`IndexedPath` objects from decoded (and masked) arrays."""
    return [
        IndexedPath(tuple(row), path_prle, path_prn)
        for row, path_prle, path_prn in zip(
            nodes.tolist(), prle.tolist(), prn.tolist()
        )
    ]


def decode_paths(payload) -> list:
    """Deserialize a bucket payload back into :class:`IndexedPath` objects."""
    arrays = decode_path_arrays(payload)
    if arrays is None:
        return _decode_paths_scalar(payload)
    return _materialize(*arrays)


def decode_paths_above(payload, alpha: float) -> list:
    """Paths of a payload with ``Prle * Prn >= alpha``.

    The threshold test runs on the decoded probability arrays; only
    surviving rows are materialized into :class:`IndexedPath` objects.
    """
    arrays = decode_path_arrays(payload)
    if arrays is None:
        return [
            path for path in _decode_paths_scalar(payload)
            if path.probability >= alpha
        ]
    nodes, prle, prn = arrays
    mask = prle * prn >= alpha
    if not mask.any():
        return []
    if mask.all():
        return _materialize(nodes, prle, prn)
    return _materialize(nodes[mask], prle[mask], prn[mask])
