"""The wire protocol of the network serving tier.

Frames are length-prefixed JSON: a 4-byte big-endian payload length
followed by a UTF-8 JSON object — the same framing discipline the
storage record log uses, over the same query-spec codec the CLI
``serve`` workload files speak (``{"nodes": {...}, "edges": [...],
"alpha": ...}``).

Requests
--------
::

    {"id": 7, "kind": "query", "nodes": {"a": "DB", "b": "ML"},
     "edges": [["a", "b"]], "alpha": 0.4, "deadline_ms": 500}
    {"id": 8, "kind": "ping"}
    {"id": 9, "kind": "stats"}

Responses
--------
::

    {"id": 7, "ok": true, "matches": [{"probability": 0.82,
     "nodes": [[[1, 4], "DB"], [[2], "ML"]]}], "num_matches": 1}
    {"id": 7, "ok": false,
     "error": {"type": "REJECTED", "message": "admission queue full"}}

Error types (``error.type``) are the serving tier's whole failure
vocabulary: ``REJECTED`` (load shed / fairness cap),
``DEADLINE_EXCEEDED``, ``UNAVAILABLE`` (shutdown, admission-pause
timeout), ``BAD_REQUEST`` (malformed spec), ``QUERY_ERROR`` (invalid
query), ``INTERNAL`` (evaluation failure). A client therefore always
receives either a result or one of these typed errors — the chaos
suite's invariant.

Match serialization is deterministic: entity reference sets are sorted,
and the match list keeps the engine's deterministic emission order — so
a fault-free oracle reply and a chaos-run reply can be compared for
bit-identical equality. :func:`serialize_matches` is that form, decoded;
:func:`result_response` encodes a reply straight from the engine's
:class:`~repro.query.matcher.MatchColumns` — each distinct entity and
each query column's label encoded once, then a gather and a join — and
its frames are byte-identical to ``json.dumps`` of the decoded form.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from json.encoder import encode_basestring_ascii

import numpy as np

from repro.query.matcher import MatchColumns
from repro.query.query_graph import QueryGraph
from repro.utils.errors import NetError, QueryError

#: Frame header: payload byte length, big-endian u32.
FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame's payload; a corrupt length prefix
#: must not make a reader try to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Typed error codes carried in ``error.type``.
ERROR_REJECTED = "REJECTED"
ERROR_DEADLINE = "DEADLINE_EXCEEDED"
ERROR_UNAVAILABLE = "UNAVAILABLE"
ERROR_BAD_REQUEST = "BAD_REQUEST"
ERROR_QUERY = "QUERY_ERROR"
ERROR_INTERNAL = "INTERNAL"


#: How a frame writes JSON: ``json.dumps`` with these settings.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=str)

#: The attribute :func:`result_response` keeps a
#: :class:`~repro.query.matcher.MatchColumns`' encoded ``matches`` body in.
_BODY_MEMO = "_wire_matches"


def encode_frame(obj: dict | bytes) -> bytes:
    """Serialize one message as a length-prefixed JSON frame.

    ``obj`` is a message, or a payload :func:`result_response` has
    already encoded, which is framed as it is.
    """
    payload = (
        obj if isinstance(obj, bytes) else _ENCODER.encode(obj).encode("utf-8")
    )
    if len(payload) > MAX_FRAME_BYTES:
        raise NetError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return FRAME_HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> dict:
    """Parse one frame payload; the message must be a JSON object."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise NetError(f"malformed frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise NetError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame from an asyncio stream.

    Returns ``None`` on a clean end-of-stream (the peer closed between
    frames); raises :class:`~repro.utils.errors.NetError` on a torn
    frame or an implausible length prefix.
    """
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise NetError("torn frame header") from exc
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise NetError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise NetError("torn frame payload") from exc
    return decode_frame(payload)


def query_graph_from_spec(spec: dict) -> QueryGraph:
    """Build a :class:`QueryGraph` from the shared JSON query spec.

    The codec of the CLI ``serve`` workload files and of the wire
    protocol's ``query`` requests: a ``"nodes"`` mapping of query-node
    name to label, plus optional ``"edges"`` pairs. Labels are JSON
    scalars and edge endpoints are node names (strings); anything else
    is a :class:`QueryError`.
    """
    if not isinstance(spec, dict) or not isinstance(spec.get("nodes"), dict):
        raise QueryError(
            "query spec must be a JSON object with a 'nodes' mapping"
        )
    if not spec["nodes"]:
        raise QueryError("query spec 'nodes' mapping must not be empty")
    for node, label in spec["nodes"].items():
        if label is not None and not isinstance(label, (str, int, float)):
            raise QueryError(
                f"query spec label of {node!r} must be a JSON scalar, "
                f"got {label!r}"
            )
    raw_edges = spec.get("edges", [])
    if not isinstance(raw_edges, list):
        raise QueryError(f"query spec 'edges' must be a list, got {raw_edges!r}")
    edges = []
    for edge in raw_edges:
        if (not isinstance(edge, (list, tuple)) or len(edge) != 2
                or not all(isinstance(node, str) for node in edge)):
            raise QueryError(
                f"query spec edge must be a pair of node names, got {edge!r}"
            )
        edges.append(tuple(edge))
    return QueryGraph(spec["nodes"], edges)


def checked_alpha(alpha) -> float:
    """A request's ``alpha`` as a float, or a :class:`QueryError`.

    The one check of the wire's ``query`` requests and the CLI
    ``serve`` workload files: a JSON number (not a boolean) in (0, 1].
    """
    if (isinstance(alpha, bool) or not isinstance(alpha, (int, float))
            or not 0.0 < alpha <= 1.0):
        raise QueryError(f"alpha must be in (0, 1], got {alpha!r}")
    return float(alpha)


def checked_deadline_ms(deadline_ms) -> float | None:
    """A request's ``deadline_ms``: ``None``, or a finite number >= 0."""
    if deadline_ms is None:
        return None
    if (isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not math.isfinite(deadline_ms) or deadline_ms < 0):
        raise QueryError(
            f"deadline_ms must be a finite number >= 0, got {deadline_ms!r}"
        )
    return float(deadline_ms)


def _json_ref(ref) -> object:
    """A JSON-stable rendering of one entity reference."""
    if isinstance(ref, (int, str, float, bool)):
        return ref
    return str(ref)


def serialize_matches(matches) -> list:
    """Deterministic JSON form of a result's match list.

    Each match becomes ``{"probability": p, "nodes": [[refs, label],
    ...]}`` with entity references sorted; the match order is the
    engine's (deterministic) emission order. Two evaluations of the
    same query against the same graph serialize bit-identically.
    """
    out = []
    for match in matches:
        out.append(
            {
                "probability": match.probability,
                "nodes": [
                    [sorted((_json_ref(r) for r in entity), key=repr),
                     str(label)]
                    for entity, label in match.nodes
                ],
            }
        )
    return out


def result_response(request_id, result) -> bytes:
    """A successful ``query`` reply for ``result``, as the payload
    :func:`encode_frame` frames.

    Byte for byte the encoding of ``{"id": request_id, "ok": true,
    "matches": serialize_matches(result.matches), "num_matches": ...}``.
    Columns are encoded directly, once: the ``matches`` body is kept on
    the (immutable) columns, so a cached result's later replies only
    frame it with their ids. A plain match list (the all-reference
    configuration's) goes through :func:`serialize_matches`.
    """
    matches = result.matches
    if not isinstance(matches, MatchColumns):
        serialized = serialize_matches(matches)
        return _ENCODER.encode({
            "id": request_id,
            "ok": True,
            "matches": serialized,
            "num_matches": len(serialized),
        }).encode("utf-8")
    body = getattr(matches, _BODY_MEMO, None)
    if body is None:
        # Unlocked: racing first replies encode the same bytes, and
        # either assignment is the memo. Pickling leaves it behind
        # (MatchColumns.__reduce__ ships only the columns).
        body = _encode_columns(matches)
        setattr(matches, _BODY_MEMO, body)
    return b'{"id":%s,"ok":true,"matches":[%s],"num_matches":%d}' % (
        _json_scalar(request_id).encode(), body, len(matches),
    )


def _json_scalar(value) -> str:
    """``value`` as :data:`_ENCODER` writes it; a string or an int takes
    the primitive the encoder itself calls for it."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    return _ENCODER.encode(value)


def _encode_columns(columns: MatchColumns) -> bytes:
    """The ``matches`` array of a reply, without its brackets.

    Each distinct ``(entity, column)`` cell is encoded once — the
    entity's references as :func:`serialize_matches` sorts them, then
    the column's label — and a match is a gather of its cells and a
    join. A probability is written by ``float.__repr__``, as
    ``json.dumps`` writes any finite float (a match's always is).
    """
    if not len(columns):
        return b""
    width = len(columns.column_labels)
    rows = np.arange(len(columns))[:, None]
    # Every node of every match in Match.nodes order, as its cell key:
    # node id * width + column.
    keys = (
        columns.nodes[rows, columns.repr_order] * width + columns.repr_order
    ).ravel().tolist()
    labels = [
        encode_basestring_ascii(str(label)) for label in columns.column_labels
    ]
    entities = columns.entities
    refs: dict = {}  # node id -> its entity's encoded reference list
    cells = dict.fromkeys(keys)  # cell key -> "[refs,label]"
    for key in cells:
        node, column = divmod(key, width)
        encoded = refs.get(node)
        if encoded is None:
            encoded = refs[node] = "[%s]" % ",".join(map(
                _json_scalar, sorted(map(_json_ref, entities[node]), key=repr)
            ))
        cells[key] = "[%s,%s]" % (encoded, labels[column])
    gathered = map(cells.__getitem__, keys)
    return ",".join(map(
        '{"probability":%s,"nodes":[%s]}'.__mod__,
        zip(
            map(float.__repr__, columns.probabilities.tolist()),
            map(",".join, zip(*[gathered] * width)),  # width cells a row
        ),
    )).encode()


def error_response(request_id, code: str, message: str) -> dict:
    """A typed error reply."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": str(code), "message": str(message)},
    }
