"""PEG persistence: save a constructed entity graph for offline reuse.

Building a PEG involves exact-cover enumeration and merge-function
evaluation over the whole reference graph; production pipelines build it
once and query it many times. This module provides versioned pickle
round-tripping with a header check so stale or foreign files fail fast.
A file is replaced through :func:`repro.storage.atomic_write` (``repro
apply-updates`` saves over its input by default), so a crash mid-save
leaves the previous graph; whatever a damaged file makes ``pickle``
raise is a :class:`ModelError`.
"""

from __future__ import annotations

import pickle

from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.storage import atomic_write
from repro.utils.errors import ModelError

#: Format version; bump when the PEG's pickled layout changes (2: the
#: id view is pickled as the graph's columns).
FORMAT_VERSION = 2
_MAGIC = "repro-peg"


def save_peg(peg: ProbabilisticEntityGraph, path: str) -> None:
    """Serialize ``peg`` to ``path`` (versioned pickle)."""
    payload = {
        "magic": _MAGIC,
        "version": FORMAT_VERSION,
        "peg": peg,
    }
    atomic_write(path, pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))


def load_peg(path: str) -> ProbabilisticEntityGraph:
    """Load a PEG previously written by :func:`save_peg`.

    Raises :class:`ModelError` for foreign files or incompatible
    versions rather than returning corrupt state.
    """
    with open(path, "rb") as handle:
        try:
            payload = pickle.load(handle)
        except Exception as exc:
            raise ModelError(f"{path!r} is not a PEG file") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise ModelError(f"{path!r} is not a PEG file")
    if payload.get("version") != FORMAT_VERSION:
        raise ModelError(
            f"PEG file version {payload.get('version')} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    peg = payload["peg"]
    if not isinstance(peg, ProbabilisticEntityGraph):
        raise ModelError(f"{path!r} does not contain a PEG")
    return peg
