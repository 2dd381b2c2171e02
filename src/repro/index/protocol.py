"""The common lookup protocol every path-index implementation speaks.

Two implementations share this contract:

* :class:`~repro.index.path_index.PathIndex` — the one store-backed
  index,
* :class:`~repro.delta.overlay.DeltaOverlayIndex` — a live-update view
  over a :class:`PathIndex`.

The protocol splits a lookup into the *canonical-space primitive*
:meth:`PathIndexProtocol.lookup_canonical` (what the store actually
fetches) and the shared public :meth:`PathIndexProtocol.lookup`
(argument validation plus orientation of results to the requested
sequence), so every implementation validates, errors, and orients
identically and downstream consumers — ``QueryEngine``,
``index.bundle``, ``DiskPathStore``-backed serving — work transparently
over any of them.

Both return a :class:`~repro.index.paths.PathCandidates`: the paths
stay the ``(nodes, prle, prn)`` columns the bucket payloads decode to,
and masking, concatenation and orientation are array operations on
them. It reads as a sequence of :class:`~repro.index.paths.IndexedPath`
for callers that want objects.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.index.paths import PathCandidates
from repro.utils.errors import IndexError_


def store_read_totals(index) -> tuple:
    """``(read_ops, bytes_read)`` served so far by the store behind ``index``.

    Unwraps a delta overlay (its ``.base``) down to the store-backed
    :class:`~repro.index.path_index.PathIndex`. The engine snapshots
    these totals around its lookup stage to attribute store traffic to
    individual queries.
    """
    store = getattr(index, "base", index).store
    return store.read_count, store.bytes_read


def canonical_sequence(label_seq: tuple) -> tuple:
    """Canonical orientation of a label sequence (min of itself/reverse).

    Labels are compared through ``repr`` so heterogeneous label types
    cannot break ordering.
    """
    seq = tuple(label_seq)
    rev = tuple(reversed(seq))
    return seq if tuple(map(repr, seq)) <= tuple(map(repr, rev)) else rev


def is_palindrome(label_seq: tuple) -> bool:
    """True when a label sequence reads the same in both directions."""
    seq = tuple(label_seq)
    return seq == tuple(reversed(seq))


def orient_to_sequence(
    paths: PathCandidates, label_seq: tuple
) -> PathCandidates:
    """Orient canonical-space lookup results to a requested sequence.

    ``paths`` must be stored (canonical-oriented) paths of
    ``canonical_sequence(label_seq)``. Results are oriented so that
    ``result.nodes[:, i]`` carries ``label_seq[i]``; for palindromic
    sequences both alignments of each stored path are returned (they are
    distinct embeddings), the reversed one right after the stored one.
    """
    seq = tuple(label_seq)
    if canonical_sequence(seq) != seq:
        return paths.reversed()
    if is_palindrome(seq) and len(seq) > 1:
        both = PathCandidates.concat((paths, paths.reversed()))
        return both.take(np.arange(len(both)).reshape(2, -1).T.ravel())
    return paths


class PathIndexProtocol(ABC):
    """Contract of a queryable context-aware path index.

    Implementations carry the grid parameters ``max_length``, ``beta``
    and ``gamma`` and the per-sequence ``histograms`` as attributes and
    provide the canonical-space primitive; the public :meth:`lookup` —
    validation, canonicalisation and orientation — and the histogram
    estimate are implemented once here.
    """

    max_length: int
    beta: float
    gamma: float
    #: ``{canonical sequence: CardinalityHistogram}`` of the stored paths.
    histograms: dict

    # -- canonical-space primitives ------------------------------------

    @abstractmethod
    def lookup_canonical(
        self, canonical_seq: tuple, alpha: float
    ) -> PathCandidates:
        """Stored paths of one canonical sequence with probability >= alpha.

        ``canonical_seq`` must already be canonical
        (:func:`canonical_sequence`); results keep the stored canonical
        orientation and are *not* palindrome-duplicated — that is
        :func:`orient_to_sequence`'s job.
        """

    def estimate_cardinality(self, label_seq: Sequence, alpha: float) -> float:
        """Histogram estimate of ``|PIndex(label_seq, alpha)|``.

        Uses the per-sequence cumulative histogram with exponential curve
        fitting; returns 0 for sequences never indexed. Palindromic
        sequences double the estimate, mirroring :meth:`lookup`.
        """
        seq = tuple(label_seq)
        histogram = self.histograms.get(canonical_sequence(seq))
        if histogram is None:
            return 0.0
        estimate = histogram.estimate(max(alpha, self.beta))
        if is_palindrome(seq) and len(seq) > 1:
            estimate *= 2.0
        return estimate

    # -- shared public lookup ------------------------------------------

    def check_lookup(self, label_seq: Sequence, alpha: float) -> tuple:
        """Validate lookup arguments; returns the sequence as a tuple.

        Raises :class:`IndexError_` for sequences longer than the index
        supports and for ``alpha < beta`` — such paths are not indexed;
        callers fall back to on-demand enumeration
        (:meth:`repro.index.builder.PathIndexBuilder.paths_for_sequence`).
        """
        seq = tuple(label_seq)
        if len(seq) - 1 > self.max_length:
            raise IndexError_(
                f"label sequence of length {len(seq) - 1} exceeds index "
                f"max path length {self.max_length}"
            )
        if alpha < self.beta:
            raise IndexError_(
                f"alpha {alpha} below index lower bound beta {self.beta} "
                f"for label sequence {seq!r}; compute paths on demand"
            )
        return seq

    def lookup(self, label_seq: Sequence, alpha: float) -> PathCandidates:
        """All indexed paths matching ``label_seq`` with probability >= alpha.

        Results are oriented so that ``result.nodes[:, i]`` carries
        ``label_seq[i]``; see :func:`orient_to_sequence` for the
        palindrome contract and :meth:`check_lookup` for the errors.
        """
        seq = self.check_lookup(label_seq, alpha)
        canonical = canonical_sequence(seq)
        return orient_to_sequence(self.lookup_canonical(canonical, alpha), seq)

    # -- introspection --------------------------------------------------

    @abstractmethod
    def num_sequences(self) -> int:
        """Number of distinct canonical label sequences indexed."""

    @abstractmethod
    def num_paths(self) -> int:
        """Total number of stored (canonical) paths."""

    @abstractmethod
    def size_bytes(self) -> int:
        """Approximate index footprint in bytes."""

    @abstractmethod
    def stats(self) -> dict:
        """Summary including builder statistics."""
