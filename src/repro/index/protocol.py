"""Label-sequence orientation and store accounting shared by the index,
its builder and the engine.

Storage keeps each undirected path once, under the *canonical*
orientation of its label sequence (:func:`canonical_sequence`, the
smaller of the sequence and its reverse by ``repr``);
:func:`orient_to_sequence` turns canonical-space results back into the
orientation a caller asked for, both alignments for a palindrome.
:meth:`~repro.index.path_index.PathIndex.lookup` and the builder's
on-demand enumeration both answer through it, so a lookup and an
enumeration orient alike. :func:`store_read_totals` reads an index's
store traffic for per-query attribution.
"""

from __future__ import annotations

import numpy as np

from repro.index.paths import PathCandidates


def store_read_totals(index) -> tuple:
    """``(read_ops, bytes_read)`` served so far by the store behind ``index``.

    The engine snapshots these totals around its lookup stage to
    attribute store traffic to individual queries.
    """
    store = index.store
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
