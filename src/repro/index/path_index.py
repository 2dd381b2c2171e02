"""The queryable context-aware path index (Section 5.1).

Entries are keyed by ``(X, π)`` where ``X`` is a node-label sequence and
``π`` a probability bucket on the grid ``{β, β+γ, ..., 1}``; values are
the paths whose probability under ``X`` falls in ``[π, π+γ)``, each with
its ``Prle`` and ``Prn`` components. For undirected graphs, ``X`` and its
reverse share one stored entry (symmetry optimisation); lookups
transparently orient results to the requested sequence. Where a range
scan starts is asked of the index's ``grid``
(:class:`~repro.index.grid.BucketGrid`), which filed the paths.

:class:`PathIndex` is the one index, over one
:class:`~repro.storage.kvstore.PathStore` (in memory or on disk). A
lookup splits into the canonical-space primitive
:meth:`PathIndex.lookup_canonical` (what the store fetches) and
:meth:`PathIndex.lookup` (argument validation plus orientation of the
results to the requested sequence,
:func:`~repro.index.protocol.orient_to_sequence`). Both return a
:class:`~repro.index.paths.PathCandidates`: the paths stay the
``(nodes, prle, prn)`` columns the bucket payloads decode to, and
masking, concatenation and orientation are array operations on them.

Live updates
------------
The same object stays queryable and exact through PEG mutations
(:mod:`repro.delta`) without a rebuild, by the invariant of
:mod:`repro.delta.mutate`: a stored path is affected by a mutation iff
it contains a dirty node. Its live state is the set of dirty node ids,
the same ids as a boolean mask over the id space, and an in-memory
*delta* — the current paths through dirty nodes. All three are empty
on a built or loaded index, and a lookup on a clean index reads the
store and nothing else.

* **Reads** on a dirty index drop the stored rows through dirty nodes
  (stale; one gather from the mask) and append the delta's rows. The
  two sides are disjoint by construction, so no deduplication is
  needed. Estimates read the histograms alone, which only compaction
  rewrites, so a batch moves no estimate and no plan.
* **Absorbing** a batch (:meth:`PathIndex.absorb`) patches the delta:
  rows through the nodes the batch dirtied are dropped and the current
  paths through those nodes are enumerated
  (:meth:`~repro.index.builder.PathIndexBuilder.paths_through`) and
  merged in, so an absorb costs what the ``max_length``-hop
  neighbourhood of *its* batch holds — not what the cumulative dirty
  set reaches, and not the graph.
* **Compaction** (:meth:`PathIndex.compact`) folds the delta into the
  store — one columnar pass per stored sequence, rewriting only the
  buckets of sequences whose path lists changed, through the builder's
  own writer (:func:`~repro.index.builder.bucket_payloads`,
  :func:`~repro.index.builder.write_buckets`) — rewrites the
  histograms and bumps ``histogram_epoch``, after which the index is
  clean again.

The enumeration's output, the delta and a sequence on its way back to
the store are the same :class:`~repro.index.paths.PathCandidates`
columns: no per-path object between an absorb and a lookup.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.index.grid import BucketGrid
from repro.index.paths import (
    PathCandidates,
    concat_payloads,
    decode_paths_above,
)
from repro.index.protocol import (
    canonical_sequence,
    is_palindrome,
    orient_to_sequence,
)
from repro.obs.metrics import get_registry
from repro.obs.timing import Timer
from repro.obs.trace import current_span
from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.storage.kvstore import PathStore
from repro.utils.errors import IndexError_

__all__ = [
    "PathIndex",
    "canonical_sequence",
    "is_palindrome",
]

_REGISTRY = get_registry()
_ABSORB_SECONDS = _REGISTRY.histogram("repro_delta_absorb_seconds")
_COMPACT_SECONDS = _REGISTRY.histogram("repro_delta_compact_seconds")
_DIRTY_NODES = _REGISTRY.gauge("repro_delta_dirty_nodes")
_DELTA_PATHS = _REGISTRY.gauge("repro_delta_paths")
_MASKED_PATHS = _REGISTRY.counter("repro_delta_masked_paths_total")
_SEQUENCES_REWRITTEN = _REGISTRY.counter("repro_delta_sequences_rewritten_total")
_PATHS_DROPPED = _REGISTRY.counter("repro_delta_paths_dropped_total")
_PATHS_ADDED = _REGISTRY.counter("repro_delta_paths_added_total")
_ENUMERATED_PATHS = _REGISTRY.counter("repro_delta_enumerated_paths_total")


def _id_mask(peg: ProbabilisticEntityGraph, ids) -> np.ndarray:
    """``ids`` as a boolean mask over the PEG's id space as it stands:
    every id a stored or delta row holds is in range."""
    mask = np.zeros(peg.columns.size, dtype=bool)
    mask[list(ids)] = True
    return mask


class PathIndex:
    """Two-level context-aware path index over a PEG.

    Constructed by :class:`~repro.index.builder.PathIndexBuilder`; query
    processing uses :meth:`lookup` and :meth:`estimate_cardinality`,
    live updates :meth:`absorb` and :meth:`compact`.

    Cardinality estimates are the histograms', unchanged by absorbs:
    the histograms still count the stored paths lookups mask and miss
    the delta's, until :meth:`compact` rewrites them. An estimate feeds
    decomposition ordering only, and any valid decomposition yields
    the same matches, so the drift costs plan quality, never answers.
    """

    def __init__(
        self,
        store: PathStore,
        max_length: int,
        beta: float,
        gamma: float,
        histograms: dict,
        build_stats: dict | None = None,
    ) -> None:
        if not 0.0 < beta <= 1.0:
            raise IndexError_(f"beta must be in (0, 1], got {beta}")
        if not 0.0 < gamma <= 1.0:
            raise IndexError_(f"gamma must be in (0, 1], got {gamma}")
        if max_length < 1:
            raise IndexError_(f"max_length must be >= 1, got {max_length}")
        self.store = store
        self.max_length = int(max_length)
        self.beta = float(beta)
        self.gamma = float(gamma)
        #: ``{canonical sequence: CardinalityHistogram}`` of the stored
        #: paths.
        self.histograms = dict(histograms)
        #: Bumped whenever :meth:`compact` rewrites :attr:`histograms`;
        #: plan cache keys mix it in, so it alone re-keys
        #: estimate-costed plans.
        self.histogram_epoch = 0
        self.build_stats = dict(build_stats or {})
        #: The grid the paths were filed on.
        self.grid = BucketGrid(self.beta, self.gamma)
        self._clear_delta()

    def _clear_delta(self) -> None:
        self._dirty: frozenset = frozenset()
        #: The dirty ids as a boolean mask over the id space, sized at
        #: the last absorb; read only while :attr:`dirty_nodes` is
        #: non-empty.
        self._dirty_mask = np.zeros(0, dtype=bool)
        #: ``{canonical sequence: PathCandidates}`` — the current paths
        #: through dirty nodes, by decreasing probability.
        self._delta: dict = {}
        #: Directed partial paths the last :meth:`absorb` expanded.
        self.enumerated_paths = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

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

    def lookup_canonical(
        self, canonical_seq: tuple, alpha: float
    ) -> PathCandidates:
        """Stored paths of one canonical sequence with probability >= alpha.

        ``canonical_seq`` must already be canonical
        (:func:`canonical_sequence`); results keep the stored canonical
        orientation and are *not* palindrome-duplicated — that is
        :func:`orient_to_sequence`'s job. The range scan's bucket bodies
        are joined and bulk-decoded once (one ``frombuffer`` parse plus
        one array threshold test per lookup); the result stays columnar
        — see :func:`repro.index.paths.decode_paths_above`. On a dirty
        index, stale rows are masked out and the delta's rows follow the
        surviving stored ones.
        """
        min_bucket = self.grid.bucket_of(alpha)
        buckets = self.store.scan_buckets(canonical_seq, min_bucket)
        results = decode_paths_above(
            concat_payloads(payload for _, payload in buckets),
            alpha,
            len(canonical_seq),
        )
        span = current_span()
        if span.enabled:
            span.incr("index_fetches")
            span.incr("paths_decoded", len(results))
        if self._dirty:
            stale = self._dirty_mask[results.nodes].any(axis=1)
            masked = int(stale.sum())
            if masked:
                _MASKED_PATHS.inc(masked)
                if span.enabled:
                    span.incr("overlay_masked_paths", masked)
                results = results.take(~stale)
            extra = self._delta.get(canonical_seq)
            if extra is not None:
                extra = extra.above(alpha)
                if extra:
                    results = PathCandidates.concat((results, extra))
                    if span.enabled:
                        span.incr("overlay_delta_paths", len(extra))
        return results

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

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------

    @property
    def dirty_nodes(self) -> frozenset:
        """Node ids whose stored paths are currently masked."""
        return self._dirty

    def delta_path_count(self) -> int:
        """Paths currently served from the in-memory delta."""
        return sum(len(paths) for paths in self._delta.values())

    def absorb(self, peg: ProbabilisticEntityGraph, dirty_ids) -> None:
        """Register newly dirtied nodes and patch the delta.

        ``peg`` is the graph this index was built from, and must
        already reflect the mutation. A path is affected by a batch iff
        it contains a node the batch dirtied (:mod:`repro.delta.mutate`),
        so delta rows that hold none of ``dirty_ids`` are still exact
        and stay as they are; rows that hold one are dropped, the
        current paths through ``dirty_ids`` are enumerated and merged
        in, and only the sequences that gained rows are re-sorted into
        the ``(-probability, nodes)`` order. The result is the delta a
        re-enumeration of the whole cumulative dirty set would give,
        row for row.
        """
        # The builder imports this module.
        from repro.index.builder import PathIndexBuilder

        batch = frozenset(dirty_ids)
        with Timer() as timer:
            self._dirty = self._dirty | batch
            self._dirty_mask = _id_mask(peg, self._dirty)
            batch_mask = _id_mask(peg, batch)
            delta: dict = {}
            for seq, rows in self._delta.items():
                keep = ~batch_mask[rows.nodes].any(axis=1)
                if keep.any():
                    delta[seq] = rows.take(keep)
            found, self.enumerated_paths = PathIndexBuilder(
                peg, self.max_length, self.beta, self.gamma
            ).paths_through(batch)
            for seq, rows in found.items():
                if seq in delta:
                    rows = PathCandidates.concat((delta[seq], rows))
                # lexsort's last key is the primary one.
                order = np.lexsort(
                    (*rows.nodes.T[::-1], -(rows.prle * rows.prn))
                )
                delta[seq] = rows.take(order)
            self._delta = delta
        _ABSORB_SECONDS.observe(timer.elapsed)
        _ENUMERATED_PATHS.inc(self.enumerated_paths)
        _DIRTY_NODES.set(len(self._dirty))
        _DELTA_PATHS.set(self.delta_path_count())

    def compact(self) -> dict:
        """Fold the delta into the store; returns compaction stats.

        Which sequences hold stored paths through dirty nodes cannot be
        known from the *mutated* graph (their labels may be exactly
        what changed), so compaction scans every stored sequence: one
        parse of its joined bucket bodies and one node-membership mask,
        no path object. A sequence with no stale row and no delta row
        is left alone. An affected one keeps its columns — surviving
        stored rows, then delta rows — which the builder's writer files
        and writes back bucket by bucket (stores are append-only, so
        compaction grows the record log rather than reclaiming it).
        Histograms are rebuilt from the new counts, so cardinality
        estimates are exact again, and ``histogram_epoch`` is bumped,
        which re-keys every cached plan
        (:func:`repro.query.plan.plan_key`). A clean index is left
        alone.
        """
        from repro.index.builder import write_buckets

        stats = {
            "sequences_rewritten": 0,
            "paths_dropped": 0,
            "paths_added": 0,
        }
        if not self._dirty:
            return stats
        with Timer() as timer:
            rewritten = write_buckets(
                self.store, self._rewrites(stats), self.grid
            )
            for seq, histogram in rewritten.items():
                if histogram.total():
                    self.histograms[seq] = histogram
                else:
                    self.histograms.pop(seq, None)
            self.histogram_epoch += 1
            self._clear_delta()
        _COMPACT_SECONDS.observe(timer.elapsed)
        _SEQUENCES_REWRITTEN.inc(stats["sequences_rewritten"])
        _PATHS_DROPPED.inc(stats["paths_dropped"])
        _PATHS_ADDED.inc(stats["paths_added"])
        _DIRTY_NODES.set(0)
        _DELTA_PATHS.set(0)
        return stats

    def _rewrites(self, stats: dict):
        """Yield ``(sequence, bucket, payload)`` for every bucket of every
        sequence compaction changes, counting into ``stats``."""
        from repro.index.builder import bucket_payloads

        sequences = set(self.store.label_sequences()) | set(self._delta)
        for seq in sorted(sequences, key=repr):
            existing = list(self.store.scan_buckets(seq, 0))
            # Every stored path is "above 0": the whole sequence, typed
            # error for a payload the bulk parser refuses included.
            rows = decode_paths_above(
                concat_payloads(payload for _, payload in existing),
                0.0,
                len(seq),
            )
            stale = self._dirty_mask[rows.nodes].any(axis=1)
            dropped = int(stale.sum())
            added = self._delta.get(seq)
            if not dropped and added is None:
                continue
            if dropped:
                rows = rows.take(~stale)
            if added is not None:
                rows = PathCandidates.concat((rows, added))
            # A previously used bucket that emptied is overwritten with
            # the empty payload (the join of no payloads).
            payloads = dict.fromkeys(
                (bucket for bucket, _ in existing), concat_payloads(())
            )
            payloads.update(bucket_payloads(self.grid, rows))
            for bucket in sorted(payloads):
                yield seq, bucket, payloads[bucket]
            stats["sequences_rewritten"] += 1
            stats["paths_dropped"] += dropped
            stats["paths_added"] += 0 if added is None else len(added)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def size_bytes(self) -> int:
        """Approximate index footprint in bytes."""
        return self.store.size_bytes()

    def num_sequences(self) -> int:
        """Distinct canonical label sequences: stored, plus those only
        the delta holds."""
        extra = sum(1 for seq in self._delta if seq not in self.histograms)
        return len(self.histograms) + extra

    def num_paths(self) -> int:
        """Stored paths plus delta paths: an over-count until compaction.

        The stored count still includes the paths lookups mask (those
        through dirty nodes), which only a store scan could count;
        compaction makes it exact again.
        """
        stored = sum(h.total() for h in self.histograms.values())
        return stored + self.delta_path_count()

    def stats(self) -> dict:
        """Summary including builder statistics and the live state."""
        info = {
            "max_length": self.max_length,
            "beta": self.beta,
            "gamma": self.gamma,
            "sequences": self.num_sequences(),
            "paths": self.num_paths(),
            "size_bytes": self.size_bytes(),
            "dirty_nodes": len(self._dirty),
            "delta_sequences": len(self._delta),
            "delta_paths": self.delta_path_count(),
        }
        info.update(self.build_stats)
        return info
