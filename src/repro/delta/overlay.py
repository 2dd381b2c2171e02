"""The delta-overlay index: serving lookups over a mutating PEG.

A built :class:`~repro.index.path_index.PathIndex` is immutable — it
reflects the PEG at offline-build time. :class:`DeltaOverlayIndex`
wraps such a base index and keeps it queryable *through* mutations
without a full rebuild, using the invariant established in
:mod:`repro.delta.mutate`: a stored path is affected by a mutation iff
it contains a dirty node.

* **Reads** answer the same
  :class:`~repro.index.protocol.PathIndexProtocol` contract: base
  results are filtered to drop paths through dirty nodes (stale), and a
  small in-memory *delta index* — the current paths through dirty
  nodes — is unioned in. The two sides are disjoint by construction,
  so no deduplication is needed. Whether a row holds a dirty node is
  one gather from a boolean mask over the id space. Estimates read the
  base histograms alone, so a batch moves no estimate and no plan.
* **Writes** (:meth:`absorb`) patch the delta: rows through the nodes
  the batch dirtied are dropped and the current paths through those
  nodes are enumerated
  (:meth:`~repro.index.builder.PathIndexBuilder.paths_through`) and
  merged in, so an absorb costs what the ``max_length``-hop
  neighbourhood of *its* batch holds — not what the cumulative dirty
  set reaches, and not the graph.
* **Compaction** (:meth:`compact`) folds the delta back into the base
  store — one columnar pass per stored sequence, rewriting only the
  buckets of sequences whose path lists changed, through the builder's
  own writer (:func:`~repro.index.builder.bucket_payloads`,
  :func:`~repro.index.builder.write_buckets`) and rewrites the
  histograms, bumping the base's ``histogram_epoch`` — after which the
  overlay serves pure fall-through until the next mutation.

The enumeration's output, the delta and a sequence on its way back to
the store are the same :class:`~repro.index.paths.PathCandidates`
columns: no per-path object between an absorb and a lookup.
"""

from __future__ import annotations

import numpy as np

from repro.index.builder import (
    PathIndexBuilder,
    bucket_payloads,
    write_buckets,
)
from repro.index.paths import (
    PathCandidates,
    concat_payloads,
    decode_paths_above,
)
from repro.index.path_index import PathIndex
from repro.index.protocol import PathIndexProtocol
from repro.obs.metrics import get_registry
from repro.obs.timing import Timer
from repro.obs.trace import current_span
from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.utils.errors import DeltaError

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


class DeltaOverlayIndex(PathIndexProtocol):
    """Base index + in-memory delta for paths through dirty nodes.

    Cardinality estimates are the base's, unchanged by absorbs: the
    base histograms still count the paths lookups mask and miss the
    delta's, until :meth:`compact` rewrites them. An estimate feeds
    decomposition ordering only, and any valid decomposition yields
    the same matches, so the drift costs plan quality, never answers.

    Parameters
    ----------
    base:
        The immutable offline index.
    peg:
        The live PEG the base was built from — mutations are applied to
        it *before* :meth:`absorb` is called (:mod:`repro.delta` does
        both in order).
    """

    def __init__(
        self, base: PathIndex, peg: ProbabilisticEntityGraph
    ) -> None:
        if isinstance(base, DeltaOverlayIndex):
            raise DeltaError("delta overlays do not nest; reuse the overlay")
        self.base = base
        self.peg = peg
        self.max_length = base.max_length
        self.beta = base.beta
        self.gamma = base.gamma
        #: The base's histograms, not a copy: the overlay estimates
        #: from them alone, so an absorb moves no estimate and a plan
        #: outlives every batch until compaction rewrites them.
        self.histograms = base.histograms
        self._set_dirty(frozenset())
        #: ``{canonical sequence: PathCandidates}`` — the current paths
        #: through dirty nodes, by decreasing probability.
        self._delta: dict = {}
        #: Directed partial paths the last :meth:`absorb` expanded.
        self.enumerated_paths = 0

    # ------------------------------------------------------------------
    # Mutation maintenance
    # ------------------------------------------------------------------

    def _set_dirty(self, dirty: frozenset) -> None:
        self._dirty = dirty
        #: The same ids as a boolean mask over the id space, sized after
        #: the PEG was mutated: every id a stored or delta row holds is
        #: in range, and lookups and compaction test rows with a gather.
        self._dirty_mask = self._id_mask(dirty)

    def _id_mask(self, ids) -> np.ndarray:
        mask = np.zeros(self.peg.columns.size, dtype=bool)
        mask[list(ids)] = True
        return mask

    @property
    def dirty_nodes(self) -> frozenset:
        """Node ids whose base-index paths are currently masked."""
        return self._dirty

    def delta_path_count(self) -> int:
        """Paths currently served from the in-memory delta."""
        return sum(len(paths) for paths in self._delta.values())

    def absorb(self, dirty_ids) -> None:
        """Register newly dirtied nodes and patch the delta index.

        The PEG must already reflect the mutation. A path is affected
        by a batch iff it contains a node the batch dirtied
        (:mod:`repro.delta.mutate`), so delta rows that hold none of
        ``dirty_ids`` are still exact and stay as they are; rows that
        hold one are dropped, the current paths through ``dirty_ids``
        are enumerated and merged in, and only the sequences that
        gained rows are re-sorted into the ``(-probability, nodes)``
        order. The result is the delta a re-enumeration of the whole
        cumulative dirty set would give, row for row.
        """
        batch = frozenset(dirty_ids)
        with Timer() as timer:
            self._set_dirty(self._dirty | batch)
            batch_mask = self._id_mask(batch)
            delta: dict = {}
            for seq, rows in self._delta.items():
                keep = ~batch_mask[rows.nodes].any(axis=1)
                if keep.any():
                    delta[seq] = rows.take(keep)
            found, self.enumerated_paths = PathIndexBuilder(
                self.peg, self.max_length, self.beta, self.gamma
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

    # ------------------------------------------------------------------
    # Lookup protocol
    # ------------------------------------------------------------------

    def lookup_canonical(
        self, canonical_seq: tuple, alpha: float
    ) -> PathCandidates:
        paths = self.base.lookup_canonical(canonical_seq, alpha)
        if self._dirty:
            stale = self._dirty_mask[paths.nodes].any(axis=1)
            masked = int(stale.sum())
            if masked:
                _MASKED_PATHS.inc(masked)
                span = current_span()
                if span.enabled:
                    span.incr("overlay_masked_paths", masked)
                paths = paths.take(~stale)
        extra = self._delta.get(canonical_seq)
        if extra is not None:
            extra = extra.above(alpha)
            if extra:
                paths = PathCandidates.concat((paths, extra))
                span = current_span()
                if span.enabled:
                    span.incr("overlay_delta_paths", len(extra))
        return paths

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self) -> dict:
        """Fold the delta into the base store; returns compaction stats.

        Which sequences hold base paths through dirty nodes cannot be
        known from the *mutated* graph (their labels may be exactly
        what changed), so compaction scans every stored sequence: one
        parse of its joined bucket bodies and one node-membership mask,
        no path object. A sequence with no stale row and no delta row
        is left alone. An affected one keeps its columns — surviving
        base rows, then delta rows — which the builder's writer files
        and writes back bucket by bucket (stores are append-only, so
        compaction grows the record log rather than reclaiming it).
        Histograms are rebuilt from the new counts, so cardinality
        estimates are exact again, and the base's ``histogram_epoch``
        is bumped, which re-keys every cached plan
        (:func:`repro.query.plan.plan_key`). After compaction the
        overlay is clean: lookups fall through to the base untouched
        until the next :meth:`absorb`.
        """
        stats = {
            "sequences_rewritten": 0,
            "paths_dropped": 0,
            "paths_added": 0,
        }
        if not self._dirty:
            return stats
        with Timer() as timer:
            base = self.base
            rewritten = write_buckets(
                base.store, self._rewrites(stats), base.grid
            )
            for seq, histogram in rewritten.items():
                if histogram.total():
                    base.histograms[seq] = histogram
                else:
                    base.histograms.pop(seq, None)
            base.histogram_epoch += 1
            self._set_dirty(frozenset())
            self._delta = {}
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
        base = self.base
        sequences = set(base.store.label_sequences()) | set(self._delta)
        for seq in sorted(sequences, key=repr):
            existing = list(base.store.scan_buckets(seq, 0))
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
            payloads.update(bucket_payloads(base.grid, rows))
            for bucket in sorted(payloads):
                yield seq, bucket, payloads[bucket]
            stats["sequences_rewritten"] += 1
            stats["paths_dropped"] += dropped
            stats["paths_added"] += 0 if added is None else len(added)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def num_sequences(self) -> int:
        extra = sum(
            1 for seq in self._delta if seq not in self.base.histograms
        )
        return self.base.num_sequences() + extra

    def num_paths(self) -> int:
        """Base paths plus delta paths: an over-count until compaction.

        The base count still includes the paths lookups mask (those
        through dirty nodes), which only a store scan could count;
        compaction makes it exact again.
        """
        return self.base.num_paths() + self.delta_path_count()

    def size_bytes(self) -> int:
        return self.base.size_bytes()

    def stats(self) -> dict:
        info = dict(self.base.stats())
        info.update(
            {
                "overlay": True,
                "dirty_nodes": len(self._dirty),
                "delta_sequences": len(self._delta),
                "delta_paths": self.delta_path_count(),
            }
        )
        return info
