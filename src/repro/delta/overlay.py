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
  small in-memory *delta index* — the re-enumerated current paths
  through dirty nodes — is unioned in. The two sides are disjoint by
  construction, so no deduplication is needed.
* **Writes** (:meth:`absorb`) re-enumerate only the dirty
  neighborhood: every path containing a dirty node starts within
  ``max_length`` hops of one, so the re-enumeration seeds
  :meth:`~repro.index.builder.PathIndexBuilder.collect_buckets` with
  that BFS region instead of the whole graph.
* **Compaction** (:meth:`compact`) folds the delta back into the base
  store — rewriting only the buckets whose path lists changed, with
  the same bucketing rule the builder uses — after which the overlay
  serves pure fall-through until the next mutation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.index.builder import PathIndexBuilder, _bucket_for, _milli
from repro.index.paths import (
    PathCandidates,
    decode_path_arrays,
    decode_paths,
    encode_paths,
)
from repro.index.path_index import PathIndex, make_histogram
from repro.index.protocol import (
    PathIndexProtocol,
    canonical_sequence,
    is_palindrome,
)
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


def _payload_touches(payload, dirty_array) -> bool:
    """Whether a bucket payload *may* contain a path through a dirty node.

    A vectorized membership test over the bulk-decoded node-id matrix —
    no :class:`~repro.index.paths.IndexedPath` objects are
    materialized. Payloads that cannot be bulk-decoded report ``True``
    (the caller's full decode then decides exactly)."""
    arrays = decode_path_arrays(payload)
    if arrays is None:
        return True
    nodes, _prle, _prn = arrays
    return bool(np.isin(nodes, dirty_array).any())


class DeltaOverlayIndex(PathIndexProtocol):
    """Base index + in-memory delta for paths through dirty nodes.

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
        self._set_dirty(frozenset())
        #: ``{canonical sequence: PathCandidates}`` — the current paths
        #: through dirty nodes, by decreasing probability.
        self._delta: dict = {}
        #: ``{(canonical sequence, milli-alpha): masked base-path
        #: count}`` learned from actual lookups — see
        #: :meth:`estimate_cardinality`.
        self._stale_counts: dict = {}

    # ------------------------------------------------------------------
    # Mutation maintenance
    # ------------------------------------------------------------------

    def _set_dirty(self, dirty: frozenset) -> None:
        self._dirty = dirty
        #: The same ids as the array lookups and compaction mask with.
        self._dirty_array = np.fromiter(dirty, dtype=np.int64, count=len(dirty))

    @property
    def dirty_nodes(self) -> frozenset:
        """Node ids whose base-index paths are currently masked."""
        return self._dirty

    def delta_path_count(self) -> int:
        """Paths currently served from the in-memory delta."""
        return sum(len(paths) for paths in self._delta.values())

    def absorb(self, dirty_ids) -> None:
        """Register newly dirtied nodes and refresh the delta index.

        The PEG must already reflect the mutation. The delta is rebuilt
        for the *cumulative* dirty set — earlier delta entries may have
        been invalidated by the newest mutation, so incremental patching
        of the delta itself would re-introduce exactly the staleness
        problem the overlay exists to solve.
        """
        self._set_dirty(self._dirty | frozenset(dirty_ids))
        with Timer() as timer:
            self._refresh()
        _ABSORB_SECONDS.observe(timer.elapsed)
        _DIRTY_NODES.set(len(self._dirty))
        _DELTA_PATHS.set(self.delta_path_count())

    def _dirty_region(self) -> list:
        """Start nodes that can reach a dirty node within ``max_length``."""
        region = set(self._dirty)
        frontier = set(self._dirty)
        for _ in range(self.max_length):
            reached: set = set()
            for node in frontier:
                reached.update(self.peg.neighbor_ids(node))
            frontier = reached - region
            if not frontier:
                break
            region |= frontier
        return sorted(region)

    def _refresh(self) -> None:
        # Masked-count memos describe the previous dirty set; the new
        # mutation may dirty (or clean) more base paths.
        self._stale_counts = {}
        if not self._dirty:
            self._delta = {}
            return
        builder = PathIndexBuilder(
            self.peg,
            max_length=self.max_length,
            beta=self.beta,
            gamma=self.gamma,
        )
        per_key, _counts = builder.collect_buckets(self._dirty_region())
        dirty = self._dirty
        delta: dict = {}
        for labels, buckets in per_key.items():
            paths = [
                path
                for bucket_paths in buckets.values()
                for path in bucket_paths
                if not dirty.isdisjoint(path.nodes)
            ]
            if paths:
                paths.sort(key=lambda p: (-p.probability, p.nodes))
                delta[labels] = PathCandidates.from_paths(paths, len(labels))
        self._delta = delta

    # ------------------------------------------------------------------
    # Lookup protocol
    # ------------------------------------------------------------------

    def lookup_canonical(
        self, canonical_seq: tuple, alpha: float
    ) -> PathCandidates:
        paths = self.base.lookup_canonical(canonical_seq, alpha)
        if self._dirty:
            stale = np.isin(paths.nodes, self._dirty_array).any(axis=1)
            masked = int(stale.sum())
            # Record the exact number of masked base paths at this
            # (sequence, milli-threshold): estimate_cardinality uses it
            # to undo the stale portion of the base histogram.
            self._stale_counts[(canonical_seq, _milli(alpha))] = masked
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

    def estimate_cardinality(self, label_seq: Sequence, alpha: float) -> float:
        """Base estimate, corrected for masked paths, plus the delta count.

        The base histogram still counts masked (stale) base paths — it
        is an estimator feeding decomposition ordering, not a
        correctness surface, and compaction trues it up. Pre-compaction
        the overlay is *delta-aware*: every lookup records how many
        base paths it masked for its (sequence, milli-threshold), and
        later estimates subtract that observed stale count before
        adding the exact in-memory delta count, so repeated query
        shapes see drift-free estimates without scanning the store.
        """
        estimate = self.base.estimate_cardinality(label_seq, alpha)
        seq = tuple(label_seq)
        canonical = canonical_sequence(seq)
        palindrome = is_palindrome(seq) and len(seq) > 1
        stale = self._stale_counts.get((canonical, _milli(alpha)))
        if stale:
            if palindrome:
                stale *= 2
            estimate = max(0.0, estimate - stale)
        extra_paths = self._delta.get(canonical)
        if extra_paths is not None:
            extra = len(extra_paths.above(alpha))
            if palindrome:
                extra *= 2
            estimate += extra
        return estimate

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self) -> dict:
        """Fold the delta into the base store; returns compaction stats.

        Which sequences hold base paths through dirty nodes cannot be
        known from the *mutated* graph (their labels may be exactly
        what changed), so compaction scans every stored sequence — but
        unaffected ones are rejected with a vectorized node-membership
        test over the bulk-decoded payload (no path objects built), so
        the common localized-update case pays one array scan per
        bucket, not a rewrite. For every affected canonical sequence
        the full path list is rebuilt — surviving base paths plus
        delta paths — re-bucketed with the builder's rule, and written
        back bucket by bucket
        (previously used buckets that emptied are overwritten with an
        empty payload; stores are append-only, so compaction grows the
        record log rather than reclaiming it). Histograms are rebuilt
        from the new counts, so cardinality estimates are exact again.
        After compaction the overlay is clean: lookups fall through to
        the base untouched until the next :meth:`absorb`.
        """
        dirty = self._dirty
        stats = {
            "sequences_rewritten": 0,
            "paths_dropped": 0,
            "paths_added": 0,
        }
        if not dirty and not self._delta:
            return stats
        timer = Timer()
        timer.__enter__()
        base = self.base
        grid = base.grid()
        sequences = set(base.store.label_sequences()) | set(self._delta)
        for seq in sorted(sequences, key=repr):
            existing_buckets = list(base.store.scan_buckets(seq, 0))
            added = self._delta.get(seq, ())
            if not added and not any(
                _payload_touches(payload, self._dirty_array)
                for _bucket, payload in existing_buckets
            ):
                # Fast reject: no delta entries and no payload contains
                # a dirty node, so nothing to rewrite — the common case
                # for localized updates, skipped without materializing
                # a single path object.
                continue
            kept = []
            dropped = 0
            for _bucket, payload in existing_buckets:
                for path in decode_paths(payload):
                    if dirty.isdisjoint(path.nodes):
                        kept.append(path)
                    else:
                        dropped += 1
            if not dropped and not added:
                continue
            merged: dict = {}
            for path in list(kept) + list(added):
                bucket = _bucket_for(path.probability, grid)
                merged.setdefault(bucket, []).append(path)
            rewrite = set(merged) | {b for b, _ in existing_buckets}
            for bucket in sorted(rewrite):
                base.store.put_bucket(
                    seq, bucket, encode_paths(merged.get(bucket, []))
                )
            if merged:
                base.histograms[seq] = make_histogram(
                    grid, {b: len(paths) for b, paths in merged.items()}
                )
            else:
                base.histograms.pop(seq, None)
            stats["sequences_rewritten"] += 1
            stats["paths_dropped"] += dropped
            stats["paths_added"] += len(added)
        if stats["sequences_rewritten"]:
            base.store.flush()
        self._set_dirty(frozenset())
        self._delta = {}
        self._stale_counts = {}
        timer.__exit__(None, None, None)
        _COMPACT_SECONDS.observe(timer.elapsed)
        _SEQUENCES_REWRITTEN.inc(stats["sequences_rewritten"])
        _PATHS_DROPPED.inc(stats["paths_dropped"])
        _PATHS_ADDED.inc(stats["paths_added"])
        _DIRTY_NODES.set(0)
        _DELTA_PATHS.set(0)
        return stats

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def num_sequences(self) -> int:
        extra = sum(
            1 for seq in self._delta if seq not in self.base.histograms
        )
        return self.base.num_sequences() + extra

    def num_paths(self) -> int:
        """Base paths (including still-masked stale ones) plus delta paths.

        Exact accounting of masked paths would require scanning the
        base store; compaction restores an exact count.
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
