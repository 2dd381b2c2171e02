"""Vectorized (numpy) backend of the joint search-space reduction.

:class:`VectorizedKPartiteGraph` is the flat-array counterpart of
:class:`repro.query.kpartite.CandidateKPartiteGraph`, held **stacked**:
vertices are numbered globally, partition ``i`` owning the ids
``offsets[i]:offsets[i + 1]``: the vertex table ``nodes``, ``all_alive``,
``all_w1`` and ``all_w2`` hold one row or entry per global id, and the
perception vectors are one component-major ``(k, num_vertices)``
float64 matrix (entry ``p`` of every vertex is one contiguous row).

The links of every ordered joining pair form one *entry list*:
``(row, col)`` global vertex ids in both orientations, sorted by (row,
neighbour partition, col). The link builder
(:func:`repro.query.links.build_candidate_links_vectorized`) emits it,
with the stacked vertex table, as :class:`~repro.query.links.StackedLinks`,
and the constructor adopts both as they are; the reference's dict form
is converted once (:func:`~repro.query.links.links_from_pairs`). A run
of entries sharing row and
neighbour partition is a *segment*. Both reduction principles are
passes over that list for all partitions at once, so the number of
numpy calls does not grow with k or with the number of joins:

* **structure** — one presence count: a vertex with fewer segments
  than partitions it must join with is deleted; swept (Jacobi) to the
  greatest fixpoint, the one the pure-Python worklist reaches too,
* **upperbounds** — Jacobi rounds: one gather of the neighbours'
  vectors, one ``np.maximum.reduceat`` over segments, one
  ``np.minimum.reduceat`` over rows, 0 for a row missing a required
  partition, the own entry kept, and one row product
  ``w2 · v_0 · … · v_{k-1}`` (in that order) against α.

Entries whose row or column died are dropped whenever a sweep or a
round deletes something — alive only shrinks — so later passes touch
only live links and a dead neighbour never needs zeroing. Max and min
are exact and the product keeps its factor order, so alive masks,
perception vectors, ``rounds`` and ``message_updates`` are those of
the per-pair passes this replaced
(:class:`repro.testing.reference.PerPairKPartiteGraph`, the oracle of
``tests/test_differential_random.py -k reduction``); sizes and removal
counts are also those of the pure-Python incremental backend, whose
work counters differ.

Candidate scores ``w1`` are gathered from the graph's label columns and
per-label-pair edge rows (through
:class:`~repro.peg.arrays.PegProbabilityArrays`), multiplying factors
in the reference backend's order.

The matchers join over what the reduction leaves: the live entry list
``_row`` / ``_col`` / ``_key`` (``_key = row * k + neighbour
partition``, non-decreasing), every entry of which joins two alive
vertices. A vertex's links into one partition are one ``searchsorted``
run of ``_key`` (:meth:`VectorizedKPartiteGraph.linked`; the array
matcher runs it for a whole frontier at once).
"""

from __future__ import annotations

import numpy as np

from repro.index.paths import as_candidates
from repro.peg.arrays import PegProbabilityArrays
from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.query.decompose import Decomposition
from repro.query.kpartite import _CONVERGENCE_EPSILON, ReductionStats
from repro.query.links import (
    StackedLinks,
    build_candidate_links_vectorized,
    links_from_pairs,
)


class VectorizedKPartiteGraph:
    """Flat-array candidate k-partite graph (Definition 6, vectorized).

    Same constructor contract and reduction semantics as
    :class:`repro.query.kpartite.CandidateKPartiteGraph`. ``links`` is
    :class:`~repro.query.links.StackedLinks` over ``candidates`` or the
    reference's ``{(i, j): [(vid, uid), ...]}`` dict (built with
    :func:`~repro.query.links.build_candidate_links_vectorized` when
    omitted). ``arrays`` (:class:`PegProbabilityArrays`, a view of the
    graph's columns) is made from ``peg`` when omitted.
    """

    def __init__(
        self,
        peg: ProbabilisticEntityGraph,
        decomposition: Decomposition,
        candidates: dict,
        alpha: float,
        links=None,
        arrays: PegProbabilityArrays | None = None,
    ) -> None:
        self.peg = peg
        self.decomposition = decomposition
        self.alpha = float(alpha)
        self.k = len(decomposition.paths)
        self.arrays = arrays if arrays is not None else PegProbabilityArrays(peg)
        self.candidates = [
            as_candidates(candidates[i], len(decomposition.paths[i].nodes))
            for i in range(self.k)
        ]
        if links is None:
            links = build_candidate_links_vectorized(
                peg, decomposition, dict(enumerate(self.candidates)),
                self.alpha, arrays=self.arrays,
            )
        elif not isinstance(links, StackedLinks):
            links = links_from_pairs(
                decomposition, dict(enumerate(self.candidates)), links
            )
        self._build_vertices(links)
        self._build_entries(links)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_vertices(self, links: StackedLinks) -> None:
        decomposition = self.decomposition
        query = decomposition.query
        arrays = self.arrays
        k = self.k
        #: Partition ``i`` owns global vertex ids ``offsets[i]:offsets[i+1]``.
        self.offsets = links.offsets
        bounds = self._bounds = self.offsets.tolist()
        n = self.num_vertices = bounds[-1]
        #: Stacked vertex table: row ``v`` holds the PEG node ids of
        #: global vertex ``v`` (zero-padded to the widest path).
        self.nodes = links.nodes
        #: Partition of every global vertex id.
        self.partition_of = np.arange(k).repeat(np.diff(self.offsets))
        #: Partitions every vertex must keep a live link into.
        self._required = np.array(
            [len(decomposition.joins_with.get(i, ())) for i in range(k)],
            dtype=np.int64,
        )[self.partition_of]
        #: Alive mask and scores of every global vertex id.
        self.all_alive = np.ones(n, dtype=bool)
        self.all_w1 = np.ones(n, dtype=np.float64)
        self.all_w2 = np.empty(n, dtype=np.float64)
        for i, path in enumerate(decomposition.paths):
            part = slice(bounds[i], bounds[i + 1])
            nodes = links.nodes[part, :len(path.nodes)]
            position_of = {node: pos for pos, node in enumerate(path.nodes)}
            # Multiply factors in the reference backend's order so the
            # float results are bit-identical.
            w1 = self.all_w1[part]
            for query_node in decomposition.covered_nodes[i]:
                probs = arrays.label_probabilities(query.label(query_node))
                w1 *= probs[nodes[:, position_of[query_node]]]
            for edge in decomposition.covered_edges[i]:
                node_a, node_b = tuple(edge)
                w1 *= arrays.edge_probabilities(
                    nodes[:, position_of[node_a]],
                    nodes[:, position_of[node_b]],
                    query.label(node_a),
                    query.label(node_b),
                )
            self.all_w2[part] = self.candidates[i].prn
        #: Flat positions of every vertex's own entry in ``vectors``.
        self._own = self.partition_of * n + np.arange(n)
        #: Perception vectors, component-major; the own entry is ``w1``.
        self.vectors = np.ones((k, n), dtype=np.float64)
        self.vectors.reshape(-1)[self._own] = self.all_w1

    def _build_entries(self, links: StackedLinks) -> None:
        #: Directed link entries the reduction starts from (2 per link).
        self.link_entries = int(links.rows.size)
        # The live entry list the passes shrink: the builder's, as it is.
        self._row = links.rows
        self._col = links.cols
        self._key = self._row * self.k + self.partition_of[self._col]

    def _segment(self) -> None:
        """Segment and row boundaries of the live entry list."""
        key = self._key
        starts = np.empty(key.size, dtype=bool)
        starts[:1] = True
        np.not_equal(key[1:], key[:-1], out=starts[1:])
        self._starts = starts.nonzero()[0]
        segment_rows = self._row[self._starts]
        #: Live neighbour partitions per vertex.
        self._coverage = np.bincount(segment_rows, minlength=self.num_vertices)
        new_row = np.empty(segment_rows.size, dtype=bool)
        new_row[:1] = True
        np.not_equal(segment_rows[1:], segment_rows[:-1], out=new_row[1:])
        self._row_starts = new_row.nonzero()[0]
        self._rows = segment_rows[self._row_starts]
        self._incomplete = (
            self._coverage[self._rows] < self._required[self._rows]
        ).nonzero()[0]

    def _drop_dead(self) -> None:
        """Drop the entries whose row or column died."""
        alive = self.all_alive
        live = alive[self._row] & alive[self._col]
        self._row = self._row[live]
        self._col = self._col[live]
        self._key = self._key[live]
        self._segment()

    # ------------------------------------------------------------------
    # Introspection (the matchers' interface)
    # ------------------------------------------------------------------

    def alive_counts(self) -> tuple:
        """Number of surviving vertices per partition."""
        return tuple(
            np.bincount(
                self.partition_of[self.all_alive], minlength=self.k
            ).tolist()
        )

    def search_space_size(self) -> float:
        """Product of surviving partition sizes (the paper's metric)."""
        result = 1.0
        for count in self.alive_counts():
            result *= count
        return result

    def alive_vertex_ids(self, i: int) -> list:
        """Vertex ids of partition ``i`` still alive, ascending."""
        low, high = self._bounds[i:i + 2]
        return np.flatnonzero(self.all_alive[low:high]).tolist()

    def candidate_of(self, i: int, vid: int):
        """The candidate path match behind vertex ``vid`` of partition ``i``."""
        return self.candidates[i][vid]

    def is_alive(self, i: int, vid: int) -> bool:
        """Whether vertex ``vid`` of partition ``i`` survived so far."""
        return bool(self.all_alive[self._bounds[i] + vid])

    def linked(self, i: int, vid: int, j: int) -> frozenset:
        """Alive partition-``j`` vertices linked to alive vertex ``vid``
        of ``i``: one run of the live entry list."""
        key = (self._bounds[i] + vid) * self.k + j
        low, high = np.searchsorted(self._key, (key, key + 1)).tolist()
        return frozenset((self._col[low:high] - self._bounds[j]).tolist())

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------

    def reduce(
        self,
        use_structure: bool = True,
        use_upperbounds: bool = True,
        max_rounds: int = 1000,
    ) -> ReductionStats:
        """Run both reductions to fixpoint and return statistics."""
        stats = ReductionStats(
            initial_sizes=self.alive_counts(), links=self.link_entries
        )
        self._segment()
        if use_structure:
            stats.structure_removed += self._structure_fixpoint()
        stats.after_structure_sizes = self.alive_counts()
        if use_upperbounds:
            self._upperbound_rounds(stats, use_structure, max_rounds)
        stats.final_sizes = self.alive_counts()
        stats.links_live = int(self._row.size)
        return stats

    def _structure_fixpoint(self) -> int:
        """Delete vertices missing a live link into a required partition."""
        alive = self.all_alive
        removed = 0
        while True:
            kill = self._coverage < self._required
            kill &= alive
            count = int(np.count_nonzero(kill))
            if not count:
                return removed
            alive[kill] = False
            removed += count
            self._drop_dead()

    def _upperbound_rounds(
        self, stats: ReductionStats, use_structure: bool, max_rounds: int
    ) -> None:
        eps = _CONVERGENCE_EPSILON
        alive, vectors = self.all_alive, self.vectors
        k, n = self.k, self.num_vertices
        # ``bounds[p, v]``: the most v's live links allow entry p to be —
        # the min over required partitions of the neighbours' max, 0 if
        # a required partition has no live neighbour, +inf (unbounded)
        # for the own entry and for every entry of a vertex joining
        # nothing.
        unbounded = np.zeros((k, n), dtype=np.float64)
        unbounded[:, self._required == 0] = np.inf
        bounds = np.empty((k, n), dtype=np.float64)
        flat_bounds = bounds.reshape(-1)
        # Row 0 is w2, so one product reduction multiplies
        # w2 · v_0 · … · v_{k-1} in the reference backend's order.
        work = np.empty((k + 1, n), dtype=np.float64)
        work[0] = self.all_w2
        new = work[1:]
        rounds = 0
        while rounds < max_rounds:
            rounds += 1
            # Jacobi: every vertex computed from the pre-round state.
            np.copyto(bounds, unbounded)
            if self._col.size:
                segment_max = np.maximum.reduceat(
                    vectors.take(self._col, axis=1), self._starts, axis=1
                )
                row_min = np.minimum.reduceat(
                    segment_max, self._row_starts, axis=1
                )
                row_min[:, self._incomplete] = 0.0
                bounds[:, self._rows] = row_min
            flat_bounds[self._own] = np.inf
            np.minimum(vectors, bounds, out=new)
            deleted = np.multiply.reduce(work, axis=0) < self.alpha
            deleted &= alive
            keep = alive & ~deleted
            stats.message_updates += int(np.count_nonzero(alive))
            changed = ((vectors - new) > eps).any(axis=0)
            any_changed = bool(changed[keep].any())
            np.copyto(vectors, new, where=keep)
            removed = int(np.count_nonzero(deleted))
            if not removed and not any_changed:
                break
            if removed:
                alive[deleted] = False
                stats.upperbound_removed += removed
                self._drop_dead()
                # Structure eligibility depends only on alive masks and
                # links, so a change-only round cannot create structure
                # deletions; the Python backend sweeps after deletions
                # too, keeping the counters identical.
                if use_structure:
                    stats.structure_removed += self._structure_fixpoint()
        stats.rounds += rounds
