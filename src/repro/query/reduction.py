"""Vectorized (numpy) backend of the joint search-space reduction.

:class:`VectorizedKPartiteGraph` is the flat-array counterpart of
:class:`repro.query.kpartite.CandidateKPartiteGraph`: every partition
becomes contiguous arrays (``w1``, ``w2``, an ``alive`` mask and the
perception vectors as one ``(num_vertices, k)`` float64 matrix), links
become CSR-style ``indptr``/``indices`` arrays per ordered partition
pair, and both reduction principles run as whole-array passes:

* **structure** — per partition and required neighbor partition, one
  boolean scatter marks vertices with at least one alive CSR neighbor;
  the complement is deleted, swept to fixpoint,
* **upperbounds** — Jacobi rounds: a segment-max over each CSR
  neighborhood (``np.maximum.reduceat``) rebuilds every perception
  vector from the pre-round state, and one row-product threshold test
  against α deletes vertices in bulk.

The candidate scores ``w1`` are computed by vectorized gather over
per-label node-probability arrays and a ``searchsorted`` edge-probability
table (:class:`~repro.peg.arrays.PegProbabilityArrays`), shared per
graph version.

Both backends consume the identical link structure
(:func:`repro.query.kpartite.build_candidate_links`) and perform
floating-point operations in the same per-element order, so alive sets,
partition sizes and removal counts agree with the Python reference; the
work counters (``message_updates``, ``rounds``) are backend-dependent.
"""

from __future__ import annotations

import numpy as np

from repro.index.paths import as_candidates
from repro.peg.arrays import PegProbabilityArrays
from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.query.decompose import Decomposition
from repro.query.kpartite import (
    _CONVERGENCE_EPSILON,
    ReductionStats,
    build_candidate_links,
)


class VectorizedKPartiteGraph:
    """Flat-array candidate k-partite graph (Definition 6, vectorized).

    Same constructor contract and reduction semantics as
    :class:`repro.query.kpartite.CandidateKPartiteGraph`. Pass a shared
    ``arrays`` (:class:`PegProbabilityArrays`) to amortize the
    per-label probability tables across queries.
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
        self._build_vertices()
        if links is None:
            links = build_candidate_links(
                peg, decomposition, candidates, self.alpha
            )
        self._build_csr(links)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_vertices(self) -> None:
        decomposition = self.decomposition
        query = decomposition.query
        arrays = self.arrays
        self.node_matrix: list = []
        self.w1: list = []
        self.w2: list = []
        self.alive: list = []
        self.vectors: list = []
        for i, path in enumerate(decomposition.paths):
            cands = self.candidates[i]
            n = len(cands)
            nodes = cands.nodes
            position_of = {node: pos for pos, node in enumerate(path.nodes)}
            # Multiply factors in the reference backend's order so the
            # float results are bit-identical.
            w1 = np.ones(n, dtype=np.float64)
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
            vectors = np.ones((n, self.k), dtype=np.float64)
            vectors[:, i] = w1
            self.node_matrix.append(nodes)
            self.w1.append(w1)
            self.w2.append(cands.prn)
            self.alive.append(np.ones(n, dtype=bool))
            self.vectors.append(vectors)

    def _build_csr(self, links) -> None:
        # One CSR per ordered joining pair (i, j): row = partition-i
        # vertex id, column entries = linked partition-j vertex ids.
        # ``links`` is either the reference dict of pair lists or a
        # LinkSet of numpy arrays (already row-major sorted for i < j).
        from_arrays = hasattr(links, "pair_lists")
        self._csr: dict = {}
        for i, joined in self.decomposition.joins_with.items():
            for j in joined:
                presorted = False
                if from_arrays:
                    if i < j:
                        rows, cols = links.get((i, j), (None, None))
                        presorted = True
                    else:
                        cols, rows = links.get((j, i), (None, None))
                    if rows is None:
                        rows = cols = np.zeros(0, dtype=np.int64)
                elif i < j:
                    pairs = links.get((i, j), ())
                    rows = np.fromiter(
                        (vid for vid, _ in pairs), dtype=np.int64,
                        count=len(pairs),
                    )
                    cols = np.fromiter(
                        (uid for _, uid in pairs), dtype=np.int64,
                        count=len(pairs),
                    )
                else:
                    pairs = links.get((j, i), ())
                    rows = np.fromiter(
                        (uid for _, uid in pairs), dtype=np.int64,
                        count=len(pairs),
                    )
                    cols = np.fromiter(
                        (vid for vid, _ in pairs), dtype=np.int64,
                        count=len(pairs),
                    )
                n_i = len(self.candidates[i])
                if rows.size and not presorted:
                    order = np.lexsort((cols, rows))
                    rows = rows[order]
                    cols = cols[order]
                counts = np.bincount(rows, minlength=n_i)
                indptr = np.zeros(n_i + 1, dtype=np.int64)
                np.cumsum(counts, out=indptr[1:])
                self._csr[(i, j)] = (indptr, cols, rows)

    # ------------------------------------------------------------------
    # Introspection (the matchers' interface)
    # ------------------------------------------------------------------

    def csr(self, i: int, j: int) -> tuple:
        """``(indptr, cols, rows)`` of the joining pair ``(i, j)``.

        Row = partition-``i`` vertex id, ``cols`` = linked partition-``j``
        vertex ids (ascending within a row, dead vertices included —
        filter with ``alive[j]``), ``rows`` = the row id of every entry.
        """
        return self._csr[(i, j)]

    def alive_counts(self) -> tuple:
        """Number of surviving vertices per partition."""
        return tuple(int(mask.sum()) for mask in self.alive)

    def search_space_size(self) -> float:
        """Product of surviving partition sizes (the paper's metric)."""
        result = 1.0
        for count in self.alive_counts():
            result *= count
        return result

    def alive_vertex_ids(self, i: int) -> list:
        """Vertex ids of partition ``i`` still alive, ascending."""
        return np.nonzero(self.alive[i])[0].tolist()

    def candidate_of(self, i: int, vid: int):
        """The candidate path match behind vertex ``vid`` of partition ``i``."""
        return self.candidates[i][vid]

    def is_alive(self, i: int, vid: int) -> bool:
        """Whether vertex ``vid`` of partition ``i`` survived so far."""
        return bool(self.alive[i][vid])

    def linked(self, i: int, vid: int, j: int) -> frozenset:
        """Alive partition-``j`` vertices linked to vertex ``vid`` of ``i``."""
        entry = self._csr.get((i, j))
        if entry is None:
            return frozenset()
        indptr, cols, _ = entry
        neighbors = cols[indptr[vid]:indptr[vid + 1]]
        return frozenset(neighbors[self.alive[j][neighbors]].tolist())

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
        stats = ReductionStats(initial_sizes=self.alive_counts())
        if use_structure:
            stats.structure_removed += self._structure_fixpoint()
        stats.after_structure_sizes = self.alive_counts()
        if use_upperbounds:
            self._upperbound_rounds(stats, use_structure, max_rounds)
        stats.final_sizes = self.alive_counts()
        return stats

    def _structure_fixpoint(self) -> int:
        """Delete vertices missing an alive link into a required partition."""
        removed = 0
        changed = True
        while changed:
            changed = False
            for i in range(self.k):
                required = self.decomposition.joins_with.get(i, frozenset())
                alive_i = self.alive[i]
                if not required or not alive_i.any():
                    continue
                fail = np.zeros(alive_i.shape, dtype=bool)
                for j in required:
                    indptr, cols, rows = self._csr[(i, j)]
                    has_neighbor = np.zeros(alive_i.shape, dtype=bool)
                    if rows.size:
                        has_neighbor[rows[self.alive[j][cols]]] = True
                    fail |= ~has_neighbor
                kill = alive_i & fail
                if kill.any():
                    alive_i[kill] = False
                    removed += int(kill.sum())
                    changed = True
        return removed

    def _segment_max(self, i: int, j: int) -> np.ndarray:
        """``(n_i, k)`` column-wise max over alive CSR neighbors in ``j``."""
        indptr, cols, _ = self._csr[(i, j)]
        n_i = self.alive[i].shape[0]
        if cols.size == 0:
            return np.zeros((n_i, self.k), dtype=np.float64)
        neighbor_vectors = self.vectors[j][cols]
        dead = ~self.alive[j][cols]
        if dead.any():
            neighbor_vectors[dead] = 0.0
        # Pad one zero row so every indptr start is a valid reduceat
        # index (trailing empty rows point one past the end); rows with
        # empty neighborhoods are zeroed explicitly afterwards.
        padded = np.vstack(
            (neighbor_vectors, np.zeros((1, self.k), dtype=np.float64))
        )
        segmax = np.maximum.reduceat(padded, indptr[:-1], axis=0)
        empty = indptr[:-1] == indptr[1:]
        if empty.any():
            segmax[empty] = 0.0
        return segmax

    def _upperbound_rounds(
        self, stats: ReductionStats, use_structure: bool, max_rounds: int
    ) -> None:
        eps = _CONVERGENCE_EPSILON
        rounds = 0
        while rounds < max_rounds:
            rounds += 1
            new_vectors: list = []
            deletions: list = []
            changes: list = []
            # Jacobi: every partition computed from the pre-round state.
            for i in range(self.k):
                old = self.vectors[i]
                alive_i = self.alive[i]
                required = self.decomposition.joins_with.get(i, frozenset())
                if required and alive_i.any():
                    best = None
                    for j in sorted(required):
                        segmax = self._segment_max(i, j)
                        best = (
                            segmax if best is None
                            else np.minimum(best, segmax)
                        )
                    new = np.minimum(old, best)
                    new[:, i] = old[:, i]  # the own entry stays fixed
                else:
                    new = old.copy()
                # Row-product threshold test, multiplying in the
                # reference backend's column order.
                bound = self.w2[i].copy()
                for p in range(self.k):
                    bound *= new[:, p]
                deleted = alive_i & (bound < self.alpha)
                changed_rows = (
                    alive_i & ~deleted & ((old - new) > eps).any(axis=1)
                )
                stats.message_updates += int(alive_i.sum())
                new_vectors.append(new)
                deletions.append(deleted)
                changes.append(changed_rows)
            any_deleted = False
            any_changed = False
            for i in range(self.k):
                deleted = deletions[i]
                keep = self.alive[i] & ~deleted
                self.vectors[i] = np.where(
                    keep[:, None], new_vectors[i], self.vectors[i]
                )
                if deleted.any():
                    self.alive[i][deleted] = False
                    stats.upperbound_removed += int(deleted.sum())
                    any_deleted = True
                if changes[i].any():
                    any_changed = True
            if not any_deleted and not any_changed:
                break
            # Structure eligibility depends only on alive masks and
            # links; a change-only round cannot create new structure
            # deletions, so the fixpoint sweep runs only after actual
            # deletions (the Python backend runs it then too — and it
            # removes nothing, keeping the counters identical).
            if use_structure and any_deleted:
                stats.structure_removed += self._structure_fixpoint()
        stats.rounds += rounds
