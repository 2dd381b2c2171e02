"""Candidate k-partite graph and joint search-space reduction (§5.2.4).

One partition per query path; one vertex per candidate path match; one
link per satisfiable join. Two reduction principles run to fixpoint:

* **Reduction by structure** — a vertex with no link into a partition
  its query path joins with cannot appear in any full match; delete it
  (and cascade).
* **Reduction by upperbounds** — perception-vector message passing.
  Every vertex carries one entry per partition upper-bounding the ``w1``
  weight of any vertex of that partition it can co-occur with; the entry
  for its own partition is its own ``w1`` (the exclusive label/edge
  probability of Section 5.2.4) and stays fixed. An update takes, for
  each other entry ``p``, the minimum over joined partitions of the
  maximum entry-``p`` value among linked neighbors. A vertex is deleted
  when the product of its vector entries times its identity weight
  ``w2 = Prn(P^u)`` drops below the query threshold α.

Updates are incremental (only vertices whose neighborhood changed are
recomputed) in Jacobi rounds.

This module is the pure-Python reference backend
(``reduction_backend="python"``); :mod:`repro.query.reduction` holds
the vectorized numpy backend. Both accept the links of either builder
(:func:`build_candidate_links` or
:func:`repro.query.links.build_candidate_links_vectorized`) and expose
the same narrow interface
(:meth:`CandidateKPartiteGraph.alive_counts`,
:meth:`~CandidateKPartiteGraph.alive_vertex_ids`,
:meth:`~CandidateKPartiteGraph.candidate_of`,
:meth:`~CandidateKPartiteGraph.is_alive`,
:meth:`~CandidateKPartiteGraph.linked`) the reference matcher
(:func:`repro.query.matcher.generate_matches_reference`) joins through;
the array matcher reads the vectorized backend's arrays directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.query.decompose import Decomposition
from repro.query.join_candidates import JoinCandidateTables, joined_probability

#: Vector entries changing by less than this are treated as converged.
_CONVERGENCE_EPSILON = 1e-12


@dataclass
class _Vertex:
    """One candidate path match inside the k-partite graph."""

    candidate: object
    w1: float
    w2: float
    alive: bool = True
    links: dict = field(default_factory=dict)  # partition -> set of vertex ids
    vector: list = field(default_factory=list)


@dataclass
class ReductionStats:
    """Sizes and work counters of one reduction run.

    ``message_updates`` and ``rounds`` are backend-dependent work
    counters (the incremental Python backend recomputes only dirty
    vertices per round, the vectorized backend recomputes every alive
    vertex); sizes, removal counts and link counts are
    backend-independent.
    """

    initial_sizes: tuple = ()
    after_structure_sizes: tuple = ()
    final_sizes: tuple = ()
    structure_removed: int = 0
    upperbound_removed: int = 0
    message_updates: int = 0
    rounds: int = 0
    #: Directed link entries (two per link) before the reduction, and
    #: those whose endpoints both survived it.
    links: int = 0
    links_live: int = 0

    @staticmethod
    def _product(sizes: tuple) -> float:
        # A query with zero partitions has an empty search space, not a
        # singleton one; the empty product must not report size 1.
        if not sizes:
            return 0.0
        result = 1.0
        for size in sizes:
            result *= size
        return result

    @property
    def initial_search_space(self) -> float:
        """Product of partition sizes before any reduction."""
        return self._product(self.initial_sizes)

    @property
    def after_structure_search_space(self) -> float:
        """Search-space size after the first structure pass."""
        return self._product(self.after_structure_sizes)

    @property
    def final_search_space(self) -> float:
        """Search-space size after the full joint reduction."""
        return self._product(self.final_sizes)


def build_candidate_links(
    peg: ProbabilisticEntityGraph,
    decomposition: Decomposition,
    candidates: dict,
    alpha: float,
) -> dict:
    """Satisfiable join links between candidate partitions.

    Returns ``{(i, j): [(vid, uid), ...]}`` for every joining partition
    pair with ``i < j``: partition-``i`` vertex ``vid`` and
    partition-``j`` vertex ``uid`` agree on the join predicates, their
    joined subgraph is consistent (injective, reference-disjoint) and
    its exact probability reaches ``alpha``. Both reduction backends
    consume this one structure, so their link sets are identical by
    construction.
    """
    tables = JoinCandidateTables(decomposition, candidates)
    links: dict = {}
    for i, joined in decomposition.joins_with.items():
        for j in joined:
            if j < i:
                continue  # links are symmetric; build once per pair
            pairs = []
            for vid, candidate in enumerate(candidates[i]):
                for uid in tables.joinable(i, vid, j):
                    prob = joined_probability(
                        peg, decomposition, i, candidate, j,
                        candidates[j][uid],
                    )
                    if prob < alpha:
                        continue
                    pairs.append((vid, uid))
            links[(i, j)] = pairs
    return links


class CandidateKPartiteGraph:
    """Definition 6: partitions = query paths, vertices = candidates."""

    def __init__(
        self,
        peg: ProbabilisticEntityGraph,
        decomposition: Decomposition,
        candidates: dict,
        alpha: float,
        links=None,
    ) -> None:
        self.peg = peg
        self.decomposition = decomposition
        self.alpha = float(alpha)
        self.k = len(decomposition.paths)
        self._build_vertices(candidates)
        self._build_links(candidates, links)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_vertices(self, candidates: dict) -> None:
        peg = self.peg
        query = self.decomposition.query
        self.partitions: list = []
        for i, path in enumerate(self.decomposition.paths):
            own_nodes = self.decomposition.covered_nodes[i]
            own_edges = self.decomposition.covered_edges[i]
            position_of = {node: pos for pos, node in enumerate(path.nodes)}
            vertices = []
            for candidate in candidates[i]:
                w1 = 1.0
                for query_node in own_nodes:
                    peg_node = candidate.nodes[position_of[query_node]]
                    w1 *= peg.label_probability_id(
                        peg_node, query.label(query_node)
                    )
                for edge in own_edges:
                    node_a, node_b = tuple(edge)
                    w1 *= peg.edge_probability_id(
                        candidate.nodes[position_of[node_a]],
                        candidate.nodes[position_of[node_b]],
                        query.label(node_a),
                        query.label(node_b),
                    )
                vector = [1.0] * self.k
                vector[i] = w1
                vertices.append(
                    _Vertex(candidate=candidate, w1=w1, w2=candidate.prn,
                            vector=vector)
                )
            self.partitions.append(vertices)

    def _build_links(self, candidates: dict, links) -> None:
        if links is None:
            links = build_candidate_links(
                self.peg, self.decomposition, candidates, self.alpha
            )
        elif hasattr(links, "pair_lists"):
            # repro.query.links.StackedLinks from the vectorized
            # builder; both builders emit identical pairs, so the
            # backends stay interchangeable.
            links = links.pair_lists()
        for (i, j), pairs in links.items():
            for vid, uid in pairs:
                vertex = self.partitions[i][vid]
                other = self.partitions[j][uid]
                vertex.links.setdefault(j, set()).add(uid)
                other.links.setdefault(i, set()).add(vid)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def alive_counts(self) -> tuple:
        """Number of surviving vertices per partition."""
        return tuple(
            sum(1 for v in vertices if v.alive) for vertices in self.partitions
        )

    def search_space_size(self) -> float:
        """Product of surviving partition sizes (the paper's metric)."""
        result = 1.0
        for count in self.alive_counts():
            result *= count
        return result

    def alive_vertices(self, i: int):
        """``(vertex id, vertex)`` pairs of partition ``i`` still alive."""
        return (
            (vid, vertex)
            for vid, vertex in enumerate(self.partitions[i])
            if vertex.alive
        )

    def alive_vertex_ids(self, i: int) -> list:
        """Vertex ids of partition ``i`` still alive, ascending."""
        return [vid for vid, _ in self.alive_vertices(i)]

    def candidate_of(self, i: int, vid: int):
        """The candidate path match behind vertex ``vid`` of partition ``i``."""
        return self.partitions[i][vid].candidate

    def is_alive(self, i: int, vid: int) -> bool:
        """Whether vertex ``vid`` of partition ``i`` survived so far."""
        return self.partitions[i][vid].alive

    def linked(self, i: int, vid: int, j: int) -> frozenset:
        """Alive partition-``j`` vertices linked to vertex ``vid`` of ``i``."""
        vertex = self.partitions[i][vid]
        return frozenset(
            uid for uid in vertex.links.get(j, ())
            if self.partitions[j][uid].alive
        )

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
            initial_sizes=self.alive_counts(), links=self._link_entries()
        )
        if use_structure:
            stats.structure_removed += self._reduce_structure()
        stats.after_structure_sizes = self.alive_counts()
        if use_upperbounds:
            self._reduce_upperbounds(stats, use_structure, max_rounds)
        stats.final_sizes = self.alive_counts()
        stats.links_live = self._link_entries()
        return stats

    def _link_entries(self) -> int:
        # A deletion removes the vertex from its neighbours' link sets,
        # so alive vertices hold exactly the live links.
        return sum(
            len(uids)
            for vertices in self.partitions
            for vertex in vertices
            if vertex.alive
            for uids in vertex.links.values()
        )

    def _delete(self, i: int, vid: int, touched: set | None = None) -> None:
        vertex = self.partitions[i][vid]
        vertex.alive = False
        for j, uids in vertex.links.items():
            for uid in uids:
                other = self.partitions[j][uid]
                other.links.get(i, set()).discard(vid)
                if other.alive and touched is not None:
                    touched.add((j, uid))

    def _reduce_structure(self, changed_neighbors: set | None = None) -> int:
        """Delete vertices missing a link into a required partition.

        ``changed_neighbors``, when given, accumulates the ``(partition,
        vertex id)`` pairs whose neighborhood shrank — the upperbound
        loop re-marks them dirty so their perception vectors are
        recomputed against the post-structure state.
        """
        removed = 0
        worklist = [
            (i, vid)
            for i in range(self.k)
            for vid, vertex in enumerate(self.partitions[i])
            if vertex.alive
        ]
        pending = set(worklist)
        while worklist:
            i, vid = worklist.pop()
            pending.discard((i, vid))
            vertex = self.partitions[i][vid]
            if not vertex.alive:
                continue
            required = self.decomposition.joins_with.get(i, frozenset())
            if all(vertex.links.get(j) for j in required):
                continue
            touched: set = set()
            self._delete(i, vid, touched)
            removed += 1
            if changed_neighbors is not None:
                changed_neighbors |= touched
            for item in touched:
                if item not in pending:
                    pending.add(item)
                    worklist.append(item)
        return removed

    def _recompute_vector(self, i: int, vid: int) -> tuple:
        """New perception vector of one vertex; ``None`` marks deletion."""
        vertex = self.partitions[i][vid]
        required = self.decomposition.joins_with.get(i, frozenset())
        new_vector = list(vertex.vector)
        for p in range(self.k):
            if p == i:
                continue
            best = None
            for j in required:
                linked = vertex.links.get(j)
                maximum = 0.0
                if linked:
                    for uid in linked:
                        other = self.partitions[j][uid]
                        if other.alive and other.vector[p] > maximum:
                            maximum = other.vector[p]
                if best is None or maximum < best:
                    best = maximum
            if best is not None and best < new_vector[p]:
                new_vector[p] = best
        bound = vertex.w2
        for value in new_vector:
            bound *= value
        if bound < self.alpha:
            return None
        return tuple(new_vector)

    def _reduce_upperbounds(
        self, stats: ReductionStats, use_structure: bool, max_rounds: int
    ) -> None:
        dirty = {
            (i, vid)
            for i in range(self.k)
            for vid, vertex in enumerate(self.partitions[i])
            if vertex.alive
        }
        rounds = 0
        while dirty and rounds < max_rounds:
            rounds += 1
            batch = sorted(dirty)
            dirty = set()
            results = [
                (item, self._recompute_vector(*item)) for item in batch
            ]
            touched: set = set()
            for (i, vid), new_vector in results:
                vertex = self.partitions[i][vid]
                if not vertex.alive:
                    continue
                stats.message_updates += 1
                if new_vector is None:
                    self._delete(i, vid, touched)
                    stats.upperbound_removed += 1
                    continue
                changed = any(
                    old - new > _CONVERGENCE_EPSILON
                    for old, new in zip(vertex.vector, new_vector)
                )
                vertex.vector = list(new_vector)
                if changed:
                    for j, uids in vertex.links.items():
                        for uid in uids:
                            if self.partitions[j][uid].alive:
                                touched.add((j, uid))
            if use_structure and touched:
                stats.structure_removed += self._reduce_structure(touched)
            dirty |= {
                item
                for item in touched
                if self.partitions[item[0]][item[1]].alive
            }
        stats.rounds += rounds
