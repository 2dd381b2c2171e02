"""Scalar reference implementations the differential tests compare against.

Reachable from tests only: nothing in the production packages imports
this module, and no option, flag or environment variable selects it.

:class:`ScalarCandidateFinder` is the candidate finder as it ran before
the array-native lookup (:class:`repro.query.candidates.CandidateFinder`):
the Section 5.2.2 tests, one :class:`~repro.index.paths.IndexedPath` at
a time. The array finder must return the same raw count and the same
kept rows in the same order.

:func:`encode_paths` and :func:`bucket_for` are the bucket writer as it
ran before the columnar one (:func:`repro.index.builder.bucket_payloads`),
which must file the same rows under the same buckets as the same bytes.

:class:`TuplePathEnumeration` is the path enumeration as it ran before
the column frontier (:class:`repro.index.builder.PathIndexBuilder`): a
frontier of ``(ids, labels, prle, prn)`` tuples extended one path, one
neighbour, one label at a time. The array enumeration must yield the
same sequences in the same order holding the same rows in the same
order, ``prle``/``prn`` bit for bit, and the same level counts.

:class:`PerPairKPartiteGraph` is the joint search-space reduction as it
ran before the stacked passes (:mod:`repro.query.reduction`): per
partition and required neighbour partition, one CSR pass over the full
link set with dead neighbours zeroed (``_segment_max``), Gauss-Seidel
structure sweeps. The stacked reduction must leave the same alive
masks and perception vectors, bit for bit, after the same ``rounds``
and ``message_updates``, with the same sizes and removal counts.

:func:`per_pair_links` is the candidate-link builder as it ran before
the stacked pass (:func:`repro.query.links.link_probabilities`): one
equi-join and one factor product per joining partition pair. The
stacked pass must keep the same links in the same order, their pre-α
probabilities bit for bit, and count the same joint-marginal links.

:class:`PathTables` (:func:`path_tables`) is a PEG's id view derived
one id at a time from its entity-keyed dicts, :func:`edge_probabilities`
the sorted-composite-key edge gather, and :func:`scalar_context` the
per-node context build — as each ran before the graph kept its id view
as columns (:class:`repro.peg.columns.PegColumns`). Every column, every
``*_id`` accessor, every probability-array gather and the column pass
of :func:`repro.index.context.build_context` must equal them exactly.

:func:`partition_into_components` is the identity-component partition
as it ran before the sets were grouped by their union-find root
(:func:`repro.peg.components.partition_into_components`): one
``e <= refs`` scan over every reference set per component. The grouped
partition must return the same list.

:func:`canonical_search` is query canonical labeling as it ran before
automorphism pruning (:meth:`repro.query.query_graph.QueryGraph.canonical_form`):
individualization-refinement over every member of every branched color
class. The pruned search must return the same node order and edge
encoding whenever neither search reaches the leaf cap.

:func:`first_embeddings` is the per-row duplicate filter the array
matcher ran before the query's symmetry-breaking constraints
(:meth:`repro.query.query_graph.QueryGraph.symmetry_constraints`) let
it enumerate one embedding per match: the matcher's final frontier must
hold no two rows of one labeled subgraph, so the filter keeps every row.
"""

from __future__ import annotations

import struct
from typing import FrozenSet, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.index.builder import PathIndexBuilder
from repro.index.context import ContextInformation
from repro.index.grid import milli
from repro.index.paths import IndexedPath, PathCandidates, as_candidates
from repro.index.path_index import PathIndex
from repro.peg.arrays import PegProbabilityArrays, component_table
from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.query.candidates import PathStatistics, compute_path_statistics
from repro.query.decompose import Decomposition, QueryPath
from repro.query.kpartite import _CONVERGENCE_EPSILON, ReductionStats
from repro.query.query_graph import _CANONICAL_LEAF_CAP, QueryGraph
from repro.query.reduction import VectorizedKPartiteGraph
from repro.utils.errors import IndexError_

_COUNT = struct.Struct(">I")
_PATH_HEADER = struct.Struct(">B")
_NODE = struct.Struct(">I")
_PROBS = struct.Struct(">dd")


def encode_paths(paths: Iterable[IndexedPath]) -> bytes:
    """Serialize a sequence of paths into a bucket payload."""
    paths = list(paths)
    parts = [_COUNT.pack(len(paths))]
    for path in paths:
        if len(path.nodes) > 255:
            raise IndexError_("path too long to serialize (max 255 nodes)")
        parts.append(_PATH_HEADER.pack(len(path.nodes)))
        parts.extend(_NODE.pack(node) for node in path.nodes)
        parts.append(_PROBS.pack(path.prle, path.prn))
    return b"".join(parts)


def bucket_for(probability: float, grid_points: Sequence[int]) -> int:
    """The bucket of one probability: the largest grid point not above
    its milli-rounding, the lowest point for anything below the grid."""
    rounded = milli(probability)
    bucket = grid_points[0]
    for point in grid_points:
        if point <= rounded:
            bucket = point
        else:
            break
    return bucket


class ScalarCandidateFinder:
    """Retrieves and prunes candidate matches for query paths."""

    def __init__(
        self,
        peg: ProbabilisticEntityGraph,
        query: QueryGraph,
        alpha: float,
        index: PathIndex | None = None,
        context: ContextInformation | None = None,
        use_context: bool = True,
    ) -> None:
        self.peg = peg
        self.query = query
        self.alpha = float(alpha)
        self.index = index
        self.context = context
        self.use_context = bool(use_context) and context is not None
        self._node_cache: dict = {}
        # Query node-level statistics: c(n, σ) for the labels around n.
        self._query_label_counts = {
            node: self._label_counts(node) for node in query.nodes
        }

    def _label_counts(self, node) -> dict:
        counts: dict = {}
        for neighbor in self.query.neighbors(node):
            label = self.query.label(neighbor)
            counts[label] = counts.get(label, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Node-level pruning
    # ------------------------------------------------------------------

    def node_allowed(self, query_node, peg_node: int) -> bool:
        """Node-level context test of Section 5.2.2 (memoized)."""
        key = (query_node, peg_node)
        cached = self._node_cache.get(key)
        if cached is not None:
            return cached
        allowed = self._node_allowed_impl(query_node, peg_node)
        self._node_cache[key] = allowed
        return allowed

    def _node_allowed_impl(self, query_node, peg_node: int) -> bool:
        label = self.query.label(query_node)
        p_label = self.peg.label_probability_id(peg_node, label)
        if p_label <= 0.0:
            return False
        if not self.use_context:
            return True
        context = self.context
        for sigma, required in self._query_label_counts[query_node].items():
            if context.cardinality(peg_node, sigma) < required:
                return False
            fpu = context.full_upperbound(peg_node, sigma)
            if p_label * (fpu ** required) < self.alpha:
                return False
        return True

    # ------------------------------------------------------------------
    # Path-level pruning
    # ------------------------------------------------------------------

    def neighborhood_upperbound(
        self, path: QueryPath, stats: PathStatistics, candidate_nodes: tuple
    ) -> float:
        """``pu(P^u)``: bound on the probability of matching ``Γ(P)``.

        For each path neighbor ``m``, one adjacent path node contributes
        its full upperbound ``fpu`` and the remaining ones their partial
        upperbounds ``ppu``; the tightest choice over ``rv(P, m)`` is
        used, and bounds multiply over all neighbors.
        """
        context = self.context
        query = self.query
        bound = 1.0
        for m in stats.neighbors:
            label_m = query.label(m)
            positions = stats.reverse_neighbors[m]
            ppu_values = [
                context.partial_upperbound(candidate_nodes[pos], label_m)
                for pos in positions
            ]
            fpu_values = [
                context.full_upperbound(candidate_nodes[pos], label_m)
                for pos in positions
            ]
            ppu_product = 1.0
            for value in ppu_values:
                ppu_product *= value
            best = None
            for fpu, ppu in zip(fpu_values, ppu_values):
                if ppu > 0.0:
                    candidate = fpu * (ppu_product / ppu)
                else:
                    # fpu <= ppu (see repro.index.context), so the
                    # chosen node's fpu is 0 too.
                    candidate = 0.0
                if best is None or candidate < best:
                    best = candidate
            bound *= best if best is not None else 0.0
            if bound == 0.0:
                return 0.0
        return bound

    def cycle_probability(
        self, path: QueryPath, stats: PathStatistics, candidate_nodes: tuple
    ) -> float:
        """``cpr(P^u)``: probability of the query's cycle edges on the path."""
        prob = 1.0
        for pos_a, pos_b in stats.cycles:
            label_a = self.query.label(path.nodes[pos_a])
            label_b = self.query.label(path.nodes[pos_b])
            prob *= self.peg.edge_probability_id(
                candidate_nodes[pos_a],
                candidate_nodes[pos_b],
                label_a,
                label_b,
            )
            if prob == 0.0:
                return 0.0
        return prob

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def find(self, path: QueryPath) -> tuple:
        """Candidates of a query path: ``(pruned list, raw index count)``.

        Falls back to on-demand enumeration when no index is attached or
        the threshold is below the index's β (the paper's footnote 1).
        """
        label_seq = self.query.label_sequence(path.nodes)
        if self.index is not None and self.alpha >= self.index.beta:
            raw = list(self.index.lookup(label_seq, self.alpha))
        else:
            raw = list(
                PathIndexBuilder(
                    self.peg, beta=self.alpha
                ).paths_for_sequence(label_seq)
            )
        raw_count = len(raw)
        if not self.use_context:
            # Even without context pruning, node candidacy on label
            # probability is implied by the index; keep everything.
            return raw, raw_count
        stats = compute_path_statistics(self.query, path)
        pruned = []
        for candidate in raw:
            nodes = candidate.nodes
            if not all(
                self.node_allowed(query_node, peg_node)
                for query_node, peg_node in zip(path.nodes, nodes)
            ):
                continue
            base = candidate.prle * candidate.prn
            if base * self.neighborhood_upperbound(path, stats, nodes) * \
                    self.cycle_probability(path, stats, nodes) < self.alpha:
                continue
            pruned.append(candidate)
        return pruned, raw_count


class PerPairKPartiteGraph(VectorizedKPartiteGraph):
    """The joint reduction pass by pass over ordered partition pairs.

    Built like the stacked graph it checks; the passes read and write
    the stacked arrays through per-partition views (``alive[i]``,
    ``w2[i]`` and the ``(n_i, k)`` transposed slices of ``vectors``)
    and read the links through per-pair CSRs (:meth:`csr`) cut from the
    entry list the graph was constructed with, never the live list.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        bounds = self.offsets.tolist()
        parts = [slice(bounds[i], bounds[i + 1]) for i in range(self.k)]
        self.alive = [self.all_alive[part] for part in parts]
        self.w2 = [self.all_w2[part] for part in parts]
        self.partition_vectors = [self.vectors[:, part].T for part in parts]
        row_part = self.partition_of[self._row]
        col_part = self.partition_of[self._col]
        self._csr = {}
        for i, joined in self.decomposition.joins_with.items():
            size = bounds[i + 1] - bounds[i]
            for j in joined:
                mine = (row_part == i) & (col_part == j)
                rows = self._row[mine] - bounds[i]
                indptr = np.zeros(size + 1, dtype=np.int64)
                np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
                self._csr[(i, j)] = (indptr, self._col[mine] - bounds[j], rows)

    def csr(self, i: int, j: int) -> tuple:
        """``(indptr, cols, rows)`` of the joining pair ``(i, j)``.

        Row = partition-``i`` vertex id, ``cols`` = linked partition-``j``
        vertex ids (ascending within a row, dead vertices included —
        filter with ``alive[j]``), ``rows`` = the row id of every entry.
        """
        return self._csr[(i, j)]

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
        if use_structure:
            stats.structure_removed += self._structure_fixpoint()
        stats.after_structure_sizes = self.alive_counts()
        if use_upperbounds:
            self._upperbound_rounds(stats, use_structure, max_rounds)
        stats.final_sizes = self.alive_counts()
        for i, joined in self.decomposition.joins_with.items():
            for j in joined:
                _, cols, rows = self.csr(i, j)
                stats.links_live += int(np.count_nonzero(
                    self.alive[i][rows] & self.alive[j][cols]
                ))
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
                    _, cols, rows = self.csr(i, j)
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
        indptr, cols, _ = self.csr(i, j)
        n_i = self.alive[i].shape[0]
        if cols.size == 0:
            return np.zeros((n_i, self.k), dtype=np.float64)
        neighbor_vectors = self.partition_vectors[j][cols]
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
        vectors = self.partition_vectors
        rounds = 0
        while rounds < max_rounds:
            rounds += 1
            new_vectors: list = []
            deletions: list = []
            changes: list = []
            # Jacobi: every partition computed from the pre-round state.
            for i in range(self.k):
                old = vectors[i]
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
                vectors[i][...] = np.where(
                    keep[:, None], new_vectors[i], vectors[i]
                )
                if deleted.any():
                    self.alive[i][deleted] = False
                    stats.upperbound_removed += int(deleted.sum())
                    any_deleted = True
                if changes[i].any():
                    any_changed = True
            if not any_deleted and not any_changed:
                break
            if use_structure and any_deleted:
                stats.structure_removed += self._structure_fixpoint()
        stats.rounds += rounds


def _equi_join(key_i: np.ndarray, key_j: np.ndarray) -> tuple:
    """All ``(row, col)`` index pairs with equal key tuples.

    ``key_i``/``key_j`` are ``(n, m)`` int64 key-column matrices (one
    row per candidate, one column per join predicate). Pairs come out
    in (row ascending, col ascending) order — the reference builder's
    enumeration order.
    """
    n_i, n_j = key_i.shape[0], key_j.shape[0]
    empty = np.zeros(0, dtype=np.int64)
    if n_i == 0 or n_j == 0:
        return empty, empty.copy()
    if key_i.shape[1] == 1:
        gid_i = key_i[:, 0]
        gid_j = key_j[:, 0]
    else:
        stacked = np.concatenate([key_i, key_j], axis=0)
        _, inverse = np.unique(stacked, axis=0, return_inverse=True)
        inverse = np.asarray(inverse, dtype=np.int64).reshape(-1)
        gid_i = inverse[:n_i]
        gid_j = inverse[n_i:]
    order_j = np.argsort(gid_j, kind="stable")
    sorted_j = gid_j[order_j]
    starts = np.searchsorted(sorted_j, gid_i, side="left")
    ends = np.searchsorted(sorted_j, gid_i, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return empty, empty.copy()
    rows = np.repeat(np.arange(n_i, dtype=np.int64), counts)
    run_starts = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
    cols = order_j[np.repeat(starts, counts) + offsets]
    return rows, np.asarray(cols, dtype=np.int64)


def _assignment_spec(decomposition: Decomposition, i: int, j: int) -> list:
    """Deduplicated query-node assignment order of the joined pair.

    ``(side, position, query_node)`` triples in the scalar reference's
    ``assigned``-dict insertion order: path ``i`` first, then path
    ``j``, first occurrence per query node.
    """
    spec: list = []
    seen: set = set()
    for side, path in ((0, decomposition.paths[i]), (1, decomposition.paths[j])):
        for position, query_node in enumerate(path.nodes):
            if query_node in seen:
                continue
            seen.add(query_node)
            spec.append((side, position, query_node))
    return spec


def _pair_probabilities(
    peg: ProbabilisticEntityGraph,
    decomposition: Decomposition,
    arrays: PegProbabilityArrays,
    nodes_i: np.ndarray,
    nodes_j: np.ndarray,
    i: int,
    j: int,
) -> tuple:
    """All predicate-matched pairs of ``(i, j)`` with positive probability.

    Returns ``(rows, cols, probs, fallback_count)``: vertex ids and the
    exact joined probability per surviving pair, plus how many pairs
    took a joint existence marginal (shared identity components).
    """
    query = decomposition.query
    predicates = decomposition.predicates_between(i, j)
    key_i = nodes_i[:, [pos_i for pos_i, _ in predicates]]
    key_j = nodes_j[:, [pos_j for _, pos_j in predicates]]
    rows, cols = _equi_join(key_i, key_j)
    if rows.size == 0:
        return rows, cols, np.zeros(0, dtype=np.float64), 0

    spec = _assignment_spec(decomposition, i, j)
    assigned_ids = [
        nodes_i[rows, position] if side == 0 else nodes_j[cols, position]
        for side, position, _ in spec
    ]
    position_of = {query_node: idx for idx, (_, _, query_node) in enumerate(spec)}
    m = len(spec)

    # Injectivity: distinct query nodes need distinct entities.
    valid = np.ones(rows.shape, dtype=bool)
    for a in range(m):
        for b in range(a + 1, m):
            valid &= assigned_ids[a] != assigned_ids[b]

    # Pairs with two assigned nodes in one identity component are the
    # only place reference sharing or joint existence marginals can
    # appear; they take the joint marginal below.
    keys = arrays.component_keys()
    shared_component = np.zeros(rows.shape, dtype=bool)
    for a in range(m):
        key_a = keys[assigned_ids[a]]
        for b in range(a + 1, m):
            shared_component |= key_a == keys[assigned_ids[b]]
    joint = np.flatnonzero(valid & shared_component)

    # Elementwise joined probability in the scalar reference's factor
    # order: labels in assignment order, then path-traversal edges
    # (deduplicated by query edge), then the existence marginal of the
    # assigned nodes — a product of gathers, or the joint one.
    probs = np.ones(rows.shape, dtype=np.float64)
    for idx, (_, _, query_node) in enumerate(spec):
        label_probs = arrays.label_probabilities(query.label(query_node))
        probs *= label_probs[assigned_ids[idx]]
    seen_edges: set = set()
    for path in (decomposition.paths[i], decomposition.paths[j]):
        for node_a, node_b in zip(path.nodes, path.nodes[1:]):
            edge = frozenset((node_a, node_b))
            if edge in seen_edges:
                continue
            seen_edges.add(edge)
            probs *= arrays.edge_probabilities(
                assigned_ids[position_of[node_a]],
                assigned_ids[position_of[node_b]],
                query.label(node_a),
                query.label(node_b),
            )
    existence = arrays.existence_probabilities()
    prn = np.ones(rows.shape, dtype=np.float64)
    for idx in range(m):
        prn *= existence[assigned_ids[idx]]
    if joint.size:
        prn[joint] = component_table(peg).joint_existence(
            np.stack([ids[joint] for ids in assigned_ids], axis=1), existence
        )
    probs *= prn
    probs[~valid] = 0.0
    keep = probs > 0.0
    return rows[keep], cols[keep], probs[keep], joint.size


def per_pair_links(
    peg: ProbabilisticEntityGraph,
    decomposition: Decomposition,
    candidates: dict,
    arrays: PegProbabilityArrays | None = None,
) -> dict:
    """``{(i, j): (rows, cols, probs, fallback)}`` of every joining pair,
    built one pair at a time: the predicate-matched links with positive
    joined probability, before any α, and how many took a joint
    existence marginal."""
    if arrays is None:
        arrays = PegProbabilityArrays(peg)
    nodes = [
        as_candidates(candidates[i], len(path.nodes)).nodes
        for i, path in enumerate(decomposition.paths)
    ]
    return {
        (i, j): _pair_probabilities(
            peg, decomposition, arrays, nodes[i], nodes[j], i, j
        )
        for i, j in sorted(decomposition.join_predicates)
    }


class TuplePathEnumeration:
    """The Section 5.1 enumeration over a frontier of tuples."""

    def __init__(
        self, peg: ProbabilisticEntityGraph, max_length: int, beta: float
    ) -> None:
        self.peg = peg
        self.max_length = int(max_length)
        self.beta = float(beta)
        # component sharing fast path: a node can only share references
        # with another node if its identity component has several entities.
        self._comp_shared = self._component_sharing_flags()

    def _component_sharing_flags(self) -> list:
        counts: dict = {}
        for node in self.peg.node_ids():
            comp = self.peg.component_index_id(node)
            counts[comp] = counts.get(comp, 0) + 1
        return [
            counts[self.peg.component_index_id(node)] > 1
            for node in self.peg.node_ids()
        ]

    def collect_buckets(self, start_nodes=None) -> tuple:
        """``({labels: PathCandidates}, paths_per_length)`` of the
        canonical paths starting at ``start_nodes`` (default: all)."""
        per_key: dict = {}
        paths_per_length: dict = {}
        frontier = self._seed_frontier(start_nodes)
        for length in range(self.max_length + 1):
            if length:
                frontier = self._extend(frontier)
            paths_per_length[length] = len(frontier)
            per_key.update(_canonical_columns(frontier))
        return per_key, paths_per_length

    def paths_through(self, targets) -> tuple:
        """``({labels: PathCandidates}, expanded)`` of the canonical
        paths containing a node of ``targets``."""
        targets = frozenset(targets)
        hops = self._hops_to(targets)
        frontier = self._seed_frontier(sorted(hops))
        found: dict = {}
        expanded = 0
        for length in range(self.max_length + 1):
            if length:
                budget = self.max_length - length
                near = {n for n, hop in hops.items() if hop <= budget}
                frontier = self._extend(frontier, targets, near)
            expanded += len(frontier)
            found.update(_canonical_columns(frontier, targets))
        return found, expanded

    def _hops_to(self, targets: frozenset) -> dict:
        hops = dict.fromkeys(targets, 0)
        frontier = sorted(targets)
        for distance in range(1, self.max_length + 1):
            reached = []
            for node in frontier:
                for neighbor in self.peg.neighbor_ids(node):
                    if neighbor not in hops:
                        hops[neighbor] = distance
                        reached.append(neighbor)
            frontier = reached
        return hops

    def _seed_frontier(self, start_nodes=None) -> list:
        """Length-0 frontier: one directed path per (node, possible label)."""
        peg = self.peg
        nodes = peg.node_ids() if start_nodes is None else start_nodes
        frontier = []
        for node in nodes:
            prn = peg.existence_probability_id(node)
            if prn <= 0.0:
                continue
            for label in peg.possible_labels_id(node):
                prle = peg.label_probability_id(node, label)
                if prle * prn >= self.beta:
                    frontier.append(((node,), (label,), prle, prn))
        return frontier

    def _extend(self, frontier: list, targets=None, near=None) -> list:
        """Extend every directed path by one edge at its tail; a path
        holding no target yet only steps into ``near``."""
        peg = self.peg
        beta = self.beta
        comp_shared = self._comp_shared
        extended = []
        for ids, labels, prle, prn in frontier:
            tail = ids[-1]
            tail_label = labels[-1]
            id_set = set(ids)
            neighbors = peg.neighbor_ids(tail)
            if targets is not None and targets.isdisjoint(id_set):
                neighbors = [n for n in neighbors if n in near]
            for neighbor in neighbors:
                if neighbor in id_set:
                    continue
                if comp_shared[neighbor] and any(
                    peg.shares_references_id(neighbor, node) for node in ids
                ):
                    continue
                new_prn = self._extended_prn(ids, prn, neighbor)
                if new_prn <= 0.0:
                    continue
                for label in peg.possible_labels_id(neighbor):
                    p_edge = peg.edge_probability_id(
                        tail, neighbor, tail_label, label
                    )
                    if p_edge <= 0.0:
                        continue
                    p_label = peg.label_probability_id(neighbor, label)
                    new_prle = prle * p_edge * p_label
                    if new_prle * new_prn < beta:
                        continue
                    extended.append(
                        (
                            ids + (neighbor,),
                            labels + (label,),
                            new_prle,
                            new_prn,
                        )
                    )
        return extended

    def _extended_prn(self, ids: tuple, prn: float, neighbor: int) -> float:
        """``Prn`` after adding ``neighbor``: the product across
        components, the joint marginal inside a shared one."""
        peg = self.peg
        if self._comp_shared[neighbor]:
            comp = peg.component_index_id(neighbor)
            if any(peg.component_index_id(node) == comp for node in ids):
                return peg.existence_marginal_ids(ids + (neighbor,))
        return prn * peg.existence_probability_id(neighbor)


def _canonical_columns(frontier: list, targets=None) -> dict:
    """A frontier's canonical paths (those through ``targets``, when
    given) as ``{labels: PathCandidates}``, rows in frontier order."""
    per_key: dict = {}
    for ids, labels, prle, prn in frontier:
        if targets is not None and targets.isdisjoint(ids):
            continue
        if _is_canonical(ids, labels):
            per_key.setdefault(labels, []).append((ids, prle, prn))
    return {
        labels: PathCandidates.from_rows(rows, len(labels))
        for labels, rows in per_key.items()
    }


def _is_canonical(ids: tuple, labels: tuple) -> bool:
    """True when the directed path is the lexicographically smaller of
    ``(labels, ids)`` and its reverse (labels compared through repr);
    single nodes count as canonical."""
    if len(ids) == 1:
        return True
    fwd = (tuple(map(repr, labels)), ids)
    rev = (tuple(map(repr, reversed(labels))), tuple(reversed(ids)))
    return fwd <= rev


class PathTables:
    """A PEG's id view derived one id at a time from its entity-keyed
    dicts — ``_id_of``, ``label_distribution``, ``edges()``,
    ``components`` — as it was derived per graph version before the
    graph kept it as columns (:class:`repro.peg.columns.PegColumns`).
    Every attribute the columns have, with the same name, and the
    per-slot ``edge_probabilities`` asked of each slot's distribution.
    """

    def __init__(self, peg: ProbabilisticEntityGraph) -> None:
        id_of = peg._id_of
        entities = sorted(id_of, key=id_of.__getitem__)
        size = len(entities)
        self.entities = np.fromiter(entities, dtype=object, count=size)
        reprs = [repr(entity) for entity in entities]
        by_repr = sorted(range(size), key=reprs.__getitem__)
        self.ranks = np.empty(size, dtype=np.int64)
        self.ranks[by_repr] = np.arange(size)
        self.repr_ranks = np.empty(size, dtype=np.int64)
        rank = -1
        for position, node in enumerate(by_repr):
            if not position or reprs[node] != reprs[by_repr[position - 1]]:
                rank += 1
            self.repr_ranks[node] = rank

        component_of = {
            entity: component
            for component in peg.components
            for entity in component.entities
        }
        live = [not peg.is_removed_id(node) for node in range(size)]
        self.component = np.array(
            [component_of[entity].index for entity in entities], dtype=np.int64
        )
        self.existence = np.array(
            [
                peg.existence_probability(entity) if alive else 0.0
                for entity, alive in zip(entities, live)
            ],
            dtype=np.float64,
        )
        members: dict = {}
        for node, index in enumerate(self.component.tolist()):
            members.setdefault(index, []).append(node)
        self.keys = -1 - np.arange(size, dtype=np.int64)
        group = 0
        for nodes in members.values():
            if len(nodes) > 1:
                self.keys[nodes] = group
                group += 1

        neighbors: list = [dict() for _ in range(size)]
        for pair, dist in peg.edges():
            entity_a, entity_b = sorted(pair, key=id_of.__getitem__)
            neighbors[id_of[entity_a]][id_of[entity_b]] = dist
            neighbors[id_of[entity_b]][id_of[entity_a]] = dist
        self.adj_ptr = np.zeros(size + 1, dtype=np.int64)
        adj, dists = [], []
        for node in range(size):
            for neighbor in sorted(neighbors[node]):
                adj.append(neighbor)
                dists.append(neighbors[node][neighbor])
            self.adj_ptr[node + 1] = len(adj)
        self.adj = np.array(adj, dtype=np.int64)
        self.slot_keys = np.array(
            [
                node * (1 << 32) + neighbor
                for node in range(size)
                for neighbor in sorted(neighbors[node])
            ],
            dtype=np.int64,
        )
        self.slot_dists = np.fromiter(dists, dtype=object, count=len(dists))
        self.slot_conditional = np.array(
            [dist.conditional for dist in dists], dtype=bool
        )
        self.slot_base = np.array(
            [0.0 if dist.conditional else dist.probability() for dist in dists],
            dtype=np.float64,
        )

        supports = [
            peg.label_distribution(entity).support if alive else ()
            for entity, alive in zip(entities, live)
        ]
        self.sigma = tuple(sorted(
            {label for support in supports for label in support}, key=repr
        ))
        self.label_pos = {label: pos for pos, label in enumerate(self.sigma)}
        self.sup_ptr = np.zeros(size + 1, dtype=np.int64)
        sup_label, sup_prob = [], []
        self.label_matrix = np.zeros((size, len(self.sigma)), order="F")
        for node, (entity, support) in enumerate(zip(entities, supports)):
            for label in support:
                probability = peg.label_distribution(entity).probability(label)
                sup_label.append(self.label_pos[label])
                sup_prob.append(probability)
                self.label_matrix[node, self.label_pos[label]] = probability
            self.sup_ptr[node + 1] = len(sup_label)
        self.sup_label = np.array(sup_label, dtype=np.int64)
        self.sup_prob = np.array(sup_prob, dtype=np.float64)

    @property
    def size(self) -> int:
        return self.entities.size

    def edge_probabilities(self, slots, labels_a, labels_b) -> np.ndarray:
        """Each slot's distribution asked under its row's labels (as
        ``sigma`` positions)."""
        return np.array(
            [
                self.slot_dists[slot].probability(
                    self.sigma[label_a], self.sigma[label_b]
                )
                for slot, label_a, label_b in zip(
                    np.asarray(slots).tolist(),
                    np.asarray(labels_a).tolist(),
                    np.asarray(labels_b).tolist(),
                )
            ],
            dtype=np.float64,
        )


def path_tables(peg: ProbabilisticEntityGraph) -> PathTables:
    """The :class:`PathTables` oracle of ``peg`` as it stands."""
    return PathTables(peg)


def edge_probabilities(
    peg: ProbabilisticEntityGraph, ids_a, ids_b, label_a, label_b
) -> np.ndarray:
    """Bulk ``Pr((a, b).e = T)`` as the probability arrays answered
    before they read the graph's columns: a table of the undirected
    edges sorted by the composite key ``min_id * n + max_id`` and one
    ``searchsorted``; missing edges gather 0.0."""
    id_of = peg._id_of
    size = len(id_of)
    items = sorted(
        (sorted(id_of[entity] for entity in pair), dist)
        for pair, dist in peg.edges()
    )
    keys = np.array([a * size + b for (a, b), _ in items], dtype=np.int64)
    values = np.array(
        [dist.probability(label_a, label_b) for _, dist in items],
        dtype=np.float64,
    )
    ids_a = np.asarray(ids_a, dtype=np.int64)
    ids_b = np.asarray(ids_b, dtype=np.int64)
    wanted = np.minimum(ids_a, ids_b) * size + np.maximum(ids_a, ids_b)
    if keys.size == 0:
        return np.zeros(wanted.shape, dtype=np.float64)
    position = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    return np.where(keys[position] == wanted, values[position], 0.0)


def scalar_context(peg: ProbabilisticEntityGraph) -> tuple:
    """``(c, ppu, fpu)`` over the id space, one node, neighbour and
    label at a time through the ``*_id`` accessors: the context build as
    it ran before it was one pass over the graph's columns."""
    sigma = tuple(sorted(peg.sigma, key=repr))
    label_pos = {label: pos for pos, label in enumerate(sigma)}
    size = len(peg.node_ids())
    counts = np.zeros((size, len(sigma)), dtype=np.int64)
    ppu = np.zeros((size, len(sigma)))
    fpu = np.zeros((size, len(sigma)))
    for node in peg.node_ids():
        for neighbor in peg.neighbor_ids(node):
            if peg.shares_references_id(node, neighbor):
                continue
            for label in peg.possible_labels_id(neighbor):
                pos = label_pos[label]
                counts[node, pos] += 1
                p_edge = peg.edge_max_probability_id(node, neighbor, None, label)
                if p_edge > ppu[node, pos]:
                    ppu[node, pos] = p_edge
                p_full = peg.label_probability_id(neighbor, label) * p_edge
                if p_full > fpu[node, pos]:
                    fpu[node, pos] = p_full
    return counts, ppu, fpu


def partition_into_components(
    set_potentials: Mapping[FrozenSet, float],
) -> Sequence[Tuple[frozenset, tuple]]:
    """Group reference sets into components by shared references,
    scanning every set once per component."""
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for entity in set_potentials:
        for ref in entity:
            parent.setdefault(ref, ref)
        refs = list(entity)
        for other in refs[1:]:
            union(refs[0], other)

    groups: dict = {}
    for ref in parent:
        groups.setdefault(find(ref), set()).add(ref)

    components = []
    for refs in groups.values():
        entities = tuple(
            sorted(
                (e for e in set_potentials if e <= refs),
                key=repr,
            )
        )
        components.append((frozenset(refs), entities))
    components.sort(key=lambda item: min(repr(r) for r in item[0]))
    return components


def _refine(query: QueryGraph, colors: dict) -> dict:
    """1-WL color refinement to a stable partition (int colors)."""
    nodes = query.nodes
    num_colors = len(set(colors.values()))
    while True:
        sigs = {
            n: (colors[n],
                tuple(sorted(colors[m] for m in query.neighbors(n))))
            for n in nodes
        }
        palette = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        colors = {n: palette[sigs[n]] for n in nodes}
        if len(palette) == num_colors:
            return colors
        num_colors = len(palette)


def canonical_search(query: QueryGraph) -> tuple:
    """Canonical ``(node order, edge encoding, leaves)`` of ``query`` via
    unpruned individualization-refinement.

    Color classes (refined from the label partition) are ordered by
    color; ties within a class are broken by branching on each member
    and keeping the ordering whose edge encoding is smallest. ``leaves``
    counts the orderings encoded; at the leaf cap the search stopped
    early.
    """
    nodes = query.nodes
    best: list = [None, None]  # (encoding, order)
    leaves = [0]

    def encode(order: tuple) -> tuple:
        position = {node: i for i, node in enumerate(order)}
        return tuple(sorted(
            tuple(sorted(position[node] for node in edge))
            for edge in query.edges
        ))

    def search(colors: dict) -> None:
        colors = _refine(query, colors)
        classes: dict = {}
        for node in nodes:
            classes.setdefault(colors[node], []).append(node)
        ambiguous = None
        for color in sorted(classes):
            if len(classes[color]) > 1:
                ambiguous = color
                break
        if ambiguous is None:
            order = tuple(
                classes[color][0] for color in sorted(classes)
            )
            encoding = encode(order)
            if best[0] is None or encoding < best[0]:
                best[0], best[1] = encoding, order
            leaves[0] += 1
            return
        for node in classes[ambiguous]:
            if leaves[0] >= _CANONICAL_LEAF_CAP:
                return
            individualized = dict(colors)
            individualized[node] = -1
            search(individualized)

    initial = {n: repr(query.label(n)) for n in nodes}
    palette = {s: i for i, s in enumerate(sorted(set(initial.values())))}
    search({n: palette[initial[n]] for n in nodes})
    return best[1], best[0], leaves[0]


def first_embeddings(columns) -> np.ndarray:
    """Rows of a :class:`~repro.query.matcher.MatchColumns` that are the
    first embedding of their match, in row order.

    Two embeddings are one match when they induce the same labeled
    subgraph; that is decided on integers — the ``(node id, label)``
    columns sorted by node id and the sorted ``(low id, high id)`` edge
    keys — before any ``Match`` or frozenset exists.
    """
    nodes = columns.nodes
    if nodes.shape[0] < 2:
        return np.arange(nodes.shape[0])
    labels: dict = {}
    label_ids = np.array([
        labels.setdefault(label, len(labels))
        for label in columns.column_labels
    ])
    by_id = np.argsort(nodes, axis=1)
    key = [np.take_along_axis(nodes, by_id, axis=1), label_ids[by_id]]
    if columns.edge_columns:
        ends_a = nodes[:, [column_a for column_a, _ in columns.edge_columns]]
        ends_b = nodes[:, [column_b for _, column_b in columns.edge_columns]]
        edge_keys = (
            np.minimum(ends_a, ends_b) * (int(nodes.max()) + 1)
            + np.maximum(ends_a, ends_b)
        )
        edge_keys.sort(axis=1)
        key.append(edge_keys)
    key = np.hstack(key)
    row_keys = key.view(f"V{key.itemsize * key.shape[1]}").ravel().tolist()
    seen: dict = {}  # key row as bytes -> first row with it, in row order
    for row, row_key in enumerate(row_keys):
        seen.setdefault(row_key, row)
    return np.fromiter(seen.values(), dtype=np.int64, count=len(seen))
