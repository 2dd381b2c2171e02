"""Join ordering and full match generation (Section 5.2.5).

Paths are joined one at a time following the paper's heuristic order
(most node overlap, then most join predicates, then smallest candidate
count); partial matches are extended through the reduced k-partite
graph's links, with injectivity, reference-disjointness and an exact
partial-probability bound enforced as soon as possible.

:func:`generate_matches` is the production matcher: a level-at-a-time
join, in global vertex ids, over the live entry list and the stacked
vertex table a reduced
:class:`~repro.query.reduction.VectorizedKPartiteGraph` leaves (a
driver's links into a partition are one ``searchsorted`` run of the
list; every live entry joins two alive vertices). It returns the
join's final frontier as :class:`MatchColumns` — PEG-id
columns, probabilities and the graph version's entity tables, sorted
once by an integer ``lexsort`` — and builds a
:class:`~repro.peg.entity_graph.Match` only for a row that is read;
the wire encodes replies from the columns without building any
(:func:`repro.net.protocol.result_response`).
:func:`generate_matches_reference` is the per-tuple depth-first search
it replaced, kept as the oracle (``reduction_backend="python"`` runs
it); it returns a list. Both multiply a (partial) match's probability
in one written-down order, the query's canonical order
(:meth:`~repro.query.query_graph.QueryGraph.canonical_order`), so they
agree bit for bit and the product depends on no plan:

1. label factors, placed query nodes in canonical order,
2. edge factors, query edges in :func:`ordered_query_edges` order,
   skipping edges with an unplaced endpoint,
3. times the existence marginal of the placed nodes in canonical order
   (the array matcher reads a joint one from
   :meth:`~repro.peg.arrays.ComponentTable.joint_existence`).

Two embeddings inducing the same labeled subgraph (a label-preserving
automorphism of the query relates them) are one match, represented by
the embedding whose PEG ids, read in the query's canonical order, are
lexicographically least. The array matcher enumerates only that one:
the query's symmetry-breaking constraints
(:meth:`~repro.query.query_graph.QueryGraph.symmetry_constraints`) are
one more mask of the join. The reference visits every embedding and
keeps the least. Both list matches in :func:`match_sort_key` order —
``(-probability, repr(match.nodes))``, then the edge set, then the
representative's ids in canonical order — so neither the representative
nor the order depends on the plan; both key a match on its labeled
subgraph, not on ``repr``, so entities with equal ``repr`` stay
distinct matches.
"""

from __future__ import annotations

import itertools
import threading
import typing
from collections.abc import Sequence

import numpy as np

from repro.peg.arrays import component_table
from repro.peg.columns import gather_runs, row_blocks
from repro.peg.entity_graph import Match, ProbabilisticEntityGraph
from repro.query.decompose import Decomposition

#: Most frontier rows one expansion step may gather at a time; a wider
#: level is expanded in order-preserving row blocks, depth first, so
#: peak memory is block x fan-out and not the widest level.
_FRONTIER_ROW_BUDGET = 1 << 15


def determine_join_order(
    decomposition: Decomposition, cardinalities: dict
) -> list:
    """Order partitions for the progressive join (paper's heuristic).

    1. most nodes overlapping the already-ordered paths,
    2. ties: most join predicates with them,
    3. ties: smallest cardinality.
    The first path is picked by cardinality alone.
    """
    remaining = set(range(len(decomposition.paths)))
    ordered: list = []
    placed_nodes: set = set()
    while remaining:
        if not ordered:
            best = min(
                remaining,
                key=lambda i: (cardinalities.get(i, 0), i),
            )
        else:
            def sort_key(i: int) -> tuple:
                path_nodes = set(decomposition.paths[i].nodes)
                overlap = len(path_nodes & placed_nodes)
                predicates = sum(
                    len(decomposition.predicates_between(i, j))
                    for j in ordered
                )
                return (-overlap, -predicates, cardinalities.get(i, 0), i)

            best = min(remaining, key=sort_key)
        ordered.append(best)
        placed_nodes |= set(decomposition.paths[best].nodes)
        remaining.discard(best)
    return ordered


def ordered_query_edges(query) -> list:
    """Query edges as ``(node_a, node_b)`` pairs in the fixed factor order.

    Endpoints and edges are ordered by node position in the query's
    canonical order (``canonical_form()``'s edge encoding), which —
    unlike iterating the ``query.edges`` frozenset — depends neither on
    ``PYTHONHASHSEED`` nor on the node type, and which a renamed copy
    of the query shares.
    """
    order = query.canonical_order()
    return [(order[a], order[b]) for a, b in query.canonical_form()[1]]


class _Step(typing.NamedTuple):
    """What placing one partition does to the frontier's columns."""

    #: Partition joined at this step.
    partition: int
    #: Already-placed partitions it joins with, in placement order; the
    #: first one's links are gathered, the others are probed.
    drivers: list
    #: Query-node columns filled before this step.
    placed: int
    #: Path positions whose query node is placed here (they become
    #: columns ``placed, placed + 1, ...``).
    new_positions: list
    #: ``(path position, column)`` of query nodes placed earlier.
    shared: list
    #: ``(edge index, column_a, column_b, label_a, label_b)`` per query
    #: edge whose second endpoint is placed here; the index is the
    #: edge's place in the factor order.
    new_edges: list
    #: ``(column_a, column_b)`` per symmetry-breaking constraint whose
    #: later column is placed here: a row keeps ``id_a < id_b``.
    ordered: list
    #: Every column placed once this step is done, in the query's
    #: canonical order: the order label and existence factors multiply in.
    factor_columns: list


def _plan_steps(decomposition: Decomposition, order: list) -> tuple:
    """``(column of every query node, one _Step per partition of order,
    (column_a, column_b) of every query edge in factor order)``."""
    query = decomposition.query
    edges = ordered_query_edges(query)
    canonical = query.canonical_order()
    column: dict = {}
    resolved: set = set()
    steps = []
    for done, partition in enumerate(order):
        placed = len(column)
        new_positions, shared = [], []
        for position, node in enumerate(decomposition.paths[partition].nodes):
            if node in column:
                shared.append((position, column[node]))
            else:
                column[node] = len(column)
                new_positions.append(position)
        new_edges = [
            (index, column[a], column[b], query.label(a), query.label(b))
            for index, (a, b) in enumerate(edges)
            if index not in resolved and a in column and b in column
        ]
        resolved.update(edge[0] for edge in new_edges)
        joined = decomposition.joins_with.get(partition, frozenset())
        steps.append(_Step(
            partition,
            [j for j in order[:done] if j in joined],
            placed,
            new_positions,
            shared,
            new_edges,
            [
                (column[a], column[b])
                for a, b in query.symmetry_constraints()
                if a in column and b in column
                and max(column[a], column[b]) >= placed
            ],
            [column[node] for node in canonical if node in column],
        ))
    return column, steps, [(column[a], column[b]) for a, b in edges]


def _contains(sorted_keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Per element of ``wanted``, whether it occurs in ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(wanted.shape, dtype=bool)
    position = np.minimum(
        np.searchsorted(sorted_keys, wanted), sorted_keys.size - 1
    )
    return sorted_keys[position] == wanted


class _Frontier(typing.NamedTuple):
    """The partial matches of one level, as row-aligned arrays.

    Rows stay in the depth-first search's lexicographic visiting order:
    every gather is a stable ``np.repeat`` over a run of ascending
    columns.
    """

    #: ``(rows, placed query nodes)`` PEG ids, columns in placement order.
    nodes: np.ndarray
    #: ``(rows, k)`` global vertex id taken in every placed partition.
    chosen: np.ndarray
    #: Rows with two nodes of one identity component — the only rows
    #: whose existence marginal is a joint one, not a product of
    #: per-node gathers.
    joint: np.ndarray
    #: ``(rows, query edges)`` edge factors in factor order; 1.0 (the
    #: exact identity) while an endpoint is unplaced.
    edges: np.ndarray

    def take(self, rows) -> "_Frontier":
        """The frontier of ``rows`` (a slice, mask or index array)."""
        return _Frontier(*[array[rows] for array in self])


class _FrontierJoin:
    """The level-at-a-time join of one query over a reduced k-partite graph."""

    def __init__(self, peg, decomposition, kpartite, alpha) -> None:
        self.peg = peg
        self.kpartite = kpartite
        self.alpha = alpha
        self.arrays = kpartite.arrays
        order = determine_join_order(
            decomposition, dict(enumerate(kpartite.alive_counts()))
        )
        #: ``edge_columns``: ``(column_a, column_b)`` of every query
        #: edge, in factor order.
        column, self.steps, self.edge_columns = _plan_steps(
            decomposition, order
        )
        query = decomposition.query
        #: Query node and label of every column.
        self.column_nodes = list(column)
        self.column_labels = [query.label(node) for node in self.column_nodes]
        #: Every column, in the query's canonical order.
        self.canonical_columns = self.steps[-1].factor_columns
        self._label_probs = [
            self.arrays.label_probabilities(label)
            for label in self.column_labels
        ]
        #: ``row * num_vertices + col`` of every live entry, ascending:
        #: the key a second driver's links are probed in.
        self._entry_keys = (
            kpartite._row * kpartite.num_vertices + kpartite._col
        )
        self.frontier_peak = 0
        self.fallback_rows = 0
        self._out_nodes: list = []
        self._out_probabilities: list = []

    def run(self) -> tuple:
        """``(nodes, probabilities)`` of every full embedding reaching
        alpha and keeping the query's symmetry-breaking constraints
        (one per match), in visiting order."""
        self._expand(0, _Frontier(
            nodes=np.zeros((1, 0), dtype=np.int64),
            chosen=np.full((1, len(self.steps)), -1, dtype=np.int64),
            joint=np.zeros(1, dtype=bool),
            edges=np.ones((1, len(self.edge_columns))),
        ))
        if not self._out_nodes:
            width = len(self.column_nodes)
            return np.zeros((0, width), dtype=np.int64), np.zeros(0)
        return (
            np.concatenate(self._out_nodes),
            np.concatenate(self._out_probabilities),
        )

    def _expand(self, index: int, frontier: _Frontier) -> None:
        step = self.steps[index]
        kpartite = self.kpartite
        if step.drivers:
            # Live links of the first placed joining partition's chosen
            # vertex into this one: one run of the live entry list per
            # frontier row.
            cols = kpartite._col
            wanted = (
                frontier.chosen[:, step.drivers[0]] * kpartite.k
                + step.partition
            )
            starts = np.searchsorted(kpartite._key, wanted)
            counts = np.searchsorted(kpartite._key, wanted, "right") - starts
        else:
            # Nothing placed joins this partition (the first step, or a
            # disconnected query): cross product with its alive ids.
            low, high = kpartite.offsets[step.partition:step.partition + 2]
            cols = low + np.flatnonzero(kpartite.all_alive[low:high])
            rows = frontier.nodes.shape[0]
            starts = np.zeros(rows, dtype=np.int64)
            counts = np.full(rows, cols.size, dtype=np.int64)
        for block in row_blocks(counts, _FRONTIER_ROW_BUDGET):
            extended, probabilities = self._extend(
                step, frontier.take(block), cols, starts[block], counts[block]
            )
            if not probabilities.size:
                continue
            if index + 1 == len(self.steps):
                self._out_nodes.append(extended.nodes)
                self._out_probabilities.append(probabilities)
            else:
                self._expand(index + 1, extended)

    def _extend(self, step, frontier, cols, starts, counts) -> tuple:
        """One block of frontier rows joined with ``step.partition``:
        the surviving next-level frontier and its rows' probabilities."""
        arrays = self.arrays
        parent, entry = gather_runs(starts, counts)
        vids = cols[entry]
        self.frontier_peak = max(self.frontier_peak, vids.size)
        size = self.kpartite.num_vertices
        for other in step.drivers[1:]:
            keep = _contains(
                self._entry_keys, frontier.chosen[parent, other] * size + vids
            )
            parent, vids = parent[keep], vids[keep]

        candidate = self.kpartite.nodes[vids]
        placed = step.placed
        width = placed + len(step.new_positions)
        nodes = np.empty((vids.size, width), dtype=np.int64)
        nodes[:, :placed] = frontier.nodes[parent]
        nodes[:, placed:] = candidate[:, step.new_positions]
        keep = np.ones(vids.size, dtype=bool)
        for position, column in step.shared:
            keep &= candidate[:, position] == nodes[:, column]
        for column_a, column_b in step.ordered:
            keep &= nodes[:, column_a] < nodes[:, column_b]
        # Injectivity, and which rows put two nodes in one identity
        # component: each new column against every column before it.
        keys = arrays.component_keys()[nodes]
        suspect = np.zeros(vids.size, dtype=bool)
        for column in range(placed, width):
            new = slice(column, column + 1)
            keep &= (nodes[:, :column] != nodes[:, new]).all(axis=1)
            suspect |= (keys[:, :column] == keys[:, new]).any(axis=1)
        parent, vids = parent[keep], vids[keep]
        nodes = nodes[keep]
        joint = frontier.joint[parent] | suspect[keep]
        self.fallback_rows += int(joint.sum())

        # The exact (partial) probability in the module's factor order,
        # over every placed column. A row with two nodes of one component
        # takes their joint marginal instead of the product — 0.0, below
        # any alpha, when they share a reference.
        prle = np.ones(vids.size)
        existence = np.ones(vids.size)
        node_existence = arrays.existence_probabilities()
        for column in step.factor_columns:
            prle *= self._label_probs[column][nodes[:, column]]
            existence *= node_existence[nodes[:, column]]
        rows = np.flatnonzero(joint)
        if rows.size:
            existence[rows] = component_table(self.peg).joint_existence(
                nodes[np.ix_(rows, step.factor_columns)], node_existence
            )
        edges = frontier.edges[parent]
        for index, column_a, column_b, label_a, label_b in step.new_edges:
            edges[:, index] = arrays.edge_probabilities(
                nodes[:, column_a], nodes[:, column_b], label_a, label_b
            )
        for factor in edges.T:
            prle *= factor
        probabilities = prle * existence

        chosen = frontier.chosen[parent]
        chosen[:, step.partition] = vids
        keep = probabilities >= self.alpha
        extended = _Frontier(nodes, chosen, joint, edges)
        return extended.take(keep), probabilities[keep]


def generate_matches(
    peg: ProbabilisticEntityGraph,
    decomposition: Decomposition,
    kpartite,
    alpha: float,
    *,
    stats: dict | None = None,
) -> "MatchColumns":
    """Enumerate all full query matches with probability >= alpha.

    ``kpartite`` is a reduced
    :class:`repro.query.reduction.VectorizedKPartiteGraph`; its live
    entry list, stacked vertex table and probability tables are joined
    one partition (one frontier level) at a time. Returns the matches
    as :class:`MatchColumns`, sorted by :func:`match_sort_key`. Two
    embeddings inducing the same labeled subgraph are one match; the
    query's :meth:`~repro.query.query_graph.QueryGraph.symmetry_constraints`,
    one more mask at the level placing a pair's later column, let only
    its representative through: the embedding whose PEG ids, read in
    the query's canonical order, are lexicographically least.

    ``alpha`` must be positive: a row whose nodes share a reference is
    dropped by its zero probability.

    ``stats``, when given, receives ``frontier_peak`` (most rows
    gathered in one expansion) and ``fallback_rows`` (rows with two
    nodes of one identity component, which took the joint existence
    marginal, summed over levels).
    """
    join = _FrontierJoin(peg, decomposition, kpartite, alpha)
    nodes, probabilities = join.run()
    if stats is not None:
        stats["frontier_peak"] = join.frontier_peak
        stats["fallback_rows"] = join.fallback_rows
    return _sorted_columns(join, nodes, probabilities)


def match_sort_key(match: Match) -> tuple:
    """The order matches are listed in: ``(-probability,
    repr(match.nodes))``, then the edge set — each edge as the sorted
    pair of its endpoints' positions in ``match.nodes``, the pairs
    sorted. Two embeddings of the same nodes with different edges are
    ordered by their edges, not by the plan's visiting order. Matches
    still tied (entities of equal ``repr``) are ordered by their
    representative's PEG ids in the query's canonical order, so the
    list depends on no plan."""
    position = {entity: i for i, (entity, _) in enumerate(match.nodes)}
    edges = sorted(
        tuple(sorted(position[entity] for entity in edge))
        for edge in match.edges
    )
    return (-match.probability, repr(match.nodes), tuple(edges))


def _sorted_columns(
    join: _FrontierJoin, nodes: np.ndarray, probabilities: np.ndarray
) -> "MatchColumns":
    """The matches as columns, sorted by :func:`match_sort_key`, ties
    by the PEG ids in canonical column order.

    ``repr(match.nodes)`` is the ``repr`` of its ``(entity, label)``
    pairs in ``repr(entity)`` order, so comparing two of them compares,
    node position by node position, the entity's ``repr`` and then the
    label's: one ``np.lexsort`` over their ranks, with no string built.
    The edge keys are ``low * width + high`` over node positions, sorted
    per row, compared column by column.
    """
    entities, ranks, repr_ranks = join.arrays.entity_tables()
    # A match lists its nodes in repr(entity) order (ties on id).
    repr_order = np.argsort(ranks[nodes], axis=1, kind="stable")
    ordered = np.take_along_axis(nodes, repr_order, axis=1)
    label_reprs = [repr(label) for label in join.column_labels]
    in_order = sorted(label_reprs)
    label_ranks = np.array(
        [in_order.index(text) for text in label_reprs], dtype=np.int64
    )
    # np.lexsort's last key is its primary one.
    keys = [nodes[:, column] for column in reversed(join.canonical_columns)]
    if join.edge_columns:
        width = nodes.shape[1]
        place = np.argsort(repr_order, axis=1)  # column -> node position
        ends_a = place[:, [column_a for column_a, _ in join.edge_columns]]
        ends_b = place[:, [column_b for _, column_b in join.edge_columns]]
        edge_keys = (
            np.minimum(ends_a, ends_b) * width + np.maximum(ends_a, ends_b)
        )
        edge_keys.sort(axis=1)
        keys.extend(edge_keys[:, ::-1].T)
    for position in reversed(range(nodes.shape[1])):
        keys.append(label_ranks[repr_order[:, position]])
        keys.append(repr_ranks[ordered[:, position]])
    keys.append(-probabilities)
    rows = np.lexsort(keys)
    return MatchColumns(
        nodes[rows], repr_order[rows], probabilities[rows],
        join.column_nodes, join.column_labels, join.edge_columns, entities,
    )


def _chunks(items, width: int):
    """Consecutive ``width``-tuples of an iterable, all in C."""
    return zip(*[iter(items)] * width)


class MatchColumns(Sequence):
    """The matches of one query, held as the join's columns.

    ``nodes`` is the join's final frontier — one row per match, its
    representative embedding (the lexicographically least in the
    query's canonical order), PEG ids in the join's column order — and
    ``probabilities`` its probabilities; rows are sorted by
    :func:`match_sort_key`. ``repr_order[row]`` lists the row's columns
    in ``repr(entity)`` order, the order of ``Match.nodes``.
    ``column_nodes`` and ``column_labels`` are the query node and label
    of every column, ``edge_columns`` the
    ``(column_a, column_b)`` of every query edge in factor order, and
    ``entities`` the graph version's per-id entity table (shared, not
    copied).

    It reads as the list of :class:`~repro.peg.entity_graph.Match` it
    stands for. ``len`` reads the column height; an index or a slice
    builds only the rows it returns. Iteration, ``==`` and ``repr``
    build every row once and publish the list with one assignment;
    reads after that take no lock. Pickling ships only the entities
    the rows use.
    """

    def __init__(
        self, nodes, repr_order, probabilities, column_nodes,
        column_labels, edge_columns, entities,
    ) -> None:
        self.nodes = nodes
        self.repr_order = repr_order
        self.probabilities = probabilities
        self.column_nodes = tuple(column_nodes)
        self.column_labels = tuple(column_labels)
        self.edge_columns = tuple(edge_columns)
        self.entities = entities
        self._matches = None
        self._build_lock = threading.Lock()

    @classmethod
    def empty(cls) -> "MatchColumns":
        """No matches (a partition without candidates)."""
        no_ids = np.zeros((0, 0), dtype=np.int64)
        return cls(
            no_ids, no_ids, np.zeros(0), (), (), (), np.zeros(0, dtype=object)
        )

    def renamed(self, rename) -> "MatchColumns":
        """These matches with every column's query node ``n`` named
        ``rename[n]``.

        A view: it shares the columns and the entity table, and keeps
        any memo a reader has already set on this object (the wire's
        encoded body), none of which depends on the node names. Only
        each ``Match.mapping`` reads differently.
        """
        view = MatchColumns(
            self.nodes, self.repr_order, self.probabilities,
            [rename[node] for node in self.column_nodes],
            self.column_labels, self.edge_columns, self.entities,
        )
        for name, value in vars(self).items():
            vars(view).setdefault(name, value)
        return view

    def __len__(self) -> int:
        return self.nodes.shape[0]

    def __getitem__(self, index):
        matches = self._matches
        if matches is not None:
            return matches[index]
        if isinstance(index, slice):
            return self._build(index)
        row = range(len(self))[index]  # negatives, IndexError, TypeError
        return self._build(slice(row, row + 1))[0]

    def __iter__(self):
        return iter(self._materialize())

    def __eq__(self, other):
        if isinstance(other, MatchColumns):
            other = other._materialize()
        if not isinstance(other, list):
            return NotImplemented
        return self._materialize() == other

    __hash__ = None

    def __repr__(self) -> str:
        return repr(self._materialize())

    def __reduce__(self):
        ids, inverse = np.unique(self.nodes, return_inverse=True)
        return _restore_columns, (
            len(self),
            inverse.reshape(self.nodes.shape).astype(np.int64).tobytes(),
            self.repr_order.astype(np.int64).tobytes(),
            self.probabilities.tobytes(),
            self.column_nodes,
            self.column_labels,
            self.edge_columns,
            tuple(self.entities[ids].tolist()),
        )

    def _materialize(self) -> list:
        """Every row's ``Match``, built by the first reader only."""
        matches = self._matches
        if matches is None:
            with self._build_lock:
                matches = self._matches
                if matches is None:
                    matches = self._matches = self._build(slice(None))
        return matches

    def _build(self, rows) -> list:
        """One ``Match`` per row of the slice ``rows``.

        Every gather is flattened to one list, so a row costs a few
        C-level zips and no per-row scratch container.
        """
        nodes = self.nodes[rows]
        repr_order = self.repr_order[rows]
        entities = self.entities
        width = len(self.column_labels)
        labels = np.fromiter(self.column_labels, dtype=object, count=width)

        def flat(table, indexes) -> list:
            return table[indexes].ravel().tolist()

        node_rows = _chunks(
            zip(
                flat(entities, np.take_along_axis(nodes, repr_order, axis=1)),
                flat(labels, repr_order),
            ),
            width,
        )
        # The mapping lists query nodes in repr order: one column order.
        mapping_columns = sorted(
            range(width), key=lambda column: repr(self.column_nodes[column])
        )
        mapping_rows = _chunks(
            zip(
                itertools.cycle(
                    [self.column_nodes[column] for column in mapping_columns]
                ),
                flat(entities, nodes[:, mapping_columns]),
            ),
            width,
        )
        if self.edge_columns:
            ends_a = flat(entities, nodes[:, [a for a, _ in self.edge_columns]])
            ends_b = flat(entities, nodes[:, [b for _, b in self.edge_columns]])
            edge_rows = map(
                frozenset,
                _chunks(
                    map(frozenset, zip(ends_a, ends_b)), len(self.edge_columns)
                ),
            )
        else:
            edge_rows = itertools.repeat(frozenset())
        return list(map(
            Match, node_rows, edge_rows, mapping_rows,
            self.probabilities[rows].tolist(),
        ))


def _restore_columns(
    rows, nodes, repr_order, probabilities, column_nodes, column_labels,
    edge_columns, entities,
) -> MatchColumns:
    """Unpickle :class:`MatchColumns`: ``nodes`` index ``entities``."""
    shape = (rows, len(column_labels))
    return MatchColumns(
        np.frombuffer(nodes, dtype=np.int64).reshape(shape),
        np.frombuffer(repr_order, dtype=np.int64).reshape(shape),
        np.frombuffer(probabilities, dtype=np.float64),
        column_nodes,
        column_labels,
        edge_columns,
        np.fromiter(entities, dtype=object, count=len(entities)),
    )


def generate_matches_reference(
    peg: ProbabilisticEntityGraph,
    decomposition: Decomposition,
    kpartite,
    alpha: float,
) -> list:
    """The per-tuple depth-first matcher :func:`generate_matches` replaced.

    Kept as the oracle the array matcher is tested against (and what
    ``reduction_backend="python"`` runs): same matches, same order, same
    floats, same representative ``mapping``. It visits every embedding
    and keeps, per match, the one that is lexicographically least in
    the query's canonical order, so it checks the array matcher's
    symmetry-breaking constraints instead of sharing them.
    ``kpartite`` is a reduced candidate k-partite graph of
    either backend (:class:`repro.query.kpartite.CandidateKPartiteGraph`
    or :class:`repro.query.reduction.VectorizedKPartiteGraph`); only
    the shared alive-mask/link interface (``alive_counts``,
    ``alive_vertex_ids``, ``candidate_of``, ``is_alive``, ``linked``)
    is consumed.
    """
    query = decomposition.query
    query_edges = ordered_query_edges(query)
    canonical = query.canonical_order()
    order = determine_join_order(
        decomposition, dict(enumerate(kpartite.alive_counts()))
    )
    matches: dict = {}

    # Partial state: mapping query node -> peg node id, and the chosen
    # vertex id per processed partition (for link checks).
    def extend(step: int, mapping: dict, chosen: dict) -> None:
        if step == len(order):
            _emit(mapping)
            return
        partition = order[step]
        path = decomposition.paths[partition]
        joined_before = [
            j for j in decomposition.joins_with.get(partition, frozenset())
            if j in chosen
        ]
        candidate_ids = _candidate_vertices(
            kpartite, partition, joined_before, chosen
        )
        for vid in candidate_ids:
            if not kpartite.is_alive(partition, vid):
                continue
            candidate = kpartite.candidate_of(partition, vid)
            new_mapping = _try_extend(mapping, path, candidate)
            if new_mapping is None:
                continue
            if _partial_probability(new_mapping) < alpha:
                continue
            new_chosen = dict(chosen)
            new_chosen[partition] = vid
            extend(step + 1, new_mapping, new_chosen)

    def _candidate_vertices(kpartite, partition, joined_before, chosen):
        if not joined_before:
            return kpartite.alive_vertex_ids(partition)
        sets = [
            kpartite.linked(j, chosen[j], partition) for j in joined_before
        ]
        result = set(sets[0])
        for other in sets[1:]:
            result &= other
        return sorted(result)

    def _try_extend(mapping: dict, path, candidate) -> dict | None:
        new_mapping = dict(mapping)
        used = set(mapping.values())
        for query_node, peg_node in zip(path.nodes, candidate.nodes):
            previous = new_mapping.get(query_node)
            if previous is not None:
                if previous != peg_node:
                    return None
                continue
            if peg_node in used:
                return None  # injectivity across distinct query nodes
            for existing in new_mapping.values():
                if peg.shares_references_id(existing, peg_node):
                    return None
            new_mapping[query_node] = peg_node
            used.add(peg_node)
        return new_mapping

    def _labeled_subgraph(mapping: dict) -> tuple:
        # Dict order is canonical order; edges come in the fixed order
        # and as a list, so ``prle`` multiplies in the module's factor
        # order (a set here made the product depend on PYTHONHASHSEED).
        node_labels = {
            peg.entity_of(mapping[node]): query.label(node)
            for node in canonical if node in mapping
        }
        edges = [
            frozenset(
                (peg.entity_of(mapping[node_a]), peg.entity_of(mapping[node_b]))
            )
            for node_a, node_b in query_edges
            if node_a in mapping and node_b in mapping
        ]
        return node_labels, edges

    def _partial_probability(mapping: dict) -> float:
        return peg.match_probability(*_labeled_subgraph(mapping))

    def _emit(mapping: dict) -> None:
        node_labels, edges = _labeled_subgraph(mapping)
        probability = peg.match_probability(node_labels, edges)
        if probability < alpha:
            return
        # Keyed order-free; listed by repr(entity), equal reprs by id.
        # Of a match's embeddings the one whose ids, read in canonical
        # order, are least is kept: the array matcher's representative,
        # reached here without its symmetry-breaking constraints.
        key = (frozenset(node_labels.items()), frozenset(edges))
        ids = tuple(mapping[node] for node in canonical)
        if key in matches and matches[key][0] <= ids:
            return
        nodes_key = tuple(sorted(
            node_labels.items(),
            key=lambda kv: (repr(kv[0]), peg.id_of(kv[0])),
        ))
        entity_mapping = tuple(
            sorted(
                ((q, peg.entity_of(n)) for q, n in mapping.items()),
                key=lambda kv: repr(kv[0]),
            )
        )
        matches[key] = ids, Match(
            nodes=nodes_key,
            edges=frozenset(edges),
            mapping=entity_mapping,
            probability=probability,
        )

    extend(0, {}, {})
    return [
        match for _, match in sorted(
            matches.values(),
            key=lambda kept: (match_sort_key(kept[1]), kept[0]),
        )
    ]
