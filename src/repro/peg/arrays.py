"""Gather tables of a PEG: the probability arrays of the array-native
online phase, the :class:`PathTables` the path enumeration
(:mod:`repro.index.builder`) extends its frontier from, and the
:class:`ComponentTable` every joint existence marginal is read from.
They read nothing but the graph, so they live beside it."""

from __future__ import annotations

import operator
import weakref

import numpy as np

from repro.peg.entity_graph import ProbabilisticEntityGraph

#: Most ``(member, held row)`` cells one :class:`ComponentTable` gather
#: spans; a sampled component holds thousands of rows, so its queries
#: are answered in blocks.
_MARGINAL_CELLS = 1 << 20


class PegProbabilityArrays:
    """Probability arrays gathered from a PEG, cached per label.

    ``label_probabilities(σ)`` is a dense float64 array over node ids;
    ``edge_probabilities`` answers bulk edge-probability gathers through
    a sorted composite-key table (``min_id * num_nodes + max_id``) and
    ``np.searchsorted``. Arrays are built lazily per label (pair).
    ``entity_tables`` are the per-id entity and ``repr``-rank tables
    the matcher orders its result columns by and builds ``Match``
    objects from.

    The tables depend only on the PEG as it stands, so one instance
    should be shared across queries (an engine's
    :class:`~repro.index.context.ContextInformation` owns one per graph
    version and hands it to the candidate finder, the link builder and
    every :class:`~repro.query.reduction.VectorizedKPartiteGraph`);
    repeated queries then pay a pure array gather, not an O(nodes)
    rebuild. Concurrent readers are safe: cache entries are idempotent
    values inserted under the GIL.
    """

    def __init__(self, peg: ProbabilisticEntityGraph) -> None:
        self.peg = peg
        # Size by the *id space*, not the live-entity count: after live
        # entity merges (repro.delta), tombstoned ids remain and new ids
        # are appended, so ids can exceed peg.num_nodes.
        self.num_nodes = len(peg.node_ids())
        self._label_probs: dict = {}
        self._edge_keys = None
        self._edge_dists = None
        self._edge_probs: dict = {}
        self._existence = None
        self._component_keys = None
        self._entities = None
        self._path_tables = None

    def path_tables(self) -> "PathTables":
        """The path-enumeration tables of the whole graph (built once)."""
        if self._path_tables is None:
            self._path_tables = path_tables(self.peg)
        return self._path_tables

    def label_probabilities(self, label) -> np.ndarray:
        """``Pr(v.l = label)`` for every node id, as one dense array."""
        array = self._label_probs.get(label)
        if array is None:
            peg = self.peg
            array = np.fromiter(
                (
                    peg.label_probability_id(node, label)
                    for node in range(self.num_nodes)
                ),
                dtype=np.float64,
                count=self.num_nodes,
            )
            self._label_probs[label] = array
        return array

    def existence_probabilities(self) -> np.ndarray:
        """``Pr(v.n = T)`` for every node id, as one dense array.

        Each entry equals the single-entity component marginal
        (``peg.existence_probability_id``), so for a node set whose
        members live in pairwise-distinct identity components the
        ordered product of gathers reproduces
        ``peg.existence_marginal_ids`` bit-for-bit; a set with two
        members in one component takes
        :meth:`ComponentTable.joint_existence`.
        """
        if self._existence is None:
            peg = self.peg
            self._existence = np.fromiter(
                (
                    peg.existence_probability_id(node)
                    for node in range(self.num_nodes)
                ),
                dtype=np.float64,
                count=self.num_nodes,
            )
        return self._existence

    def component_keys(self) -> np.ndarray:
        """:meth:`ComponentTable.component_keys` of every node id, as one
        array: two ids share a key exactly when their nodes share an
        identity component."""
        if self._component_keys is None:
            self._component_keys = component_table(self.peg).component_keys(
                np.arange(self.num_nodes)
            )
        return self._component_keys

    def entity_tables(self) -> tuple:
        """``(entities, ranks, repr_ranks)`` per node id, for match
        emission.

        ``entities[id]`` is the entity frozenset (an object array, so
        one fancy index gathers a whole level); ``ranks[id]`` is the
        id's position in ``repr`` order (equal reprs tie-break on id),
        so sorting a match's nodes by ``repr(entity)`` is an integer
        ``argsort``; ``repr_ranks[id]`` ranks the ``repr`` itself (equal
        reprs share a rank), so ordering matches by the ``repr`` of
        their nodes is an integer ``lexsort``.
        """
        if self._entities is None:
            n = self.num_nodes
            peg = self.peg
            entities = np.fromiter(
                (peg.entity_of(node) for node in range(n)),
                dtype=object,
                count=n,
            )
            reprs = list(map(repr, entities))
            by_repr = sorted(range(n), key=reprs.__getitem__)
            ranks = np.empty(n, dtype=np.int64)
            ranks[by_repr] = np.arange(n)
            in_order = [reprs[node] for node in by_repr]
            changes = np.zeros(n, dtype=np.int64)
            changes[1:] = list(map(operator.ne, in_order[1:], in_order))
            repr_ranks = np.empty(n, dtype=np.int64)
            repr_ranks[by_repr] = np.cumsum(changes)
            self._entities = (entities, ranks, repr_ranks)
        return self._entities

    def _edge_table(self) -> tuple:
        if self._edge_keys is None:
            n = self.num_nodes
            items = sorted(self.peg.edge_ids(), key=lambda item: item[0])
            keys = np.fromiter(
                (id_a * n + id_b for (id_a, id_b), _ in items),
                dtype=np.int64,
                count=len(items),
            )
            # Publish keys last: concurrent readers gate on _edge_keys,
            # so _edge_dists must already be visible when they pass.
            self._edge_dists = [dist for _, dist in items]
            self._edge_keys = keys
        return self._edge_keys, self._edge_dists

    def edge_probabilities(
        self, ids_a: np.ndarray, ids_b: np.ndarray, label_a, label_b
    ) -> np.ndarray:
        """Bulk ``Pr((a, b).e = T)`` under the two endpoint labels.

        Conditional edge CPTs canonicalize their label pair, so one
        cached value array per unordered label pair serves both
        orientations; missing edges gather 0.0.
        """
        keys, dists = self._edge_table()
        pair = tuple(sorted((label_a, label_b), key=repr))
        values = self._edge_probs.get(pair)
        if values is None:
            values = np.fromiter(
                (dist.probability(label_a, label_b) for dist in dists),
                dtype=np.float64,
                count=len(dists),
            )
            self._edge_probs[pair] = values
        ids_a = np.asarray(ids_a, dtype=np.int64)
        ids_b = np.asarray(ids_b, dtype=np.int64)
        wanted = (
            np.minimum(ids_a, ids_b) * self.num_nodes
            + np.maximum(ids_a, ids_b)
        )
        if keys.size == 0:
            return np.zeros(wanted.shape, dtype=np.float64)
        position = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        found = keys[position] == wanted
        return np.where(found, values[position], 0.0)


class PathTables:
    """What one edge-extension of a path frontier gathers from.

    Over the id space: ``existence``, ``keys``
    (:meth:`ComponentTable.component_keys`) and ``multi`` (the node
    shares its identity component with another — only such a node can
    share references with one); CSR adjacency
    (``adj_ptr`` / ``adj``, a node's neighbours ascending, one *slot*
    per directed edge); CSR label support (``sup_ptr`` / ``sup_label``
    / ``sup_prob``, a node's possible labels in support order, as
    positions in ``sigma``); and ``label_matrix``, the same
    probabilities as a dense column-major ``(id_space, |Σ|)`` matrix.
    ``sigma`` is the labels of the filled supports sorted by ``repr``,
    so comparing label positions is comparing labels the way the
    canonical orientation does.

    Edge probabilities are one row of slots per unordered label pair,
    built when a pair is first asked for. The rows live in one
    ``(pair rows, matrix)`` snapshot that is replaced, never written:
    concurrent readers may each rebuild a pair the other just added,
    but none can see a row index without its row.
    """

    def __init__(
        self, existence, keys, adj_ptr, adj, sup_ptr, sup_labels, sup_prob,
        slot_dists,
    ) -> None:
        self.sigma = tuple(sorted(set(sup_labels), key=repr))
        self.label_pos = {label: i for i, label in enumerate(self.sigma)}
        self.existence = existence
        self.keys = keys
        self.multi = keys >= 0
        self.adj_ptr = adj_ptr
        self.adj = adj
        self.sup_ptr = sup_ptr
        self.sup_label = np.asarray(
            [self.label_pos[label] for label in sup_labels], dtype=np.int64
        )
        self.sup_prob = sup_prob
        size = len(self.sigma)
        self.label_matrix = np.zeros((existence.size, size), order="F")
        self.label_matrix[
            np.repeat(np.arange(existence.size), np.diff(sup_ptr)),
            self.sup_label,
        ] = sup_prob
        # A Bernoulli edge has one probability under every label pair;
        # only conditional slots are asked again per pair.
        self._conditional = [
            (slot, dist) for slot, dist in enumerate(slot_dists)
            if dist.conditional
        ]
        self._base = np.fromiter(
            (0.0 if dist.conditional else dist.probability()
             for dist in slot_dists),
            dtype=np.float64,
            count=len(slot_dists),
        )
        self._edges = (
            np.full((size, size), -1, dtype=np.int64),
            np.empty((0, self._base.size)),
        )

    def edge_probabilities(self, slots, labels_a, labels_b) -> np.ndarray:
        """``Pr(slot's edge | endpoint labels)`` per row, the labels as
        positions in ``sigma`` (CPTs canonicalize their pair, so one
        row serves both orientations)."""
        if not self._conditional:
            return self._base[slots]
        pair_rows, matrix = self._edges
        rows = pair_rows[labels_a, labels_b]
        missing = rows < 0
        if missing.any():
            size = len(self.sigma)
            pair_rows = pair_rows.copy()
            columns = [matrix]
            wanted = np.unique((labels_a * size + labels_b)[missing])
            for a, b in zip(*divmod(wanted, size)):
                if pair_rows[a, b] >= 0:  # the other orientation's row
                    continue
                label_a, label_b = self.sigma[a], self.sigma[b]
                column = self._base.copy()
                for slot, dist in self._conditional:
                    column[slot] = dist.probability(label_a, label_b)
                pair_rows[a, b] = pair_rows[b, a] = (
                    matrix.shape[0] + len(columns) - 1
                )
                columns.append(column[None, :])
            matrix = np.concatenate(columns)
            self._edges = (pair_rows, matrix)
            rows = pair_rows[labels_a, labels_b]
        return matrix[rows, slots]


def path_tables(peg: ProbabilisticEntityGraph, nodes=None) -> PathTables:
    """The :class:`PathTables` of ``peg``, from its id accessors.

    With ``nodes``, only their rows are filled (every other id reads as
    a node that does not exist, with no neighbour and no label), by
    iterating over ``nodes`` alone: what a live absorb derives for the
    neighbourhood it enumerates.
    """
    size = len(peg.node_ids())
    filled = np.asarray(
        sorted(peg.node_ids() if nodes is None else nodes), dtype=np.int64
    )
    degrees, supports, existence = [], [], []
    adj, slot_dists, labels, sup_prob = [], [], [], []
    for node in filled.tolist():
        existence.append(peg.existence_probability_id(node))
        neighbors = peg.neighbor_ids(node)
        degrees.append(len(neighbors))
        adj.extend(neighbors)
        slot_dists.extend(
            peg.edge_distribution_id(node, neighbor) for neighbor in neighbors
        )
        support = peg.possible_labels_id(node)
        supports.append(len(support))
        labels.extend(support)
        sup_prob.extend(
            peg.label_probability_id(node, label) for label in support
        )

    def over_ids(values, dtype) -> np.ndarray:
        column = np.zeros(size, dtype=dtype)
        column[filled] = values
        return column

    def pointers(counts) -> np.ndarray:
        return np.concatenate(
            ([0], np.cumsum(over_ids(counts, np.int64)))
        )

    return PathTables(
        existence=over_ids(existence, np.float64),
        keys=component_table(peg).component_keys(np.arange(size)),
        adj_ptr=pointers(degrees),
        adj=np.asarray(adj, dtype=np.int64),
        sup_ptr=pointers(supports),
        sup_labels=labels,
        sup_prob=np.asarray(sup_prob, dtype=np.float64),
        slot_dists=slot_dists,
    )


class ComponentTable:
    """The joint existence marginals of a PEG's identity components
    (Eq. 7) as arrays: what ``Prn`` (Eq. 12) multiplies whenever a path
    or a match holds two nodes of one component.

    A *group* is a component holding several nodes of the graph. Its
    held rows are :meth:`~repro.peg.components.IdentityComponent.weighted_rows`
    — an exact component's configurations (weights their probabilities,
    denominator 1.0) or a sampled one's draws (importance weights over
    their running total). Per group: ``row_count``, ``weight_start``
    into the flat ``weights`` and ``denominator``. Per node id: ``key``
    (its group, or ``-1 - id`` for a node alone in its component) and
    ``member_start``, where the node's flags — whether each held row
    chose its entity — begin in the flat ``members``.

    Derived once per PEG (:func:`component_table`) and never patched:
    live updates only add single-entity components, and every id past
    the table is one of those.
    """

    def __init__(self, peg: ProbabilisticEntityGraph) -> None:
        multi = {
            component.index: component for component in peg.components
            if len(component.entities) > 1
        }
        nodes_of: dict = {}
        for node in peg.node_ids():
            index = peg.component_index_id(node)
            if index in multi:
                nodes_of.setdefault(index, []).append(node)
        size = len(peg.node_ids())
        self.key = -1 - np.arange(size, dtype=np.int64)
        self.member_start = np.zeros(size, dtype=np.int64)
        row_count, weight_start, denominator = [], [], []
        weights, members = [], []
        for index, nodes in nodes_of.items():
            if len(nodes) < 2:
                continue
            chosen, row_weights, total = multi[index].weighted_rows()
            for node in nodes:
                entity = peg.entity_of(node)
                self.key[node] = len(row_count)
                self.member_start[node] = len(members)
                members.extend(entity in row for row in chosen)
            row_count.append(len(chosen))
            weight_start.append(len(weights))
            weights.extend(row_weights)
            denominator.append(total)
        self.row_count = np.asarray(row_count, dtype=np.int64)
        self.weight_start = np.asarray(weight_start, dtype=np.int64)
        self.denominator = np.asarray(denominator, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.members = np.asarray(members, dtype=bool)

    def joint_existence(self, nodes, existence: np.ndarray) -> np.ndarray:
        """``Prn`` of every row of the ``(rows, width)`` id matrix
        ``nodes``: exactly the float ``peg.existence_marginal_ids(row)``.

        The product starts at 1.0 and runs over the row's components in
        first-appearance order. A component the row holds once gives
        its node's ``existence`` (the caller's per-id single-entity
        marginals, whose id space may have grown past this table); one
        it holds several times gives the in-order sum of the weights of
        the held rows choosing all of them, over its denominator — 0.0
        when two of them share a reference, since no configuration
        holds both.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        key = self.component_keys(nodes)
        prn = np.ones(nodes.shape[0])
        for column in range(nodes.shape[1]):
            same = key == key[:, column, None]
            first = ~same[:, :column].any(axis=1)
            factor = existence[nodes[:, column]]
            joint = np.flatnonzero(
                first & (key[:, column] >= 0) & (same.sum(axis=1) > 1)
            )
            if joint.size:
                factor[joint] = self._marginals(
                    nodes[joint], key[joint, column], same[joint]
                )
            prn[first] *= factor[first]
        return prn

    def component_keys(self, nodes) -> np.ndarray:
        """``key`` of every id of ``nodes`` (same shape): two ids share
        it exactly when their nodes share an identity component, and it
        is non-negative exactly when that component holds several nodes
        — every id past the table is alone in its own."""
        nodes = np.asarray(nodes, dtype=np.int64)
        known = nodes < self.key.size
        return np.where(known, self.key[np.where(known, nodes, 0)], -1 - nodes)

    def _marginals(self, nodes, groups, members) -> np.ndarray:
        """Per query row — its group and ``members``, the columns of
        ``nodes`` in it — the in-order sum of the weights of the group's
        rows choosing every member, over the denominator.

        Queries are gathered per held-row count, at most
        ``_MARGINAL_CELLS`` cells at a time; the masked weights are
        summed along the held-row axis by ``np.add.accumulate``, which
        adds left to right as the scalar marginal does (``np.sum`` adds
        pairwise).
        """
        marginals = np.empty(groups.size)
        counts = self.row_count[groups]
        for count in np.unique(counts).tolist():
            rows = np.arange(count)
            picked = np.flatnonzero(counts == count)
            step = max(1, _MARGINAL_CELLS // count)
            for low in range(0, picked.size, step):
                query = picked[low:low + step]
                held = np.ones((query.size, count), dtype=bool)
                for column in range(nodes.shape[1]):
                    within = np.flatnonzero(members[query, column])
                    starts = self.member_start[nodes[query[within], column]]
                    held[within] &= self.members[starts[:, None] + rows]
                group = groups[query]
                at = self.weight_start[group][:, None] + rows
                weights = np.where(held, self.weights[at], 0.0)
                marginals[query] = (
                    np.add.accumulate(weights, axis=1)[:, -1]
                    / self.denominator[group]
                )
        return marginals


_COMPONENT_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def component_table(peg: ProbabilisticEntityGraph) -> ComponentTable:
    """The :class:`ComponentTable` of ``peg``, derived on first use and
    kept beside the graph object (not in it: a saved PEG carries none)."""
    table = _COMPONENT_TABLES.get(peg)
    if table is None:
        table = _COMPONENT_TABLES[peg] = ComponentTable(peg)
    return table
