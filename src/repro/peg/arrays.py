"""Gather views of a PEG: the probability arrays of the array-native
online phase, read from the graph's columns
(:class:`repro.peg.columns.PegColumns`), and the
:class:`ComponentTable` every joint existence marginal is read from.
They read nothing but the graph, so they live beside it."""

from __future__ import annotations

import weakref

import numpy as np

from repro.peg.entity_graph import ProbabilisticEntityGraph

#: Most ``(member, held row)`` cells one :class:`ComponentTable` gather
#: spans; a sampled component holds thousands of rows, so its queries
#: are answered in blocks.
_MARGINAL_CELLS = 1 << 20


class PegProbabilityArrays:
    """The online phase's probability gathers, as a view of the graph's
    columns (:class:`~repro.peg.columns.PegColumns`): it holds nothing
    but the graph, so constructing one costs nothing and one made before
    a mutation batch answers for the mutated graph after it. Returned
    arrays are the graph's own: read them, never write them.
    """

    def __init__(self, peg: ProbabilisticEntityGraph) -> None:
        self.peg = peg

    @property
    def num_nodes(self) -> int:
        """The id space (tombstones included), not the live-node count."""
        return self.peg.columns.size

    def label_probabilities(self, label) -> np.ndarray:
        """``Pr(v.l = label)`` for every node id."""
        columns = self.peg.columns
        pos = columns.label_pos.get(label)
        if pos is None:
            return np.zeros(columns.size)
        return columns.label_matrix[:, pos]

    def existence_probabilities(self) -> np.ndarray:
        """``Pr(v.n = T)`` for every node id: the single-entity marginal
        (a row with two nodes of one component takes
        :meth:`ComponentTable.joint_existence` instead of the product)."""
        return self.peg.columns.existence

    def component_keys(self) -> np.ndarray:
        """Every id's key: shared exactly by ids of one identity component."""
        return self.peg.columns.keys

    def entity_tables(self) -> tuple:
        """``(entities, ranks, repr_ranks)`` per node id: what the
        matcher sorts matches by and builds them from."""
        columns = self.peg.columns
        return columns.entities, columns.ranks, columns.repr_ranks

    def edge_probabilities(
        self, ids_a: np.ndarray, ids_b: np.ndarray, label_a, label_b
    ) -> np.ndarray:
        """Bulk ``Pr((a, b).e = T)`` under the two endpoint labels: one
        ``searchsorted`` over the slot keys and a gather from the slot
        row the path enumeration reads too (missing edges gather 0.0)."""
        columns = self.peg.columns
        slots, found = columns.slots(ids_a, ids_b)
        if not found.any():
            return np.zeros(found.shape)
        return np.where(found, columns.edge_row(label_a, label_b)[slots], 0.0)


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
