"""The id view of a PEG: columns built with the graph, read by the index
build, every online stage and every ``*_id`` accessor, and patched in
place by the graph's ``graph_*`` surgery (updates run drained, so no
query reads a half-patched column). Nothing is re-derived per version.
"""

from __future__ import annotations

import bisect

import numpy as np

#: A directed slot's key is ``node * _KEY + neighbour``: keys ascend in
#: slot order and do not depend on the size of the id space.
_KEY = 1 << 32

#: The per-slot columns an edge op inserts into or deletes from.
_SLOT_COLUMNS = ("slot_keys", "slot_dists", "slot_base", "slot_conditional")


class PegColumns:
    """A PEG's graph data as columns over node ids (tombstones keep
    their id, with no neighbour, no label and existence 0.0).

    Per id: ``entities`` (objects); ``ranks`` (position in
    ``repr(entity)`` order, ties on id) and ``repr_ranks`` (rank of the
    ``repr`` itself), which the matcher sorts and builds matches by;
    ``existence``; ``component`` (identity-component index); ``keys``
    (shared by two ids exactly when their nodes share an identity
    component, non-negative when it holds several nodes — the numbering
    of :meth:`repro.peg.arrays.ComponentTable.component_keys`).

    CSR adjacency ``adj_ptr`` / ``adj``: a node's neighbours ascending,
    one *slot* per directed edge, with ``slot_keys`` (ascending),
    ``slot_dists``, ``slot_base`` (a Bernoulli edge's probability, 0.0
    for a CPT) and ``slot_conditional`` per slot.

    ``sigma`` is ``Σ`` sorted by ``repr`` (comparing positions compares
    labels as the canonical path orientation does), ``label_pos`` its
    inverse; the support CSR ``sup_ptr`` / ``sup_label`` / ``sup_prob``
    lists a node's labels in support order, as positions, and
    ``label_matrix`` holds them as a column-major ``(id_space, |Σ|)``
    matrix.

    Edge probabilities under a label pair are one row of slots per
    unordered pair of ``Σ`` positions, built on first ask, in one
    ``(pair rows, matrix, conditional slots)`` snapshot that is
    replaced, never written — concurrent readers may each build a pair
    the other just added, but none sees a row index without its row —
    dropped whenever an edge or ``Σ`` changes, and never pickled.
    """

    def __init__(self, nodes, edges) -> None:
        """``nodes``: ``(entity, label distribution, identity
        component)`` per id, in id order; ``edges``: ``(id_a, id_b,
        distribution)`` per undirected edge."""
        size = len(nodes)
        self.entities = np.fromiter(
            (entity for entity, _, _ in nodes), dtype=object, count=size
        )
        reprs = np.array([repr(entity) for entity in self.entities])
        self.ranks = np.argsort(np.argsort(reprs, kind="stable"))
        self.repr_ranks = np.unique(reprs, return_inverse=True)[1]
        self.component = np.array(
            [component.index for _, _, component in nodes], dtype=np.int64
        )
        self.existence = np.array(
            [component.existence_probability(entity)
             for entity, _, component in nodes],
            dtype=np.float64,
        )
        _, first, group, count = np.unique(
            self.component, return_index=True, return_inverse=True,
            return_counts=True,
        )
        held = count > 1  # groups numbered by first appearance
        number = np.zeros(first.size, dtype=np.int64)
        number[held] = np.argsort(np.argsort(first[held]))
        self.keys = np.where(held[group], number[group], -1 - np.arange(size))

        ends = np.array([(a, b) for a, b, _ in edges], dtype=np.int64)
        ends = ends.reshape(-1, 2)
        keys = np.concatenate((ends @ [_KEY, 1], ends @ [1, _KEY]))
        order = np.argsort(keys)
        dists = [dist for _, _, dist in edges] * 2
        self.slot_keys = keys[order]
        self.slot_dists = np.fromiter(
            map(dists.__getitem__, order.tolist()), dtype=object,
            count=order.size,
        )
        self.slot_base = np.array(
            [_base_probability(dist) for dist in self.slot_dists],
            dtype=np.float64,
        )
        self.slot_conditional = np.array(
            [dist.conditional for dist in self.slot_dists], dtype=bool
        )
        self._index_slots()

        supports = [dist.support for _, dist, _ in nodes]
        self.sigma = tuple(sorted(
            {label for support in supports for label in support}, key=repr
        ))
        self.label_pos = {label: pos for pos, label in enumerate(self.sigma)}
        self.sup_ptr = np.cumsum([0, *map(len, supports)], dtype=np.int64)
        self.sup_label = np.array(
            [self.label_pos[label] for support in supports for label in support],
            dtype=np.int64,
        )
        self.sup_prob = np.array(
            [dist.probability(label)
             for (_, dist, _), support in zip(nodes, supports)
             for label in support],
            dtype=np.float64,
        )
        self._fill_label_matrix()
        self._edges = None

    @property
    def size(self) -> int:
        """The id space: every id ever given out, tombstones included."""
        return self.entities.size

    def neighbors(self, node: int) -> np.ndarray:
        """``node``'s neighbour ids, ascending (a view of ``adj``)."""
        return self.adj[self.adj_ptr[node]:self.adj_ptr[node + 1]]

    def slots(self, ids_a, ids_b) -> tuple:
        """``(slot, found)`` of the directed edge ``a -> b`` per pair,
        by one ``searchsorted`` (a missing edge's slot is a valid index)."""
        wanted = np.asarray(ids_a, dtype=np.int64) * _KEY + np.asarray(ids_b)
        if not self.slot_keys.size:
            return np.zeros_like(wanted), np.zeros(wanted.shape, dtype=bool)
        slot = np.minimum(
            np.searchsorted(self.slot_keys, wanted), self.slot_keys.size - 1
        )
        return slot, self.slot_keys[slot] == wanted

    # ------------------------------------------------------------------
    # Edge rows
    # ------------------------------------------------------------------

    def edge_probabilities(self, slots, labels_a, labels_b) -> np.ndarray:
        """``Pr(slot's edge | endpoint labels)`` per row, the labels as
        positions in ``sigma`` (CPTs canonicalize their pair, so one
        row serves both orientations)."""
        snapshot = self._edge_rows()
        pair_rows, matrix, conditional = snapshot
        if not conditional.size:  # Bernoulli edges ignore labels
            return self.slot_base[slots]
        missing = pair_rows[labels_a, labels_b] < 0
        if missing.any():
            size = len(self.sigma)
            wanted = np.unique((labels_a * size + labels_b)[missing])
            pair_rows, matrix = self._with_rows(snapshot, divmod(wanted, size))
        return matrix[pair_rows[labels_a, labels_b], slots]

    def edge_row(self, label_a, label_b) -> np.ndarray:
        """Every slot's edge probability under one label pair (a label
        outside ``Σ`` gets its row computed, not kept)."""
        snapshot = self._edge_rows()
        pair_rows, matrix, conditional = snapshot
        a, b = self.label_pos.get(label_a), self.label_pos.get(label_b)
        if not conditional.size:
            return self.slot_base
        if None in (a, b):
            return self._row(conditional, label_a, label_b)
        if pair_rows[a, b] < 0:
            pair_rows, matrix = self._with_rows(snapshot, ([a], [b]))
        return matrix[pair_rows[a, b]]

    def _edge_rows(self) -> tuple:
        snapshot = self._edges
        if snapshot is None:
            size = len(self.sigma)
            snapshot = self._edges = (
                np.full((size, size), -1, dtype=np.int64),
                np.empty((0, self.slot_base.size)),
                np.flatnonzero(self.slot_conditional),
            )
        return snapshot

    def _with_rows(self, snapshot, pairs) -> tuple:
        """Publish ``snapshot`` plus the rows of the ``(positions a,
        positions b)`` pairs; returns the new pair rows and matrix."""
        pair_rows, matrix, conditional = snapshot
        pair_rows = pair_rows.copy()
        rows = [matrix]
        for a, b in zip(*(np.asarray(side).tolist() for side in pairs)):
            if pair_rows[a, b] < 0:  # else the other orientation's row
                pair_rows[a, b] = pair_rows[b, a] = len(matrix) + len(rows) - 1
                rows.append(
                    self._row(conditional, self.sigma[a], self.sigma[b])[None]
                )
        matrix = np.concatenate(rows)
        self._edges = (pair_rows, matrix, conditional)
        return pair_rows, matrix

    def _row(self, conditional, label_a, label_b) -> np.ndarray:
        row = self.slot_base.copy()
        for slot in conditional.tolist():
            row[slot] = self.slot_dists[slot].probability(label_a, label_b)
        return row

    # ------------------------------------------------------------------
    # Patches (the graph's surgery primitives call these)
    # ------------------------------------------------------------------

    def append(self, entity, label_dist, component) -> int:
        """Give ``entity``, alone in ``component``, the next id."""
        node, text = self.size, repr(entity)
        by_repr = np.argsort(self.ranks)
        rank = bisect.bisect_right(
            by_repr, text, key=lambda other: repr(self.entities[other])
        )
        tied = bool(rank) and repr(self.entities[by_repr[rank - 1]]) == text
        repr_rank = int(self.repr_ranks[by_repr[rank - 1]]) + 1 - tied if rank else 0
        if not tied:
            self.repr_ranks = self.repr_ranks + (self.repr_ranks >= repr_rank)
        self.ranks = np.append(self.ranks + (self.ranks >= rank), rank)
        self.repr_ranks = np.append(self.repr_ranks, repr_rank)
        self.entities = np.append(self.entities, [entity])
        self.component = np.append(self.component, component.index)
        self.existence = np.append(
            self.existence, component.existence_probability(entity)
        )
        self.keys = np.append(self.keys, -1 - node)
        self.sup_ptr = np.append(self.sup_ptr, self.sup_ptr[-1])
        self._index_slots()
        self._fill_label_matrix()
        self.set_labels(node, label_dist)
        return node

    def set_labels(self, node: int, label_dist) -> None:
        """Make ``label_dist`` (``None``: no label) ``node``'s; a label
        entering ``Σ`` or losing its last holder adds or drops a
        ``label_matrix`` column."""
        support = () if label_dist is None else label_dist.support
        fresh = [label for label in support if label not in self.label_pos]
        if fresh:
            self._set_sigma(sorted((*self.sigma, *fresh), key=repr))
        low, high = self.sup_ptr[node], self.sup_ptr[node + 1]
        before = np.unique(self.sup_label[low:high])
        positions = np.array(
            [self.label_pos[label] for label in support], dtype=np.int64
        )
        probabilities = np.array(
            [label_dist.probability(label) for label in support],
            dtype=np.float64,
        )
        self.sup_label = np.concatenate(
            (self.sup_label[:low], positions, self.sup_label[high:])
        )
        self.sup_prob = np.concatenate(
            (self.sup_prob[:low], probabilities, self.sup_prob[high:])
        )
        self.sup_ptr[node + 1:] += positions.size - (high - low)
        self.label_matrix[node] = 0.0
        self.label_matrix[node, positions] = probabilities
        gone = set(before[~np.isin(before, self.sup_label)].tolist())
        if gone:
            self._set_sigma(
                [label for pos, label in enumerate(self.sigma) if pos not in gone]
            )

    def set_edge(self, node_a: int, node_b: int, dist) -> None:
        """Add the edge ``a - b`` (two slots) or replace its distribution."""
        dists = np.fromiter((dist, dist), dtype=object)
        base, conditional = _base_probability(dist), dist.conditional
        slots, found = self.slots([node_a, node_b], [node_b, node_a])
        if found.all():
            self.slot_dists[slots] = dists
            self.slot_base[slots] = base
            self.slot_conditional[slots] = conditional
        else:
            keys = np.sort([node_a * _KEY + node_b, node_b * _KEY + node_a])
            slots = np.searchsorted(self.slot_keys, keys)
            for name, value in zip(_SLOT_COLUMNS, (keys, dists, base, conditional)):
                setattr(self, name, np.insert(getattr(self, name), slots, value))
            self._index_slots()
        self._edges = None

    def remove(self, node: int) -> None:
        """Tombstone ``node``: drop its slots and their reverses, its
        labels and its existence."""
        reverse, _ = self.slots(self.neighbors(node), node)
        drop = np.concatenate(
            (np.arange(self.adj_ptr[node], self.adj_ptr[node + 1]), reverse)
        )
        for name in _SLOT_COLUMNS:
            setattr(self, name, np.delete(getattr(self, name), drop))
        self._index_slots()
        self.existence[node] = 0.0
        self.set_labels(node, None)
        self._edges = None

    def _index_slots(self) -> None:
        """``adj`` and ``adj_ptr`` of the slot keys."""
        self.adj = self.slot_keys % _KEY
        self.adj_ptr = np.searchsorted(
            self.slot_keys, np.arange(self.size + 1) * _KEY
        )

    def _set_sigma(self, sigma) -> None:
        """Make ``sigma`` (sorted by ``repr``) ``Σ``: renumber the
        support positions and refill ``label_matrix``."""
        label_pos = {label: pos for pos, label in enumerate(sigma)}
        moved = np.array(
            [label_pos.get(label, -1) for label in self.sigma], dtype=np.int64
        )
        self.sup_label = moved[self.sup_label]
        self.sigma, self.label_pos = tuple(sigma), label_pos
        self._fill_label_matrix()
        self._edges = None

    def _fill_label_matrix(self) -> None:
        self.label_matrix = np.zeros((self.size, len(self.sigma)), order="F")
        self.label_matrix[
            np.repeat(np.arange(self.size), np.diff(self.sup_ptr)),
            self.sup_label,
        ] = self.sup_prob

    def __getstate__(self) -> dict:
        # Edge rows are a cache: a saved graph does not depend on which
        # queries ran before it was saved.
        return dict(self.__dict__, _edges=None)


def gather_runs(starts: np.ndarray, counts: np.ndarray) -> tuple:
    """Expand runs of a value array: ``(parent, position)`` per entry,
    the parent being the index of its run and the position
    ``starts[parent]`` plus the entry's place in the run — runs in
    order, a run's entries in theirs."""
    parent = np.repeat(np.arange(counts.size), counts)
    first = starts - (np.cumsum(counts) - counts)
    return parent, np.repeat(first, counts) + np.arange(parent.size)


def gather_rows(pointers: np.ndarray, rows: np.ndarray) -> tuple:
    """:func:`gather_runs` over ``rows`` of a CSR."""
    starts = pointers[rows]
    return gather_runs(starts, pointers[rows + 1] - starts)


def row_blocks(counts: np.ndarray, budget: int) -> list:
    """Order-preserving slices of a frontier whose rows gather
    ``counts`` entries, each the longest run gathering at most
    ``budget`` (one row at least); none when nothing is gathered. The
    enumeration and the matcher carry each block to the last level
    before the next, so no whole level is held — and, the slices being
    a list, no per-row array of a level either."""
    ends = np.cumsum(counts)
    blocks, low = [], 0
    while low < ends.size and ends[-1]:
        gathered = ends[low - 1] if low else 0
        high = max(
            low + 1,
            int(np.searchsorted(ends, gathered + budget, side="right")),
        )
        blocks.append(slice(low, high))
        low = high
    return blocks


def _base_probability(dist) -> float:
    """A slot's probability under every label pair (0.0 for a CPT)."""
    return 0.0 if dist.conditional else dist.probability()
