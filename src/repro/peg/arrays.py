"""Probability gather tables of a PEG, for the array-native online
phase. They read nothing but the graph, so they live beside it."""

from __future__ import annotations

import numpy as np

from repro.peg.entity_graph import ProbabilisticEntityGraph


class PegProbabilityArrays:
    """Probability arrays gathered from a PEG, cached per label.

    ``label_probabilities(σ)`` is a dense float64 array over node ids;
    ``edge_probabilities`` answers bulk edge-probability gathers through
    a sorted composite-key table (``min_id * num_nodes + max_id``) and
    ``np.searchsorted``. Arrays are built lazily per label (pair).
    ``entity_tables`` are the per-id entity / ``repr`` / ``repr``-rank
    tables the matcher builds ``Match`` objects from.

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
        self._components = None
        self._entities = None

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
        ``peg.existence_marginal_ids`` bit-for-bit.
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

    def component_indexes(self) -> np.ndarray:
        """Identity-component index for every node id, as one int array."""
        if self._components is None:
            peg = self.peg
            self._components = np.fromiter(
                (
                    peg.component_index_id(node)
                    for node in range(self.num_nodes)
                ),
                dtype=np.int64,
                count=self.num_nodes,
            )
        return self._components

    def entity_tables(self) -> tuple:
        """``(entities, reprs, ranks)`` per node id, for match emission.

        ``entities[id]`` is the entity frozenset and ``reprs[id]`` its
        ``repr`` (both object arrays, so one fancy index gathers a whole
        level); ``ranks[id]`` is the id's position in ``repr`` order
        (equal reprs tie-break on id), so sorting a match's nodes by
        ``repr(entity)`` is an integer ``argsort``.
        """
        if self._entities is None:
            n = self.num_nodes
            peg = self.peg
            entities = np.fromiter(
                (peg.entity_of(node) for node in range(n)),
                dtype=object,
                count=n,
            )
            reprs = np.fromiter(map(repr, entities), dtype=object, count=n)
            ranks = np.empty(n, dtype=np.int64)
            ranks[sorted(range(n), key=reprs.__getitem__)] = np.arange(n)
            self._entities = (entities, reprs, ranks)
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
