"""The PEG's columns against the oracle derived from its entity-keyed dicts.

:class:`repro.peg.columns.PegColumns` is built once with the graph and
patched by the five ``graph_*`` primitives. After every primitive of a
seeded random sequence — on a synthetic graph, a graph of conditional
(CPT) edges with a shared identity component and tombstones, and a
small DBLP graph — every column, every ``*_id`` accessor, ``sigma``,
every :class:`~repro.peg.arrays.PegProbabilityArrays` gather (both
orientations, missing edges, a label outside ``Σ``) and the context
(built, and patched op by op) must equal
:mod:`repro.testing.reference`'s oracles exactly (``==``, not
``approx``). Every sequence also has a label entering ``Σ``, a label
losing its last holder, an edge update and a merge of two nodes with a
common neighbour.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.datasets import generate_dblp_pgd
from repro.index.context import build_context, patch_context
from repro.peg import build_peg
from repro.peg.arrays import PegProbabilityArrays, component_table
from repro.peg.columns import gather_rows, gather_runs, row_blocks
from repro.pgd import BernoulliEdge, ConditionalEdge, LabelDistribution
from repro.testing.reference import (
    edge_probabilities,
    path_tables,
    scalar_context,
)
from tests.conftest import small_random_peg
from tests.test_differential_random import _enumeration_peg, _singleton_ids

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260730"))
OPS_PER_SEQUENCE = 24

#: Columns compared as arrays: dtype, shape and every value.
ARRAY_COLUMNS = (
    "ranks", "repr_ranks", "component", "existence", "keys",
    "adj_ptr", "adj", "slot_keys", "slot_base", "slot_conditional",
    "sup_ptr", "sup_label", "sup_prob", "label_matrix",
)

GRAPHS = {
    "synthetic": lambda: small_random_peg(3, uncertainty=0.5),
    "cpt": lambda: _enumeration_peg(5, num_refs=9, extra_edges=6, merges=1),
    "dblp": lambda: build_peg(generate_dblp_pgd(60, seed=5)),
}


def assert_columns_match(peg) -> None:
    """Every column, accessor and gather of ``peg`` == the oracle."""
    oracle = path_tables(peg)
    columns = peg.columns
    for name in ARRAY_COLUMNS:
        ours, theirs = getattr(columns, name), getattr(oracle, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.shape == theirs.shape, name
        assert ours.tolist() == theirs.tolist(), name
    assert columns.label_matrix.flags.f_contiguous
    for name in ("entities", "slot_dists"):
        ours, theirs = getattr(columns, name), getattr(oracle, name)
        assert ours.dtype == object and ours.size == theirs.size, name
        assert all(map(lambda a, b: a is b, ours, theirs)), name
    assert columns.sigma == oracle.sigma
    assert columns.label_pos == oracle.label_pos
    assert peg.sigma == frozenset(oracle.sigma)
    assert component_table(peg).component_keys(
        np.arange(oracle.size)
    ).tolist() == oracle.keys.tolist()
    assert_accessors_match(peg, oracle)
    assert_gathers_match(peg, oracle)


def assert_accessors_match(peg, oracle) -> None:
    assert peg.node_ids() == range(oracle.size)
    labels = (*oracle.sigma, "missing")
    for node in range(oracle.size):
        low, high = oracle.adj_ptr[node], oracle.adj_ptr[node + 1]
        neighbors = peg.neighbor_ids(node)
        assert neighbors == tuple(oracle.adj[low:high].tolist())
        assert all(type(neighbor) is int for neighbor in neighbors)
        assert peg.degree(node) == high - low
        sup_low, sup_high = oracle.sup_ptr[node], oracle.sup_ptr[node + 1]
        assert peg.possible_labels_id(node) == tuple(
            oracle.sigma[pos] for pos in oracle.sup_label[sup_low:sup_high]
        )
        for label in labels:
            found = peg.label_probability_id(node, label)
            assert type(found) is float
            pos = oracle.label_pos.get(label)
            assert found == (0.0 if pos is None else oracle.label_matrix[node, pos])
        existence = peg.existence_probability_id(node)
        assert type(existence) is float and existence == oracle.existence[node]
        assert peg.component_index_id(node) == oracle.component[node]
        assert peg.entity_of(node) is oracle.entities[node]
        assert peg.id_of(oracle.entities[node]) == node
        for slot in range(low, high):
            neighbor = int(oracle.adj[slot])
            dist = oracle.slot_dists[slot]
            assert peg.edge_distribution_id(node, neighbor) is dist
            assert peg.edge_max_probability_id(node, neighbor) == (
                dist.max_probability() if dist.conditional
                else dist.probability()
            )
        for other in (node + 1, node + 7, oracle.size - 1):
            if other < oracle.size and other not in neighbors:
                assert peg.edge_distribution_id(node, other) is None
                assert peg.edge_probability_id(node, other, "a", "b") == 0.0
    sources = np.repeat(np.arange(oracle.size), np.diff(oracle.adj_ptr))
    upper = np.flatnonzero(sources < oracle.adj).tolist()
    edges = sorted(peg.edge_ids(), key=lambda edge: edge[0])
    assert [pair for pair, _ in edges] == [
        (int(sources[slot]), int(oracle.adj[slot])) for slot in upper
    ]
    assert all(
        dist is oracle.slot_dists[slot] for (_, dist), slot in zip(edges, upper)
    )


def assert_gathers_match(peg, oracle) -> None:
    arrays = PegProbabilityArrays(peg)
    assert arrays.num_nodes == oracle.size
    for label in (*oracle.sigma, "missing"):
        pos = oracle.label_pos.get(label)
        expected = (
            np.zeros(oracle.size) if pos is None
            else oracle.label_matrix[:, pos]
        )
        assert arrays.label_probabilities(label).tolist() == expected.tolist()
    assert arrays.existence_probabilities().tolist() == oracle.existence.tolist()
    assert arrays.component_keys().tolist() == oracle.keys.tolist()
    entities, ranks, repr_ranks = arrays.entity_tables()
    assert all(map(lambda a, b: a is b, entities, oracle.entities))
    assert ranks.tolist() == oracle.ranks.tolist()
    assert repr_ranks.tolist() == oracle.repr_ranks.tolist()

    # Every edge in both orientations, then pairs with no edge.
    sources = np.repeat(np.arange(oracle.size), np.diff(oracle.adj_ptr))
    rng = random.Random(oracle.size)
    missing = [
        (a, b) for a, b in (
            (rng.randrange(oracle.size), rng.randrange(oracle.size))
            for _ in range(20)
        )
        if peg.edge_distribution_id(a, b) is None
    ]
    ids_a = np.concatenate((sources, [a for a, _ in missing])).astype(np.int64)
    ids_b = np.concatenate((oracle.adj, [b for _, b in missing])).astype(np.int64)
    labels = (*oracle.sigma, "missing")
    for label_a in labels:
        for label_b in labels:
            for left, right in ((ids_a, ids_b), (ids_b, ids_a)):
                found = arrays.edge_probabilities(left, right, label_a, label_b)
                assert found.dtype == np.float64
                assert found.tolist() == edge_probabilities(
                    peg, left, right, label_a, label_b
                ).tolist()

    # The enumeration's per-slot rows, under random label positions.
    if oracle.adj.size and oracle.sigma:
        slots = np.array(
            [rng.randrange(oracle.adj.size) for _ in range(50)], dtype=np.int64
        )
        positions = [
            np.array([rng.randrange(len(oracle.sigma)) for _ in range(50)])
            for _ in range(2)
        ]
        assert peg.columns.edge_probabilities(slots, *positions).tolist() == (
            oracle.edge_probabilities(slots, *positions).tolist()
        )


def assert_context_matches(peg, patched) -> None:
    built = build_context(peg)
    expected = scalar_context(peg)
    for context in (built, patched):
        assert context.sigma == peg.columns.sigma
        for ours, theirs in zip(context.tables(), expected):
            assert ours.dtype == theirs.dtype
            assert ours.tolist() == theirs.tolist()


class _Sequence:
    """A seeded run of the five ``graph_*`` primitives on one graph."""

    def __init__(self, peg, rng: random.Random) -> None:
        self.peg = peg
        self.rng = rng
        self.fresh = 0
        self.context = build_context(peg)

    def live(self) -> list:
        return [n for n in self.peg.node_ids() if not self.peg.is_removed_id(n)]

    def labels(self, extra=(), without=()) -> LabelDistribution:
        pool = list(dict.fromkeys(
            [label for label in sorted(self.peg.sigma, key=repr)
             if label not in without] + list(extra)
        ))
        chosen = self.rng.sample(pool, self.rng.randint(1, min(3, len(pool))))
        weights = [self.rng.uniform(0.1, 1.0) for _ in chosen]
        return LabelDistribution(
            {label: weight / sum(weights) for label, weight in zip(chosen, weights)}
        )

    def edge(self):
        sigma = sorted(self.peg.sigma, key=repr)
        if self.peg.conditional and self.rng.random() < 0.5:
            pair = (self.rng.choice(sigma), self.rng.choice(sigma))
            return ConditionalEdge(
                {pair: self.rng.uniform(0.3, 1.0)},
                default=self.rng.choice((0.0, 0.4)),
            )
        return BernoulliEdge(self.rng.uniform(0.2, 1.0))

    def apply(self, kind: str, *args) -> None:
        """Run one primitive, patch the context, check everything."""
        peg = self.peg
        if kind == "add_entity":
            self.fresh += 1
            dirty = {peg.graph_add_entity(
                (f"col-{self.fresh}",), *args, self.rng.uniform(0.5, 1.0)
            )}
        elif kind == "merge":
            dirty = {*args, peg.graph_merge_entities(*args)}
        else:
            getattr(peg, f"graph_{kind}")(*args)
            dirty = {args[0], args[1]} if "edge" in kind else {args[0]}
        self.context = patch_context(self.context, peg, dirty)
        assert_columns_match(peg)
        assert_context_matches(peg, self.context)

    def scripted(self) -> None:
        """A label entering Σ and losing its last holder, an edge
        update, and a merge of two nodes sharing a neighbour."""
        peg = self.peg
        live = self.live()
        self.apply("add_entity", LabelDistribution({"col-new": 1.0}))
        fresh = peg.node_ids()[-1]
        assert "col-new" in peg.sigma
        self.apply("update_label", fresh, self.labels(without=("col-new",)))
        assert "col-new" not in peg.sigma
        a, b = next(
            (a, int(b)) for a in live for b in peg.neighbor_ids(a) if a < b
        )
        self.apply("update_edge", a, b, self.edge())
        self.apply("add_entity", self.labels())
        left = peg.node_ids()[-1]
        self.apply("add_entity", self.labels())
        right = peg.node_ids()[-1]
        common = self.rng.choice(live)
        self.apply("add_edge", left, common, BernoulliEdge(0.3))
        self.apply("add_edge", right, common, BernoulliEdge(0.8))
        self.apply("add_edge", left, right, self.edge())
        self.apply("merge", left, right)

    def random_op(self) -> None:
        peg, rng = self.peg, self.rng
        live = self.live()
        kind = rng.choice(
            ("add_entity", "add_edge", "update_label", "update_edge", "merge")
        )
        if kind == "add_entity":
            self.apply(kind, self.labels(extra=("col-rare",)))
        elif kind == "update_label":
            self.apply(kind, rng.choice(live), self.labels(extra=("col-rare",)))
        elif kind == "update_edge":
            linked = [node for node in live if peg.degree(node)]
            if linked:
                a = rng.choice(linked)
                self.apply(kind, a, rng.choice(peg.neighbor_ids(a)), self.edge())
        elif kind == "add_edge":
            for _ in range(50):
                a, b = rng.sample(live, 2)
                if (
                    peg.edge_distribution_id(a, b) is None
                    and not peg.shares_references_id(a, b)
                ):
                    self.apply(kind, a, b, self.edge())
                    break
        elif len(_singleton_ids(peg)) >= 2:
            self.apply(kind, *rng.sample(_singleton_ids(peg), 2))


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("offset", range(2))
def test_columns_differential(name, offset):
    peg = GRAPHS[name]()
    assert_columns_match(peg)
    sequence = _Sequence(peg, random.Random(f"{SEED}/{name}/{offset}"))
    assert_context_matches(peg, sequence.context)
    sequence.scripted()
    for _ in range(OPS_PER_SEQUENCE):
        sequence.random_op()
    assert any(peg.is_removed_id(node) for node in peg.node_ids())


def test_columns_differential_cpt_rows_are_asked_per_pair():
    """On the CPT graph the gathers really go through built rows."""
    peg = GRAPHS["cpt"]()
    assert peg.columns.slot_conditional.any()
    assert_columns_match(peg)
    pair_rows, matrix, conditional = peg.columns._edges
    assert conditional.size and matrix.shape[0] > 0
    assert (pair_rows >= 0).any()


# ----------------------------------------------------------------------
# The frontier idiom the enumeration and the matcher share
# ----------------------------------------------------------------------


def blocks(counts, budget: int) -> list:
    """``row_blocks`` as ``(start, stop)`` pairs."""
    return [
        (block.start, block.stop)
        for block in row_blocks(np.array(counts, dtype=np.int64), budget)
    ]


def test_row_blocks_empty_frontier():
    assert blocks([], 4) == []


def test_row_blocks_all_zero_counts_yield_no_block():
    assert blocks([0, 0, 0], 4) == []


def test_row_blocks_oversized_row_gets_its_own_block():
    assert blocks([1, 9, 1], 4) == [(0, 1), (1, 2), (2, 3)]


def test_row_blocks_end_on_the_budget_closes_the_block():
    assert blocks([2, 2, 2, 2], 4) == [(0, 2), (2, 4)]
    assert blocks([3, 1, 0, 2], 4) == [(0, 3), (3, 4)]


def test_row_blocks_are_the_longest_runs_within_the_budget():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        counts = rng.integers(0, 6, size=rng.integers(1, 30))
        budget = int(rng.integers(1, 12))
        spans = blocks(counts, budget)
        if not counts.any():
            assert spans == []
            continue
        assert [start for start, _ in spans] == [0] + [
            stop for _, stop in spans[:-1]
        ]
        assert spans[-1][1] == counts.size
        for start, stop in spans:
            gathered = int(counts[start:stop].sum())
            assert stop - start == 1 or gathered <= budget
            if stop < counts.size:
                assert gathered + counts[stop] > budget


def test_gather_rows_is_gather_runs_over_the_pointers():
    pointers = np.array([0, 2, 2, 5, 6], dtype=np.int64)
    rows = np.array([2, 0, 1, 2, 3], dtype=np.int64)
    parent, position = gather_rows(pointers, rows)
    runs = gather_runs(pointers[rows], np.diff(pointers)[rows])
    assert np.array_equal(parent, runs[0])
    assert np.array_equal(position, runs[1])
    assert parent.tolist() == [0, 0, 0, 1, 1, 3, 3, 3, 4]
    assert position.tolist() == [2, 3, 4, 0, 1, 2, 3, 4, 5]
    no_rows = np.zeros(0, dtype=np.int64)
    assert [part.size for part in gather_rows(pointers, no_rows)] == [0, 0]
