"""``ComponentTable.joint_existence`` against the scalar marginal.

The kernel must return, per row, exactly (``==``, not approximately) the
float ``peg.existence_marginal_ids(row)`` returns: on every 1-4-node
subset of a multi-entity component's nodes in every column order, on
rows holding two components at once beside single-entity nodes, for
exact and sampled components, and for ids appended after the table was
derived.
"""

from __future__ import annotations

import itertools
import pickle
import random

import numpy as np
import pytest

from repro.datasets import generate_dblp_pgd
from repro.peg import arrays as peg_arrays
from repro.peg import build_peg
from repro.peg.arrays import PegProbabilityArrays, component_table
from repro.peg.components import IdentityComponent
from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.pgd import LabelDistribution
from tests.conftest import sampled_component_peg, small_random_peg


def fs(*items):
    return frozenset(items)


def hand_built_peg(entities, references) -> ProbabilisticEntityGraph:
    """One identity component over ``references`` whose candidate sets
    are ``entities`` (potential 0.5 each), every entity a node."""
    potentials = {entity: 0.5 for entity in entities}
    component = IdentityComponent(0, references, entities, potentials)
    return ProbabilisticEntityGraph(
        labels={entity: LabelDistribution.certain("x") for entity in entities},
        edges={},
        components=[component],
        conditional=False,
    )


GRAPHS = {
    "synthetic": lambda: small_random_peg(1, uncertainty=0.6),
    "dblp": lambda: build_peg(generate_dblp_pgd(120, seed=5)),
    "sampled": sampled_component_peg,
    # c is covered only by {a, b, c}: {a} and {b} share no reference and
    # still never co-occur.
    "disjoint-never-together": lambda: hand_built_peg(
        [fs("a"), fs("b"), fs("a", "b", "c")], fs("a", "b", "c")
    ),
    # Five exact covers: sums over more than two held configurations.
    "chain": lambda: hand_built_peg(
        [fs("a"), fs("b"), fs("c"), fs("d"),
         fs("a", "b"), fs("b", "c"), fs("c", "d")],
        fs("a", "b", "c", "d"),
    ),
}


def component_nodes(peg) -> list:
    """The node ids of every identity component holding several nodes."""
    by_component: dict = {}
    for node in peg.node_ids():
        by_component.setdefault(peg.component_index_id(node), []).append(node)
    return [nodes for nodes in by_component.values() if len(nodes) > 1]


def kernel_rows(peg, rng: random.Random) -> list:
    """Every ordered 1-4-node selection inside one component, then rows
    mixing components — one of them twice — with a single node, so that
    the product order of three or four non-trivial factors shows."""
    groups = component_nodes(peg)
    rows = [
        list(row)
        for nodes in groups
        for width in range(1, min(4, len(nodes)) + 1)
        for row in itertools.permutations(nodes, width)
    ]
    grouped = {node for nodes in groups for node in nodes}
    singles = [node for node in peg.node_ids() if node not in grouped]
    for _ in range(300):
        twice, *once = rng.sample(groups, min(3, len(groups)))
        row = rng.sample(twice, 2) + [rng.choice(nodes) for nodes in once]
        row += rng.sample(singles, min(len(singles), 4 - len(row)))
        rng.shuffle(row)
        rows.append(list(dict.fromkeys(row)))
    return rows


def assert_kernel_equals_oracle(peg, rows) -> list:
    """The kernel over each width's rows at once == the scalar marginal
    row by row; returns the kernel's values."""
    existence = PegProbabilityArrays(peg).existence_probabilities()
    values = []
    for width in sorted({len(row) for row in rows}):
        batch = [row for row in rows if len(row) == width]
        found = component_table(peg).joint_existence(
            np.asarray(batch, dtype=np.int64), existence
        )
        assert found.dtype == np.float64
        for row, value in zip(batch, found.tolist()):
            assert value == peg.existence_marginal_ids(row), row
            values.append(value)
    return values


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_joint_existence_is_the_scalar_marginal(name):
    peg = GRAPHS[name]()
    rows = kernel_rows(peg, random.Random(7))
    values = assert_kernel_equals_oracle(peg, rows)
    assert 0.0 in values  # entities sharing a reference


def test_disjoint_entities_that_never_co_occur_give_zero():
    peg = GRAPHS["disjoint-never-together"]()
    a, b = peg.id_of(fs("a")), peg.id_of(fs("b"))
    existence = PegProbabilityArrays(peg).existence_probabilities()
    found = component_table(peg).joint_existence(
        np.array([[a, b], [b, a]]), existence
    )
    assert found.tolist() == [0.0, 0.0]


def test_sampled_components_answer_in_blocks(monkeypatch):
    """A sampled component holds thousands of rows; queries are gathered
    a few at a time and must give the same floats."""
    peg = sampled_component_peg()
    rows = kernel_rows(peg, random.Random(3))
    expected = assert_kernel_equals_oracle(peg, rows)
    monkeypatch.setattr(peg_arrays, "_MARGINAL_CELLS", 5000)
    assert assert_kernel_equals_oracle(peg, rows) == expected


def test_ids_added_after_the_table_are_single_entity_components():
    peg = small_random_peg(1, uncertainty=0.6)
    table = component_table(peg)
    pair = component_nodes(peg)[0][:2]
    fresh = peg.graph_add_entity(
        ("fresh",), LabelDistribution.certain("L0"), 0.7
    )
    assert fresh >= table.key.size
    rows = [[fresh, *pair], [pair[0], fresh, pair[1]], [*pair, fresh]]
    assert_kernel_equals_oracle(peg, rows)
    assert component_table(peg) is table


def test_component_keys_name_components_with_company():
    """Two ids share a key exactly when their nodes share an identity
    component, and a key is non-negative exactly when that component
    holds several nodes — ids added after the table included."""
    peg = small_random_peg(1, uncertainty=0.6)
    table = component_table(peg)
    peg.graph_add_entity(("fresh",), LabelDistribution.certain("L0"), 0.7)
    ids = list(peg.node_ids())
    keys = table.component_keys(ids).tolist()
    component = [peg.component_index_id(node) for node in ids]
    company = {node for nodes in component_nodes(peg) for node in nodes}
    for a in ids:
        assert (keys[a] >= 0) == (a in company)
        for b in ids:
            assert (keys[a] == keys[b]) == (component[a] == component[b])


def test_the_table_is_not_saved_with_the_graph():
    """Neither the component table nor the edge rows a gather builds
    are saved: a pickled graph does not depend on what ran before."""
    peg = small_random_peg(2, uncertainty=0.6)
    saved = pickle.dumps(peg)
    component_table(peg)
    peg.columns.edge_row("L0", "L1")
    assert peg.columns._edges is not None
    assert pickle.dumps(peg) == saved
