"""Unit tests for repro.index.context (c, ppu, fpu tables)."""

import numpy as np
import pytest

from repro.datasets import generate_synthetic_pgd
from repro.delta import (
    AddEdge,
    AddEntity,
    UpdateEdgeDistribution,
    UpdateLabelProbability,
)
from repro.index.context import build_context, patch_context
from repro.peg import build_peg
from repro.peg.arrays import PegProbabilityArrays
from repro.pgd import BernoulliEdge, pgd_from_edge_list
from repro.query import QueryEngine
from repro.query.candidates import CandidateFinder, compute_path_statistics
from repro.query.decompose import QueryPath
from repro.query.query_graph import QueryGraph
from repro.testing.reference import ScalarCandidateFinder, scalar_context
from tests.test_differential_random import _cases


def fs(*items):
    return frozenset(items)


@pytest.fixture
def star_peg():
    """The Figure-3 style example: a hub v1 with labeled neighbors."""
    return build_peg(
        pgd_from_edge_list(
            node_labels={
                "v1": "c",
                "n1": {"a": 0.9, "b": 0.1},
                "n2": {"a": 0.8, "b": 0.2},
                "n3": "a",
                "n4": {"a": 1.0},
                "n5": "b",
            },
            edges=[
                ("v1", "n1", 0.2),
                ("v1", "n2", 0.9),
                ("v1", "n3", 0.2),
                ("v1", "n4", 0.3),
                ("v1", "n5", 1.0),
            ],
        )
    )


class TestContextTables:
    def test_cardinality(self, star_peg):
        context = build_context(star_peg)
        hub = star_peg.id_of(fs("v1"))
        # neighbors that can be 'a': n1, n2, n3, n4; 'b': n1, n2, n5
        assert context.cardinality(hub, "a") == 4
        assert context.cardinality(hub, "b") == 3
        assert context.cardinality(hub, "missing") == 0

    def test_partial_upperbound(self, star_peg):
        context = build_context(star_peg)
        hub = star_peg.id_of(fs("v1"))
        # best edge probability into an 'a'-capable neighbor: n2 at 0.9
        assert context.partial_upperbound(hub, "a") == pytest.approx(0.9)
        # best into 'b': n5 at 1.0
        assert context.partial_upperbound(hub, "b") == pytest.approx(1.0)

    def test_full_upperbound(self, star_peg):
        context = build_context(star_peg)
        hub = star_peg.id_of(fs("v1"))
        # full bound weighs the label: max over neighbors of P(l)·P(e):
        # n1: 0.9*0.2=0.18, n2: 0.8*0.9=0.72, n3: 1*0.2, n4: 1*0.3
        assert context.full_upperbound(hub, "a") == pytest.approx(0.72)
        # b: n1 0.1*0.2, n2 0.2*0.9, n5 1*1 -> 1.0
        assert context.full_upperbound(hub, "b") == pytest.approx(1.0)

    def test_fpu_never_exceeds_ppu(self, star_peg):
        context = build_context(star_peg)
        for node in star_peg.node_ids():
            for label in context.sigma:
                assert context.full_upperbound(node, label) <= \
                    context.partial_upperbound(node, label) + 1e-12

    def test_leaf_sees_hub(self, star_peg):
        context = build_context(star_peg)
        leaf = star_peg.id_of(fs("n3"))
        assert context.cardinality(leaf, "c") == 1
        assert context.partial_upperbound(leaf, "c") == pytest.approx(0.2)

    def test_as_rows(self, star_peg):
        context = build_context(star_peg)
        rows = context.as_rows(star_peg.id_of(fs("v1")))
        assert rows["a"]["c"] == 4
        assert rows["a"]["ppu"] == pytest.approx(0.9)
        assert rows["a"]["fpu"] == pytest.approx(0.72)


class TestReferenceSharingExcluded:
    def test_conflicting_neighbors_not_counted(self):
        peg = build_peg(
            pgd_from_edge_list(
                node_labels={"x": "a", "y": "b", "z": "b"},
                edges=[("x", "y", 1.0), ("x", "z", 1.0), ("y", "z", 1.0)],
                reference_sets=[(("x", "y"), 0.5)],
            )
        )
        context = build_context(peg)
        # {x, y} merged entity neighbors {z} only; singleton {x}'s
        # neighborhood excludes nothing it conflicts with ({y} is fine,
        # the merged {x,y} shares reference x so it is excluded).
        merged = peg.id_of(frozenset({"x", "y"}))
        single_x = peg.id_of(frozenset({"x"}))
        assert context.cardinality(merged, "b") == 1  # only {z}
        # {x}'s b-neighbors: {y} and {z} but NOT {x,y} (shares x).
        assert context.cardinality(single_x, "b") == 2


class TestConditionalContext:
    def test_uses_max_over_own_labels(self):
        peg = build_peg(
            pgd_from_edge_list(
                node_labels={"u": {"a": 0.5, "b": 0.5}, "w": "c"},
                edges=[("u", "w", {("a", "c"): 0.9, ("b", "c"): 0.2})],
            )
        )
        context = build_context(peg)
        node_u = peg.id_of(frozenset({"u"}))
        # w's edge probability depends on u's (unknown) label; the bound
        # maximizes over it: 0.9.
        assert context.partial_upperbound(node_u, "c") == pytest.approx(0.9)
        assert context.full_upperbound(node_u, "c") == pytest.approx(0.9)


class TestSparseIdSpace:
    """Regression: tables must stay addressable by raw node id after
    live merges tombstone ids and the id space goes sparse."""

    def _merged_peg(self):
        from repro.datasets import SyntheticConfig, generate_synthetic_pgd
        from repro.delta import AddEntity, MergeEntities
        from repro.query import QueryEngine

        peg = build_peg(
            generate_synthetic_pgd(
                SyntheticConfig(num_references=10, num_labels=2, seed=8)
            )
        )
        engine = QueryEngine(peg, max_length=2, beta=0.05)
        sigma = sorted(peg.sigma, key=repr)
        engine.apply_updates([
            AddEntity(("ctx-a",), {sigma[0]: 1.0}, 0.9),
            AddEntity(("ctx-b",), {sigma[1]: 1.0}, 0.8),
        ])
        engine.apply_updates([MergeEntities(("ctx-a",), ("ctx-b",))])
        return peg, engine, sigma

    def test_rows_sized_by_id_space_after_merge(self):
        peg, engine, sigma = self._merged_peg()
        context = build_context(peg)
        removed = [n for n in peg.node_ids() if peg.is_removed_id(n)]
        assert removed, "merge must tombstone ids for this regression"
        # Every id in the (sparse) id space reads without error; the
        # merged node's fresh id sits past the tombstones.
        for node in peg.node_ids():
            for label in sigma:
                context.cardinality(node, label)
                context.partial_upperbound(node, label)
                context.full_upperbound(node, label)
        # Tombstoned rows are explicit zeros.
        for node in removed:
            for label in sigma:
                assert context.cardinality(node, label) == 0
                assert context.full_upperbound(node, label) == 0.0

    def test_patched_rows_equal_a_rebuild(self):
        """``apply_updates`` patched the context twice (appended ids,
        then a merge's tombstones): same rows as ``build_context``."""
        peg, engine, _sigma = self._merged_peg()
        rebuilt = build_context(peg)
        assert engine.context.sigma == rebuilt.sigma
        for ours, theirs in zip(engine.context.tables(), rebuilt.tables()):
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes()
        # Nothing dirty, nothing appended: an equal copy, never a view
        # a later patch could write through.
        same = patch_context(rebuilt, peg, ())
        assert same is not rebuilt
        for ours, theirs in zip(same.tables(), rebuilt.tables()):
            assert (ours == theirs).all()
            assert not np.shares_memory(ours, theirs)

    def test_live_rows_match_direct_recomputation(self):
        peg, engine, sigma = self._merged_peg()
        context = build_context(peg)
        for node in peg.node_ids():
            if peg.is_removed_id(node):
                continue
            for label in sigma:
                expected = sum(
                    1
                    for nbr in peg.neighbor_ids(node)
                    if not peg.shares_references_id(node, nbr)
                    and label in peg.possible_labels_id(nbr)
                )
                assert context.cardinality(node, label) == expected, (
                    node, label,
                )


class TestDenseTables:
    def test_tables_repeat_the_scalar_accessors(self, star_peg):
        context = build_context(star_peg)
        c, ppu, fpu = context.tables()
        ids = star_peg.node_ids()
        assert c.shape == ppu.shape == fpu.shape == (len(ids), len(context.sigma))
        assert c.dtype == np.int64 and ppu.dtype == fpu.dtype == np.float64
        # Column-major: one label's column is one contiguous gather source.
        assert all(table.flags.f_contiguous for table in (c, ppu, fpu))
        for label in context.sigma + ("missing",):
            columns = context.columns(label)
            for node in ids:
                assert [column[node] for column in columns] == [
                    context.cardinality(node, label),
                    context.partial_upperbound(node, label),
                    context.full_upperbound(node, label),
                ]

    def test_probability_arrays_made_before_updates_answer_after(self, star_peg):
        """``PegProbabilityArrays`` is a view of the graph's columns: one
        made before an ``apply_updates`` batch — a new label, a new
        entity and edge, a revised edge — gathers the mutated graph."""
        engine = QueryEngine(star_peg, max_length=2, beta=0.05)
        arrays = PegProbabilityArrays(star_peg)
        hub, n3 = star_peg.id_of(fs("v1")), star_peg.id_of(fs("n3"))
        arrays.edge_probabilities([hub], [n3], "c", "a")  # a warm gather
        engine.apply_updates([
            UpdateLabelProbability(("n3",), {"d": 0.5, "a": 0.5}),
            AddEntity(("n6",), {"d": 1.0}, 0.5),
            AddEdge(("v1",), ("n6",), BernoulliEdge(0.4)),
            UpdateEdgeDistribution(("v1",), ("n3",), BernoulliEdge(0.7)),
        ])
        n6 = star_peg.id_of(fs("n6"))
        assert arrays.num_nodes == n6 + 1
        for label in ("a", "b", "c", "d", "missing"):
            assert arrays.label_probabilities(label).tolist() == [
                star_peg.label_probability_id(node, label)
                for node in star_peg.node_ids()
            ]
        assert arrays.label_probabilities("d")[[n3, n6]].tolist() == [0.5, 1.0]
        assert arrays.existence_probabilities()[n6] == 0.5
        found = arrays.edge_probabilities(
            [hub, n3, n6, n3], [n3, hub, hub, n6], "c", "d"
        )
        assert found.tolist() == [0.7, 0.7, 0.4, 0.0]


class TestFullBelowPartial:
    """``fpu <= ppu``, so a zero ``ppu`` means a zero ``fpu`` — what lets
    the neighbourhood bound answer 0 for a choice whose ``ppu`` is 0."""

    @pytest.mark.parametrize(
        "config", [config for _index, config, _seed in _cases()],
        ids=lambda config: config.seed,
    )
    def test_zero_ppu_implies_zero_fpu_on_the_harness_graphs(self, config):
        peg = build_peg(generate_synthetic_pgd(config))
        context = build_context(peg)
        _c, ppu, fpu = context.tables()
        assert (fpu <= ppu).all()
        assert (fpu[ppu == 0.0] == 0.0).all()
        # The column pass is the per-node scalar build, exactly.
        for ours, theirs in zip(context.tables(), scalar_context(peg)):
            assert ours.dtype == theirs.dtype
            assert ours.tolist() == theirs.tolist()

    @pytest.mark.parametrize(
        "edges",
        [
            # Neither path node has a 'z' neighbour: two zero ppu (the
            # same 0.0 object in a freshly built context).
            [("u", "v", 0.9)],
            # Only v has one: choosing u's fpu gives 0, choosing v's
            # gives fpu(v) * ppu(u) = 0 as well.
            [("u", "v", 0.9), ("v", "w", 0.8)],
        ],
        ids=["two-zero-positions", "one-zero-position"],
    )
    def test_zero_positions_bound_the_neighbourhood_by_zero(self, edges):
        peg = build_peg(
            pgd_from_edge_list(
                node_labels={"u": "a", "v": "b", "w": "z"}, edges=edges
            )
        )
        query = QueryGraph(
            {"p": "a", "q": "b", "m": "z"}, [("p", "q"), ("p", "m"), ("q", "m")]
        )
        context = build_context(peg)
        path = QueryPath(("p", "q"))
        stats = compute_path_statistics(query, path)
        nodes = (peg.id_of(fs("u")), peg.id_of(fs("v")))
        assert context.partial_upperbound(nodes[0], "z") == 0.0
        scalar = ScalarCandidateFinder(peg, query, 0.1, context=context)
        assert scalar.neighborhood_upperbound(path, stats, nodes) == 0.0
        finder = CandidateFinder(peg, query, 0.1, context=context)
        bound = finder.neighborhood_upperbound(stats, np.array([nodes]))
        assert bound.tolist() == [0.0]
