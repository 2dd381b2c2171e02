"""Unit tests for repro.query.candidates (context pruning)."""

import pytest

from repro.index import build_context, build_path_index
from repro.peg import build_peg
from repro.pgd import pgd_from_edge_list
from repro.query.candidates import CandidateFinder, compute_path_statistics
from repro.query.decompose import QueryPath
from repro.query.query_graph import QueryGraph
from repro.query.baselines import direct_matches
from repro.testing.reference import ScalarCandidateFinder
from tests.conftest import small_random_peg


def figure4_query():
    return QueryGraph(
        {i: "x" for i in range(1, 7)},
        [(1, 2), (2, 3), (3, 4), (1, 3), (3, 5), (4, 5), (4, 6)],
    )


class TestPathStatistics:
    def test_figure4_neighbors(self):
        """Path (1,2,3,4): neighbors {5, 6}, rv(5) = {3, 4}, one cycle."""
        stats = compute_path_statistics(figure4_query(), QueryPath((1, 2, 3, 4)))
        assert set(stats.neighbors) == {5, 6}
        rv5 = {QueryPath((1, 2, 3, 4)).nodes[p] for p in stats.reverse_neighbors[5]}
        assert rv5 == {3, 4}
        rv6 = {QueryPath((1, 2, 3, 4)).nodes[p] for p in stats.reverse_neighbors[6]}
        assert rv6 == {4}
        # cycle edge (1, 3) at positions (0, 2)
        assert stats.cycles == ((0, 2),)

    def test_no_neighbors_when_path_covers_query(self):
        query = QueryGraph({"a": "x", "b": "y"}, [("a", "b")])
        stats = compute_path_statistics(query, QueryPath(("a", "b")))
        assert stats.neighbors == ()
        assert stats.cycles == ()

    def test_each_cycle_edge_counted_once(self):
        query = QueryGraph(
            {1: "x", 2: "x", 3: "x", 4: "x"},
            [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)],
        )
        stats = compute_path_statistics(query, QueryPath((1, 2, 3, 4)))
        assert sorted(stats.cycles) == [(0, 2), (0, 3), (1, 3)]


@pytest.fixture
def pruning_setup():
    """PEG where context pruning provably removes candidates."""
    peg = build_peg(
        pgd_from_edge_list(
            node_labels={
                # hub1 has two 'a' neighbors with strong edges;
                # hub2 has only one weak 'a' neighbor.
                "hub1": "h", "hub2": "h",
                "a1": "a", "a2": "a", "a3": "a",
                "b1": "b",
            },
            edges=[
                ("hub1", "a1", 0.9),
                ("hub1", "a2", 0.9),
                ("hub1", "b1", 0.9),
                ("hub2", "a3", 0.2),
            ],
        )
    )
    query = QueryGraph(
        {"c": "h", "x": "a", "y": "a", "z": "b"},
        [("c", "x"), ("c", "y"), ("c", "z")],
    )
    index = build_path_index(peg, max_length=1, beta=0.05)
    context = build_context(peg)
    return peg, query, index, context


def node_allowed(setup, alpha, query_node, entity):
    """The oracle's scalar node test, which the array finder's boolean
    vector over the id space must repeat entry for entry."""
    peg, query, index, context = setup
    peg_node = peg.id_of(frozenset({entity}))
    scalar = ScalarCandidateFinder(
        peg, query, alpha=alpha, index=index, context=context
    ).node_allowed(query_node, peg_node)
    vector = CandidateFinder(
        peg, query, alpha=alpha, index=index, context=context
    ).allowed_nodes(query_node)
    assert vector.shape == (len(peg.node_ids()),)
    assert bool(vector[peg_node]) == scalar
    return scalar


class TestNodeLevelPruning:
    def test_cardinality_constraint(self, pruning_setup):
        # 'c' requires two 'a' neighbors and one 'b' neighbor.
        assert node_allowed(pruning_setup, 0.1, "c", "hub1")
        assert not node_allowed(pruning_setup, 0.1, "c", "hub2")

    def test_probability_constraint(self, pruning_setup):
        # With a very high alpha even hub1 fails: its 'a' full upper
        # bound is 0.9 and Pr(label) * 0.9^2 < 0.95.
        assert not node_allowed(pruning_setup, 0.95, "c", "hub1")

    def test_wrong_label_always_pruned(self, pruning_setup):
        assert not node_allowed(pruning_setup, 0.1, "c", "a1")

    def test_label_outside_sigma_prunes_everything(self, pruning_setup):
        peg, _query, index, context = pruning_setup
        query = QueryGraph({"c": "h", "x": "nope"}, [("c", "x")])
        setup = (peg, query, index, context)
        assert not node_allowed(setup, 0.1, "c", "hub1")
        assert not node_allowed(setup, 0.1, "x", "a1")

    def test_context_disabled_keeps_label_check_only(self, pruning_setup):
        peg, query, index, context = pruning_setup
        finder = ScalarCandidateFinder(
            peg, query, alpha=0.1, index=index, context=context,
            use_context=False,
        )
        hub2 = peg.id_of(frozenset({"hub2"}))
        assert finder.node_allowed("c", hub2)


class TestFindCandidates:
    def test_find_prunes_raw_results(self, pruning_setup):
        peg, query, index, context = pruning_setup
        finder = CandidateFinder(
            peg, query, alpha=0.1, index=index, context=context
        )
        path = QueryPath(("x", "c"))
        pruned, raw = finder.find(path)
        assert raw >= len(pruned)
        # hub2's path (a3, hub2) must be pruned: hub2 lacks a second 'a'
        # neighbor and any 'b' neighbor.
        hub2 = peg.id_of(frozenset({"hub2"}))
        assert all(hub2 not in c.nodes for c in pruned)

    def test_pruning_is_sound(self):
        """Pruned candidate sets still produce all final matches."""
        peg = small_random_peg(seed=21, num_references=50)
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[0]},
            [("a", "b"), ("b", "c")],
        )
        index = build_path_index(peg, max_length=2, beta=0.1)
        context = build_context(peg)
        alpha = 0.3
        finder = CandidateFinder(
            peg, query, alpha=alpha, index=index, context=context
        )
        path = QueryPath(("a", "b", "c"))
        pruned, _ = finder.find(path)
        kept = {c.nodes for c in pruned}
        # Every true match's path must survive pruning.
        for match in direct_matches(peg, query, alpha):
            mapping = dict(match.mapping)
            nodes = tuple(
                peg.id_of(mapping[q]) for q in ("a", "b", "c")
            )
            assert nodes in kept

    def test_on_demand_fallback_below_beta(self):
        peg = small_random_peg(seed=22, num_references=50)
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1]}, [("a", "b")]
        )
        index = build_path_index(peg, max_length=1, beta=0.5)
        context = build_context(peg)
        finder = CandidateFinder(
            peg, query, alpha=0.2, index=index, context=context,
            use_context=False,
        )
        pruned, raw = finder.find(QueryPath(("a", "b")))
        # Below beta the finder hands out what an index built at its
        # alpha would: the same rows carrying the same bits.
        expected = build_path_index(peg, max_length=1, beta=0.2).lookup(
            query.label_sequence(("a", "b")), 0.2
        )
        assert sorted(
            (c.nodes, c.prle.hex(), c.prn.hex()) for c in pruned
        ) == sorted((c.nodes, c.prle.hex(), c.prn.hex()) for c in expected)
        assert raw == len(expected) > 0
