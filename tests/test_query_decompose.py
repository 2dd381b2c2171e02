"""Unit tests for repro.query.decompose (paths, cost model, SET COVER)."""

import itertools
import math
import random

import pytest

from repro.datasets import random_query
from repro.query.decompose import (
    Decomposition,
    QueryPath,
    decompose_query,
    enumerate_candidate_paths,
    path_cost,
    path_degree,
    path_density,
)
from repro.query.query_graph import QueryGraph
from repro.utils.errors import QueryError


def flat_estimator(label_seq, alpha):
    return 10.0


def figure4_query():
    """The paper's Figure 4: path 1-2-3-4 with extra nodes 5, 6.

    Edges: path (1,2),(2,3),(3,4); cycle edge (1,3); neighbors
    5 adjacent to 3 and 4; 6 adjacent to 4 (degree example).
    """
    return QueryGraph(
        {i: "x" for i in range(1, 7)},
        [(1, 2), (2, 3), (3, 4), (1, 3), (3, 5), (4, 5), (4, 6)],
    )


class TestQueryPath:
    def test_length_and_edges(self):
        path = QueryPath((1, 2, 3))
        assert path.length == 2
        assert path.path_edges == frozenset(
            {frozenset({1, 2}), frozenset({2, 3})}
        )

    def test_position_of(self):
        assert QueryPath((7, 8, 9)).position_of(8) == 1


class TestCostModel:
    def test_path_degree_figure4(self):
        query = figure4_query()
        path = QueryPath((1, 2, 3, 4))
        # degrees: 1->2, 2->2, 3->5 (wait: 3 adj to 2,4,1,5), 4->3(3,5,6)
        # From the paper: degree of path (1,2,3,4) is 5 in their figure;
        # our reconstruction gives sum(deg) - 2*length.
        expected = sum(query.degree(n) for n in (1, 2, 3, 4)) - 2 * 3
        assert path_degree(query, path) == expected

    def test_path_density_figure4(self):
        query = figure4_query()
        path = QueryPath((1, 2, 3, 4))
        # K = edges among {1,2,3,4} = path edges + (1,3) = 4; M = 4
        assert path_density(query, path) == pytest.approx(2 * 4 / (4 * 3))

    def test_density_single_node(self):
        query = QueryGraph({"x": "a"}, [])
        assert path_density(query, QueryPath(("x",))) == 1.0

    def test_cost_decreases_with_degree_and_density(self):
        query = figure4_query()
        dense_path = QueryPath((1, 2, 3, 4))
        sparse_path = QueryPath((4, 6))
        # same estimate: denser/better-connected path is cheaper
        assert path_cost(query, dense_path, 10.0) < path_cost(
            query, sparse_path, 100.0
        )

    def test_degree_zero_path_costs_its_estimate_over_density(self):
        """A path holding every query edge at its nodes joins nothing:
        its degree floors at 1, so it is priced at its cardinality over
        its density, not ~1e9x that."""
        query = QueryGraph(
            {"a": "x", "b": "y", "c": "x"}, [("a", "b"), ("b", "c")]
        )
        whole = QueryPath(("a", "b", "c"))
        assert path_degree(query, whole) == 0
        density = path_density(query, whole)
        assert density == pytest.approx(2 / 3)
        assert path_cost(query, whole, 10.0) == pytest.approx(10.0 / density)
        # A degree-1 path of the same density costs the same.
        longer = QueryGraph(
            {"a": "x", "b": "y", "c": "x", "d": "y"},
            [("a", "b"), ("b", "c"), ("c", "d")],
        )
        prefix = QueryPath(("a", "b", "c"))
        assert path_degree(longer, prefix) == 1
        assert path_cost(longer, prefix, 10.0) == path_cost(query, whole, 10.0)
        isolated = QueryGraph({"x": "a"}, [])
        assert path_cost(isolated, QueryPath(("x",)), 7.0) == 7.0


class TestEnumerate:
    def test_all_paths_within_length(self):
        query = QueryGraph(
            {"a": "x", "b": "x", "c": "x"}, [("a", "b"), ("b", "c")]
        )
        paths = enumerate_candidate_paths(query, 2)
        node_sets = {p.nodes for p in paths}
        # undirected canonical: a-b, b-c, a-b-c
        assert len(node_sets) == 3

    def test_isolated_node_gets_single_path(self):
        query = QueryGraph({"a": "x", "b": "x"}, [])
        paths = enumerate_candidate_paths(query, 2)
        assert {p.nodes for p in paths} == {("a",), ("b",)}

    def test_max_length_respected(self):
        query = figure4_query()
        for path in enumerate_candidate_paths(query, 2):
            assert path.length <= 2

    def test_invalid_max_length(self):
        with pytest.raises(QueryError):
            enumerate_candidate_paths(figure4_query(), 0)


class TestDecomposition:
    def test_greedy_covers_everything(self):
        query = figure4_query()
        decomposition = decompose_query(
            query, flat_estimator, alpha=0.5, max_length=3
        )
        covered = set()
        for path in decomposition.paths:
            covered |= path.path_edges
        assert covered == set(query.edges)

    def test_random_covers_everything(self):
        query = figure4_query()
        decomposition = decompose_query(
            query, flat_estimator, alpha=0.5, max_length=3,
            strategy="random", seed=3,
        )
        covered = set()
        for path in decomposition.paths:
            covered |= path.path_edges
        assert covered == set(query.edges)

    def test_join_predicates_symmetrical(self):
        query = figure4_query()
        decomposition = decompose_query(
            query, flat_estimator, alpha=0.5, max_length=2
        )
        for (i, j), predicates in decomposition.join_predicates.items():
            flipped = decomposition.predicates_between(j, i)
            assert flipped == tuple((pj, pi) for pi, pj in predicates)
            assert j in decomposition.joins_with[i]
            assert i in decomposition.joins_with[j]

    def test_exclusive_coverage_partitions_query(self):
        query = figure4_query()
        decomposition = decompose_query(
            query, flat_estimator, alpha=0.5, max_length=2
        )
        all_nodes = [
            n for nodes in decomposition.covered_nodes.values() for n in nodes
        ]
        all_edges = [
            e for edges in decomposition.covered_edges.values() for e in edges
        ]
        assert sorted(all_nodes) == sorted(query.nodes)
        assert len(all_nodes) == len(set(all_nodes))
        assert sorted(all_edges, key=repr) == sorted(query.edges, key=repr)
        assert len(all_edges) == len(set(all_edges))

    def test_selective_paths_preferred(self):
        """Greedy picks the path whose index estimate is most selective."""
        query = QueryGraph(
            {"a": "rare", "b": "rare", "c": "common", "d": "common"},
            [("a", "b"), ("b", "c"), ("c", "d")],
        )

        def estimator(label_seq, alpha):
            return 1.0 if "rare" in label_seq else 1000.0

        decomposition = decompose_query(query, estimator, 0.5, max_length=2)
        first = decomposition.paths[0]
        assert "rare" in query.label_sequence(first.nodes)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(QueryError):
            decompose_query(
                figure4_query(), flat_estimator, 0.5, 2, strategy="magic"
            )

    def test_incomplete_cover_detected(self):
        query = figure4_query()
        with pytest.raises(QueryError):
            Decomposition(query=query, paths=[QueryPath((1, 2))])

    def test_single_node_query(self):
        query = QueryGraph({"only": "a"}, [])
        decomposition = decompose_query(query, flat_estimator, 0.5, 2)
        assert [p.nodes for p in decomposition.paths] == [("only",)]


class TestExactStrategy:
    def test_exact_covers_everything(self):
        query = figure4_query()
        decomposition = decompose_query(
            query, flat_estimator, 0.5, max_length=3, strategy="exact"
        )
        assert decomposition.strategy_used == "exact"
        covered = set()
        for path in decomposition.paths:
            covered |= path.path_edges
        assert covered == set(query.edges)

    def test_exact_optimal_for_known_instance(self):
        """Greedy is lured by a high-gain path; exact finds the cheaper
        two-path cover."""
        query = QueryGraph(
            {"a": "x", "b": "x", "c": "x", "d": "x"},
            [("a", "b"), ("b", "c"), ("c", "d")],
        )

        def estimator(label_seq, alpha):
            # 3-edge path is just barely cheap per edge; the two short
            # 1-edge paths at the ends are much cheaper together.
            return {2: 2.0, 3: 100.0, 4: 500.0}[len(label_seq)]

        greedy = decompose_query(query, estimator, 0.5, 3, strategy="greedy")
        exact = decompose_query(query, estimator, 0.5, 3, strategy="exact")
        assert exact.estimated_cost <= greedy.estimated_cost * (1 + 1e-12)

    def test_exact_single_node_query(self):
        query = QueryGraph({"only": "a"}, [])
        decomposition = decompose_query(
            query, flat_estimator, 0.5, 2, strategy="exact"
        )
        assert decomposition.strategy_used == "exact"
        assert [p.nodes for p in decomposition.paths] == [("only",)]

    def test_cutoff_falls_back_to_greedy(self):
        labels = {i: "x" for i in range(17)}
        edges = [(i, i + 1) for i in range(16)]
        query = QueryGraph(labels, edges)
        decomposition = decompose_query(
            query, flat_estimator, 0.5, 2, strategy="exact"
        )
        assert decomposition.strategy_used == "greedy"
        covered = set()
        for path in decomposition.paths:
            covered |= path.path_edges
        assert covered == set(query.edges)


class TestStrategyInvariants:
    """Every strategy yields exclusive coverage, symmetric join
    predicates and a positive estimated cost."""

    def _random_cases(self):
        import random

        from repro.datasets import random_query

        rng = random.Random(1207)
        for _ in range(12):
            num_nodes = rng.randint(2, 5)
            max_edges = num_nodes * (num_nodes - 1) // 2
            num_edges = rng.randint(num_nodes - 1, max_edges)
            yield random_query(
                num_nodes, num_edges, ("A", "B", "C"),
                seed=rng.randrange(2**31),
            )

    def _variable_estimator(self, label_seq, alpha):
        return 1.0 + 7.0 * len(label_seq) + (3.0 if "B" in label_seq else 0.0)

    @pytest.mark.parametrize("strategy", ["greedy", "exact", "random"])
    def test_invariants(self, strategy):
        for query in self._random_cases():
            decomposition = decompose_query(
                query, self._variable_estimator, 0.4, max_length=2,
                strategy=strategy, seed=5,
            )
            # exclusive node/edge coverage partitions the query
            nodes = [
                n
                for ns in decomposition.covered_nodes.values()
                for n in ns
            ]
            edges = [
                e
                for es in decomposition.covered_edges.values()
                for e in es
            ]
            def edge_key(edge):
                # repr() of equal frozensets is insertion-order
                # dependent; sort by member reprs instead.
                return tuple(sorted(map(repr, edge)))

            assert sorted(nodes, key=repr) == sorted(query.nodes, key=repr)
            assert len(nodes) == len(set(nodes))
            assert sorted(edges, key=edge_key) == sorted(
                query.edges, key=edge_key
            )
            assert len(edges) == len(set(edges))
            # symmetric predicates_between
            for (i, j), predicates in decomposition.join_predicates.items():
                assert decomposition.predicates_between(i, j) == predicates
                assert decomposition.predicates_between(j, i) == tuple(
                    (pj, pi) for pi, pj in predicates
                )
            assert decomposition.estimated_cost > 0.0


class TestExactOptimum:
    """``strategy="exact"`` is the cost model's optimum, within one work
    budget."""

    @staticmethod
    def _cases():
        rng = random.Random(5201)
        queries = [
            # An isolated node is an element of the universe too.
            QueryGraph(
                {"a": "A", "b": "B", "c": "C", "d": "A"},
                [("a", "b"), ("b", "c")],
            )
        ]
        for _ in range(40):
            num_nodes = rng.randint(2, 5)
            max_edges = min(6, num_nodes * (num_nodes - 1) // 2)
            queries.append(random_query(
                num_nodes, rng.randint(num_nodes - 1, max_edges),
                ("A", "B", "C"), seed=rng.randrange(2**31),
            ))
        cases = [(query, None) for query in queries]
        # Paths of at most L edges: the optimum is the whole query.
        cases += [
            (QueryGraph(
                {"a": "A", "b": "B", "c": "A"}, [("a", "b"), ("b", "c")]
            ), 2),
            (QueryGraph(
                {"a": "A", "b": "B", "c": "C", "d": "A"},
                [("a", "b"), ("b", "c"), ("c", "d")],
            ), 3),
        ]
        for query, max_length in cases:
            if max_length is None:
                max_length = rng.randint(1, 3)
                while len(enumerate_candidate_paths(query, max_length)) > 20:
                    max_length -= 1
            # Every estimate is >= 100 and no path's degree * density
            # exceeds 12 here, so every path costs more than 1.
            estimates: dict = {}

            def estimator(label_seq, alpha, estimates=estimates):
                return estimates.setdefault(
                    tuple(label_seq), 100.0 + 1000.0 * rng.random()
                )

            yield query, max_length, estimator

    @staticmethod
    def _brute_force_minimum(query, max_length, estimator) -> tuple:
        """Least cost product over every covering subset of candidates,
        and the first subset (as a list of paths) that reaches it.

        With every cost above 1 a redundant path only adds cost, so the
        minimum is reached by a subset of at most one path per element.
        """
        isolated = [n for n in query.nodes if query.degree(n) == 0]
        universe = set(query.edges) | {("node", n) for n in isolated}
        candidates = enumerate_candidate_paths(query, max_length)
        covers = [
            path.path_edges
            | {("node", n) for n in path.nodes if n in isolated}
            for path in candidates
        ]
        costs = [
            path_cost(
                query, path, estimator(query.label_sequence(path.nodes), 0.5)
            )
            for path in candidates
        ]
        assert min(costs) > 1.0
        best, best_subset = math.inf, ()
        for size in range(1, len(universe) + 1):
            for subset in itertools.combinations(range(len(candidates)), size):
                if set().union(*(covers[i] for i in subset)) == universe:
                    cost = math.prod(costs[i] for i in subset)
                    if cost < best:
                        best, best_subset = cost, subset
        return best, [candidates[i] for i in best_subset]

    def test_exact_cost_is_the_brute_force_minimum(self):
        """Exact reaches the brute-force minimum; on a query that is
        itself a path of at most ``L`` edges that minimum is the one
        whole path, and exact returns exactly it."""
        greedy_worse = short_paths = 0
        for query, max_length, estimator in self._cases():
            best, optimum = self._brute_force_minimum(
                query, max_length, estimator
            )
            exact = decompose_query(
                query, estimator, 0.5, max_length, strategy="exact"
            )
            greedy = decompose_query(
                query, estimator, 0.5, max_length, strategy="greedy"
            )
            context = (query.nodes, sorted(map(sorted, query.edges)))
            assert exact.strategy_used == "exact", context
            assert exact.estimated_cost == pytest.approx(best, rel=1e-12), \
                context
            assert greedy.estimated_cost >= best * (1 - 1e-12), context
            greedy_worse += greedy.estimated_cost > best * (1 + 1e-9)
            whole = [
                path for path in enumerate_candidate_paths(query, max_length)
                if len(path.nodes) == len(query.nodes)
                and path.path_edges == set(query.edges)
            ]
            if whole and len(query.edges) > 1:
                short_paths += 1
                assert optimum == whole, context
                assert exact.paths == whole, context
        assert greedy_worse > 0  # the oracle separates the strategies
        assert short_paths >= 2

    def test_one_work_budget(self):
        """``2^elements * candidates <= 2^20``: a dense 6-node query at
        ``L=3`` has more candidates than the old cap of 64 and still gets
        the optimum; the complete 7-node query and the paper's 10-node
        queries fall back to greedy at every ``L``."""
        sigma = ("A", "B", "C")
        dense = random_query(6, 10, sigma, seed=0)
        assert len(enumerate_candidate_paths(dense, 3)) > 64
        assert decompose_query(
            dense, flat_estimator, 0.5, 3, strategy="exact"
        ).strategy_used == "exact"
        for nodes, edges in ((7, 21), (10, 20), (10, 40)):
            query = random_query(nodes, edges, sigma, seed=0)
            for max_length in (1, 2, 3):
                decomposition = decompose_query(
                    query, flat_estimator, 0.5, max_length, strategy="exact"
                )
                assert decomposition.strategy_used == "greedy", (
                    nodes, edges, max_length,
                )


class TestPlanStability:
    """Regression: equal-efficiency ties break on the canonical path
    key, so plans are identical across PYTHONHASHSEED values."""

    SCRIPT = r"""
import sys
from repro.query.decompose import decompose_query
from repro.query.query_graph import QueryGraph

# String node ids: set/dict iteration order is hash-seed dependent,
# and the flat estimator makes every same-length path tie.
labels = {name: "L" for name in ("ant", "bee", "cat", "dog", "eel", "fox")}
edges = [("ant", "bee"), ("bee", "cat"), ("cat", "dog"), ("dog", "eel"),
         ("eel", "fox"), ("ant", "fox"), ("bee", "eel")]
query = QueryGraph(labels, edges)
for strategy in ("greedy", "exact"):
    decomposition = decompose_query(
        query, lambda seq, alpha: 10.0, 0.5, 2, strategy=strategy
    )
    print(strategy, [list(p.nodes) for p in decomposition.paths])
"""

    def test_plans_identical_across_hash_seeds(self):
        import os
        import subprocess
        import sys

        outputs = set()
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (
                    os.path.join(os.path.dirname(__file__), "..", "src"),
                    os.environ.get("PYTHONPATH"),
                ) if p
            )
            result = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1, outputs
