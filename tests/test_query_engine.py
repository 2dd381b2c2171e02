"""Unit tests for repro.query.engine (the full online pipeline)."""

import pytest

from repro.peg import build_peg
from repro.pgd import pgd_from_edge_list
from repro.query import QueryEngine, QueryGraph, QueryOptions, direct_matches
from repro.storage import DiskPathStore
from repro.utils.errors import QueryError
from tests.conftest import small_random_peg


def match_keys(matches):
    return {(m.nodes, m.edges, round(m.probability, 9)) for m in matches}


@pytest.fixture(scope="module")
def engine_setup():
    peg = small_random_peg(seed=50, num_references=80)
    engine = QueryEngine(peg, max_length=2, beta=0.1)
    return peg, engine


class TestQueryValidation:
    def test_alpha_bounds(self, engine_setup):
        peg, engine = engine_setup
        query = QueryGraph({"a": "L0"}, [])
        with pytest.raises(QueryError):
            engine.query(query, alpha=0.0)
        with pytest.raises(QueryError):
            engine.query(query, alpha=1.5)


class TestResultsMatchOracle:
    @pytest.mark.parametrize("alpha", [0.2, 0.4, 0.7])
    def test_chain_query(self, engine_setup, alpha):
        peg, engine = engine_setup
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[2]},
            [("a", "b"), ("b", "c")],
        )
        result = engine.query(query, alpha)
        assert match_keys(result.matches) == match_keys(
            direct_matches(peg, query, alpha)
        )

    def test_triangle_query(self, engine_setup):
        peg, engine = engine_setup
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[0], "c": sigma[1]},
            [("a", "b"), ("b", "c"), ("a", "c")],
        )
        result = engine.query(query, 0.2)
        assert match_keys(result.matches) == match_keys(
            direct_matches(peg, query, 0.2)
        )

    def test_single_node_query(self, engine_setup):
        peg, engine = engine_setup
        sigma = sorted(peg.sigma)
        query = QueryGraph({"only": sigma[0]}, [])
        result = engine.query(query, 0.6)
        assert match_keys(result.matches) == match_keys(
            direct_matches(peg, query, 0.6)
        )

    def test_alpha_below_beta_falls_back_on_demand(self, engine_setup):
        peg, engine = engine_setup
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1]}, [("a", "b")]
        )
        result = engine.query(query, 0.05)  # below beta = 0.1
        assert match_keys(result.matches) == match_keys(
            direct_matches(peg, query, 0.05)
        )


class TestOptionsAndBaselineVariants:
    @pytest.mark.parametrize(
        "options",
        [
            QueryOptions(decomposition="random", seed=5),
            QueryOptions(use_context_pruning=False),
            QueryOptions(
                use_structure_reduction=False, use_upperbound_reduction=False
            ),
            QueryOptions(use_upperbound_reduction=False),
        ],
        ids=[
            "random-decomposition",
            "no-context",
            "no-reduction",
            "structure-only",
        ],
    )
    def test_variants_return_identical_answers(self, engine_setup, options):
        peg, engine = engine_setup
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[0], "d": sigma[2]},
            [("a", "b"), ("b", "c"), ("c", "d")],
        )
        baseline = engine.query(query, 0.25)
        variant = engine.query(query, 0.25, options)
        assert match_keys(variant.matches) == match_keys(baseline.matches)


class TestStatistics:
    def test_search_space_progression(self, engine_setup):
        peg, engine = engine_setup
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[0]},
            [("a", "b"), ("b", "c")],
        )
        result = engine.query(query, 0.3)
        assert result.search_space_path >= result.search_space_context
        assert result.search_space_context >= result.search_space_final
        assert set(result.timings) >= {"plan", "lookup"}

    def test_no_reduction_final_space_not_smaller(self, engine_setup):
        peg, engine = engine_setup
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[0]},
            [("a", "b"), ("b", "c")],
        )
        with_reduction = engine.query(query, 0.3)
        without = engine.query(
            query,
            0.3,
            QueryOptions(
                use_structure_reduction=False, use_upperbound_reduction=False
            ),
        )
        assert without.search_space_final >= with_reduction.search_space_final

    def test_offline_stats(self, engine_setup):
        _, engine = engine_setup
        stats = engine.offline_stats()
        assert stats["offline_seconds"] > 0
        assert "path_index" in stats["offline_timings"]
        assert "context" in stats["offline_timings"]


class TestDiskBackedEngine:
    def test_disk_store_engine_equivalent(self, tmp_path):
        peg = small_random_peg(seed=51, num_references=60)
        sigma = sorted(peg.sigma)
        memory_engine = QueryEngine(peg, max_length=2, beta=0.1)
        disk_engine = QueryEngine(
            peg,
            max_length=2,
            beta=0.1,
            store=DiskPathStore(str(tmp_path / "idx")),
        )
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[2]},
            [("a", "b"), ("b", "c")],
        )
        assert match_keys(disk_engine.query(query, 0.3).matches) == \
            match_keys(memory_engine.query(query, 0.3).matches)


class TestConditionalEngine:
    def test_correlated_edges_end_to_end(self):
        peg = build_peg(
            pgd_from_edge_list(
                node_labels={
                    "x": {"a": 0.7, "b": 0.3},
                    "y": "b",
                    "z": {"a": 0.5, "b": 0.5},
                },
                edges=[
                    ("x", "y", {("a", "b"): 0.9, ("b", "b"): 0.2}),
                    ("y", "z", {("a", "b"): 0.8, ("b", "b"): 0.1}),
                ],
            )
        )
        engine = QueryEngine(peg, max_length=2, beta=0.05)
        query = QueryGraph(
            {"u": "a", "v": "b", "w": "a"}, [("u", "v"), ("v", "w")]
        )
        result = engine.query(query, 0.2)
        assert match_keys(result.matches) == match_keys(
            direct_matches(peg, query, 0.2)
        )
        if result.matches:
            # 0.7 (x:a) * 1.0 (y:b) * 0.5 (z:a) * 0.9 * 0.8
            assert result.matches[0].probability == pytest.approx(
                0.7 * 0.5 * 0.9 * 0.8
            )


class TestReductionBackendOption:
    def test_unknown_backend_rejected(self, engine_setup):
        peg, engine = engine_setup
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1]}, [("a", "b")]
        )
        with pytest.raises(QueryError):
            engine.query(
                query, 0.3, QueryOptions(reduction_backend="gpu")
            )

    def test_backends_agree_end_to_end(self, engine_setup):
        peg, engine = engine_setup
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[0]},
            [("a", "b"), ("b", "c")],
        )
        for alpha in (0.2, 0.4):
            python = engine.query(
                query, alpha, QueryOptions(reduction_backend="python")
            )
            vectorized = engine.query(
                query, alpha, QueryOptions(reduction_backend="vectorized")
            )
            assert match_keys(python.matches) == match_keys(vectorized.matches)
            assert python.search_space_final == vectorized.search_space_final
