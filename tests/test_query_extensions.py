"""Unit tests for the query extensions: explain() and top-k matching."""

import pytest

from repro.query import (
    QueryEngine,
    QueryGraph,
    direct_matches,
    explain,
    top_k_matches,
)
from repro.utils.errors import QueryError
from tests.conftest import small_random_peg


@pytest.fixture(scope="module")
def setup():
    peg = small_random_peg(seed=90, num_references=80)
    engine = QueryEngine(peg, max_length=2, beta=0.05)
    return peg, engine


class TestExplain:
    def test_explain_contains_key_sections(self, setup):
        peg, engine = setup
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[0]},
            [("a", "b"), ("b", "c")],
        )
        result = engine.query(query, 0.3)
        text = explain(result)
        assert "decomposition:" in text
        assert "search space:" in text
        assert "timings (ms):" in text
        assert f"matches: {len(result.matches)}" in text

    def test_explain_prints_realized_beside_estimated_cost(self, setup):
        peg, engine = setup
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[0]},
            [("a", "b"), ("b", "c")],
        )
        result = engine.query(query, 0.3)
        plan_line = next(
            line for line in explain(result).splitlines()
            if line.startswith("  plan:")
        )
        assert plan_line.endswith(
            f"estimated cost {result.plan.estimated_cost:.4g}  "
            f"realized search space {result.search_space_path:.4g}"
        )

    def test_explain_truncates_matches(self, setup):
        peg, engine = setup
        sigma = sorted(peg.sigma)
        query = QueryGraph({"a": sigma[0], "b": sigma[1]}, [("a", "b")])
        result = engine.query(query, 0.1)
        if len(result.matches) > 2:
            text = explain(result, max_matches=2)
            assert "more" in text

    def test_explain_empty_result(self, setup):
        peg, engine = setup
        query = QueryGraph({"a": "no-such-label"}, [])
        text = explain(engine.query(query, 0.5))
        assert "matches: 0" in text


class TestTopK:
    def test_returns_k_most_probable(self, setup):
        peg, engine = setup
        sigma = sorted(peg.sigma)
        query = QueryGraph({"a": sigma[0], "b": sigma[1]}, [("a", "b")])
        k = 5
        top = top_k_matches(engine, query, k, floor=0.01)
        everything = direct_matches(peg, query, 0.01)
        expected = sorted(
            everything, key=lambda m: (-m.probability, repr(m.nodes))
        )[:k]
        assert [m.probability for m in top] == [
            m.probability for m in expected
        ]

    def test_fewer_matches_than_k(self, setup):
        peg, engine = setup
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[2], "d": sigma[0]},
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
        )
        top = top_k_matches(engine, query, 1000, floor=0.05)
        oracle = direct_matches(peg, query, 0.05)
        assert len(top) == len(oracle)

    def test_sorted_descending(self, setup):
        peg, engine = setup
        sigma = sorted(peg.sigma)
        query = QueryGraph({"a": sigma[0], "b": sigma[1]}, [("a", "b")])
        top = top_k_matches(engine, query, 10, floor=0.01)
        probs = [m.probability for m in top]
        assert probs == sorted(probs, reverse=True)

    def test_parameter_validation(self, setup):
        _, engine = setup
        query = QueryGraph({"a": "L0"}, [])
        with pytest.raises(QueryError):
            top_k_matches(engine, query, 0)
        with pytest.raises(QueryError):
            top_k_matches(engine, query, 1, shrink=1.5)
        with pytest.raises(QueryError):
            top_k_matches(engine, query, 1, start_alpha=0.1, floor=0.5)


class ShufflingEngine:
    """Engine proxy emitting matches in scrambled order.

    ``top_k_matches`` must not rely on the engine's emission order —
    that order is not part of the engine contract (regression: top-k
    used to truncate whatever order arrived).
    """

    def __init__(self, engine, seed=0):
        import random

        self._engine = engine
        self._rng = random.Random(seed)

    def query(self, query, alpha, options=None):
        result = self._engine.query(query, alpha, options)
        shuffled = list(result.matches)
        self._rng.shuffle(shuffled)
        result.matches = shuffled
        return result


class TestTopKOrdering:
    def test_sorted_regardless_of_engine_order(self, setup):
        peg, engine = setup
        sigma = sorted(peg.sigma)
        query = QueryGraph({"a": sigma[0], "b": sigma[1]}, [("a", "b")])
        k = 5
        expected = sorted(
            (m.probability for m in direct_matches(peg, query, 0.01)),
            reverse=True,
        )[:k]
        top = top_k_matches(ShufflingEngine(engine, seed=99), query, k,
                            floor=0.01)
        assert [m.probability for m in top] == pytest.approx(expected)

    def test_tie_handling_is_deterministic(self, setup):
        peg, engine = setup
        sigma = sorted(peg.sigma)
        query = QueryGraph({"a": sigma[0], "b": sigma[1]}, [("a", "b")])
        picks = [
            top_k_matches(ShufflingEngine(engine, seed=s), query, 3,
                          floor=0.01)
            for s in range(5)
        ]
        canonical = [[m.canonical_key() for m in pick] for pick in picks]
        assert all(keys == canonical[0] for keys in canonical[1:])
