"""Unit tests for repro.query.plan (cache, exact strategy, feedback)."""

import pytest

from repro.datasets import SyntheticConfig, generate_synthetic_pgd, random_query
from repro.peg import build_peg
from repro.query import (
    EstimatorFeedback,
    QueryEngine,
    QueryGraph,
    QueryOptions,
)
from repro.query.decompose import decompose_query
from repro.query.plan import plan_key


def flat_estimator(label_seq, alpha):
    return 10.0


@pytest.fixture(scope="module")
def engine():
    peg = build_peg(
        generate_synthetic_pgd(
            SyntheticConfig(num_references=30, num_labels=3, seed=11)
        )
    )
    return QueryEngine(peg, max_length=2, beta=0.05)


def triangle(prefix: str, sigma) -> QueryGraph:
    names = [f"{prefix}{i}" for i in range(3)]
    labels = {name: sigma[i % len(sigma)] for i, name in enumerate(names)}
    return QueryGraph(
        labels, [(names[0], names[1]), (names[1], names[2]),
                 (names[0], names[2])]
    )


class TestPlanCache:
    def test_second_plan_is_a_cache_hit(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("a", sigma)
        engine.planner.cache.clear()
        _, first = engine.planner.plan(query, 0.3, QueryOptions())
        _, second = engine.planner.plan(query, 0.3, QueryOptions())
        assert not first.cached and second.cached
        assert second.source == "cache"

    def test_cached_plan_rehydrates_onto_renamed_query(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("a", sigma)
        renamed = triangle("zz", sigma)
        engine.planner.cache.clear()
        planned, _ = engine.planner.plan(query, 0.3, QueryOptions())
        rehydrated, info = engine.planner.plan(renamed, 0.3, QueryOptions())
        assert info.cached
        # The rehydrated plan addresses the renamed query's own nodes
        # and is isomorphic to the original plan.
        for path in rehydrated.paths:
            assert all(node in renamed.nodes for node in path.nodes)
        assert sorted(
            tuple(renamed.label_sequence(p.nodes)) for p in rehydrated.paths
        ) == sorted(
            tuple(query.label_sequence(p.nodes)) for p in planned.paths
        )
        assert rehydrated.estimated_cost == planned.estimated_cost
        # The rehydrated decomposition covers the renamed query exactly
        # (Decomposition.__post_init__ would raise otherwise) and the
        # evaluation agrees with a fresh plan.
        fresh = engine.query(
            renamed, 0.3, QueryOptions(use_plan_cache=False)
        )
        cached = engine.query(renamed, 0.3)
        assert sorted(
            (m.nodes, round(m.probability, 9)) for m in cached.matches
        ) == sorted(
            (m.nodes, round(m.probability, 9)) for m in fresh.matches
        )

    def test_milli_rounded_alpha_shares_a_plan(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("m", sigma)
        engine.planner.cache.clear()
        _, first = engine.planner.plan(query, 0.45, QueryOptions())
        _, second = engine.planner.plan(query, 0.4504, QueryOptions())
        _, third = engine.planner.plan(query, 0.46, QueryOptions())
        assert not first.cached and second.cached and not third.cached

    def test_graph_version_invalidates(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("v", sigma)
        options = QueryOptions()
        key_before = plan_key(
            query, 0.3, options.decomposition, options.seed,
            engine.graph_version, engine.max_length,
        )
        key_after = plan_key(
            query, 0.3, options.decomposition, options.seed,
            engine.graph_version + 1, engine.max_length,
        )
        assert key_before != key_after

    def test_unseeded_random_plans_never_cached(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("r", sigma)
        engine.planner.cache.clear()
        options = QueryOptions(decomposition="random", seed=None)
        engine.planner.plan(query, 0.3, options)
        engine.planner.plan(query, 0.3, options)
        assert len(engine.planner.cache) == 0
        seeded = QueryOptions(decomposition="random", seed=7)
        _, first = engine.planner.plan(query, 0.3, seeded)
        _, second = engine.planner.plan(query, 0.3, seeded)
        assert not first.cached and second.cached

    def test_feedback_setting_is_part_of_the_key(self, engine):
        """A plan costed with corrections must not answer a request
        that asked for raw histogram estimates (different cost models)."""
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("k", sigma)
        engine.planner.cache.clear()
        _, with_feedback = engine.planner.plan(query, 0.3, QueryOptions())
        _, without = engine.planner.plan(
            query, 0.3, QueryOptions(use_estimator_feedback=False)
        )
        assert not with_feedback.cached and not without.cached
        assert len(engine.planner.cache) == 2
        _, again = engine.planner.plan(
            query, 0.3, QueryOptions(use_estimator_feedback=False)
        )
        assert again.cached

    def test_use_plan_cache_false_bypasses(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("b", sigma)
        engine.planner.cache.clear()
        options = QueryOptions(use_plan_cache=False)
        engine.planner.plan(query, 0.3, options)
        _, info = engine.planner.plan(query, 0.3, options)
        assert not info.cached
        assert len(engine.planner.cache) == 0


class TestExactStrategy:
    def test_exact_never_costs_more_than_greedy(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        for seed in range(8):
            query = random_query(3, 3, sigma, seed=seed)
            greedy = decompose_query(
                query, engine.index.estimate_cardinality, 0.3,
                engine.max_length, strategy="greedy",
            )
            exact = decompose_query(
                query, engine.index.estimate_cardinality, 0.3,
                engine.max_length, strategy="exact",
            )
            assert exact.strategy_used == "exact"
            assert exact.estimated_cost <= greedy.estimated_cost * (1 + 1e-9)

    def test_exact_is_the_default(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        engine.planner.cache.clear()
        _, info = engine.planner.plan(triangle("d", sigma), 0.3, QueryOptions())
        assert info.strategy == info.source == "exact"

    def test_exact_falls_back_past_cutoff(self):
        # A path query of 17 nodes: 2^16 covered-edge states times 31
        # candidate paths is past the exact DP's work budget.
        labels = {i: "x" for i in range(17)}
        edges = [(i, i + 1) for i in range(16)]
        query = QueryGraph(labels, edges)
        decomposition = decompose_query(
            query, flat_estimator, 0.5, 2, strategy="exact"
        )
        assert decomposition.strategy_used == "greedy"

    def test_exact_is_deterministic(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        query = random_query(4, 5, sigma, seed=3)
        plans = {
            tuple(
                p.nodes
                for p in decompose_query(
                    query, engine.index.estimate_cardinality, 0.3,
                    engine.max_length, strategy="exact",
                ).paths
            )
            for _ in range(3)
        }
        assert len(plans) == 1


class TestEstimatorFeedback:
    def test_correction_moves_toward_observed(self):
        feedback = EstimatorFeedback(decay=1.0)
        seq = ("a", "b")
        assert feedback.correction(seq, 0.3) == 1.0
        feedback.observe(seq, 0.3, estimated=9.0, observed=19)
        assert feedback.correction(seq, 0.3) == pytest.approx(2.0)
        # corrected estimate now matches the observation
        assert 9.0 * feedback.correction(seq, 0.3) == pytest.approx(
            18.0, rel=0.2
        )

    def test_corrections_isolated_per_threshold(self):
        """A drift ratio observed at one alpha must not corrupt
        estimates at other thresholds of the same sequence."""
        feedback = EstimatorFeedback(decay=1.0)
        seq = ("a", "b")
        # Accurate at 0.1, badly off at 0.9 (tiny counts).
        feedback.observe(seq, 0.9, estimated=5.0, observed=0)
        assert feedback.correction(seq, 0.9) < 1.0
        assert feedback.correction(seq, 0.1) == 1.0
        # Same milli-bucket shares the correction.
        assert feedback.correction(seq, 0.9004) == feedback.correction(
            seq, 0.9
        )

    def test_correction_clamped(self):
        feedback = EstimatorFeedback(decay=1.0, max_correction=8.0)
        seq = ("a",)
        feedback.observe(seq, 0.5, estimated=0.0, observed=10_000)
        assert feedback.correction(seq, 0.5) == 8.0
        feedback.observe(seq, 0.5, estimated=10_000.0, observed=0)
        assert feedback.correction(seq, 0.5) >= 1.0 / 8.0

    def test_reset(self):
        feedback = EstimatorFeedback()
        feedback.observe(("a",), 0.5, 1.0, 5)
        assert len(feedback) == 1
        feedback.reset()
        assert len(feedback) == 0
        assert feedback.correction(("a",), 0.5) == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            EstimatorFeedback(decay=0.0)
        with pytest.raises(ValueError):
            EstimatorFeedback(max_correction=0.5)

    def test_engine_feedback_corrects_estimates(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("f", sigma)
        engine.planner.invalidate()
        first = engine.query(query, 0.3)
        if not first.estimate_observations:
            pytest.skip("query produced no index-backed lookups")
        second = engine.query(query, 0.3)
        for i, (estimated, observed) in second.estimate_observations.items():
            est0, obs0 = first.estimate_observations[i]
            # After observing once, the corrected estimate is at least
            # as close to the observation as the raw one was.
            assert abs(estimated - observed) <= abs(est0 - obs0) + 1e-9

    def test_compaction_resets_feedback_and_plans(self):
        from repro.delta import AddEntity

        peg = build_peg(
            generate_synthetic_pgd(
                SyntheticConfig(num_references=12, num_labels=2, seed=6)
            )
        )
        own = QueryEngine(peg, max_length=2, beta=0.05)
        sigma = sorted(peg.sigma, key=repr)
        own.apply_updates([AddEntity(("pf-1",), {sigma[0]: 1.0}, 0.9)])
        own.query(triangle("c", sigma), 0.3)
        assert len(own.planner.cache) >= 1
        own.compact_updates()
        # Compaction trued the histograms up: learned corrections and
        # drift-costed plans are dropped with it.
        assert len(own.planner.feedback) == 0
        assert len(own.planner.cache) == 0


class TestServiceIntegration:
    def test_plan_counters_surface_in_service_stats(self):
        from repro.service import QueryService

        peg = build_peg(
            generate_synthetic_pgd(
                SyntheticConfig(num_references=16, num_labels=2, seed=4)
            )
        )
        sigma = sorted(peg.sigma, key=repr)
        query = triangle("s", sigma)
        with QueryService.build(peg, max_length=2, beta=0.05,
                                num_workers=2, cache_size=0) as service:
            # The counters are process-wide: this service's share is
            # the delta around its two evaluations.
            before = service.stats_snapshot()
            service.query(query, 0.3)
            service.query(query, 0.3)
            snap = service.stats_snapshot()
        assert snap["plan_cache_misses"] - before["plan_cache_misses"] == 1
        assert snap["plan_cache_hits"] - before["plan_cache_hits"] == 1
        # one storage behind both spellings of the key
        assert snap["plan_cache_hits"] == snap["repro_plan_cache_hits_total"]
        assert "plan_hits" not in snap and "plan_misses" not in snap
        assert snap["plan_cache_size"] == 1
