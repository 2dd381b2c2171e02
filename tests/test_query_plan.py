"""Unit tests for repro.query.plan (cache, determinism, exact strategy)."""

import random

import pytest

from repro.datasets import SyntheticConfig, generate_synthetic_pgd, random_query
from repro.peg import build_peg
from repro.query import (
    QueryEngine,
    QueryGraph,
    QueryOptions,
    QueryPlanner,
)
from repro.query.decompose import decompose_query
from repro.query.plan import plan_key

# The end-to-end benchmark's tiny ``wire_zipf`` recipe
# (benchmarks/e2e/workloads.py), copied so this module stands alone:
# graph, L, beta, query shapes, queries per shape and alphas.
ZIPF_SEED = 20140331
ZIPF_GRAPH = SyntheticConfig(
    num_references=40, num_labels=4, uncertainty=0.4, seed=ZIPF_SEED
)
ZIPF_SHAPES = ((3, 3), (4, 4), (4, 5), (4, 6), (5, 5), (5, 6), (5, 7), (6, 8))
ZIPF_ALPHAS = (0.6, 0.61, 0.62, 0.63)


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
        engine.planner.cache.clear()
        fresh = engine.query(renamed, 0.3)
        cached = engine.query(renamed, 0.3)
        assert not fresh.plan.cached and cached.plan.cached
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

    def test_zero_capacity_plans_afresh(self, engine):
        """A zero-capacity planner stores nothing and never hits; every
        call re-plans to the same decomposition."""
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("z", sigma)
        planner = QueryPlanner(engine, cache_size=0)
        hits = planner.stats_snapshot()["plan_cache_hits"]
        first, first_info = planner.plan(query, 0.3, QueryOptions())
        second, second_info = planner.plan(query, 0.3, QueryOptions())
        assert not first_info.cached and not second_info.cached
        assert second_info.source == "exact"
        assert [p.nodes for p in first.paths] == [
            p.nodes for p in second.paths
        ]
        assert len(planner.cache) == 0
        assert planner.stats_snapshot()["plan_cache_hits"] == hits

    def test_plan_key_is_rename_invariant(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        assert plan_key(
            triangle("a", sigma), 0.3, "exact", None, 0, 2
        ) == plan_key(triangle("other", sigma), 0.3, "exact", None, 0, 2)

    def test_plan_key_mixes_the_seed_only_for_random(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("s", sigma)
        for strategy in ("exact", "greedy"):
            assert plan_key(query, 0.3, strategy, 1, 0, 2) == plan_key(
                query, 0.3, strategy, 2, 0, 2
            )
        assert plan_key(query, 0.3, "random", 1, 0, 2) != plan_key(
            query, 0.3, "random", 2, 0, 2
        )


class TestPlanEpoch:
    """A plan lives as long as the histograms it was costed with: the
    index's ``histogram_epoch`` keys it, mutation batches keep it and
    compaction re-keys it."""

    @staticmethod
    def small_engine():
        peg = build_peg(
            generate_synthetic_pgd(
                SyntheticConfig(num_references=30, num_labels=3, seed=11)
            )
        )
        return QueryEngine(peg, max_length=2, beta=0.05)

    def test_plan_epoch_rekeys_and_graph_version_does_not(self):
        engine = self.small_engine()
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("v", sigma)
        options = QueryOptions()
        _, first = engine.planner.plan(query, 0.3, options)
        engine.graph_version += 1
        _, same_epoch = engine.planner.plan(query, 0.3, options)
        assert not first.cached and same_epoch.cached
        engine.index.histogram_epoch += 1
        _, next_epoch = engine.planner.plan(query, 0.3, options)
        assert not next_epoch.cached
        assert plan_key(query, 0.3, "exact", None, 0, 2) != plan_key(
            query, 0.3, "exact", None, 1, 2
        )

    def test_plan_epoch_survives_batches_until_compaction(
        self, monkeypatch
    ):
        """Plans cached before a batch are served after it without a
        call to ``decompose_query``; compaction re-keys them; every
        step answers as an engine rebuilt from the mutated graph."""
        from repro.delta import AddEdge, AddEntity, UpdateLabelProbability
        from repro.pgd import BernoulliEdge
        from repro.query import plan as plan_module

        engine = self.small_engine()
        peg = engine.peg
        sigma = sorted(peg.sigma, key=repr)
        rng = random.Random(42)
        shapes = {}
        for nodes, edges in ((2, 1), (3, 2), (3, 3), (4, 4)):
            for _ in range(3):
                query = random_query(
                    nodes, edges, sigma, seed=rng.randrange(2**31)
                )
                shapes.setdefault(query.canonical_form(), query)
        queries = list(shapes.values())
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return decompose_query(*args, **kwargs)

        monkeypatch.setattr(plan_module, "decompose_query", counting)

        def answers(own) -> list:
            return [
                sorted(
                    (m.nodes, m.edges, round(m.probability, 9))
                    for m in own.query(query, 0.3).matches
                )
                for query in queries
            ]

        def assert_sources(cached: bool) -> None:
            calls.clear()
            sources = [
                engine.query(query, 0.3).plan.source for query in queries
            ]
            if cached:
                assert sources == ["cache"] * len(queries)
                assert calls == []
            else:
                assert "cache" not in sources
                assert len(calls) == len(queries)
            rebuilt = QueryEngine(peg, max_length=2, beta=0.05)
            got = answers(engine)
            assert got == answers(rebuilt) and any(got)

        assert_sources(cached=False)
        anchor = tuple(sorted(peg.entity_of(0), key=repr))
        engine.apply_updates([
            AddEntity(("epoch-1",), {sigma[0]: 1.0}, 0.9),
            AddEdge(anchor, ("epoch-1",), BernoulliEdge(0.8)),
            UpdateLabelProbability(anchor, {sigma[1]: 1.0}),
        ])
        assert_sources(cached=True)
        engine.apply_updates([
            UpdateLabelProbability(("epoch-1",), {sigma[2]: 1.0})
        ])
        assert_sources(cached=True)
        epoch = engine.index.histogram_epoch
        engine.compact_updates()
        assert engine.index.histogram_epoch == epoch + 1
        assert_sources(cached=False)
        assert_sources(cached=True)


def zipf_requests() -> list:
    """``(query, alpha)`` of every request of the tiny ``wire_zipf``
    pool, in the end-to-end benchmark's order (64 requests)."""
    sigma = [f"L{i}" for i in range(ZIPF_GRAPH.num_labels)]
    rng = random.Random(f"{ZIPF_SEED}/wire_zipf")
    queries = [
        random_query(nodes, edges, sigma, seed=rng.randrange(2**31))
        for nodes, edges in ZIPF_SHAPES
        for _ in range(2)
    ]
    return [(query, alpha) for query in queries for alpha in ZIPF_ALPHAS]


@pytest.fixture(scope="module")
def zipf_engine():
    peg = build_peg(generate_synthetic_pgd(ZIPF_GRAPH))
    return QueryEngine(peg, max_length=2, beta=0.1)


class TestPlanDeterminism:
    """A plan is a pure function of its cache key: nothing is learned
    from lookups, so evaluations leave later plans unchanged."""

    def test_plans_do_not_learn_from_lookups(self, zipf_engine):
        requests = zipf_requests()
        assert len(requests) == 64
        passes = []
        for _ in range(2):
            paths = []
            for query, alpha in requests:
                zipf_engine.planner.cache.clear()
                paths.append(
                    zipf_engine.query(query, alpha).decomposition_paths
                )
            passes.append(paths)
        differing = [
            i for i, (first, second) in enumerate(zip(*passes))
            if first != second
        ]
        assert differing == []

    def test_cache_hit_equals_a_fresh_plan(self, zipf_engine):
        fresh_planner = QueryPlanner(zipf_engine, cache_size=0)
        options = QueryOptions()
        for query, alpha in zipf_requests():
            zipf_engine.planner.cache.clear()
            # Fills the cache, then runs the lookups of that plan.
            zipf_engine.query(query, alpha)
            hit, info = zipf_engine.planner.plan(query, alpha, options)
            fresh, fresh_info = fresh_planner.plan(query, alpha, options)
            assert info.cached and not fresh_info.cached
            assert [p.nodes for p in hit.paths] == [
                p.nodes for p in fresh.paths
            ]
            assert hit.estimated_cost == fresh.estimated_cost
            assert hit.strategy_used == fresh.strategy_used
        assert len(fresh_planner.cache) == 0


class TestObserve:
    """``QueryPlanner.observe`` measures the histogram estimates against
    raw lookup counts and changes nothing."""

    def test_reports_histogram_estimates_beside_the_counts(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("o", sigma)
        planner = QueryPlanner(engine)
        decomposition, _ = planner.plan(query, 0.3, QueryOptions())
        raw = {i: 1000 * (i + 1) for i in range(len(decomposition.paths))}
        assert planner.observe(query, decomposition, 0.3, raw) == {
            i: (
                engine.index.estimate_cardinality(
                    query.label_sequence(path.nodes), 0.3
                ),
                raw[i],
            )
            for i, path in enumerate(decomposition.paths)
        }

    def test_omits_partitions_without_a_count(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("p", sigma)
        planner = QueryPlanner(engine)
        decomposition, _ = planner.plan(query, 0.3, QueryOptions())
        assert len(decomposition.paths) > 1
        observed = planner.observe(query, decomposition, 0.3, {0: 5})
        assert set(observed) == {0}
        assert observed[0][1] == 5

    def test_below_beta_is_empty(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("b", sigma)
        planner = QueryPlanner(engine)
        alpha = engine.index.beta / 2
        decomposition, _ = planner.plan(query, alpha, QueryOptions())
        raw = {i: 7 for i in range(len(decomposition.paths))}
        assert planner.observe(query, decomposition, alpha, raw) == {}

    def test_wrong_counts_leave_estimates_and_plans_unchanged(self, engine):
        sigma = sorted(engine.peg.sigma, key=repr)
        query = triangle("w", sigma)
        planner = QueryPlanner(engine, cache_size=0)
        before, _ = planner.plan(query, 0.3, QueryOptions())
        raw = {i: 10**6 for i in range(len(before.paths))}
        first = planner.observe(query, before, 0.3, raw)
        for _ in range(5):
            assert planner.observe(query, before, 0.3, raw) == first
        after, _ = planner.plan(query, 0.3, QueryOptions())
        assert [p.nodes for p in after.paths] == [
            p.nodes for p in before.paths
        ]
        assert after.estimated_cost == before.estimated_cost


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
