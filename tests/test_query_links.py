"""Unit and regression tests for repro.query.links.

Covers the vectorized builder's exact equivalence to the reference on
engine-served candidates, the link-structure cache's hit/miss/key
behaviour, and versioned invalidation: the key alone (``graph_version``
and the candidate fingerprints in it) retires an entry, so the query
after ``apply_updates`` misses, entries survive ``compact_updates``,
and a warm cache never changes the answer on a mutated PEG, including
under concurrent ``QueryService`` load.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.datasets import generate_dblp_pgd
from repro.delta import UpdateLabelProbability
from repro.obs.metrics import get_registry
from repro.peg import build_peg
from repro.query import QueryEngine, QueryOptions
from repro.query.engine import QueryResult
from repro.query.kpartite import build_candidate_links
from repro.query.links import (
    LinkStructureCache,
    build_candidate_links_vectorized,
)
from repro.query.query_graph import QueryGraph
from repro.service import QueryService
from tests.conftest import sampled_component_peg, small_random_peg

ALPHA = 0.3
MAX_LENGTH = 2
BETA = 0.05


def make_engine(seed: int = 47) -> QueryEngine:
    peg = small_random_peg(seed=seed)
    return QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)


def make_query(peg, rotate: int = 0) -> QueryGraph:
    sigma = sorted(peg.sigma, key=repr)
    a = sigma[rotate % len(sigma)]
    b = sigma[(rotate + 1) % len(sigma)]
    # Three edges at L = 2: the optimum joins, so links are built.
    return QueryGraph(
        {"a": a, "b": b, "c": a, "d": b},
        [("a", "b"), ("b", "c"), ("c", "d")],
    )


def match_keys(result: QueryResult):
    return sorted(
        (m.nodes, m.edges, round(m.probability, 9)) for m in result.matches
    )


def mutation_for(peg):
    """A label-probability revision on one live node of ``peg``."""
    sigma = sorted(peg.sigma, key=repr)
    node = next(n for n in peg.node_ids() if not peg.is_removed_id(n))
    refs = tuple(sorted(peg.entity_of(node), key=repr))
    return UpdateLabelProbability(refs, {sigma[0]: 0.6, sigma[1]: 0.4})


class TestWarmCacheHits:
    def test_second_build_is_all_hits(self):
        engine = make_engine()
        query = make_query(engine.peg)
        cold = engine.query(query, ALPHA)
        warm = engine.query(query, ALPHA)
        assert cold.link_stats["backend"] == "vectorized"
        assert cold.link_stats["cache_misses"] > 0
        assert cold.link_stats["cache_hits"] == 0
        assert warm.link_stats["cache_hits"] > 0
        assert warm.link_stats["cache_misses"] == 0
        assert warm.link_stats["pairs"] == cold.link_stats["pairs"]
        assert match_keys(warm) == match_keys(cold)

    def test_warm_hits_surface_in_stats_snapshot(self):
        engine = make_engine()
        query = make_query(engine.peg)
        engine.query(query, ALPHA)
        engine.query(query, ALPHA)
        snapshot = engine.planner.stats_snapshot()
        assert snapshot["link_cache_hits"] > 0
        assert snapshot["link_cache_misses"] > 0
        assert snapshot["link_cache_size"] == len(engine.link_cache)
        with QueryService(engine, num_workers=1) as service:
            service.query(query, ALPHA)
            service_snapshot = service.stats_snapshot()
        assert service_snapshot["link_cache_hits"] > 0

    def test_use_link_cache_false_bypasses_cache(self):
        engine = make_engine()
        query = make_query(engine.peg)
        options = QueryOptions(use_link_cache=False)
        first = engine.query(query, ALPHA, options)
        second = engine.query(query, ALPHA, options)
        for result in (first, second):
            assert result.link_stats["cache_hits"] == 0
            assert result.link_stats["cache_misses"] == 0
        assert len(engine.link_cache) == 0
        assert match_keys(second) == match_keys(first)

    def test_python_link_backend_agrees_and_skips_cache(self):
        engine = make_engine()
        query = make_query(engine.peg)
        vectorized = engine.query(query, ALPHA)
        python = engine.query(
            query, ALPHA, QueryOptions(link_backend="python")
        )
        assert python.link_stats["backend"] == "python"
        assert python.link_stats["pairs"] == vectorized.link_stats["pairs"]
        assert match_keys(python) == match_keys(vectorized)


#: Graphs with multi-entity identity components, where links take joint
#: existence marginals.
FALLBACK_GRAPHS = {
    "sampled": sampled_component_peg,
    "dblp": lambda: build_peg(generate_dblp_pgd(120, seed=5)),
}


class TestWarmFallback:
    @pytest.mark.parametrize("name", sorted(FALLBACK_GRAPHS))
    def test_warm_build_reports_the_cold_fallback(self, name):
        """A cache hit reports the ``fallback_pairs`` its miss counted,
        in ``link_stats`` and in the process-wide counter alike."""
        peg = FALLBACK_GRAPHS[name]()
        engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
        counter = get_registry().counter("repro_link_fallback_pairs_total")
        reached = 0
        for labels in itertools.product(sorted(peg.sigma, key=repr), repeat=3):
            # Three edges at L = 2, so the optimum joins.
            query = QueryGraph(
                dict(zip("wxyz", labels + labels[:1])),
                [("w", "x"), ("x", "y"), ("y", "z")],
            )
            for alpha in (0.02, 0.15):
                counts, increments = [], []
                for _ in range(2):
                    before = counter.value
                    stats = engine.query(query, alpha).link_stats
                    increments.append(counter.value - before)
                    counts.append(stats.get("fallback_pairs", 0))
                context = (name, labels, alpha)
                assert counts[0] == counts[1], context
                assert increments == counts, context
                reached += counts[0] > 0
        assert reached


class TestCacheKeying:
    def test_fingerprint_distinguishes_candidate_contents(self):
        """Same pair signature, different candidates -> no false hit."""
        engine = make_engine()
        query = make_query(engine.peg)
        decomposition, _ = engine.planner.plan(query, ALPHA, QueryOptions())
        from repro.query.candidates import CandidateFinder

        finder = CandidateFinder(
            engine.peg, query, ALPHA,
            index=engine.index, context=engine.context,
        )
        candidates = {
            i: finder.find(path)[0]
            for i, path in enumerate(decomposition.paths)
        }
        cache = LinkStructureCache()
        build_candidate_links_vectorized(
            engine.peg, decomposition, candidates, ALPHA, cache=cache
        )
        trimmed = dict(candidates)
        trimmed[0] = candidates[0].take(slice(None, -1))
        result = build_candidate_links_vectorized(
            engine.peg, decomposition, trimmed, ALPHA, cache=cache
        )
        assert result.stats["cache_hits"] == 0
        reference = build_candidate_links(
            engine.peg, decomposition, trimmed, ALPHA
        )
        assert result.pair_lists() == reference

    def test_graph_version_participates_in_key(self):
        engine = make_engine()
        query = make_query(engine.peg)
        decomposition, _ = engine.planner.plan(query, ALPHA, QueryOptions())
        from repro.query.candidates import CandidateFinder

        finder = CandidateFinder(
            engine.peg, query, ALPHA,
            index=engine.index, context=engine.context,
        )
        candidates = {
            i: finder.find(path)[0]
            for i, path in enumerate(decomposition.paths)
        }
        cache = LinkStructureCache()
        build_candidate_links_vectorized(
            engine.peg, decomposition, candidates, ALPHA,
            cache=cache, graph_version=0,
        )
        rebuilt = build_candidate_links_vectorized(
            engine.peg, decomposition, candidates, ALPHA,
            cache=cache, graph_version=1,
        )
        assert rebuilt.stats["cache_hits"] == 0
        assert rebuilt.stats["cache_misses"] > 0


class TestInvalidation:
    """The versioned key is the link cache's only invalidation path."""

    def test_apply_updates_misses_and_equals_cold_engine(self):
        engine = make_engine()
        query = make_query(engine.peg)
        engine.query(query, ALPHA)
        assert engine.query(query, ALPHA).link_stats["cache_hits"] > 0
        engine.apply_updates([mutation_for(engine.peg)])
        # The graph_version bump re-keyed every entry.
        updated = engine.query(query, ALPHA)
        assert updated.link_stats["cache_hits"] == 0
        assert updated.link_stats["cache_misses"] > 0
        cold = QueryEngine(engine.peg, max_length=MAX_LENGTH, beta=BETA)
        assert match_keys(updated) == match_keys(cold.query(query, ALPHA))

    def test_compact_updates_keeps_entries_and_equals_cold_engine(self):
        engine = make_engine()
        # ``mutation_for`` relabels a node to sigma[0]/sigma[1]: the
        # first query's sequences gain delta paths, which compaction
        # re-buckets (the candidate order, and with it the fingerprint,
        # may move); the second query's sequences can only lose masked
        # paths, so its candidates come back in the same order.
        other = sorted(engine.peg.sigma, key=repr)[2]
        rewritten = make_query(engine.peg)
        untouched = QueryGraph(
            {"a": other, "b": other, "c": other, "d": other},
            [("a", "b"), ("b", "c"), ("c", "d")],
        )
        engine.apply_updates([mutation_for(engine.peg)])
        before = [engine.query(q, ALPHA) for q in (rewritten, untouched)]
        engine.compact_updates()
        after = [engine.query(q, ALPHA) for q in (rewritten, untouched)]
        assert after[1].link_stats["cache_hits"] > 0
        assert after[1].link_stats["cache_misses"] == 0
        cold = QueryEngine(engine.peg, max_length=MAX_LENGTH, beta=BETA)
        for query, pre, post in zip((rewritten, untouched), before, after):
            assert match_keys(post) == match_keys(pre)
            assert match_keys(post) == match_keys(cold.query(query, ALPHA))

    def test_stale_cache_agrees_under_concurrent_service_load(self):
        """Warm caches + live updates + concurrent submits stay exact.

        A service warms the link cache across several query shapes,
        absorbs a mutation batch mid-stream (drained, version-bumped),
        then answers the same shapes concurrently;
        every post-update answer must equal a cold engine's on the
        mutated PEG.
        """
        engine = make_engine(seed=48)
        rng = random.Random(7)
        queries = [make_query(engine.peg, rotate=r) for r in range(3)]
        alphas = (0.25, ALPHA)
        requests = [(q, a) for q in queries for a in alphas]
        with QueryService(engine, num_workers=4, cache_size=0) as service:
            # Warm every link-cache entry under concurrent load.
            futures = [
                service.submit(q, a)
                for q, a in rng.sample(requests, len(requests)) * 2
            ]
            for future in futures:
                future.result()
            assert len(engine.link_cache) > 0
            service.apply_updates([mutation_for(engine.peg)])
            futures = {
                (qi, a): service.submit(queries[qi], a)
                for qi, _ in enumerate(queries) for a in alphas
            }
            cold = QueryEngine(engine.peg, max_length=MAX_LENGTH, beta=BETA)
            for (qi, a), future in futures.items():
                expected = match_keys(cold.query(queries[qi], a))
                assert match_keys(future.result()) == expected, (qi, a)
            snapshot = service.stats_snapshot()
            assert snapshot["link_cache_hits"] > 0
            assert snapshot["link_cache_misses"] > 0
