"""Unit tests for repro.query.kpartite (reduction by join-candidates)."""

import pytest

from repro.index import build_context, build_path_index
from repro.peg import build_peg
from repro.pgd import pgd_from_edge_list
from repro.query.candidates import CandidateFinder
from repro.query.decompose import decompose_query
from repro.query.kpartite import CandidateKPartiteGraph
from repro.query.query_graph import QueryGraph
from repro.query.baselines import direct_matches
from tests.conftest import small_random_peg


def build_kpartite(peg, query, alpha, use_context=True, max_length=2):
    index = build_path_index(peg, max_length=max_length, beta=0.05)
    context = build_context(peg)
    decomposition = decompose_query(
        query, index.estimate_cardinality, alpha, max_length
    )
    finder = CandidateFinder(
        peg, query, alpha, index=index, context=context,
        use_context=use_context,
    )
    candidates = {
        i: finder.find(path)[0] for i, path in enumerate(decomposition.paths)
    }
    kpartite = CandidateKPartiteGraph(
        peg, decomposition, candidates, alpha
    )
    return decomposition, kpartite


@pytest.fixture
def chain_peg():
    return build_peg(
        pgd_from_edge_list(
            node_labels={
                "x1": "a", "x2": "a",
                "y1": "b", "y2": "b",
                "z1": "c", "z2": "c",
            },
            edges=[
                ("x1", "y1", 0.9),
                ("y1", "z1", 0.8),
                ("x2", "y2", 0.9),
                # y2 has no 'c' neighbor: its path candidates die in
                # reduction by structure.
            ],
        )
    )


def chain_query():
    return QueryGraph(
        {"u": "a", "v": "b", "w": "c"}, [("u", "v"), ("v", "w")]
    )


class TestStructureReduction:
    def test_dangling_candidates_removed(self, chain_peg):
        decomposition, kpartite = build_kpartite(
            chain_peg, chain_query(), alpha=0.1, use_context=False,
            max_length=1,
        )
        if len(decomposition.paths) < 2:
            pytest.skip("decomposed into a single path; nothing to reduce")
        stats = kpartite.reduce(use_upperbounds=False)
        # Only the x1-y1-z1 chain survives in every partition.
        assert all(count == 1 for count in stats.final_sizes)

    def test_w1_weights_multiply_to_prle(self, chain_peg):
        """Product of w1 over a consistent vertex tuple = Prle of match."""
        decomposition, kpartite = build_kpartite(
            chain_peg, chain_query(), alpha=0.1, use_context=False,
            max_length=1,
        )
        kpartite.reduce()
        product = 1.0
        for i in range(kpartite.k):
            alive = list(kpartite.alive_vertices(i))
            assert len(alive) == 1
            product *= alive[0][1].w1
        # Full match probability: labels all certain, edges 0.9 * 0.8.
        assert product == pytest.approx(0.9 * 0.8)


class TestUpperboundReduction:
    def test_threshold_prunes_weak_vertices(self, chain_peg):
        decomposition, kpartite = build_kpartite(
            chain_peg, chain_query(), alpha=0.75, use_context=False,
            max_length=1,
        )
        stats = kpartite.reduce()
        # max match probability is 0.72 < 0.75: everything dies.
        assert kpartite.search_space_size() == 0
        assert stats.upperbound_removed + stats.structure_removed > 0

    def test_upperbounds_keep_qualifying_matches(self):
        """No candidate participating in an above-threshold match dies."""
        peg = small_random_peg(seed=31, num_references=60)
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[2], "d": sigma[0]},
            [("a", "b"), ("b", "c"), ("c", "d")],
        )
        alpha = 0.25
        decomposition, kpartite = build_kpartite(peg, query, alpha)
        kpartite.reduce()
        surviving = [
            {v.candidate.nodes for _, v in kpartite.alive_vertices(i)}
            for i in range(kpartite.k)
        ]
        for match in direct_matches(peg, query, alpha):
            mapping = dict(match.mapping)
            for i, path in enumerate(decomposition.paths):
                nodes = tuple(peg.id_of(mapping[q]) for q in path.nodes)
                assert nodes in surviving[i], (match, path)

    def test_vectors_monotone_and_bounded(self, chain_peg):
        decomposition, kpartite = build_kpartite(
            chain_peg, chain_query(), alpha=0.1, use_context=False,
            max_length=1,
        )
        kpartite.reduce()
        for i in range(kpartite.k):
            for _, vertex in kpartite.alive_vertices(i):
                assert all(0.0 <= entry <= 1.0 for entry in vertex.vector)
                assert vertex.vector[i] == pytest.approx(vertex.w1)


class TestReductionStats:
    def test_search_space_progression_monotone(self):
        peg = small_random_peg(seed=32, num_references=60)
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[0]},
            [("a", "b"), ("b", "c")],
        )
        _, kpartite = build_kpartite(peg, query, alpha=0.3)
        stats = kpartite.reduce()
        assert stats.initial_search_space >= stats.after_structure_search_space
        assert stats.after_structure_search_space >= stats.final_search_space

    def test_structure_only_weaker_than_both(self):
        peg = small_random_peg(seed=34, num_references=60)
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[0]},
            [("a", "b"), ("b", "c")],
        )
        _, structure_only = build_kpartite(peg, query, alpha=0.4)
        s1 = structure_only.reduce(use_upperbounds=False)
        _, both = build_kpartite(peg, query, alpha=0.4)
        s2 = both.reduce()
        assert s2.final_search_space <= s1.final_search_space


def build_vectorized(peg, query, alpha, use_context=True, max_length=2):
    from repro.query.reduction import VectorizedKPartiteGraph

    index = build_path_index(peg, max_length=max_length, beta=0.05)
    context = build_context(peg)
    decomposition = decompose_query(
        query, index.estimate_cardinality, alpha, max_length
    )
    finder = CandidateFinder(
        peg, query, alpha, index=index, context=context,
        use_context=use_context,
    )
    candidates = {
        i: finder.find(path)[0] for i, path in enumerate(decomposition.paths)
    }
    return decomposition, VectorizedKPartiteGraph(
        peg, decomposition, candidates, alpha
    )


class TestVectorizedBackend:
    """The numpy backend must mirror the Python reference exactly."""

    def _compare(self, peg, query, alpha, **kwargs):
        _, python = build_kpartite(peg, query, alpha, **kwargs)
        _, vectorized = build_vectorized(peg, query, alpha, **kwargs)
        # Identical w1/w2 before any reduction (bit-exact scoring).
        for i in range(python.k):
            for vid, vertex in enumerate(python.partitions[i]):
                stacked = vectorized.offsets[i] + vid
                assert vectorized.all_w1[stacked] == vertex.w1, (i, vid)
                assert vectorized.all_w2[stacked] == vertex.w2, (i, vid)
        stats_py = python.reduce()
        stats_vec = vectorized.reduce()
        assert stats_vec.initial_sizes == stats_py.initial_sizes
        assert stats_vec.after_structure_sizes == stats_py.after_structure_sizes
        assert stats_vec.final_sizes == stats_py.final_sizes
        assert stats_vec.structure_removed == stats_py.structure_removed
        assert stats_vec.upperbound_removed == stats_py.upperbound_removed
        for i in range(python.k):
            assert (
                vectorized.alive_vertex_ids(i) == python.alive_vertex_ids(i)
            ), i
            for vid in vectorized.alive_vertex_ids(i):
                for j in range(python.k):
                    if i == j:
                        continue
                    assert vectorized.linked(i, vid, j) == \
                        python.linked(i, vid, j), (i, vid, j)
        return python, vectorized

    def test_chain_agreement(self, chain_peg):
        for alpha in (0.1, 0.5, 0.75):
            self._compare(
                chain_peg, chain_query(), alpha, use_context=False,
                max_length=1,
            )

    def test_random_graph_agreement(self):
        for seed in (41, 42, 43):
            peg = small_random_peg(seed=seed, num_references=60)
            sigma = sorted(peg.sigma)
            query = QueryGraph(
                {"a": sigma[0], "b": sigma[1], "c": sigma[0]},
                [("a", "b"), ("b", "c")],
            )
            self._compare(peg, query, alpha=0.3)

    def test_interface_methods(self, chain_peg):
        _, vectorized = build_vectorized(
            chain_peg, chain_query(), alpha=0.1, use_context=False,
            max_length=1,
        )
        vectorized.reduce()
        counts = vectorized.alive_counts()
        assert vectorized.search_space_size() == pytest.approx(
            float(counts[0]) * float(counts[1]) if len(counts) == 2
            else float(counts[0])
        )
        for i in range(vectorized.k):
            for vid in vectorized.alive_vertex_ids(i):
                assert vectorized.is_alive(i, vid)
                assert vectorized.candidate_of(i, vid) is not None


class TestReductionStatsProduct:
    def test_empty_sizes_report_zero_search_space(self):
        from repro.query.kpartite import ReductionStats

        stats = ReductionStats()
        assert stats.initial_search_space == 0.0
        assert stats.after_structure_search_space == 0.0
        assert stats.final_search_space == 0.0

    def test_nonempty_sizes_multiply(self):
        from repro.query.kpartite import ReductionStats

        stats = ReductionStats(
            initial_sizes=(3, 4), after_structure_sizes=(2, 2),
            final_sizes=(0, 2),
        )
        assert stats.initial_search_space == 12.0
        assert stats.after_structure_search_space == 4.0
        assert stats.final_search_space == 0.0


def build_candidates(peg, query, alpha, use_context=True, max_length=2):
    """Decomposition + per-partition candidates (no k-partite graph)."""
    index = build_path_index(peg, max_length=max_length, beta=0.05)
    context = build_context(peg)
    decomposition = decompose_query(
        query, index.estimate_cardinality, alpha, max_length
    )
    finder = CandidateFinder(
        peg, query, alpha, index=index, context=context,
        use_context=use_context,
    )
    candidates = {
        i: finder.find(path)[0] for i, path in enumerate(decomposition.paths)
    }
    return decomposition, candidates


class TestLinkBuilderEdgeCases:
    """Edge cases shared by both link builders (reference = vectorized)."""

    def test_single_partition_decomposition_empty_links(self, chain_peg):
        from repro.query.kpartite import build_candidate_links
        from repro.query.links import build_candidate_links_vectorized

        # A single-edge query decomposes into exactly one path.
        query = QueryGraph({"u": "a", "v": "b"}, [("u", "v")])
        decomposition, candidates = build_candidates(
            chain_peg, query, alpha=0.1, use_context=False, max_length=2,
        )
        assert len(decomposition.paths) == 1
        reference = build_candidate_links(
            chain_peg, decomposition, candidates, 0.1
        )
        vectorized = build_candidate_links_vectorized(
            chain_peg, decomposition, candidates, 0.1
        )
        assert reference == {}
        assert vectorized.pair_lists() == {}
        assert vectorized.stats["pairs"] == vectorized.rows.size == 0
        # A single-partition k-partite graph still reduces fine.
        kpartite = CandidateKPartiteGraph(
            chain_peg, decomposition, candidates, 0.1
        )
        stats = kpartite.reduce()
        assert stats.structure_removed == 0

    def test_zero_candidate_partition(self, chain_peg):
        from repro.query.kpartite import build_candidate_links
        from repro.query.links import build_candidate_links_vectorized

        decomposition, candidates = build_candidates(
            chain_peg, chain_query(), alpha=0.1, use_context=False,
            max_length=1,
        )
        assert len(decomposition.paths) >= 2
        candidates[0] = []
        reference = build_candidate_links(
            chain_peg, decomposition, candidates, 0.1
        )
        vectorized = build_candidate_links_vectorized(
            chain_peg, decomposition, candidates, 0.1
        )
        assert vectorized.pair_lists() == reference
        for pair, pairs in reference.items():
            if 0 in pair:
                assert pairs == []
        # Both backends survive the empty partition end to end.
        python = CandidateKPartiteGraph(
            chain_peg, decomposition, candidates, 0.1, links=reference
        )
        assert python.reduce().final_sizes[0] == 0
        from repro.query.reduction import VectorizedKPartiteGraph

        vec = VectorizedKPartiteGraph(
            chain_peg, decomposition, candidates, 0.1, links=vectorized
        )
        assert vec.reduce().final_sizes[0] == 0

    def test_alpha_exactly_at_joined_probability_boundary(self, chain_peg):
        import numpy as np

        from repro.query.join_candidates import joined_probability
        from repro.query.kpartite import build_candidate_links
        from repro.query.links import build_candidate_links_vectorized

        decomposition, candidates = build_candidates(
            chain_peg, chain_query(), alpha=0.05, use_context=False,
            max_length=1,
        )
        loose = build_candidate_links(
            chain_peg, decomposition, candidates, 0.05
        )
        (i, j), pairs = next(
            (pair, ps) for pair, ps in sorted(loose.items()) if ps
        )
        vid, uid = pairs[0]
        boundary = joined_probability(
            chain_peg, decomposition, i, candidates[i][vid],
            j, candidates[j][uid],
        )
        just_above = float(np.nextafter(boundary, 2.0))
        for alpha, expect_kept in ((boundary, True), (just_above, False)):
            reference = build_candidate_links(
                chain_peg, decomposition, candidates, alpha
            )
            vectorized = build_candidate_links_vectorized(
                chain_peg, decomposition, candidates, alpha
            )
            assert vectorized.pair_lists() == reference, alpha
            assert ((vid, uid) in reference[(i, j)]) is expect_kept, alpha

    def test_boundary_filtering_through_cache_milli_bucket(self, chain_peg):
        """Two alphas in one milli-bucket share a cache entry yet filter
        exactly: the entry stores pre-filter probabilities and retrieval
        applies the caller's exact threshold."""
        import numpy as np

        from repro.index.grid import milli
        from repro.query.join_candidates import joined_probability
        from repro.query.links import (
            LinkStructureCache,
            build_candidate_links_vectorized,
        )

        decomposition, candidates = build_candidates(
            chain_peg, chain_query(), alpha=0.05, use_context=False,
            max_length=1,
        )
        cache = LinkStructureCache()
        cold = build_candidate_links_vectorized(
            chain_peg, decomposition, candidates, 0.05, cache=cache
        )
        (i, j), pairs = next(
            (pair, ps) for pair, ps in sorted(cold.pair_lists().items())
            if ps
        )
        vid, uid = pairs[0]
        boundary = joined_probability(
            chain_peg, decomposition, i, candidates[i][vid],
            j, candidates[j][uid],
        )
        just_above = float(np.nextafter(boundary, 2.0))
        assert milli(boundary) == milli(just_above)
        at = build_candidate_links_vectorized(
            chain_peg, decomposition, candidates, boundary, cache=cache
        )
        above = build_candidate_links_vectorized(
            chain_peg, decomposition, candidates, just_above, cache=cache
        )
        assert at.stats["cache_misses"] > 0  # 0.05 lives in another bucket
        assert above.stats["cache_hits"] > 0
        assert above.stats["cache_misses"] == 0
        assert (vid, uid) in at.pair_lists()[(i, j)]
        assert (vid, uid) not in above.pair_lists()[(i, j)]
