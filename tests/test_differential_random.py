"""Randomized differential harness: vectorized vs Python vs brute force.

For a stream of small random PEGs and random queries, four independent
evaluation routes must agree *exactly* — same match sets, same
probabilities:

1. the optimized engine over the monolithic :class:`PathIndex` with the
   vectorized (numpy) reduction backend,
2. the same engine with the pure-Python reference reduction backend
   (which also swaps the array matcher for the depth-first reference
   matcher) — which must additionally agree with the vectorized backend
   on the reduction statistics (partition sizes, removal and link
   counts),
3. the optimized engine forced onto the per-vertex reference link
   builder,
4. planned execution through :mod:`repro.query.plan` — the exact
   decomposition strategy, the greedy one and a plan-cache hit of it —
   any valid decomposition must yield bit-identical matches, and
5. brute-force possible-worlds enumeration
   (:mod:`repro.peg.possible_worlds` via
   :func:`repro.query.baselines.exhaustive_matches` — the literal
   Eq. 8 semantics).

The graphs are kept tiny so the exponential oracle stays feasible; the
case count (``>= 200`` PEG/query cases) is what gives the harness its
bite. The seed is fixed (override with ``REPRO_DIFF_SEED``) so CI runs
are reproducible across Python versions.
"""

from __future__ import annotations

import itertools
import os
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    SyntheticConfig,
    generate_dblp_pgd,
    generate_synthetic_pgd,
    random_query,
)
from repro.index import build_path_index, canonical_sequence, is_palindrome
from repro.index import builder as index_builder
from repro.index.builder import PathIndexBuilder
from repro.index.context import build_context
from repro.index.paths import (
    PathCandidates,
    concat_payloads,
    decode_paths,
    payload_count,
)
from repro.index.protocol import orient_to_sequence
from repro.obs.trace import Span
from repro.peg import build_peg
from repro.peg.arrays import PegProbabilityArrays
from repro.peg.components import partition_into_components
from repro.pgd import PGD, ConditionalEdge
from repro.query import QueryEngine, QueryGraph, QueryOptions, exhaustive_matches
from repro.query.candidates import CandidateFinder
from repro.query.decompose import Decomposition, QueryPath
from repro.query.kpartite import build_candidate_links
from repro.query.links import (
    LinkStructureCache,
    StackedLinks,
    build_candidate_links_vectorized,
    link_probabilities,
    links_from_pairs,
)
from repro.query.matcher import generate_matches, generate_matches_reference
from repro.query.reduction import VectorizedKPartiteGraph
from repro.testing.reference import (
    PerPairKPartiteGraph,
    ScalarCandidateFinder,
    TuplePathEnumeration,
    first_embeddings,
    per_pair_links,
)
from repro.testing.reference import (
    partition_into_components as partition_by_scan,
)
from tests.conftest import (
    sampled_component_peg,
    small_random_peg,
    store_content,
)
from tests.test_index_builder import oracle_payloads, path_bits

PYTHON_BACKEND = QueryOptions(reduction_backend="python")
VECTOR_BACKEND = QueryOptions(reduction_backend="vectorized")
PYTHON_LINKS = QueryOptions(link_backend="python")
EXACT_PLAN = QueryOptions(decomposition="exact")
GREEDY_PLAN = QueryOptions(decomposition="greedy")


def planned_candidates(engine, query, alpha, options=GREEDY_PLAN):
    """``(decomposition, {partition: candidates})`` as the engine's
    lookup stage would produce them, through its live index.

    Greedy by default: the paper's approximation splits queries into
    more, shorter paths than the default exact cover, so the reduction
    and link checks built on it reach more partition-pair shapes."""
    decomposition, _info = engine.planner.plan(query, alpha, options)
    finder = CandidateFinder(
        engine.peg, query, alpha, index=engine.index, context=engine.context
    )
    return decomposition, {
        i: finder.find(path)[0]
        for i, path in enumerate(decomposition.paths)
    }


def assert_link_equivalence(engine, query, alpha, context):
    """Vectorized and reference link builders emit identical link sets.

    Candidates are fetched through the engine's live index (overlay or
    compacted base included), so the comparison covers exactly the
    inputs the engine's link stage sees. Returns the vectorized build's
    stats.
    """
    decomposition, candidates = planned_candidates(engine, query, alpha)
    reference = build_candidate_links(
        engine.peg, decomposition, candidates, alpha
    )
    vectorized = build_candidate_links_vectorized(
        engine.peg, decomposition, candidates, alpha
    )
    assert vectorized.pair_lists() == reference, context
    return vectorized.stats


def assert_link_oracle_equivalence(
    peg, decomposition, candidates, context, alphas=(), cache=None
):
    """The stacked link pass and the per-pair oracle agree: the same
    joining pairs, rows and cols in the same order, pre-α probabilities
    bit for bit and the same fallback counts; and at every α of
    ``alphas`` (through ``cache`` when given) the built links are the
    oracle's with probability ``>= α``, counting their fallback. Returns
    the oracle's ``{(i, j): (rows, cols, probs, fallback)}``."""
    stacked = link_probabilities(peg, decomposition, candidates)
    oracle = per_pair_links(peg, decomposition, candidates)
    assert list(stacked) == list(oracle), context
    for pair, (rows, cols, probs, fallback) in oracle.items():
        got_rows, got_cols, got_probs, got_fallback = stacked[pair]
        assert got_rows.tolist() == rows.tolist(), (context, pair)
        assert got_cols.tolist() == cols.tolist(), (context, pair)
        assert got_probs.tobytes() == probs.tobytes(), (context, pair)
        assert got_fallback == fallback, (context, pair)
    for alpha in alphas:
        links = build_candidate_links_vectorized(
            peg, decomposition, candidates, alpha, cache=cache
        )
        assert_links_above(links, oracle, alpha, (context, alpha))
    return oracle


def assert_links_above(links, oracle, alpha, context):
    """``links`` hold exactly the oracle's links with probability
    ``>= alpha`` and count the oracle's fallback."""
    assert links.pair_lists() == {
        pair: [
            (row, col)
            for row, col, prob in zip(rows.tolist(), cols.tolist(), probs.tolist())
            if prob >= alpha
        ]
        for pair, (rows, cols, probs, _) in oracle.items()
    }, context
    assert links.stats["fallback_pairs"] == sum(
        fallback for *_, fallback in oracle.values()
    ), context


def candidate_records(candidates):
    """Every candidate row, floats bit for bit, order kept."""
    return [(c.nodes, c.prle.hex(), c.prn.hex()) for c in candidates]


def assert_lookup_equivalence(
    engine, query, alpha, context, options=QueryOptions(), *,
    paths=None, use_context=True,
):
    """The array finder and the scalar oracle agree row for row.

    Both read the *same* live index (``engine.index`` — overlay or
    compacted base included) and must return the same raw count and the
    same kept rows in the same order, ``prle``/``prn`` ``.hex()``-equal;
    the array finder returns them as columns. ``paths`` defaults to the planned
    decomposition's. Returns the span the array finder reported into.
    """
    if paths is None:
        paths = engine.planner.plan(query, alpha, options)[0].paths
    array, scalar = (
        finder(
            engine.peg, query, alpha,
            index=engine.index,
            context=engine.context, use_context=use_context,
        )
        for finder in (CandidateFinder, ScalarCandidateFinder)
    )
    with Span("lookup") as span:
        for path in paths:
            found, raw = array.find(path)
            expected, expected_raw = scalar.find(path)
            assert isinstance(found, PathCandidates), context
            assert found.nodes.shape == (len(found), len(path.nodes)), context
            assert raw == expected_raw, context
            assert candidate_records(found) == candidate_records(expected), \
                (context, path.nodes)
    return span


def delta_oracle(overlay):
    """What the overlay's delta must hold, by the cumulative refresh
    the overlay used to run: every canonical path of the *whole*
    mutated graph, kept when it contains a dirty node, per sequence by
    ``(-probability, nodes)``."""
    per_key, _counts = PathIndexBuilder(
        overlay.peg, max_length=overlay.max_length,
        beta=overlay.beta, gamma=overlay.gamma,
    ).collect_buckets()
    dirty = overlay.dirty_nodes
    oracle = {}
    for labels, rows in per_key.items():
        paths = [path for path in rows if not dirty.isdisjoint(path.nodes)]
        if paths:
            paths.sort(key=lambda p: (-p.probability, p.nodes))
            oracle[labels] = candidate_records(paths)
    return oracle


def assert_delta_equivalence(engine, context):
    """The patched delta and the patched context are what a refresh of
    the cumulative dirty set and a ``build_context`` of the mutated
    graph give: sequence for sequence, row for row, floats bit for bit."""
    overlay = engine.index
    delta = {
        seq: candidate_records(rows) for seq, rows in overlay._delta.items()
    }
    assert delta == delta_oracle(overlay), context
    assert overlay.delta_path_count() == sum(map(len, delta.values()))
    rebuilt = build_context(engine.peg)
    patched = engine.context
    assert patched.sigma == rebuilt.sigma, context
    for ours, theirs in zip(patched.tables(), rebuilt.tables()):
        assert ours.dtype == theirs.dtype and ours.flags.f_contiguous, context
        assert ours.tobytes() == theirs.tobytes(), context


def assert_oracle_written(index, context):
    """Every stored sequence is filed as the scalar oracle files its
    rows: the same non-empty buckets holding the same bytes (an emptied
    bucket compaction overwrote is the empty payload)."""
    for sequence, stored in store_content(index.store).items():
        rows = decode_paths(concat_payloads(payload for _, payload in stored))
        assert [
            (bucket, payload) for bucket, payload in stored
            if payload_count(payload)
        ] == oracle_payloads(index.grid, rows), (context, sequence)


def bucket_records(index):
    """``{(sequence, bucket): sorted rows}`` of every non-empty bucket."""
    return {
        (sequence, bucket): sorted(candidate_records(decode_paths(payload)))
        for sequence in index.store.label_sequences()
        for bucket, payload in index.store.scan_buckets(sequence, 0)
        if payload_count(payload)
    }


def match_records(matches):
    """Everything a match list says, floats bit for bit, order kept."""
    return [
        (m.nodes, m.edges, m.mapping, m.probability.hex()) for m in matches
    ]


def assert_matcher_equivalence(
    engine, query, alpha, context, options=QueryOptions(), setting=()
):
    """The array matcher and the DFS reference agree bit for bit.

    Both run over the *same* reduced ``VectorizedKPartiteGraph`` (built
    from the engine's live index and probability tables, as its join
    stage would, and reduced with ``reduce(*setting)``: the default
    fixpoint unless given) and must return equal ``Match`` lists: order,
    ``nodes``, ``edges``, ``mapping`` and ``probability.hex()``. The
    array matcher's final frontier holds one row per match: the
    duplicate filter it ran before its symmetry-breaking constraints
    (:func:`repro.testing.reference.first_embeddings`) keeps every row.
    Returns ``(matches, stats)`` of the array matcher, or ``None`` when
    a partition had no candidate (the engine never joins then).
    """
    peg = engine.peg
    decomposition, candidates = planned_candidates(
        engine, query, alpha, options
    )
    if not all(candidates.values()):
        return None
    arrays = PegProbabilityArrays(peg)
    kpartite = VectorizedKPartiteGraph(
        peg, decomposition, candidates, alpha,
        links=build_candidate_links_vectorized(
            peg, decomposition, candidates, alpha, arrays=arrays
        ),
        arrays=arrays,
    )
    kpartite.reduce(*setting)
    stats: dict = {}
    matches = generate_matches(peg, decomposition, kpartite, alpha, stats=stats)
    reference = generate_matches_reference(peg, decomposition, kpartite, alpha)
    assert match_records(matches) == match_records(reference), context
    assert first_embeddings(matches).size == len(matches), context
    assert sorted(stats) == ["fallback_rows", "frontier_peak"]
    return matches, stats


#: ``(use_structure, use_upperbounds, max_rounds)`` of every reduction
#: the reduction differential runs.
REDUCTION_SETTINGS = tuple(
    itertools.product((True, False), (True, False), (1, 2, 1000))
)


def reduction_records(graph, stats):
    """Everything a reduction leaves behind, floats bit for bit."""
    alive = graph.all_alive
    return (
        alive.tobytes(),
        graph.vectors[:, alive].tobytes(),
        stats.rounds,
        stats.message_updates,
        stats.initial_sizes,
        stats.after_structure_sizes,
        stats.final_sizes,
        stats.structure_removed,
        stats.upperbound_removed,
        stats.links,
        stats.links_live,
    )


def assert_reduction_equivalence(
    peg, decomposition, candidates, alpha, links, context, arrays=None
):
    """The stacked reduction and the per-pair oracle agree bit for bit
    under every ablation and round cap: alive masks, the perception
    vectors of alive vertices, ``rounds``, ``message_updates``, sizes,
    removal and link counts. The stacked graph's live entry list — what
    the matchers join over — is the constructor's entries with both
    endpoints alive, in order, its ``_key`` never decreasing. Returns
    the stats of every setting."""
    if isinstance(links, StackedLinks):
        stacked_links, pairs = links, links.pair_lists()
    else:
        stacked_links, pairs = links_from_pairs(
            decomposition, candidates, links
        ), links
    entries = 2 * sum(map(len, pairs.values()))
    results = {}
    for setting in REDUCTION_SETTINGS:
        stacked, oracle = (
            graph_class(
                peg, decomposition, candidates, alpha, links=links, arrays=arrays
            )
            for graph_class in (VectorizedKPartiteGraph, PerPairKPartiteGraph)
        )
        stats = results[setting] = stacked.reduce(*setting)
        assert reduction_records(stacked, stats) == reduction_records(
            oracle, oracle.reduce(*setting)
        ), (context, setting)
        assert stats.links == entries >= stats.links_live, (context, setting)
        alive = stacked.all_alive
        live = alive[stacked_links.rows] & alive[stacked_links.cols]
        assert np.array_equal(stacked._row, stacked_links.rows[live]), \
            (context, setting)
        assert np.array_equal(stacked._col, stacked_links.cols[live]), \
            (context, setting)
        assert (np.diff(stacked._key) >= 0).all(), (context, setting)
    return results


SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260730"))
NUM_GRAPHS = 25
QUERIES_PER_GRAPH = 4
ALPHAS = (0.15, 0.45)
#: The reduction differential adds one alpha below BETA (on-demand lookups).
REDUCTION_ALPHAS = (0.02, *ALPHAS)
MAX_LENGTH = 2
BETA = 0.05

#: Total differential cases exercised by this module.
TOTAL_CASES = NUM_GRAPHS * QUERIES_PER_GRAPH * len(ALPHAS)


def match_keys(matches):
    return sorted(
        (m.nodes, m.edges, round(m.probability, 9)) for m in matches
    )


def reduction_key(result):
    """Backend-independent reduction facts of one query result.

    Work counters (``message_updates``, ``rounds``) are excluded — they
    legitimately differ between the incremental Python backend and the
    whole-array vectorized one.
    """
    stats = result.reduction
    if stats is None:
        return None
    return (
        stats.initial_sizes,
        stats.after_structure_sizes,
        stats.final_sizes,
        stats.structure_removed,
        stats.upperbound_removed,
        stats.links,
        stats.links_live,
    )


def _tiny_config(rng: random.Random) -> SyntheticConfig:
    """A random configuration small enough for world enumeration.

    The world count is roughly ``configurations * labelings *
    2^edges``; 2 labels and <= 8 references with one edge per node keep
    it well under the enumeration budget for every draw.
    """
    return SyntheticConfig(
        num_references=rng.randint(6, 8),
        edges_per_node=1,
        num_labels=2,
        uncertainty=rng.uniform(0.3, 0.6),
        groups=1,
        group_size=2,
        pairs_per_group=1,
        seed=rng.randrange(2**31),
    )


def _random_queries(rng: random.Random, sigma):
    queries = []
    for _ in range(QUERIES_PER_GRAPH):
        num_nodes = rng.choice((2, 2, 3))
        max_edges = num_nodes * (num_nodes - 1) // 2
        num_edges = rng.randint(num_nodes - 1, max_edges)
        queries.append(
            random_query(num_nodes, num_edges, sigma, seed=rng.randrange(2**31))
        )
    return queries


def _cases():
    rng = random.Random(SEED)
    for graph_index in range(NUM_GRAPHS):
        yield graph_index, _tiny_config(rng), rng.randrange(2**31)


@pytest.mark.parametrize(
    "graph_index,config,query_seed",
    list(_cases()),
    ids=lambda value: value if isinstance(value, int) else None,
)
def test_differential_agreement(graph_index, config, query_seed):
    peg = build_peg(generate_synthetic_pgd(config))
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    rng = random.Random(query_seed)
    sigma = sorted(peg.sigma, key=repr)
    queries = _random_queries(rng, sigma)

    case = 0
    for query in queries:
        for alpha in ALPHAS:
            oracle = match_keys(exhaustive_matches(peg, query, alpha))
            vectorized = engine.query(query, alpha, VECTOR_BACKEND)
            python = engine.query(query, alpha, PYTHON_BACKEND)
            context = (graph_index, config.seed, query.nodes, alpha)
            assert match_keys(vectorized.matches) == oracle, context
            assert match_keys(python.matches) == oracle, context
            # Link-builder differential: the vectorized CSR builder must
            # emit the exact link sets of the per-vertex reference, and
            # an engine forced onto the reference builder must agree.
            assert_link_equivalence(engine, query, alpha, context)
            python_links = engine.query(query, alpha, PYTHON_LINKS)
            assert match_keys(python_links.matches) == oracle, context
            if python_links.link_stats:  # empty-partition cases skip links
                assert python_links.link_stats["backend"] == "python", context
            # Planned execution: the paper's greedy strategy (the default
            # exact one ran above), then its plan-cache hit, must agree
            # with the oracle.
            greedy = engine.query(query, alpha, GREEDY_PLAN)
            cached = engine.query(query, alpha, GREEDY_PLAN)
            assert match_keys(greedy.matches) == oracle, context
            assert match_keys(cached.matches) == oracle, context
            assert cached.plan.cached, context
            # Backend parity beyond matches: identical partition sizes
            # and removal counts, and the same search-space numbers.
            assert reduction_key(vectorized) == reduction_key(python), context
            assert vectorized.search_space_final == python.search_space_final, \
                context
            assert vectorized.candidate_counts == python.candidate_counts, \
                context
            case += 1
    assert case == QUERIES_PER_GRAPH * len(ALPHAS)


@pytest.mark.usefixtures("row_budget")
@pytest.mark.parametrize(
    "graph_index,config,query_seed",
    list(_cases()),
    ids=lambda value: value if isinstance(value, int) else None,
)
def test_matcher_differential(graph_index, config, query_seed):
    """Array matcher == DFS reference on every harness case: both
    alphas, greedy and exact decompositions, and (``row_budget``) again
    with every level expanded in 2-row blocks."""
    peg = build_peg(generate_synthetic_pgd(config))
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    sigma = sorted(peg.sigma, key=repr)
    for query in _random_queries(random.Random(query_seed), sigma):
        for alpha in ALPHAS:
            for options in (GREEDY_PLAN, EXACT_PLAN):
                context = (
                    graph_index, config.seed, query.nodes, alpha,
                    options.decomposition,
                )
                assert_matcher_equivalence(
                    engine, query, alpha, context, options
                )


@pytest.mark.usefixtures("row_budget")
@pytest.mark.parametrize(
    "graph_index,config,query_seed",
    list(_cases()),
    ids=lambda value: value if isinstance(value, int) else None,
)
def test_matcher_differential_every_reduction(
    graph_index, config, query_seed
):
    """Array matcher == DFS reference over the live entry list every
    reduction setting leaves — structure and upperbounds each on and
    off, ``max_rounds`` 1, 2 and 1000 — on every harness case, both
    alphas, and (``row_budget``) again in 2-row blocks."""
    peg = build_peg(generate_synthetic_pgd(config))
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    sigma = sorted(peg.sigma, key=repr)
    for query in _random_queries(random.Random(query_seed), sigma):
        for alpha in ALPHAS:
            for setting in REDUCTION_SETTINGS:
                context = (
                    graph_index, config.seed, query.nodes, alpha, setting
                )
                assert_matcher_equivalence(
                    engine, query, alpha, context, GREEDY_PLAN, setting
                )


@pytest.mark.parametrize(
    "graph_index,config,query_seed",
    list(_cases()),
    ids=lambda value: value if isinstance(value, int) else None,
)
def test_reduction_differential(graph_index, config, query_seed):
    """Stacked reduction == per-pair oracle on every harness case: three
    alphas (the lowest below beta), greedy and exact decompositions,
    structure and upperbounds each on and off, ``max_rounds`` 1, 2 and
    1000."""
    peg = build_peg(generate_synthetic_pgd(config))
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    arrays = PegProbabilityArrays(peg)
    sigma = sorted(peg.sigma, key=repr)
    for query in _random_queries(random.Random(query_seed), sigma):
        for alpha in REDUCTION_ALPHAS:
            for options in (GREEDY_PLAN, EXACT_PLAN):
                context = (
                    graph_index, config.seed, query.nodes, alpha,
                    options.decomposition,
                )
                decomposition, candidates = planned_candidates(
                    engine, query, alpha, options
                )
                links = build_candidate_links_vectorized(
                    peg, decomposition, candidates, alpha, arrays=arrays
                )
                assert_reduction_equivalence(
                    peg, decomposition, candidates, alpha, links, context,
                    arrays,
                )


def _dense_cases():
    rng = random.Random(f"{SEED}/dense")
    return [rng.randrange(2**31) for _ in range(6)]


def _dense_queries(peg, peg_seed: int) -> list:
    """Twelve dense queries (4-5 nodes, up to every edge) over ``peg``'s
    labels: their paths join in cycles."""
    sigma = sorted(peg.sigma, key=repr)
    rng = random.Random(peg_seed)
    queries = []
    for _ in range(12):
        num_nodes = rng.choice((4, 5))
        num_edges = rng.randint(num_nodes, num_nodes * (num_nodes - 1) // 2)
        queries.append(random_query(
            num_nodes, num_edges, sigma, seed=rng.randrange(2**31)
        ))
    return queries


@pytest.mark.usefixtures("row_budget")
@pytest.mark.parametrize("peg_seed", _dense_cases())
def test_matcher_differential_every_reduction_dense(peg_seed):
    """Array matcher == DFS reference over the live entry list every
    reduction setting leaves, on the dense queries: the cases whose
    steps probe a second placed driver's links."""
    peg = small_random_peg(seed=peg_seed)
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    for query in _dense_queries(peg, peg_seed):
        for alpha in (0.05, 0.1, 0.2):
            for setting in REDUCTION_SETTINGS:
                context = (peg_seed, query.nodes, alpha, setting)
                assert_matcher_equivalence(
                    engine, query, alpha, context, GREEDY_PLAN, setting
                )


@pytest.mark.parametrize("peg_seed", _dense_cases())
def test_reduction_differential_dense(peg_seed):
    """Stacked reduction == per-pair oracle on dense queries (4-5 nodes,
    up to every edge) over a 60-reference PEG: their paths join in
    cycles, the only shape where a neighbour's bound on a vertex's own
    partition can undercut the vertex's own ``w1``."""
    peg = small_random_peg(seed=peg_seed)
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    arrays = PegProbabilityArrays(peg)
    for query in _dense_queries(peg, peg_seed):
        for alpha in (0.05, 0.1, 0.2):
            context = (
                peg_seed, query.nodes, sorted(query.edges, key=repr), alpha
            )
            decomposition, candidates = planned_candidates(
                engine, query, alpha
            )
            links = build_candidate_links_vectorized(
                peg, decomposition, candidates, alpha, arrays=arrays
            )
            assert_reduction_equivalence(
                peg, decomposition, candidates, alpha, links, context, arrays
            )


def _edge_case_candidates(engine, query, alpha):
    decomposition, candidates = planned_candidates(
        engine, query, alpha, GREEDY_PLAN
    )
    assert all(candidates.values()), query.nodes
    return decomposition, candidates


def test_reduction_differential_edge_cases():
    """Stacked reduction == per-pair oracle where the random cases only
    sometimes reach: one partition, a partition the first structure
    sweep empties, a disconnected query (partitions joining nothing),
    and links in the reference dict form — directly and through an
    engine running the reference link builder."""
    peg = small_random_peg(seed=39)
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    a, b, c = sorted(peg.sigma, key=repr)
    alpha = 0.1
    chain = QueryGraph(
        {"u": a, "v": b, "w": c, "x": a, "y": b},
        [("u", "v"), ("v", "w"), ("w", "x"), ("x", "y")],
    )

    single = QueryGraph({"u": a, "v": b}, [("u", "v")])
    decomposition, candidates = _edge_case_candidates(engine, single, alpha)
    assert len(decomposition.paths) == 1
    assert_reduction_equivalence(
        peg, decomposition, candidates, alpha, {}, "single"
    )

    decomposition, candidates = _edge_case_candidates(engine, chain, alpha)
    links = build_candidate_links_vectorized(
        peg, decomposition, candidates, alpha
    )
    assert len(decomposition.paths) >= 3 and links.stats["pairs"]
    # Links in the reference's dict form reduce exactly like the
    # builder's stacked ones.
    dict_links = build_candidate_links(peg, decomposition, candidates, alpha)
    assert dict_links == links.pair_lists()
    for form, given in (("stacked", links), ("dict", dict_links)):
        results = assert_reduction_equivalence(
            peg, decomposition, candidates, alpha, given, form
        )
        assert results[REDUCTION_SETTINGS[0]].upperbound_removed > 0, form
    # Emptying one pair's links empties both its partitions in the
    # first structure sweep; the rest cascades.
    (i, j), _ = next(
        (pair, pairs) for pair, pairs in sorted(dict_links.items()) if pairs
    )
    cut = {
        pair: [] if pair == (i, j) else pairs
        for pair, pairs in dict_links.items()
    }
    results = assert_reduction_equivalence(
        peg, decomposition, candidates, alpha, cut, "cut"
    )
    after = results[REDUCTION_SETTINGS[0]].after_structure_sizes
    assert after[i] == after[j] == 0
    assert results[REDUCTION_SETTINGS[0]].links_live == 0

    disconnected = QueryGraph(
        {"u": a, "v": b, "w": b, "x": c}, [("u", "v"), ("w", "x")]
    )
    decomposition, candidates = _edge_case_candidates(
        engine, disconnected, alpha
    )
    assert len(decomposition.paths) == 2
    assert not any(decomposition.joins_with.values())
    assert_reduction_equivalence(
        peg, decomposition, candidates, alpha, {}, "disconnected"
    )

    # The engine with the reference link builder and the default
    # (stacked) reduction reports what the default engine reports.
    default = engine.query(chain, alpha)
    python_links = engine.query(chain, alpha, PYTHON_LINKS)
    assert python_links.link_stats["backend"] == "python"
    assert python_links.reduction == default.reduction
    assert match_records(python_links.matches) == match_records(
        default.matches
    )


#: The link differential's thresholds: one below BETA (on-demand lookups).
LINK_ALPHAS = (0.02, 0.15, 0.45)


@pytest.mark.parametrize(
    "graph_index,config,query_seed",
    list(_cases()),
    ids=lambda value: value if isinstance(value, int) else None,
)
def test_link_differential(graph_index, config, query_seed):
    """Stacked link pass == per-pair oracle on every harness case: three
    alphas (the lowest below beta), greedy and exact decompositions; the
    links built at each alpha are the oracle's at or above it."""
    peg = build_peg(generate_synthetic_pgd(config))
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    sigma = sorted(peg.sigma, key=repr)
    for query in _random_queries(random.Random(query_seed), sigma):
        for alpha in LINK_ALPHAS:
            for options in (GREEDY_PLAN, EXACT_PLAN):
                context = (
                    graph_index, config.seed, query.nodes, alpha,
                    options.decomposition,
                )
                decomposition, candidates = planned_candidates(
                    engine, query, alpha, options
                )
                assert_link_oracle_equivalence(
                    peg, decomposition, candidates, context, alphas=(alpha,)
                )


def _dense_link_cases(peg_seed: int) -> int:
    """Runs the link differential over the dense queries of one
    60-reference PEG; returns how many of their joining pairs with links
    share two or more query nodes (multi-column join keys)."""
    peg = small_random_peg(seed=peg_seed)
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    multi_key = 0
    for query in _dense_queries(peg, peg_seed):
        for alpha in (0.05, 0.1, 0.2):
            context = (peg_seed, query.nodes, sorted(query.edges, key=repr), alpha)
            decomposition, candidates = planned_candidates(engine, query, alpha)
            oracle = assert_link_oracle_equivalence(
                peg, decomposition, candidates, context, alphas=(alpha,)
            )
            multi_key += sum(
                len(decomposition.join_predicates[pair]) > 1 and rows.size > 0
                for pair, (rows, *_) in oracle.items()
            )
    return multi_key


@pytest.mark.parametrize("peg_seed", _dense_cases())
def test_link_differential_dense(peg_seed):
    """Stacked link pass == per-pair oracle on dense cyclic queries,
    where two partitions share two or more nodes: the composite join key
    spans several key columns."""
    assert _dense_link_cases(peg_seed) > 0


@pytest.mark.parametrize("peg_seed", _dense_cases()[:2])
def test_link_differential_key_overflow(peg_seed, monkeypatch):
    """With the composite-key bound at 0, every stacked join numbers its
    ``(pair, key columns)`` rows by ``np.unique(axis=0)``, the branch a
    composite past int64 takes: the links are the oracle's still."""
    monkeypatch.setattr("repro.query.links._KEY_LIMIT", 0)
    assert _dense_link_cases(peg_seed) > 0


def test_link_differential_edge_cases():
    """Stacked link pass == per-pair oracle where the random cases only
    sometimes reach: a one-pair query, a query label outside Σ, a pair
    with no predicate match beside a pair with matches, and one query
    whose pairs mix link-cache hits and misses."""
    peg = small_random_peg(seed=39)
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    a, b, c = sorted(peg.sigma, key=repr)
    alpha = 0.1

    def candidates_of(decomposition):
        finder = CandidateFinder(
            peg, decomposition.query, alpha,
            index=engine.index, context=engine.context,
        )
        found = {
            i: finder.find(path)[0]
            for i, path in enumerate(decomposition.paths)
        }
        assert all(found.values())
        return found

    one_pair = Decomposition(
        query=QueryGraph({"u": a, "v": b, "w": c}, [("u", "v"), ("v", "w")]),
        paths=[QueryPath(("u", "v")), QueryPath(("v", "w"))],
    )
    oracle = assert_link_oracle_equivalence(
        peg, one_pair, candidates_of(one_pair), "one pair", alphas=(alpha,)
    )
    assert list(oracle) == [(0, 1)] and oracle[(0, 1)][0].size

    # Three one-edge paths: pairs (0, 1) through v and (1, 2) through w.
    edges = [("u", "v"), ("v", "w"), ("w", "x")]
    paths = [QueryPath(("u", "v")), QueryPath(("v", "w")), QueryPath(("w", "x"))]
    chain = Decomposition(
        query=QueryGraph({"u": a, "v": b, "w": c, "x": a}, edges), paths=paths
    )
    candidates = candidates_of(chain)
    oracle = assert_link_oracle_equivalence(
        peg, chain, candidates, "chain", alphas=(alpha,)
    )
    assert list(oracle) == [(0, 1), (1, 2)]
    assert all(rows.size for rows, *_ in oracle.values())

    # x's label is outside Σ: every link of (1, 2) multiplies a 0.0
    # label factor, while (0, 1) keeps its links.
    stranger = Decomposition(
        query=QueryGraph({"u": a, "v": b, "w": c, "x": "not-a-label"}, edges),
        paths=paths,
    )
    assert "not-a-label" not in peg.sigma
    oracle = assert_link_oracle_equivalence(
        peg, stranger, candidates, "outside sigma", alphas=(alpha,)
    )
    assert oracle[(0, 1)][0].size and not oracle[(1, 2)][0].size

    # Partition 0's v column moved to a node no partition-1 row holds:
    # (0, 1) matches nothing, (1, 2) still matches.
    nodes = candidates[0].nodes.copy()
    nodes[:, 1] = np.setdiff1d(
        np.arange(peg.columns.size), candidates[1].nodes[:, 0]
    )[0]
    unmatched = dict(candidates)
    unmatched[0] = PathCandidates(nodes, candidates[0].prle, candidates[0].prn)
    oracle = assert_link_oracle_equivalence(
        peg, chain, unmatched, "no match", alphas=(alpha,)
    )
    assert not oracle[(0, 1)][0].size and oracle[(1, 2)][0].size

    # A warm cache, then partition 0 loses a row: (0, 1) misses and goes
    # through the stacked pass, (1, 2) is served from the cache.
    cache = LinkStructureCache()
    assert_link_oracle_equivalence(
        peg, chain, candidates, "cold", alphas=(alpha,), cache=cache
    )
    trimmed = dict(candidates)
    trimmed[0] = candidates[0].take(slice(None, -1))
    oracle = assert_link_oracle_equivalence(peg, chain, trimmed, "trimmed")
    mixed = build_candidate_links_vectorized(
        peg, chain, trimmed, alpha, cache=cache
    )
    assert (mixed.stats["cache_hits"], mixed.stats["cache_misses"]) == (1, 1)
    assert_links_above(mixed, oracle, alpha, "mixed")


@pytest.mark.parametrize(
    "graph_index,config,query_seed",
    list(_cases()),
    ids=lambda value: value if isinstance(value, int) else None,
)
def test_lookup_differential(graph_index, config, query_seed):
    """Array finder == scalar oracle on every harness case — both
    alphas, greedy and exact decompositions, with and without context
    pruning — and on the lookup shapes the random cases only sometimes
    reach: on-demand enumeration below beta, palindromic and
    reverse-stored sequences, and an empty bucket inside the range
    scan."""
    peg = build_peg(generate_synthetic_pgd(config))
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    sigma = sorted(peg.sigma, key=repr)
    queries = _random_queries(random.Random(query_seed), sigma)
    for query in queries:
        for alpha in ALPHAS:
            for options in (GREEDY_PLAN, EXACT_PLAN):
                context = (
                    graph_index, config.seed, query.nodes, alpha,
                    options.decomposition,
                )
                span = assert_lookup_equivalence(
                    engine, query, alpha, context, options
                )
                assert "on_demand" not in span.attributes, context
                assert {"node_pruned", "path_pruned"} <= set(span.attributes)
            assert_lookup_equivalence(
                engine, query, alpha, context, use_context=False
            )
        # Below beta nothing is indexed: both enumerate on demand.
        context = (graph_index, config.seed, query.nodes, "below-beta")
        span = assert_lookup_equivalence(engine, query, BETA / 2, context)
        assert span.attributes["on_demand"] is True, context

    # Orientation: palindromes interleave both alignments of a stored
    # path; a sequence stored reversed comes back turned around.
    first, second = sigma[0], sigma[-1]
    shapes = [(first, first), (first, second, first), (second, first)]
    assert is_palindrome(shapes[0]) and is_palindrome(shapes[1])
    assert canonical_sequence(shapes[2]) != shapes[2]
    for labels in shapes:
        nodes = tuple(range(len(labels)))
        query = QueryGraph(
            dict(zip(nodes, labels)), list(zip(nodes, nodes[1:]))
        )
        for alpha in ALPHAS:
            context = (graph_index, config.seed, labels, alpha)
            assert_lookup_equivalence(
                engine, query, alpha, context, paths=[QueryPath(nodes)]
            )

    # An empty bucket (what compaction leaves where a bucket emptied)
    # in the middle of a range scan joins as zero rows.
    store = engine.index.store
    for sequence in store.label_sequences():
        used = {bucket for bucket, _ in store.scan_buckets(sequence, 0)}
        spare = next(b for b in engine.index.grid.points[1:] if b not in used)
        store.put_bucket(sequence, spare, concat_payloads(()))
    for query in queries:
        context = (graph_index, config.seed, query.nodes, "empty-bucket")
        assert_lookup_equivalence(engine, query, BETA, context)


@pytest.mark.parametrize(
    "graph_index,config,query_seed",
    list(_cases()),
    ids=lambda value: value if isinstance(value, int) else None,
)
def test_on_demand_lookup_differential(graph_index, config, query_seed):
    """On-demand enumeration at α is a lookup on an index built at
    β = α: for every stored sequence in both orientations, at the
    harness β and below it, the same rows with the same ``prle``/``prn``
    bits, palindromes doubled the same way. This is the oracle of the
    enumerator the scalar finder itself calls below β."""
    peg = build_peg(generate_synthetic_pgd(config))
    for alpha in (BETA, BETA / 2):
        index = build_path_index(peg, max_length=MAX_LENGTH, beta=alpha)
        on_demand = PathIndexBuilder(peg, beta=alpha).paths_for_sequence
        stored = index.store.label_sequences()
        assert stored
        for canonical in stored:
            for seq in {canonical, canonical[::-1]}:
                context = (graph_index, config.seed, seq, alpha)
                found = on_demand(seq)
                assert isinstance(found, PathCandidates), context
                assert path_bits(found) == path_bits(index.lookup(seq, alpha)), \
                    context
                if is_palindrome(seq) and len(seq) > 1:
                    assert (
                        found.nodes[1::2] == found.nodes[::2, ::-1]
                    ).all(), context
        nothing = on_demand(("no-such-label",) * 2)
        assert nothing.nodes.shape == (0, 2)


@pytest.mark.parametrize(
    "graph_index,config,query_seed",
    list(_cases()),
    ids=lambda value: value if isinstance(value, int) else None,
)
def test_lookup_store_differential(graph_index, config, query_seed):
    """What lookups read is what the scalar oracle writes: the serial
    build, the two-process build and the enumeration filed row by row
    through the oracle's bucket rule and encoder hold the same buckets
    with the same bytes, and the same histograms."""
    peg = build_peg(generate_synthetic_pgd(config))
    context = (graph_index, config.seed)
    serial = build_path_index(peg, max_length=MAX_LENGTH, beta=BETA)
    parallel = build_path_index(
        peg, max_length=MAX_LENGTH, beta=BETA, build_processes=2
    )
    per_key, _counts = PathIndexBuilder(
        peg, max_length=MAX_LENGTH, beta=BETA
    ).collect_buckets()
    points = serial.grid.points
    oracle = {
        labels: oracle_payloads(serial.grid, rows)
        for labels, rows in per_key.items()
    }
    histograms = {
        labels: (
            tuple(point / 1000.0 for point in points),
            tuple(
                sum(payload_count(p) for bucket, p in filed if bucket >= point)
                for point in points
            ),
        )
        for labels, filed in oracle.items()
    }
    for index in (serial, parallel):
        assert store_content(index.store) == oracle, context
        assert {
            labels: (histogram.thresholds, histogram.counts)
            for labels, histogram in index.histograms.items()
        } == histograms, context


def assert_same_columns(found: dict, expected: dict, context) -> None:
    """Two enumerations agree: the same sequences in the same order,
    each holding the same rows in the same order, floats bit for bit."""
    assert list(found) == list(expected), context
    for labels, rows in found.items():
        theirs = expected[labels]
        assert isinstance(rows, PathCandidates), (context, labels)
        assert rows.nodes.dtype == theirs.nodes.dtype, (context, labels)
        assert rows.nodes.shape == theirs.nodes.shape, (context, labels)
        for ours, oracle in zip(
            (rows.nodes, rows.prle, rows.prn),
            (theirs.nodes, theirs.prle, theirs.prn),
        ):
            assert ours.tobytes() == oracle.tobytes(), (context, labels)


def assert_enumeration_equivalence(
    peg, max_length, beta, context, target_sets=()
) -> int:
    """The column frontier against the tuple oracle, all three
    producers: ``collect_buckets`` (whole graph and one start-node
    chunk) in key order, bytes and level counts; ``paths_through`` of
    every target set in rows and ``expanded``; ``paths_for_sequence``
    of every enumerated sequence, both orientations. Returns the rows
    that took a joint existence marginal."""
    oracle = TuplePathEnumeration(peg, max_length, beta)
    builder = PathIndexBuilder(peg, max_length=max_length, beta=beta)
    expected, expected_counts = oracle.collect_buckets()
    found, counts = builder.collect_buckets()
    assert counts == expected_counts, context
    assert_same_columns(found, expected, context)
    fallback_rows = builder.fallback_rows
    chunk = tuple(peg.node_ids())[1::2]
    found, counts = builder.collect_buckets(chunk)
    chunk_expected, chunk_counts = oracle.collect_buckets(chunk)
    assert counts == chunk_counts, context
    assert_same_columns(found, chunk_expected, context)
    for targets in target_sets:
        found, expanded = builder.paths_through(targets)
        through, through_expanded = oracle.paths_through(targets)
        assert expanded == through_expanded, (context, targets)
        assert_same_columns(found, through, (context, targets))
    for canonical, rows in expected.items():
        for seq in {canonical, canonical[::-1]}:
            assert_same_columns(
                {seq: builder.paths_for_sequence(seq)},
                {seq: orient_to_sequence(rows, seq)},
                (context, seq),
            )
    return fallback_rows


@pytest.mark.parametrize(
    "graph_index,config,query_seed",
    list(_cases()),
    ids=lambda value: value if isinstance(value, int) else None,
)
def test_enumeration_differential(graph_index, config, query_seed):
    """Array enumeration == tuple oracle on every harness graph, for
    L in {1, 2, 3} and three β, over seeded target sets (none, one
    node, every node) — and again after a live merge, whose survivor
    is a target and whose tombstones stay in the id space."""
    peg = build_peg(generate_synthetic_pgd(config))
    rng = random.Random(query_seed)
    nodes = list(peg.node_ids())
    target_sets = [set(), {rng.choice(nodes)}, set(nodes)]
    singles = _singleton_ids(peg)
    for merged in (False, True):
        if merged:
            if len(singles) < 2:
                break
            survivor = peg.graph_merge_entities(*rng.sample(singles, 2))
            target_sets = [{survivor}, set(peg.node_ids())]
        for max_length in (1, 2, 3):
            for beta in (0.02, BETA, 0.3):
                context = (graph_index, config.seed, merged, max_length, beta)
                assert_enumeration_equivalence(
                    peg, max_length, beta, context, target_sets
                )


#: Insertion (and so support) order differs from ``repr`` order, which
#: is ``'a' < 'b' < 10``: the canonical orientation must follow the latter.
ENUMERATION_LABELS = ("b", "a", 10)


def _enumeration_peg(seed: int, num_refs: int, extra_edges: int, merges: int):
    """A small PEG with everything the enumeration special-cases:
    label supports in non-``repr`` order, ``ConditionalEdge`` CPTs with
    a ``default`` beside Bernoulli edges, a three-reference identity
    component (entities that share references, and ones that do not but
    are not independent), and tombstones left by live merges."""
    rng = random.Random(seed)

    def label_spec():
        chosen = [
            label for label in ENUMERATION_LABELS if rng.random() < 0.6
        ] or [rng.choice(ENUMERATION_LABELS)]
        weights = [rng.uniform(0.2, 1.0) for _ in chosen]
        return {
            label: weight / sum(weights)
            for label, weight in zip(chosen, weights)
        }

    specs = [label_spec() for _ in range(num_refs)]
    # A CPT may only name labels of the graph's alphabet.
    alphabet = [
        label for label in ENUMERATION_LABELS
        if any(label in spec for spec in specs)
    ]

    def edge_spec():
        if rng.random() < 0.5:
            return rng.uniform(0.4, 1.0)
        pairs = [
            pair for pair in itertools.combinations_with_replacement(
                alphabet, 2
            ) if rng.random() < 0.4
        ] or [(alphabet[0], alphabet[-1])]
        return ConditionalEdge(
            {pair: rng.choice((0.0, rng.uniform(0.3, 1.0))) for pair in pairs},
            default=rng.choice((0.0, rng.uniform(0.3, 1.0))),
        )

    pgd = PGD()
    for ref, spec in enumerate(specs):
        pgd.add_reference(ref, spec)
    for ref in range(1, num_refs):
        pgd.add_edge(ref, rng.randrange(ref), edge_spec())
    for _ in range(extra_edges):
        a, b = rng.sample(range(num_refs), 2)
        if pgd.edge_distribution(a, b) is None:
            pgd.add_edge(a, b, edge_spec())
    pgd.add_reference_set((0, 1), rng.uniform(0.2, 0.8))
    pgd.add_reference_set((1, 2), rng.uniform(0.2, 0.8))
    peg = build_peg(pgd)
    for _ in range(merges):
        singles = _singleton_ids(peg)
        if len(singles) < 2:
            break
        peg.graph_merge_entities(*rng.sample(singles, 2))
    return peg


def _thresholds_beside_a_path(peg, rng: random.Random) -> list:
    """β on the exact product of one enumerated path and one ulp either
    side of it: the prune must cut where the oracle's cuts."""
    per_key, _counts = TuplePathEnumeration(peg, 2, 0.01).collect_buckets()
    rows = rng.choice(list(per_key.values()))
    row = rng.randrange(len(rows))
    product = float(rows.prle[row] * rows.prn[row])
    return [
        float(np.nextafter(product, 0.0)), product,
        float(np.nextafter(product, 2.0)),
    ]


# Derandomized like the rest of this seeded module: the same examples
# on every run (raise max_examples locally to explore; 1500 pass).
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    num_refs=st.integers(4, 9),
    extra_edges=st.integers(0, 6),
    merges=st.integers(0, 2),
    max_length=st.integers(1, 3),
    row_budget=st.sampled_from((1, 7)),
)
def test_enumeration_property(
    seed, num_refs, extra_edges, merges, max_length, row_budget
):
    """Array enumeration == tuple oracle on small PEGs built to reach
    every special case, with every level extended in blocks of 1 or 7
    neighbour rows (block boundaries must not reorder anything)."""
    peg = _enumeration_peg(seed, num_refs, extra_edges, merges)
    rng = random.Random(seed)
    nodes = list(peg.node_ids())
    target_sets = [{rng.choice(nodes)}, set(rng.sample(nodes, 2))]
    with mock.patch.object(index_builder, "_FRONTIER_ROW_BUDGET", row_budget):
        for beta in [0.01] + _thresholds_beside_a_path(peg, rng):
            if not 0.0 < beta <= 1.0:
                continue
            context = (seed, num_refs, extra_edges, merges, max_length, beta)
            assert_enumeration_equivalence(
                peg, max_length, beta, context, target_sets
            )


def test_enumeration_fallback_rows_exist():
    """The joint existence marginal is reached, and agrees: in a graph
    whose identity component holds several entities, some extension puts
    two of them on one path."""
    fallback_rows = 0
    for seed in range(5):
        peg = _enumeration_peg(seed, num_refs=6, extra_edges=4, merges=1)
        assert len(peg.sigma) > 1
        assert any(dist.conditional for _pair, dist in peg.edge_ids())
        fallback_rows += assert_enumeration_equivalence(
            peg, 3, 0.01, seed, [set(peg.node_ids())]
        )
    assert fallback_rows > 0


def test_enumeration_more_sequences_than_an_integer_names():
    """30 labels and 13-node paths: ``|Σ| ** width`` passes 2**62, so
    sequences are grouped by ranking label rows, not by one integer."""
    pgd = PGD()
    for ref in range(30):
        pgd.add_reference(ref, f"label-{ref:02d}")
    for ref in range(29):
        pgd.add_edge(ref, ref + 1, 1.0)
    assert 30 ** 13 >= 2 ** 62
    assert_enumeration_equivalence(build_peg(pgd), 12, 0.5, "chain", [{15}])


#: Reference-set potentials the identity-component partition runs on:
#: every harness graph, the benchmarks' DBLP graph and the synthetic
#: recipe at 2,000 references.
PARTITION_INPUTS = {
    "harness": lambda: [
        generate_synthetic_pgd(config) for _, config, _ in _cases()
    ],
    "dblp-400": lambda: [generate_dblp_pgd(num_authors=400, seed=7)],
    "synthetic-2000": lambda: [
        generate_synthetic_pgd(
            num_references=2000, uncertainty=0.2, seed=20140331
        )
    ],
}


@pytest.mark.parametrize("name", sorted(PARTITION_INPUTS))
def test_partition_differential_identity_components(name):
    """Grouping reference sets by their union-find root returns the
    list the per-component scan returns, order included."""
    shared = 0
    for pgd in PARTITION_INPUTS[name]():
        sets = pgd.reference_sets()
        components = partition_into_components(sets)
        assert components == partition_by_scan(sets), name
        shared += sum(len(entities) > 1 for _refs, entities in components)
    assert shared, name


#: Graphs whose paths, links and matches put two nodes of one identity
#: component together: sampled components (joint marginals from a
#: sampler's draws) and a small DBLP graph (the Fig. 7(g) setting).
IDENTITY_GRAPHS = {
    "sampled": sampled_component_peg,
    "dblp": lambda: build_peg(generate_dblp_pgd(120, seed=5)),
}

#: One alpha below BETA (on-demand lookups) and one above.
IDENTITY_ALPHAS = (0.02, 0.15)


def _identity_cases(name: str):
    """``(engine, queries)``: a two-edge path query per label triple."""
    peg = IDENTITY_GRAPHS[name]()
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    queries = [
        QueryGraph(dict(zip("xyz", labels)), [("x", "y"), ("y", "z")])
        for labels in itertools.product(sorted(peg.sigma, key=repr), repeat=3)
    ]
    return engine, queries


@pytest.mark.parametrize("name", sorted(IDENTITY_GRAPHS))
def test_enumeration_differential_identity_components(name):
    peg = IDENTITY_GRAPHS[name]()
    targets = [set(list(peg.node_ids())[::7])]
    fallback_rows = 0
    for max_length in (2, 3):
        fallback_rows += assert_enumeration_equivalence(
            peg, max_length, BETA, (name, max_length), targets
        )
    assert fallback_rows > 0


@pytest.mark.parametrize("name", sorted(IDENTITY_GRAPHS))
def test_link_differential_identity_components(name):
    """The vectorized links equal the reference's, and the stacked pass
    the per-pair oracle's, on the path queries and on every labelling of
    a triangle with a pendant node — whose partition pairs hold different
    numbers of query nodes, so that some query's joint-marginal links
    fall in more than one assignment-width group."""
    engine, queries = _identity_cases(name)
    peg = engine.peg
    paws = [
        QueryGraph(
            dict(zip("wxyz", labels)),
            [("x", "y"), ("y", "z"), ("z", "x"), ("z", "w")],
        )
        for labels in itertools.product(sorted(peg.sigma, key=repr), repeat=4)
    ]
    fallback_pairs = 0
    width_groups = 0
    for query in queries + paws:
        for alpha in IDENTITY_ALPHAS:
            context = (name, query.nodes, query.label_sequence(query.nodes), alpha)
            stats = assert_link_equivalence(engine, query, alpha, context)
            fallback_pairs += stats["fallback_pairs"]
            decomposition, candidates = planned_candidates(engine, query, alpha)
            oracle = assert_link_oracle_equivalence(
                peg, decomposition, candidates, context, alphas=(alpha,)
            )
            paths = decomposition.paths
            width_groups = max(width_groups, len({
                len({*paths[i].nodes, *paths[j].nodes})
                for (i, j), (*_, fallback) in oracle.items() if fallback
            }))
    assert fallback_pairs > 0
    assert width_groups > 1


@pytest.mark.usefixtures("row_budget")
@pytest.mark.parametrize("name", sorted(IDENTITY_GRAPHS))
def test_matcher_differential_identity_components(name):
    engine, queries = _identity_cases(name)
    fallback_rows = 0
    for query in queries:
        for alpha in IDENTITY_ALPHAS:
            outcome = assert_matcher_equivalence(
                engine, query, alpha, (name, query.nodes, alpha)
            )
            if outcome is not None:
                fallback_rows += outcome[1]["fallback_rows"]
    assert fallback_rows > 0


def test_case_count_meets_floor():
    """The harness must exercise at least 200 random PEG/query cases."""
    assert TOTAL_CASES >= 200


# ----------------------------------------------------------------------
# Mutate-then-query mode: live updates vs rebuild vs possible worlds
# ----------------------------------------------------------------------

NUM_MUTATION_GRAPHS = 10
MUTATIONS_PER_GRAPH = 4

#: Mutation differential cases (each query/alpha asserted pre- and
#: post-compact).
MUTATION_CASES = NUM_MUTATION_GRAPHS * QUERIES_PER_GRAPH * len(ALPHAS)


def _singleton_ids(peg):
    return [
        node
        for node in peg.node_ids()
        if not peg.is_removed_id(node)
        and len(peg.component_of(peg.entity_of(node)).entities) == 1
    ]


def _refs(peg, node_id):
    return tuple(sorted(peg.entity_of(node_id), key=repr))


def _world_estimate(peg) -> int:
    """Upper bound on the possible-world count (the oracle's formula)."""
    estimate = 1
    for component in peg.components:
        if component.configurations is not None:
            estimate *= max(1, len(component.configurations))
    for entity in peg.entities:
        estimate *= max(1, len(peg.possible_labels(entity)))
    return estimate * 2 ** peg.num_edges


def _random_mutation(
    rng: random.Random, peg, sigma, fresh_counter: list, can_grow=None
):
    """One random valid mutation op against the *current* PEG state."""
    from repro.delta import (
        AddEdge,
        AddEntity,
        MergeEntities,
        UpdateEdgeDistribution,
        UpdateLabelProbability,
    )
    from repro.pgd import BernoulliEdge

    def random_labels():
        chosen = rng.sample(sigma, rng.randint(1, len(sigma)))
        weights = [rng.uniform(0.1, 1.0) for _ in chosen]
        total = sum(weights)
        return {label: weight / total for label, weight in zip(chosen, weights)}

    live = [n for n in peg.node_ids() if not peg.is_removed_id(n)]
    singles = _singleton_ids(peg)
    kinds = ["add_entity", "update_label", "update_edge", "add_edge", "merge"]
    rng.shuffle(kinds)
    # Growth ops multiply the possible-world count (the oracle's
    # feasibility ceiling); only draw them while the budget allows.
    if can_grow is None:
        can_grow = _world_estimate(peg) * 8 < 500_000
    for kind in kinds:
        if kind in ("add_entity", "add_edge") and not can_grow:
            continue
        if kind == "add_entity":
            fresh_counter[0] += 1
            return AddEntity(
                (f"dyn-{fresh_counter[0]}",),
                random_labels(),
                rng.uniform(0.5, 1.0),
            )
        if kind == "update_label" and live:
            return UpdateLabelProbability(
                _refs(peg, rng.choice(live)), random_labels()
            )
        if kind == "update_edge":
            edges = [
                (a, b) for (a, b), dist in peg.edge_ids()
                if not dist.conditional
            ]
            if edges:
                a, b = rng.choice(sorted(edges))
                return UpdateEdgeDistribution(
                    _refs(peg, a), _refs(peg, b),
                    BernoulliEdge(rng.uniform(0.05, 1.0)),
                )
        if kind == "add_edge" and len(live) >= 2:
            pairs = [
                (a, b)
                for a in live for b in live
                if a < b
                and b not in peg.neighbor_ids(a)
                and not peg.shares_references_id(a, b)
            ]
            if pairs:
                a, b = rng.choice(pairs)
                return AddEdge(
                    _refs(peg, a), _refs(peg, b),
                    BernoulliEdge(rng.uniform(0.3, 1.0)),
                )
        if kind == "merge" and len(singles) >= 2:
            a, b = rng.sample(singles, 2)
            return MergeEntities(_refs(peg, a), _refs(peg, b))
    raise AssertionError("no applicable mutation found")  # pragma: no cover


def _mutation_cases():
    rng = random.Random(SEED + 1)
    for graph_index in range(NUM_MUTATION_GRAPHS):
        yield graph_index, _tiny_config(rng), rng.randrange(2**31)


@pytest.mark.parametrize(
    "graph_index,config,mutation_seed",
    list(_mutation_cases()),
    ids=lambda value: value if isinstance(value, int) else None,
)
def test_mutation_differential(graph_index, config, mutation_seed):
    """Overlay-served results equal a from-scratch rebuild and Eq. 8.

    Random mutation batches are absorbed by a running engine; every
    query must then agree — pre- *and*
    post-``compact()`` — with an engine rebuilt from scratch over the
    mutated PEG and with brute-force possible-worlds enumeration.
    """
    peg = build_peg(generate_synthetic_pgd(config))
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    rng = random.Random(mutation_seed)
    sigma = sorted(peg.sigma, key=repr)
    fresh = [0]
    for _ in range(MUTATIONS_PER_GRAPH):
        # Generated against the evolving graph.
        op = _random_mutation(rng, peg, sigma, fresh)
        engine.apply_updates([op])
        # Ops arrive one by one, so dirty sets overlap and accumulate.
        assert_delta_equivalence(engine, (graph_index, config.seed, op))

    rebuilt = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    queries = _random_queries(rng, sigma)
    case = 0
    for compacted in (False, True):
        if compacted:
            engine.compact_updates()
        for query in queries:
            for alpha in ALPHAS:
                oracle = match_keys(exhaustive_matches(peg, query, alpha))
                context = (
                    graph_index, config.seed, query.nodes, alpha, compacted
                )
                assert match_keys(
                    engine.query(query, alpha).matches
                ) == oracle, context
                assert match_keys(
                    rebuilt.query(query, alpha).matches
                ) == oracle, context
                # Planned execution over the mutated graph: greedy plans
                # (the default exact ones ran above; both costed on
                # the overlay's estimates) and their
                # cache hits must still match the oracle.
                greedy = engine.query(query, alpha, GREEDY_PLAN)
                cached = engine.query(query, alpha, GREEDY_PLAN)
                assert match_keys(greedy.matches) == oracle, context
                assert match_keys(cached.matches) == oracle, context
                assert cached.plan.cached, context
                # Link-builder differential on the mutated graph, both
                # overlay-served (pre-compact) and compacted.
                assert_link_equivalence(engine, query, alpha, context)
                # ... and the array matcher against the DFS reference
                # over it (tombstoned and appended node ids included).
                assert_matcher_equivalence(engine, query, alpha, context)
                # ... and the array finder against the scalar oracle:
                # masked base rows plus delta rows before compaction,
                # the rewritten base after it.
                assert_lookup_equivalence(engine, query, alpha, context)
                case += 1
    assert case == 2 * QUERIES_PER_GRAPH * len(ALPHAS)


DELTA_BATCHES_PER_GRAPH = 9


@pytest.mark.parametrize(
    "graph_index,config,mutation_seed",
    list(_mutation_cases()),
    ids=lambda value: value if isinstance(value, int) else None,
)
def test_delta_differential(graph_index, config, mutation_seed):
    """Patched == recomputed after every batch of a long update stream.

    No possible-worlds oracle here, so the graph may grow freely:
    batches of 1-3 random ops (every kind, growth included), a
    compaction after every third batch — the next absorb then starts
    from an empty delta on a rewritten base. After each batch the
    delta and the context must equal their from-scratch oracles; after
    each compaction the store must hold, bucket by bucket, the rows a
    rebuild of the mutated graph stores, filed as the scalar oracle
    writer files them, byte for byte.
    """
    from repro.delta import apply_op

    pgd = generate_synthetic_pgd(config)
    peg = build_peg(pgd)
    # Ops are drawn one by one against a shadow copy that is mutated
    # at once, then applied to the engine as one batch (they address
    # entities by reference set, so they port).
    shadow = build_peg(pgd)
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    assert_oracle_written(engine.index, (graph_index, config.seed, "built"))
    rng = random.Random(mutation_seed)
    sigma = sorted(peg.sigma, key=repr)
    fresh = [0]
    for batch_index in range(DELTA_BATCHES_PER_GRAPH):
        context = (graph_index, config.seed, batch_index)
        batch = []
        for _ in range(rng.randint(1, 3)):
            batch.append(
                _random_mutation(rng, shadow, sigma, fresh, can_grow=True)
            )
            apply_op(shadow, batch[-1])
        summary = engine.apply_updates(batch)
        assert summary["applied"] == len(batch), context
        assert summary["delta_paths"] == engine.index.delta_path_count()
        assert_delta_equivalence(engine, context)
        if batch_index % 3 == 2:
            engine.compact_updates()
            rebuilt = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
            assert bucket_records(engine.index) == bucket_records(
                rebuilt.index
            ), context
            assert engine.index.num_paths() == rebuilt.index.num_paths()
            assert_oracle_written(engine.index, context)


def test_mutation_case_count_meets_floor():
    """The mutate-then-query mode must exercise at least 80 cases."""
    assert MUTATION_CASES >= 80
