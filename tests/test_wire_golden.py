"""Wire golden: replies encoded from match columns are byte-identical to
the decoded-form oracle, ``serialize_matches`` + ``json.dumps``.

:func:`repro.net.protocol.result_response` encodes a reply straight from
the engine's :class:`~repro.query.matcher.MatchColumns` (a gather and a
join over per-entity and per-column fragments). Every frame it makes
must equal, byte for byte, the frame of the dict the serving tier used
to build from ``Match`` objects — over the differential harness graphs
at three alphas, the four end-to-end benchmark pools, a hand-built graph
whose references are ints, tuples and non-ASCII strings and whose labels
are ints, and an empty result; request ids ``0``, ``"x"`` and ``None``.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

from repro.datasets import generate_synthetic_pgd
from repro.net.protocol import encode_frame, result_response, serialize_matches
from repro.peg import build_peg
from repro.pgd import pgd_from_edge_list
from repro.query import QueryEngine, QueryGraph, QueryOptions
from repro.query.matcher import MatchColumns
from tests.test_differential_random import (
    BETA,
    MAX_LENGTH,
    REDUCTION_ALPHAS,
    _cases,
    _random_queries,
)

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "e2e",
))
import workloads  # noqa: E402

REQUEST_IDS = (0, "x", None)


def oracle_frame(request_id, result) -> bytes:
    matches = list(result.matches)
    return encode_frame({
        "id": request_id,
        "ok": True,
        "matches": serialize_matches(matches),
        "num_matches": len(result.matches),
    })


def assert_wire_golden(result, context, request_ids=REQUEST_IDS) -> None:
    assert isinstance(result.matches, MatchColumns), context
    for request_id in request_ids:
        assert encode_frame(result_response(request_id, result)) == \
            oracle_frame(request_id, result), (context, request_id)


@pytest.mark.parametrize(
    "graph_index,config,query_seed",
    list(_cases()),
    ids=lambda value: value if isinstance(value, int) else None,
)
def test_wire_golden_harness_graphs(graph_index, config, query_seed):
    peg = build_peg(generate_synthetic_pgd(config))
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    sigma = sorted(peg.sigma, key=repr)
    for query in _random_queries(random.Random(query_seed), sigma):
        for alpha in REDUCTION_ALPHAS:
            assert_wire_golden(
                engine.query(query, alpha),
                (graph_index, config.seed, query.nodes, alpha),
            )


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_wire_golden_e2e_pool(name):
    inputs = getattr(workloads, name)(seed=7)
    engine = QueryEngine(
        build_peg(generate_synthetic_pgd(inputs.graph)),
        max_length=inputs.max_length, beta=inputs.beta,
    )
    matches = 0
    for position, (query, alpha) in enumerate(inputs.pool):
        result = engine.query(query, alpha)
        matches += len(result.matches)
        # One request id per request, each id on a third of the pool.
        request_id = REQUEST_IDS[position % len(REQUEST_IDS)]
        assert_wire_golden(result, (name, position), (request_id,))
    assert matches > 0


#: The planner's strategies: the default exact cover, the paper's greedy
#: approximation and a seeded random cover.
PLANS = (
    QueryOptions(decomposition="exact"),
    QueryOptions(decomposition="greedy"),
    QueryOptions(decomposition="random", seed=3),
)


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_reply_order_does_not_depend_on_the_plan(name):
    """Every request of an e2e pool gets the same reply under every
    plan: the same ``serialize_matches``, and the same matches in the
    same order, edges and probability bits included (the serialized
    form carries no edges, so it alone cannot see two embeddings of
    one node set trade places)."""
    inputs = getattr(workloads, name)(seed=7)
    engine = QueryEngine(
        build_peg(generate_synthetic_pgd(inputs.graph)),
        max_length=inputs.max_length, beta=inputs.beta,
    )
    sources = set()
    for position, (query, alpha) in enumerate(inputs.pool):
        replies = set()
        for options in PLANS:
            result = engine.query(query, alpha, options)
            sources.add(result.plan.source)
            replies.add((
                repr(serialize_matches(result.matches)),
                tuple(
                    (m.probability.hex(), m.nodes, m.edges)
                    for m in result.matches
                ),
            ))
        assert len(replies) == 1, (name, position)
    assert {"exact", "greedy", "random"} <= sources


def mixed_reference_engine() -> QueryEngine:
    """References that are ints, tuples and non-ASCII strings (merged
    across types, and 9 with 10, whose ``repr`` order is not their value
    order); labels that are ints."""
    pgd = pgd_from_edge_list(
        node_labels={
            1: {1: 0.6, 2: 0.4},
            ("t", 2): 2,
            "é": {1: 0.3, 2: 0.7},
            "Ωmega": 1,
            (3,): {2: 0.9, 1: 0.1},
            4: 2,
            9: {1: 0.5, 2: 0.5},
            10: 1,
        },
        edges=[
            (1, ("t", 2), 0.9),
            (("t", 2), "é", 0.8),
            ("é", "Ωmega", 1.0),
            (1, "é", 0.7),
            ((3,), 4, 0.9),
            (4, 1, 0.6),
            ("Ωmega", (3,), 0.8),
            (9, 1, 0.9),
            (10, "é", 0.8),
            (9, (3,), 0.7),
        ],
        reference_sets=[
            ((1, ("t", 2)), 0.5),
            (("é", "Ωmega"), 0.6),
            (((3,), 4), 0.4),
            ((9, 10), 0.7),
        ],
    )
    return QueryEngine(build_peg(pgd), max_length=2, beta=0.01)


@pytest.mark.parametrize("spec", [
    ({"a": 1}, []),
    ({"a": 1, "b": 2}, [("a", "b")]),
    ({"a": 2, "b": 1, "c": 2}, [("a", "b"), ("b", "c")]),
    ({"a": 1, "b": 1, "c": 2}, [("a", "b"), ("b", "c"), ("a", "c")]),
])
def test_wire_golden_mixed_references(spec):
    engine = mixed_reference_engine()
    result = engine.query(QueryGraph(*spec), 0.01)
    assert len(result.matches) > 0
    assert_wire_golden(result, spec)
    assert result_response("x", result).isascii()  # ensure_ascii escapes


def test_wire_golden_reaches_the_mixed_entities():
    """The hand-built graph's multi-reference entities reach a reply."""
    engine = mixed_reference_engine()
    result = engine.query(QueryGraph({"a": 1}, []), 0.01)
    merged = {
        entity for match in result.matches for entity, _ in match.nodes
        if len(entity) > 1
    }
    assert frozenset({9, 10}) in merged
    assert frozenset({"é", "Ωmega"}) in merged


def test_wire_golden_empty_result():
    engine = mixed_reference_engine()
    # A label no node carries: an empty partition, the engine's early exit.
    result = engine.query(QueryGraph({"a": 1, "b": 7}, [("a", "b")]), 0.01)
    assert len(result.matches) == 0
    assert_wire_golden(result, "empty")
    assert result_response(None, result) == \
        b'{"id":null,"ok":true,"matches":[],"num_matches":0}'
