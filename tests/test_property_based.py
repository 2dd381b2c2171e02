"""Property-based tests (hypothesis) for core data structures and invariants."""

import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.histogram import CardinalityHistogram
from repro.index.paths import IndexedPath, decode_paths
from repro.pgd.builders import normalized_levenshtein, pair_merge_potentials
from repro.pgd.distributions import BernoulliEdge, LabelDistribution
from repro.pgd.merge import average_edges, average_labels, disjunct_edges
from repro.pgm.configurations import enumerate_exact_covers
from repro.storage import DiskPathStore
from repro.testing.reference import encode_paths


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

probabilities = st.floats(0.0, 1.0, allow_nan=False)
positive_probabilities = st.floats(0.01, 1.0, allow_nan=False)


@st.composite
def label_distributions(draw):
    n = draw(st.integers(1, 5))
    raw = draw(
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
    )
    total = sum(raw)
    return LabelDistribution(
        {f"l{i}": value / total for i, value in enumerate(raw)}
    )


# ----------------------------------------------------------------------
# The disk path store behaves exactly like a dict of sorted dicts
# ----------------------------------------------------------------------

_STORE_SEQUENCES = st.sampled_from(
    [("a",), ("a", "b"), ("b", "a"), (1, 2, 1), ((1, "x"), (2, "y")), ("",)]
)
_STORE_BUCKETS = (0, 1, 250, 500, 999, 1000)
_STORE_OPS = st.one_of(
    st.tuples(
        st.just("put"),
        _STORE_SEQUENCES,
        st.sampled_from(_STORE_BUCKETS),
        st.binary(max_size=40),
    ),
    st.tuples(st.just("flush")),
    st.tuples(st.just("reopen")),
)


def _assert_store_matches_model(store, model, min_bucket):
    assert sorted(store.label_sequences(), key=repr) == sorted(model, key=repr)
    for seq in list(model) + [("never", "stored")]:
        buckets = model.get(seq, {})
        for bucket in _STORE_BUCKETS:
            got = store.get_bucket(seq, bucket)
            expected = buckets.get(bucket)
            assert got == expected and (got is None) == (expected is None)
        scanned = [(b, bytes(p)) for b, p in store.scan_buckets(seq, min_bucket)]
        assert scanned == sorted(
            item for item in buckets.items() if item[0] >= min_bucket
        )


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(_STORE_OPS, max_size=40),
    min_bucket=st.sampled_from([0, 1, 2, 500, 1000]),
)
def test_disk_path_store_matches_dict_model(ops, min_bucket):
    with tempfile.TemporaryDirectory() as directory:
        store = DiskPathStore(directory)
        model: dict = {}
        try:
            for op in ops:
                if op[0] == "put":
                    _, seq, bucket, payload = op
                    store.put_bucket(seq, bucket, payload)
                    model.setdefault(seq, {})[bucket] = payload
                elif op[0] == "flush":
                    store.flush()
                else:
                    store.close()
                    store = DiskPathStore(directory)
                _assert_store_matches_model(store, model, min_bucket)
        finally:
            store.close()
        assert sorted(os.listdir(directory)) == ["index.dir", "index.log"]


# ----------------------------------------------------------------------
# Merge functions
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(dists=st.lists(label_distributions(), min_size=1, max_size=4))
def test_average_labels_normalized_and_bounded(dists):
    merged = average_labels(dists)
    total = sum(p for _, p in merged.items())
    assert math.isclose(total, 1.0, rel_tol=1e-9)
    for label, prob in merged.items():
        inputs = [d.probability(label) for d in dists]
        assert min(inputs) - 1e-12 <= prob <= max(inputs) + 1e-12


@settings(max_examples=50, deadline=None)
@given(ps=st.lists(positive_probabilities, min_size=1, max_size=5))
def test_edge_merges_bounded(ps):
    edges = [BernoulliEdge(p) for p in ps]
    avg = average_edges(edges).probability()
    dis = disjunct_edges(edges).probability()
    assert min(ps) - 1e-12 <= avg <= max(ps) + 1e-12
    assert max(ps) - 1e-12 <= dis <= 1.0 + 1e-12


# ----------------------------------------------------------------------
# Exact covers
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    potentials=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
)
def test_pair_component_distribution(potentials):
    """Any positive potentials give a normalized two-configuration model."""
    p_a, p_b, p_ab = potentials
    covers = enumerate_exact_covers(
        ["a", "b"],
        [frozenset("a"), frozenset("b"), frozenset(["a", "b"])],
        {
            frozenset("a"): p_a,
            frozenset("b"): p_b,
            frozenset(["a", "b"]): p_ab,
        },
    )
    assert len(covers) == 2
    assert math.isclose(sum(c.probability for c in covers), 1.0, rel_tol=1e-9)
    merged = next(c for c in covers if len(c.chosen) == 1)
    expected = (p_ab ** 2) / (p_ab ** 2 + p_a * p_b)
    assert math.isclose(merged.probability, expected, rel_tol=1e-9)


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.0, 0.99))
def test_pair_merge_potentials_roundtrip(p):
    pair, single = pair_merge_potentials(p)
    realized = (pair ** 2) / (pair ** 2 + single ** 2)
    assert math.isclose(realized, p, rel_tol=1e-9, abs_tol=1e-12)


# ----------------------------------------------------------------------
# Index path serialization
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    paths=st.lists(
        st.tuples(
            st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
            probabilities,
            probabilities,
        ),
        max_size=30,
    )
)
def test_path_payload_roundtrip(paths):
    originals = [
        IndexedPath(tuple(nodes), prle, prn) for nodes, prle, prn in paths
    ]
    assert decode_paths(encode_paths(originals)) == originals


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    counts=st.lists(st.integers(0, 1000), min_size=2, max_size=8),
    alpha=st.floats(0.0, 1.0),
)
def test_histogram_estimate_within_neighbor_bounds(counts, alpha):
    n = len(counts)
    thresholds = [i / (n - 1 + 1e-9) for i in range(n)]
    hist = CardinalityHistogram.from_bucket_counts(thresholds, counts)
    estimate = hist.estimate(alpha)
    assert hist.counts[-1] - 1e-9 <= estimate <= hist.counts[0] + 1e-9


# ----------------------------------------------------------------------
# String similarity
# ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(left=st.text(max_size=12), right=st.text(max_size=12))
def test_levenshtein_properties(left, right):
    score = normalized_levenshtein(left, right)
    assert 0.0 <= score <= 1.0
    assert score == normalized_levenshtein(right, left)
    if left == right:
        assert score == 1.0


# ----------------------------------------------------------------------
# End-to-end probability invariant on tiny models
# ----------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    num_refs=st.integers(6, 12),
    extra_edges=st.integers(0, 8),
    merge_p=st.floats(0.1, 0.9),
    seed=st.integers(0, 10_000),
    alpha=st.floats(0.1, 0.8),
)
def test_engine_agrees_with_direct_on_random_pgds(
    num_refs, extra_edges, merge_p, seed, alpha
):
    """End-to-end: the optimized engine equals the backtracking oracle
    on hypothesis-generated reference graphs with identity uncertainty."""
    import numpy as np

    from repro.peg import build_peg
    from repro.pgd import PGD
    from repro.query import QueryEngine, QueryGraph, direct_matches

    rng = np.random.default_rng(seed)
    labels = ("a", "b")
    pgd = PGD()
    for ref in range(num_refs):
        if rng.random() < 0.4:
            p = float(rng.uniform(0.2, 0.8))
            pgd.add_reference(ref, {"a": p, "b": 1.0 - p})
        else:
            pgd.add_reference(ref, labels[int(rng.integers(2))])
    # a random connected backbone plus extra edges
    for ref in range(1, num_refs):
        other = int(rng.integers(ref))
        pgd.add_edge(ref, other, float(rng.uniform(0.3, 1.0)))
    for _ in range(extra_edges):
        x, y = int(rng.integers(num_refs)), int(rng.integers(num_refs))
        if x != y and pgd.edge_distribution(x, y) is None:
            pgd.add_edge(x, y, float(rng.uniform(0.3, 1.0)))
    pgd.add_reference_set((0, 1), merge_p)
    peg = build_peg(pgd)
    engine = QueryEngine(peg, max_length=2, beta=0.05)
    query = QueryGraph(
        {"u": "a", "v": "b", "w": "a"}, [("u", "v"), ("v", "w")]
    )
    optimized = {
        (m.nodes, m.edges, round(m.probability, 9))
        for m in engine.query(query, alpha).matches
    }
    oracle = {
        (m.nodes, m.edges, round(m.probability, 9))
        for m in direct_matches(peg, query, alpha)
    }
    assert optimized == oracle


@settings(max_examples=20, deadline=None)
@given(
    edge_probs=st.lists(positive_probabilities, min_size=3, max_size=3),
    merge_p=st.floats(0.05, 0.95),
)
def test_match_probability_equals_world_sum(edge_probs, merge_p):
    """Eq. 11 equals the literal possible-world sum on random tiny PEGs."""
    from repro.peg import build_peg, world_match_probability
    from repro.pgd import pgd_from_edge_list

    pgd = pgd_from_edge_list(
        node_labels={
            "a": {"x": 0.5, "y": 0.5},
            "b": "x",
            "c": "y",
            "d": "x",
        },
        edges=[
            ("a", "b", edge_probs[0]),
            ("b", "c", edge_probs[1]),
            ("c", "d", edge_probs[2]),
        ],
        reference_sets=[(("a", "d"), merge_p)],
    )
    peg = build_peg(pgd)
    node_labels = {
        frozenset({"a"}): "x",
        frozenset({"b"}): "x",
        frozenset({"c"}): "y",
    }
    edges = [
        frozenset({frozenset({"a"}), frozenset({"b"})}),
        frozenset({frozenset({"b"}), frozenset({"c"})}),
    ]
    fast = peg.match_probability(node_labels, edges)
    slow = world_match_probability(peg, node_labels, edges)
    assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-12)
