"""Unit tests for repro.query.query_graph."""

import itertools
import os
import random
import sys
import threading
import time

import pytest

from repro.query.query_graph import _CANONICAL_LEAF_CAP, QueryGraph
from repro.testing.reference import canonical_search
from repro.utils.errors import QueryError

#: Fixed so CI runs are reproducible; override with ``REPRO_DIFF_SEED``.
SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260730"))


def triangle():
    return QueryGraph(
        {"x": "a", "y": "b", "z": "c"},
        [("x", "y"), ("y", "z"), ("x", "z")],
    )


class TestConstruction:
    def test_basic(self):
        q = triangle()
        assert q.num_nodes == 3
        assert q.num_edges == 3
        assert q.label("x") == "a"

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            QueryGraph({}, [])

    def test_self_loop_rejected(self):
        with pytest.raises(QueryError):
            QueryGraph({"x": "a"}, [("x", "x")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(QueryError):
            QueryGraph({"x": "a"}, [("x", "ghost")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(QueryError):
            QueryGraph({"x": "a", "y": "b"}, [("x", "y"), ("y", "x")])

    def test_malformed_edge_rejected(self):
        with pytest.raises(QueryError):
            QueryGraph({"x": "a"}, ["x"])


class TestAccessors:
    def test_neighbors_and_degree(self):
        q = triangle()
        assert q.neighbors("x") == frozenset({"y", "z"})
        assert q.degree("x") == 2

    def test_unknown_node_rejected(self):
        with pytest.raises(QueryError):
            triangle().label("ghost")
        with pytest.raises(QueryError):
            triangle().neighbors("ghost")

    def test_has_edge_symmetric(self):
        q = triangle()
        assert q.has_edge("x", "y")
        assert q.has_edge("y", "x")
        assert not q.has_edge("x", "x2") if True else None

    def test_label_sequence(self):
        assert triangle().label_sequence(["x", "y", "z"]) == ("a", "b", "c")

    def test_neighbor_label_count(self):
        q = QueryGraph(
            {"c": "hub", "l1": "a", "l2": "a", "l3": "b"},
            [("c", "l1"), ("c", "l2"), ("c", "l3")],
        )
        assert q.neighbor_label_count("c", "a") == 2
        assert q.neighbor_label_count("c", "b") == 1
        assert q.neighbor_label_count("c", "z") == 0

    def test_density(self):
        assert triangle().density() == pytest.approx(1.0)
        star = QueryGraph(
            {"c": "a", "l1": "b", "l2": "b"}, [("c", "l1"), ("c", "l2")]
        )
        assert star.density() == pytest.approx(2 / 3)
        single = QueryGraph({"x": "a"}, [])
        assert single.density() == 1.0

    def test_connected_components(self):
        q = QueryGraph(
            {"a": "x", "b": "x", "c": "x"},
            [("a", "b")],
        )
        components = {frozenset(c) for c in q.connected_components()}
        assert components == {frozenset({"a", "b"}), frozenset({"c"})}


class TestCanonicalization:
    def test_equal_up_to_node_renaming(self):
        original = QueryGraph(
            {"a": "DB", "b": "ML", "c": "DB"}, [("a", "b"), ("b", "c")]
        )
        renamed = QueryGraph(
            {"x": "ML", "y": "DB", "z": "DB"}, [("y", "x"), ("x", "z")]
        )
        assert original == renamed
        assert hash(original) == hash(renamed)
        assert original.canonical_form() == renamed.canonical_form()
        assert original.signature() == renamed.signature()

    def test_insertion_order_irrelevant(self):
        forward = QueryGraph(
            {"a": "x", "b": "y", "c": "z"}, [("a", "b"), ("b", "c")]
        )
        backward = QueryGraph(
            {"c": "z", "b": "y", "a": "x"}, [("b", "c"), ("a", "b")]
        )
        assert forward == backward

    def test_different_structure_distinguished(self):
        path = QueryGraph(
            {1: "a", 2: "a", 3: "a", 4: "a"}, [(1, 2), (2, 3), (3, 4)]
        )
        star = QueryGraph(
            {1: "a", 2: "a", 3: "a", 4: "a"}, [(1, 2), (1, 3), (1, 4)]
        )
        assert path != star
        assert path.signature() != star.signature()

    def test_different_labels_distinguished(self):
        one = QueryGraph({"a": "x", "b": "y"}, [("a", "b")])
        other = QueryGraph({"a": "x", "b": "z"}, [("a", "b")])
        assert one != other

    def test_symmetric_queries(self):
        clique = QueryGraph(
            {1: "a", 2: "a", 3: "a"}, [(1, 2), (2, 3), (1, 3)]
        )
        renamed = QueryGraph(
            {"p": "a", "q": "a", "r": "a"}, [("q", "p"), ("r", "q"), ("p", "r")]
        )
        assert clique == renamed

    def test_label_swap_on_symmetric_shape(self):
        # Same shape, labels attached to different structural positions.
        center_a = QueryGraph(
            {"c": "a", "l1": "b", "l2": "b"}, [("c", "l1"), ("c", "l2")]
        )
        center_b = QueryGraph(
            {"c": "b", "l1": "a", "l2": "b"}, [("c", "l1"), ("c", "l2")]
        )
        assert center_a != center_b

    def test_usable_as_dict_key(self):
        seen = {}
        seen[QueryGraph({"a": "x", "b": "y"}, [("a", "b")])] = 1
        seen[QueryGraph({"u": "x", "v": "y"}, [("u", "v")])] = 2
        assert len(seen) == 1
        assert seen[QueryGraph({"m": "y", "n": "x"}, [("n", "m")])] == 2

    def test_not_equal_to_other_types(self):
        assert triangle() != "triangle"
        assert (triangle() == 42) is False

    def test_signature_is_stable_hex(self):
        sig = triangle().signature()
        assert isinstance(sig, str)
        assert len(sig) == 64
        int(sig, 16)  # parses as hex
        assert sig == triangle().signature()


def random_graph(rng, max_nodes=8, max_labels=3) -> QueryGraph:
    """A random labeled graph of 1-``max_nodes`` nodes over 1-``max_labels``
    labels, its nodes and edges inserted in a shuffled order."""
    count = rng.randint(1, max_nodes)
    alphabet = ["a", "b", "c"][:rng.randint(1, max_labels)]
    density = rng.random()
    labels = {f"n{i}": rng.choice(alphabet) for i in range(count)}
    edges = [
        (f"n{i}", f"n{j}")
        for i, j in itertools.combinations(range(count), 2)
        if rng.random() < density
    ]
    rng.shuffle(edges)
    return QueryGraph(labels, edges)


def renamed_copy(query: QueryGraph, rng) -> QueryGraph:
    """``query`` under a random renaming, inserted in a random order."""
    nodes = list(query.nodes)
    names = dict(zip(nodes, rng.sample(range(10 * len(nodes)), len(nodes))))
    rng.shuffle(nodes)
    edges = [tuple(names[node] for node in edge) for edge in query.edges]
    rng.shuffle(edges)
    return QueryGraph({names[n]: query.label(n) for n in nodes}, edges)


def assert_describes(query: QueryGraph) -> None:
    """``canonical_form()`` is ``query`` read through ``canonical_order()``."""
    labels, edges = query.canonical_form()
    order = query.canonical_order()
    assert sorted(order, key=repr) == sorted(query.nodes, key=repr)
    assert labels == tuple(repr(query.label(node)) for node in order)
    position = {node: i for i, node in enumerate(order)}
    assert edges == tuple(sorted(
        tuple(sorted(position[node] for node in edge)) for edge in query.edges
    ))


#: Same-label shapes on which the unpruned search reaches the leaf cap:
#: cliques, a star, an edgeless graph, a complete bipartite graph and
#: disjoint triangles.
CAPPED_SHAPES = {
    "K8": ({i: "a" for i in range(8)}, itertools.combinations(range(8), 2)),
    "K10": ({i: "a" for i in range(10)}, itertools.combinations(range(10), 2)),
    "star10": ({i: "a" for i in range(10)}, [(0, i) for i in range(1, 10)]),
    "empty8": ({i: "a" for i in range(8)}, []),
    "K5,5": (
        {i: "a" for i in range(10)},
        [(i, j) for i in range(5) for j in range(5, 10)],
    ),
    "4xK3": (
        {i: "a" for i in range(12)},
        [(i, j) for base in (0, 3, 6, 9) for i, j in
         itertools.combinations(range(base, base + 3), 2)],
    ),
}


class TestCanonicalOracle:
    """The pruned canonical search against the unpruned reference
    (:func:`repro.testing.reference.canonical_search`)."""

    @pytest.mark.parametrize("chunk", range(6))
    def test_canonical_oracle_random_graphs(self, chunk):
        rng = random.Random(f"{SEED}/canonical/{chunk}")
        compared = 0
        for _ in range(500):
            query = random_graph(rng)
            order, edges, leaves = canonical_search(query)
            if leaves >= _CANONICAL_LEAF_CAP:
                continue  # the reference stopped early: no oracle
            labels = tuple(repr(query.label(node)) for node in order)
            assert query.canonical_order() == order
            assert query.canonical_form() == (labels, edges)
            compared += 1
        assert compared > 450

    @pytest.mark.parametrize("shape", sorted(CAPPED_SHAPES))
    def test_canonical_oracle_renamings_agree_on_capped_shapes(self, shape):
        labels, edges = CAPPED_SHAPES[shape]
        query = QueryGraph(labels, list(edges))
        assert canonical_search(query)[2] >= _CANONICAL_LEAF_CAP
        rng = random.Random(f"{SEED}/capped/{shape}")
        form = query.canonical_form()
        assert_describes(query)
        for _ in range(5):
            copy = renamed_copy(query, rng)
            assert copy.canonical_form() == form
            assert_describes(copy)

    def test_symmetric_pool_shapes_match_the_reference(self):
        # Below the cap on every symmetric shape of up to 6 nodes.
        shapes = [
            ({i: "a" for i in range(6)}, itertools.combinations(range(6), 2)),
            ({i: "a" for i in range(6)}, [(i, (i + 1) % 6) for i in range(6)]),
            ({i: "ab"[i % 2] for i in range(6)},
             [(i, (i + 1) % 6) for i in range(6)]),
            ({i: "a" for i in range(6)}, [(0, i) for i in range(1, 6)]),
            ({i: "a" for i in range(6)},
             [(i, j) for i in range(3) for j in range(3, 6)]),
        ]
        for labels, edges in shapes:
            query = QueryGraph(labels, list(edges))
            order, encoding, leaves = canonical_search(query)
            assert leaves < _CANONICAL_LEAF_CAP
            assert query.canonical_order() == order
            assert query.canonical_form()[1] == encoding


def brute_force_group(query: QueryGraph) -> list:
    """Every label-preserving automorphism of ``query``, as ``{node:
    image}``: each permutation within the label classes (labels compared
    with ``==``) that maps edges onto edges."""
    classes: dict = {}
    for node in query.nodes:
        classes.setdefault(query.label(node), []).append(node)
    edges = [tuple(edge) for edge in query.edges]
    group = []
    for images in itertools.product(
        *(itertools.permutations(members) for members in classes.values())
    ):
        sigma = {}
        for members, image in zip(classes.values(), images):
            sigma.update(zip(members, image))
        if all(query.has_edge(sigma[a], sigma[b]) for a, b in edges):
            group.append(sigma)
    return group


def position_pairs(query: QueryGraph) -> list:
    """The symmetry-breaking pairs as canonical positions."""
    position = {node: i for i, node in enumerate(query.canonical_order())}
    return [(position[a], position[b]) for a, b in query.symmetry_constraints()]


def assert_one_kept_per_class(query: QueryGraph, maps) -> None:
    """Of the class ``{f . sigma}`` of every injective map ``f`` (a
    ``{node: id}`` dict) under the brute-force group, exactly one member
    keeps every symmetry-breaking constraint: the one whose ids, read in
    canonical order, are lexicographically least."""
    group = brute_force_group(query)
    order = query.canonical_order()
    pairs = position_pairs(query)
    assert all(a < b for a, b in pairs)
    for f in maps:
        members = {tuple(f[sigma[node]] for node in order) for sigma in group}
        assert len(members) == len(group)  # the group acts freely
        kept = [
            ids for ids in members if all(ids[a] < ids[b] for a, b in pairs)
        ]
        assert kept == [min(members)], (query.canonical_form(), f)


def assert_one_kept_per_class_exhaustive(query: QueryGraph, count: int) -> None:
    """:func:`assert_one_kept_per_class` over every injective map into
    ``range(count)``, at the cost of two passes over them: every kept map
    is the least of its class (so no class keeps two), and there are as
    many kept maps as classes (so none keeps zero)."""
    group = brute_force_group(query)
    order = query.canonical_order()
    pairs = position_pairs(query)
    index = {node: i for i, node in enumerate(order)}
    sigmas = [[index[sigma[node]] for node in order] for sigma in group]
    total = 0
    kept = []
    for ids in itertools.permutations(range(count), query.num_nodes):
        total += 1
        if all(ids[a] < ids[b] for a, b in pairs):
            kept.append(ids)
    for ids in kept:
        assert ids == min(tuple(ids[i] for i in sigma) for sigma in sigmas)
    assert len(kept) * len(group) == total


#: Same-label symmetric shapes of up to 6 nodes, plus twins (nodes with
#: one neighbourhood) and a two-label cycle.
SYMMETRIC_SHAPES = {
    "K1": ({0: "a"}, []),
    "K4": ({i: "a" for i in range(4)}, itertools.combinations(range(4), 2)),
    "K6": ({i: "a" for i in range(6)}, itertools.combinations(range(6), 2)),
    "C4": ({i: "a" for i in range(4)}, [(i, (i + 1) % 4) for i in range(4)]),
    "C5": ({i: "a" for i in range(5)}, [(i, (i + 1) % 5) for i in range(5)]),
    "C6": ({i: "a" for i in range(6)}, [(i, (i + 1) % 6) for i in range(6)]),
    "C6-ab": (
        {i: "ab"[i % 2] for i in range(6)}, [(i, (i + 1) % 6) for i in range(6)]
    ),
    "star5": ({i: "a" for i in range(6)}, [(0, i) for i in range(1, 6)]),
    "K2,3": (
        {i: "a" for i in range(5)},
        [(i, j) for i in range(2) for j in range(2, 5)],
    ),
    "K3,3": (
        {i: "a" for i in range(6)},
        [(i, j) for i in range(3) for j in range(3, 6)],
    ),
    "twins": (
        {0: "a", 1: "b", 2: "b", 3: "a", 4: "c", 5: "c"},
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)],
    ),
    "empty4": ({i: "a" for i in range(4)}, []),
    "2xK3": (
        {i: "a" for i in range(6)},
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
    ),
}


class TestSymmetryOracle:
    """:meth:`QueryGraph.symmetry_constraints` against the brute-force
    automorphism group."""

    @pytest.mark.parametrize("shape", sorted(SYMMETRIC_SHAPES))
    def test_symmetry_oracle_symmetric_shapes(self, shape):
        labels, edges = SYMMETRIC_SHAPES[shape]
        query = QueryGraph(labels, list(edges))
        # Every injective map into one id more than there are nodes.
        assert_one_kept_per_class_exhaustive(query, query.num_nodes + 1)

    @pytest.mark.parametrize("chunk", range(4))
    def test_symmetry_oracle_random_graphs(self, chunk):
        rng = random.Random(f"{SEED}/symmetry/{chunk}")
        for _ in range(60):
            query = random_graph(rng)
            ids = query.num_nodes + 2
            maps = [
                dict(zip(query.nodes, rng.sample(range(ids), query.num_nodes)))
                for _ in range(8)
            ]
            assert_one_kept_per_class(query, maps)

    def test_symmetry_oracle_renamings_agree(self):
        rng = random.Random(f"{SEED}/symmetry/renamed")
        for _ in range(100):
            query = random_graph(rng)
            assert position_pairs(renamed_copy(query, rng)) == (
                position_pairs(query)
            )

    def test_symmetry_oracle_labels_compare_with_eq(self):
        # 1 == 1.0: one label class, so the two leaves are symmetric.
        query = QueryGraph(
            {"c": "x", "a": 1, "b": 1.0}, [("c", "a"), ("c", "b")]
        )
        assert len(query.symmetry_constraints()) == 1

    @pytest.mark.parametrize("shape", ["K10", "star10"])
    def test_symmetry_oracle_large_groups_are_not_enumerated(self, shape):
        # |Aut| is 10! and 9!; one search per orbit member stays fast.
        labels, edges = CAPPED_SHAPES[shape]
        query = QueryGraph(labels, list(edges))
        query.canonical_order()
        start = time.perf_counter()
        pairs = query.symmetry_constraints()
        elapsed = time.perf_counter() - start
        assert len(pairs) == {"K10": 45, "star10": 36}[shape]
        assert elapsed < 0.05


def test_shared_graph_canonical_memo_under_thread_contention():
    # The wire server shares one parsed graph across threads; the memos
    # are unlocked, so racing first readers must all see the one answer.
    shapes = [CAPPED_SHAPES[name] for name in ("K8", "star10", "4xK3")]
    expected = []
    for labels, edges in shapes:
        query = QueryGraph(labels, list(edges))
        expected.append((
            query.canonical_form(), query.canonical_order(),
            query.symmetry_constraints(),
        ))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = [QueryGraph(labels, list(edges)) for labels, edges in shapes]
            barrier = threading.Barrier(8)
            seen = []

            def read() -> None:
                barrier.wait(timeout=10)
                seen.append([
                    (
                        query.canonical_form(), query.canonical_order(),
                        query.symmetry_constraints(),
                    )
                    for query in shared
                ])

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert seen == [expected] * 8
    finally:
        sys.setswitchinterval(interval)
