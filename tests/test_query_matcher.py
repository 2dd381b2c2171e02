"""Unit tests for repro.query.matcher (join order + match generation)."""

import itertools
import json
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.datasets import generate_dblp_pgd, random_query
from repro.delta import AddEdge, AddEntity, MergeEntities
from repro.peg import build_peg
from repro.peg.entity_graph import Match
from repro.pgd import PGD, BernoulliEdge
from repro.query import QueryEngine, QueryOptions, exhaustive_matches
from repro.query.decompose import Decomposition, QueryPath
from repro.query.matcher import MatchColumns, determine_join_order
from repro.query.query_graph import QueryGraph
from repro.query.topk import top_k_matches
from tests.conftest import small_random_peg
from tests.test_differential_random import assert_matcher_equivalence


def make_decomposition(query, node_tuples):
    return Decomposition(
        query=query, paths=[QueryPath(nodes) for nodes in node_tuples]
    )


class TestJoinOrder:
    def test_first_path_has_smallest_cardinality(self):
        query = QueryGraph(
            {1: "x", 2: "x", 3: "x", 4: "x"},
            [(1, 2), (2, 3), (3, 4)],
        )
        decomposition = make_decomposition(query, [(1, 2, 3), (3, 4)])
        order = determine_join_order(decomposition, {0: 100, 1: 2})
        assert order[0] == 1

    def test_overlap_preferred_over_cardinality(self):
        """After the first path, node overlap dominates the choice."""
        query = QueryGraph(
            {1: "x", 2: "x", 3: "x", 4: "x", 5: "x"},
            [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)],
        )
        decomposition = make_decomposition(
            query, [(1, 2, 3), (1, 3), (4, 5), (3, 4)]
        )
        order = determine_join_order(
            decomposition, {0: 1, 1: 50, 2: 2, 3: 50}
        )
        assert order[0] == 0
        # Path (1,3) overlaps the placed path in two nodes; (3,4) in one;
        # (4,5) in none. Overlap wins despite cardinalities.
        assert order[1] == 1

    def test_all_partitions_ordered_once(self):
        query = QueryGraph(
            {1: "x", 2: "x", 3: "x", 4: "x"},
            [(1, 2), (2, 3), (3, 4), (1, 4)],
        )
        decomposition = make_decomposition(
            query, [(1, 2), (2, 3), (3, 4), (4, 1)]
        )
        order = determine_join_order(decomposition, {i: i for i in range(4)})
        assert sorted(order) == [0, 1, 2, 3]

    def test_disconnected_partitions_still_ordered(self):
        query = QueryGraph(
            {1: "x", 2: "x", 3: "x", 4: "x"},
            [(1, 2), (3, 4)],
        )
        decomposition = make_decomposition(query, [(1, 2), (3, 4)])
        order = determine_join_order(decomposition, {0: 10, 1: 5})
        assert sorted(order) == [0, 1]
        assert order[0] == 1  # smaller cardinality first


# ----------------------------------------------------------------------
# Array matcher vs the depth-first reference
# ----------------------------------------------------------------------

TRIANGLE = [("x", "y"), ("y", "z"), ("x", "z")]

#: Runs the 27 labelled DBLP triangle queries under one backend and
#: prints ``[[nodes, probability.hex()], ...]``; executed under several
#: ``PYTHONHASHSEED`` values, which a process cannot change for itself.
HASH_SEED_SCRIPT = """
import itertools, json, sys
from repro.datasets import generate_dblp_pgd
from repro.peg import build_peg
from repro.query import QueryEngine, QueryGraph, QueryOptions

peg = build_peg(generate_dblp_pgd(120, seed=5))
engine = QueryEngine(peg, max_length=2, beta=0.05)
options = QueryOptions(reduction_backend=sys.argv[1])
records = []
for labels in itertools.product(sorted(peg.sigma), repeat=3):
    query = QueryGraph(dict(zip("xyz", labels)), %r)
    for match in engine.query(query, 0.05, options).matches:
        nodes = [
            [sorted(entity, key=repr), label] for entity, label in match.nodes
        ]
        records.append([nodes, match.probability.hex()])
json.dump(records, sys.stdout)
""" % (TRIANGLE,)


@pytest.mark.usefixtures("row_budget")
class TestArrayMatcherAgreesWithReference:
    """``generate_matches`` == ``generate_matches_reference`` over the
    same reduced graph: order, nodes, edges, mapping, float bits."""

    def test_conditional_edge_peg(self):
        peg = build_peg(generate_dblp_pgd(120, seed=5))
        assert peg.conditional
        engine = QueryEngine(peg, max_length=2, beta=0.05)
        total = 0
        for labels in itertools.product(sorted(peg.sigma), repeat=3):
            query = QueryGraph(dict(zip("xyz", labels)), TRIANGLE)
            outcome = assert_matcher_equivalence(engine, query, 0.05, labels)
            if outcome is not None:
                total += len(outcome[0])
        assert total == 236

    def test_shared_identity_components_take_the_joint_marginal(self):
        engine = QueryEngine(
            small_random_peg(1, uncertainty=0.6), max_length=2, beta=0.05
        )
        sigma = sorted(engine.peg.sigma, key=repr)
        fallback_rows = matches = 0
        for seed in range(8):
            size = 3 + seed % 2
            query = random_query(size, size - 1 + seed % 2, sigma, seed=seed)
            for alpha in (0.05, 0.3):
                outcome = assert_matcher_equivalence(
                    engine, query, alpha, (seed, alpha)
                )
                if outcome is not None:
                    matches += len(outcome[0])
                    fallback_rows += outcome[1]["fallback_rows"]
        assert matches > 0
        assert fallback_rows > 0

    def test_isolated_query_node_is_a_cross_product_step(self):
        engine = QueryEngine(
            small_random_peg(1, uncertainty=0.6), max_length=2, beta=0.05
        )
        query = QueryGraph({"a": "L0", "b": "L1", "c": "L2"}, [("a", "b")])
        decomposition, _ = engine.planner.plan(query, 0.2, QueryOptions())
        assert not any(decomposition.joins_with.values())
        # ... so every level is (partial matches) x (alive candidates).
        found, _ = assert_matcher_equivalence(
            engine, query, 0.2, "isolated node"
        )
        assert found

    def test_partition_emptied_by_the_reduction(self):
        engine = QueryEngine(
            small_random_peg(1, uncertainty=0.6), max_length=2, beta=0.05
        )
        query = QueryGraph(
            {"q0": "L1", "q1": "L1", "q2": "L1", "q3": "L1", "q4": "L2"},
            [("q0", "q2"), ("q1", "q2"), ("q2", "q4"), ("q3", "q4")],
        )
        reduction = engine.query(query, 0.3).reduction
        assert all(reduction.initial_sizes) and 0 in reduction.final_sizes
        found, stats = assert_matcher_equivalence(
            engine, query, 0.3, "empty partition"
        )
        assert found == []
        assert stats == {"frontier_peak": 0, "fallback_rows": 0}

    def test_after_updates_with_a_tombstone_and_a_new_entity(self):
        peg = small_random_peg(3, num_references=40, uncertainty=0.2)
        engine = QueryEngine(peg, max_length=2, beta=0.05)
        built_ids = len(peg.node_ids())
        singles = [
            node for node in peg.node_ids()
            if len(peg.component_of(peg.entity_of(node)).entities) == 1
            and peg.degree(node) > 0
        ]
        first, second = singles[:2]
        anchor = singles[2]
        # Queried once before the updates, so the engine's per-version
        # id tables exist and must be rebuilt, not reused.
        query = QueryGraph({"a": "L0", "b": "L1", "c": "L0"}, [("a", "b"), ("b", "c")])
        assert_matcher_equivalence(engine, query, 0.05, "before updates")

        def refs(node):
            return tuple(sorted(peg.entity_of(node), key=repr))

        engine.apply_updates([
            MergeEntities(refs(first), refs(second)),
            AddEntity(("fresh",), {"L0": 0.6, "L1": 0.4}, 0.9),
            AddEdge(("fresh",), refs(anchor), BernoulliEdge(0.95)),
        ])
        assert peg.is_removed_id(first) and peg.is_removed_id(second)
        new_ids = set(range(built_ids, len(peg.node_ids())))
        assert len(new_ids) == 2  # the merged entity and the fresh one
        seen_ids: set = set()
        for compacted in (False, True):
            if compacted:
                engine.compact_updates()
            for labels in itertools.product(sorted(peg.sigma), repeat=2):
                query = QueryGraph(dict(zip("ab", labels)), [("a", "b")])
                outcome = assert_matcher_equivalence(
                    engine, query, 0.05, (labels, compacted)
                )
                for match in outcome[0]:
                    seen_ids.update(peg.id_of(entity) for entity, _ in match.nodes)
        assert new_ids <= seen_ids
        assert not {first, second} & seen_ids


class SameRepr:
    """A reference whose ``repr`` does not tell it from the others."""

    def __repr__(self) -> str:
        return "ref"


def test_equal_repr_entities_are_distinct_matches():
    """A triangle of three single-reference entities whose ``repr``s are
    equal: a ``B``-``B`` edge query has one match per edge, from the
    array matcher, the depth-first reference and the possible worlds
    alike (the oracles keyed matches by ``repr`` order, so one labeled
    subgraph reached in two orders counted twice)."""
    refs = [SameRepr() for _ in range(3)]
    pgd = PGD()
    for ref in refs:
        pgd.add_reference(ref, "B")
    for (a, b), probability in zip(
        itertools.combinations(refs, 2), (0.9, 0.7, 0.5)
    ):
        pgd.add_edge(a, b, probability)
    peg = build_peg(pgd)
    engine = QueryEngine(peg, max_length=2, beta=0.05)
    query = QueryGraph({"u": "B", "v": "B"}, [("u", "v")])
    matches = engine.query(query, 0.1).matches
    reference = engine.query(query, 0.1, REFERENCE).matches
    exhaustive = exhaustive_matches(peg, query, 0.1)
    assert len(matches) == len(reference) == len(exhaustive) == 3
    assert matches == reference
    assert [m.probability for m in matches] == [0.9, 0.7, 0.5]
    assert {(m.nodes, m.edges) for m in exhaustive} == {
        (m.nodes, m.edges) for m in matches
    }
    for match in matches:  # nodes listed in id order under equal reprs
        ids = [peg.id_of(entity) for entity, _ in match.nodes]
        assert ids == sorted(ids)


def test_sort_key_from_the_repr_table_is_repr_of_nodes():
    """The array matcher sorts on integer ranks of per-id ``repr``
    tables; the order must be that of ``repr(match.nodes)``, 1-tuples
    included."""
    engine = QueryEngine(small_random_peg(2), max_length=2, beta=0.05)
    for spec in (({"a": "L0"}, []), ({"a": "L0", "b": "L1"}, [("a", "b")])):
        matches = engine.query(QueryGraph(*spec), 0.05).matches
        assert len(matches) > 1
        keys = [(-m.probability, repr(m.nodes)) for m in matches]
        assert keys == sorted(keys)


def test_every_plan_returns_the_same_match_list():
    """Exact, greedy and seeded-random plans, through the array matcher
    and the depth-first reference, return equal ``Match`` lists —
    order, ``mapping`` and probability bits included: the kept
    embedding is the least in canonical order, and factors multiply in
    canonical order, whatever order the plan visits."""
    symmetric = 0
    for seed in range(6):
        peg = small_random_peg(seed, uncertainty=0.5)
        engine = QueryEngine(peg, max_length=2, beta=0.05)
        labels = sorted(peg.sigma)[:2]
        for index in range(6):
            size = 3 + index % 3
            query = random_query(
                size, size - 1 + index % 2, labels, seed=seed * 100 + index
            )
            symmetric += bool(query.symmetry_constraints())
            results = [
                list(engine.query(query, 0.05, QueryOptions(
                    decomposition=strategy, seed=3, reduction_backend=backend,
                )).matches)
                for strategy in ("exact", "greedy", "random")
                for backend in ("vectorized", "python")
            ]
            assert all(result == results[0] for result in results), (
                seed, index,
            )
    assert symmetric > 6


def test_probabilities_do_not_depend_on_the_hash_seed():
    """String-named query nodes: edge factors used to be multiplied in
    set-iteration order, so ``PYTHONHASHSEED`` moved the last bit of
    ``Match.probability`` (and a match within one ulp of alpha)."""
    outputs = {}
    for backend in ("vectorized", "python"):
        for seed in ("1", "2"):
            environment = dict(os.environ, PYTHONHASHSEED=seed)
            environment["PYTHONPATH"] = os.pathsep.join(
                [os.path.dirname(os.path.dirname(repro.__file__))]
                + environment.get("PYTHONPATH", "").split(os.pathsep)
            )
            completed = subprocess.run(
                [sys.executable, "-c", HASH_SEED_SCRIPT, backend],
                env=environment, capture_output=True, text=True, check=True,
            )
            outputs[backend, seed] = json.loads(completed.stdout)
    assert len(outputs["vectorized", "1"]) == 236
    assert len({json.dumps(records) for records in outputs.values()}) == 1


# ----------------------------------------------------------------------
# MatchColumns: the result reads as the reference's Match list
# ----------------------------------------------------------------------

REFERENCE = QueryOptions(reduction_backend="python")
PATH_QUERY = QueryGraph(
    {"a": "L0", "b": "L1", "c": "L2"}, [("a", "b"), ("b", "c")]
)


@pytest.fixture(scope="module")
def columns_engine():
    return QueryEngine(small_random_peg(2), max_length=2, beta=0.05)


@pytest.fixture
def built(monkeypatch):
    """Every ``Match`` the matcher constructs, in order."""
    matches = []

    def counting(*fields, **named):
        matches.append(Match(*fields, **named))
        return matches[-1]

    monkeypatch.setattr("repro.query.matcher.Match", counting)
    return matches


class TestMatchColumns:
    def result_pair(self, engine, alpha=0.2):
        matches = engine.query(PATH_QUERY, alpha).matches
        reference = engine.query(PATH_QUERY, alpha, REFERENCE).matches
        assert isinstance(matches, MatchColumns)
        assert type(reference) is list and len(reference) > 8
        return matches, reference

    def test_len_and_truth_build_nothing(self, columns_engine, built):
        matches, reference = self.result_pair(columns_engine)
        built.clear()
        assert len(matches) == len(reference)
        assert matches
        assert built == []

    def test_index_builds_one_row(self, columns_engine, built):
        matches, reference = self.result_pair(columns_engine)
        n = len(reference)
        for index in (0, 1, n - 1, -1, -2, -n):
            built.clear()
            assert matches[index] == reference[index]
            assert len(built) == 1
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                matches[index]
        with pytest.raises(TypeError):
            matches["0"]

    def test_slices_with_steps(self, columns_engine):
        matches, reference = self.result_pair(columns_engine)
        for window in (
            slice(None), slice(None, None, 2), slice(1, None, 3),
            slice(None, None, -1), slice(-3, None), slice(6, 1, -2),
            slice(100, 200), slice(3, 3),
        ):
            assert matches[window] == reference[window], window

    def test_first_three_builds_three(self, columns_engine, built):
        matches, reference = self.result_pair(columns_engine)
        built.clear()
        assert matches[:3] == reference[:3]
        assert len(built) == 3

    def test_equality(self, columns_engine):
        matches, reference = self.result_pair(columns_engine)
        assert matches == reference and reference == matches
        assert matches == columns_engine.query(PATH_QUERY, 0.2).matches
        assert matches != reference[:-1]
        assert matches != []
        assert matches != tuple(reference)
        empty = columns_engine.query(PATH_QUERY, 0.99).matches
        assert isinstance(empty, MatchColumns)
        assert empty == [] and [] == empty and not empty
        assert MatchColumns.empty() == []

    def test_iteration_builds_every_row_once(self, columns_engine, built):
        matches, reference = self.result_pair(columns_engine)
        built.clear()
        first = list(matches)
        assert first == reference
        assert list(reversed(matches)) == reference[::-1]
        assert matches[2] is first[2] and matches[1:3] == first[1:3]
        assert len(built) == len(reference)

    def test_repr(self, columns_engine):
        matches, reference = self.result_pair(columns_engine)
        assert repr(matches) == repr(reference)
        assert repr(MatchColumns.empty()) == "[]"

    def test_top_k_matches_unchanged(self, columns_engine):
        for k in (1, 5, 40):
            assert top_k_matches(columns_engine, PATH_QUERY, k) == \
                top_k_matches(columns_engine, PATH_QUERY, k, options=REFERENCE)

    def test_pickle_round_trip(self, columns_engine):
        matches, reference = self.result_pair(columns_engine)
        assert pickle.loads(pickle.dumps(matches)) == reference
        list(matches)  # materialized: the columns still ship, not the list
        shipped = pickle.loads(pickle.dumps(matches))
        assert shipped._matches is None and shipped == reference
        assert pickle.loads(pickle.dumps(MatchColumns.empty())) == []

    def test_pickle_ships_the_rows_not_the_graph(self, columns_engine):
        """A one-match result pickles the one match's entities, not the
        graph version's whole entity table."""
        matches = columns_engine.query(PATH_QUERY, 0.44).matches
        assert len(matches) == 1
        shipped = pickle.loads(pickle.dumps(matches))
        assert len(shipped.entities) == len(set(matches.nodes.ravel().tolist()))
        assert len(pickle.dumps(matches)) <= 2 * len(pickle.dumps(list(matches)))
        assert len(pickle.dumps(matches)) < len(pickle.dumps(matches.entities))
