"""Unit tests for repro.peg.serialize."""

import os
import pickle
import random

import numpy as np
import pytest

from repro.peg import ProbabilisticEntityGraph, load_peg, save_peg
from repro.peg.serialize import FORMAT_VERSION
from repro.pgd import BernoulliEdge, ConditionalEdge, LabelDistribution
from repro.query import QueryEngine, QueryGraph
from repro.testing import faults
from repro.utils.errors import FaultError, ModelError
from tests.conftest import small_random_peg


class TestRoundTrip:
    def test_roundtrip_preserves_probabilities(self, figure1_peg, tmp_path):
        path = str(tmp_path / "figure1.peg")
        save_peg(figure1_peg, path)
        loaded = load_peg(path)
        assert loaded.stats() == figure1_peg.stats()
        merged = frozenset({"r3", "r4"})
        assert loaded.existence_probability(merged) == pytest.approx(
            figure1_peg.existence_probability(merged)
        )
        assert loaded.edge_probability(
            merged, frozenset({"r2"})
        ) == pytest.approx(0.75)

    def test_loaded_peg_is_queryable(self, figure1_peg, tmp_path):
        from repro.query import QueryEngine, QueryGraph

        path = str(tmp_path / "figure1.peg")
        save_peg(figure1_peg, path)
        loaded = load_peg(path)
        engine = QueryEngine(loaded, max_length=2, beta=0.05)
        query = QueryGraph(
            {"q1": "r", "q2": "a", "q3": "i"},
            [("q1", "q2"), ("q2", "q3")],
        )
        matches = engine.query(query, 0.15).matches
        assert len(matches) == 1
        assert matches[0].probability == pytest.approx(0.2025)


class TestValidation:
    def test_not_a_pickle(self, tmp_path):
        path = tmp_path / "junk.peg"
        path.write_bytes(b"this is not a pickle")
        with pytest.raises(ModelError):
            load_peg(str(path))

    def test_foreign_pickle(self, tmp_path):
        path = tmp_path / "foreign.peg"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ModelError):
            load_peg(str(path))

    def test_wrong_version(self, figure1_peg, tmp_path):
        path = tmp_path / "old.peg"
        payload = {
            "magic": "repro-peg",
            "version": FORMAT_VERSION + 1,
            "peg": figure1_peg,
        }
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ModelError):
            load_peg(str(path))

    def test_wrong_payload_type(self, tmp_path):
        path = tmp_path / "bad.peg"
        payload = {"magic": "repro-peg", "version": FORMAT_VERSION, "peg": 42}
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ModelError):
            load_peg(str(path))


def mutated_peg():
    """A graph past its offline build: a conditional edge, merges
    (tombstones, a survivor with inherited edges), appended ids and a
    label that entered ``Σ`` with them."""
    peg = small_random_peg(seed=4, num_references=40)
    singles = [
        node for node in peg.node_ids()
        if len(peg.component_of(peg.entity_of(node)).entities) == 1
    ]
    added = peg.graph_add_entity(
        ("fmt-a",), LabelDistribution({"fmt-new": 0.5, "L0": 0.5}), 0.8
    )
    peg.graph_add_edge(added, singles[0], BernoulliEdge(0.6))
    peg.graph_add_edge(
        singles[1], singles[2],
        ConditionalEdge({("L0", "L1"): 0.9}, default=0.3),
    )
    peg.graph_merge_entities(added, singles[3])
    peg.graph_merge_entities(singles[4], singles[5])
    return peg


class TestFormat:
    def test_format_v1_payload_is_a_model_error(self, figure1_peg, tmp_path):
        """A file of the layout before the graph kept columns is
        refused by version, before any of it is used."""
        path = tmp_path / "v1.peg"
        payload = {"magic": "repro-peg", "version": 1, "peg": figure1_peg}
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ModelError, match="version 1"):
            load_peg(str(path))

    def test_format_round_trip_of_a_mutated_peg(self, tmp_path):
        peg = mutated_peg()
        path = str(tmp_path / "mutated.peg")
        save_peg(peg, path)
        loaded = load_peg(path)
        assert loaded.sigma == peg.sigma and "fmt-new" in loaded.sigma
        for name, column in vars(peg.columns).items():
            if isinstance(column, np.ndarray):
                theirs = getattr(loaded.columns, name)
                assert theirs.dtype == column.dtype, name
                assert theirs.tolist() == column.tolist(), name
            elif name != "_edges":
                assert getattr(loaded.columns, name) == column, name
        query = QueryGraph(
            {"q1": "L0", "q2": "L1", "q3": "L2"}, [("q1", "q2"), ("q2", "q3")]
        )
        for alpha in (0.05, 0.2):
            ours = QueryEngine(peg, max_length=2, beta=0.1).query(query, alpha)
            theirs = QueryEngine(loaded, max_length=2, beta=0.1).query(
                query, alpha
            )
            assert list(theirs.matches) == list(ours.matches)
            assert [m.probability.hex() for m in theirs.matches] == [
                m.probability.hex() for m in ours.matches
            ]

    def test_format_save_bytes_do_not_depend_on_queries(self, tmp_path):
        """Edge rows built by a query are a cache: not saved."""
        peg = mutated_peg()
        before, after = tmp_path / "before.peg", tmp_path / "after.peg"
        save_peg(peg, str(before))
        engine = QueryEngine(peg, max_length=2, beta=0.05)
        engine.query(
            QueryGraph({"q1": "L0", "q2": "L1"}, [("q1", "q2")]), 0.05
        )
        assert peg.columns._edges is not None
        save_peg(peg, str(after))
        assert after.read_bytes() == before.read_bytes()


class TestDamagedFiles:
    """A PEG file is a pickle without a checksum: damage may go
    unnoticed, but whatever it makes ``pickle`` raise is a
    :class:`ModelError` — never ``TypeError``, ``MemoryError`` & co."""

    @staticmethod
    def loads_or_model_error(path):
        try:
            assert isinstance(load_peg(str(path)), ProbabilisticEntityGraph)
            return True
        except ModelError:
            return False

    def test_bit_flips_and_truncations_load_or_raise_model_error(self, tmp_path):
        path = tmp_path / "graph.peg"
        save_peg(small_random_peg(seed=9, num_references=40), str(path))
        intact = path.read_bytes()
        rng = random.Random(20260730)
        outcomes = []
        for _ in range(200):
            damaged = bytearray(intact)
            damaged[rng.randrange(len(damaged))] ^= 1 << rng.randrange(8)
            path.write_bytes(damaged)
            outcomes.append(self.loads_or_model_error(path))
        # Both outcomes occur: the sweep reaches the typed-error path.
        assert 0 < sum(outcomes) < len(outcomes)
        for cut in range(0, len(intact), max(1, len(intact) // 19)):
            path.write_bytes(intact[:cut])
            assert not self.loads_or_model_error(path), cut


class TestAtomicSave:
    def test_crash_before_the_rename_keeps_the_previous_graph(
        self, figure1_peg, tmp_path
    ):
        """``repro apply-updates`` saves over its input: the old file is
        the only copy until the new one is whole."""
        path = tmp_path / "graph.peg"
        save_peg(figure1_peg, str(path))
        before = path.read_bytes()
        mutated = small_random_peg(seed=3, num_references=20)
        injector = faults.FaultInjector()
        injector.add("store.commit", "error", max_fires=1)
        faults.install(injector)
        try:
            with pytest.raises(FaultError):
                save_peg(mutated, str(path))
        finally:
            faults.uninstall()
        assert path.read_bytes() == before
        assert load_peg(str(path)).stats() == figure1_peg.stats()
        assert sorted(os.listdir(tmp_path)) == ["graph.peg", "graph.peg.tmp"]
        save_peg(mutated, str(path))  # the retry
        assert load_peg(str(path)).stats() == mutated.stats()
        assert os.listdir(tmp_path) == ["graph.peg"]
