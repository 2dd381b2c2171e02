"""Unit tests for repro.index.builder — completeness and correctness.

The key invariant: for every label sequence X and threshold alpha >= beta,
``index.lookup(X, alpha)`` returns exactly the paths that on-demand
enumeration finds, with identical probability components.
"""

import itertools

import pytest

from repro.index import build_path_index
from repro.index.builder import enumerate_paths_for_sequence
from repro.peg import build_peg
from repro.pgd import pgd_from_edge_list
from repro.storage import DiskPathStore, InMemoryPathStore
from tests.conftest import small_random_peg


def path_key_set(paths):
    return {(p.nodes, round(p.prle, 9), round(p.prn, 9)) for p in paths}


class TestFigure1Index:
    def test_level_zero_entries(self, figure1_peg):
        index = build_path_index(figure1_peg, max_length=1, beta=0.05)
        singles = index.lookup(("a",), 0.5)
        assert len(singles) == 1
        entity = figure1_peg.entity_of(singles[0].nodes[0])
        assert entity == frozenset({"r2"})

    def test_path_probabilities_stored_split(self, figure1_peg):
        index = build_path_index(figure1_peg, max_length=2, beta=0.05)
        hits = index.lookup(("r", "a", "i"), 0.15)
        assert len(hits) == 1
        hit = hits[0]
        assert hit.prn == pytest.approx(0.8)       # merged entity on path
        assert hit.probability == pytest.approx(0.2025)

    def test_no_reference_sharing_on_paths(self, figure1_peg):
        index = build_path_index(figure1_peg, max_length=2, beta=0.01)
        for seq in index.store.label_sequences():
            for _, payload in index.store.scan_buckets(seq, 0):
                from repro.index.paths import decode_paths
                for path in decode_paths(payload):
                    entities = [figure1_peg.entity_of(n) for n in path.nodes]
                    for i, left in enumerate(entities):
                        for right in entities[i + 1:]:
                            assert not (left & right)


class TestCompleteness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lookup_equals_on_demand(self, seed):
        peg = small_random_peg(seed=seed, num_references=50)
        index = build_path_index(peg, max_length=2, beta=0.2, gamma=0.1)
        sigma = sorted(peg.sigma)
        for length in (1, 2, 3):
            for seq in itertools.product(sigma, repeat=length):
                if length - 1 > index.max_length:
                    continue
                for alpha in (0.2, 0.5, 0.8):
                    looked_up = index.lookup(seq, alpha)
                    on_demand = enumerate_paths_for_sequence(peg, seq, alpha)
                    assert path_key_set(looked_up) == path_key_set(on_demand), (
                        seq,
                        alpha,
                    )

    def test_beta_pruning_sound(self):
        """Raising beta must never lose paths above the raised threshold."""
        peg = small_random_peg(seed=3, num_references=40)
        low = build_path_index(peg, max_length=2, beta=0.1)
        high = build_path_index(peg, max_length=2, beta=0.5)
        for seq in high.store.label_sequences():
            assert path_key_set(high.lookup(seq, 0.5)) == path_key_set(
                low.lookup(seq, 0.5)
            )


class TestOrientation:
    def test_palindrome_returns_both_alignments(self):
        peg = build_peg(
            pgd_from_edge_list(
                node_labels={"x": "a", "y": "b", "z": "a"},
                edges=[("x", "y", 0.9), ("y", "z", 0.8)],
            )
        )
        index = build_path_index(peg, max_length=2, beta=0.05)
        hits = index.lookup(("a", "b", "a"), 0.1)
        assert len(hits) == 2
        assert {h.nodes for h in hits} == {
            hits[0].nodes,
            tuple(reversed(hits[0].nodes)),
        }

    def test_non_palindrome_oriented_to_request(self):
        peg = build_peg(
            pgd_from_edge_list(
                node_labels={"x": "a", "y": "b"},
                edges=[("x", "y", 0.9)],
            )
        )
        index = build_path_index(peg, max_length=1, beta=0.05)
        forward = index.lookup(("a", "b"), 0.1)
        backward = index.lookup(("b", "a"), 0.1)
        assert len(forward) == len(backward) == 1
        assert forward[0].nodes == tuple(reversed(backward[0].nodes))
        # orientation matches the requested labels
        assert peg.possible_labels_id(forward[0].nodes[0]) == ("a",)
        assert peg.possible_labels_id(backward[0].nodes[0]) == ("b",)


class TestBuilderVariants:
    def test_disk_store_equivalent(self, tmp_path):
        peg = small_random_peg(seed=4, num_references=40)
        mem = build_path_index(peg, max_length=2, beta=0.3)
        disk = build_path_index(
            peg,
            max_length=2,
            beta=0.3,
            store=DiskPathStore(str(tmp_path / "idx")),
        )
        for seq in mem.store.label_sequences():
            assert path_key_set(mem.lookup(seq, 0.3)) == path_key_set(
                disk.lookup(seq, 0.3)
            )

    def test_parallel_build_equivalent(self):
        peg = small_random_peg(seed=5, num_references=40)
        serial = build_path_index(peg, max_length=2, beta=0.3)
        parallel = build_path_index(
            peg, max_length=2, beta=0.3, build_processes=2
        )
        for seq in serial.store.label_sequences():
            assert path_key_set(serial.lookup(seq, 0.3)) == path_key_set(
                parallel.lookup(seq, 0.3)
            )

    def test_build_stats_present(self):
        peg = small_random_peg(seed=6, num_references=40)
        index = build_path_index(peg, max_length=2, beta=0.3)
        stats = index.stats()
        assert stats["paths_per_length"][0] > 0
        assert stats["build_seconds"] > 0
        assert set(stats["paths_per_length"]) == {0, 1, 2}

    def test_longer_L_superset_of_shorter(self):
        peg = small_random_peg(seed=7, num_references=40)
        short = build_path_index(peg, max_length=1, beta=0.3)
        longer = build_path_index(peg, max_length=2, beta=0.3)
        for seq in short.store.label_sequences():
            assert path_key_set(short.lookup(seq, 0.3)) == path_key_set(
                longer.lookup(seq, 0.3)
            )


class TestPathsThrough:
    """The restricted enumeration of a live update: exactly the full
    build's canonical paths that contain a target, at a cost bounded by
    the targets' neighbourhood."""

    @pytest.mark.parametrize("max_length", [1, 2, 3])
    def test_equals_the_filtered_full_enumeration(self, max_length):
        from repro.index.builder import PathIndexBuilder

        peg = small_random_peg(seed=5, num_references=40)
        builder = PathIndexBuilder(peg, max_length=max_length, beta=0.05)
        per_key, counts = builder.collect_buckets()
        for targets in ({0}, {3, 17}, set(range(8)), set()):
            found, expanded = builder.paths_through(targets)
            expected = {}
            for labels, buckets in per_key.items():
                paths = {
                    path
                    for bucket in buckets.values()
                    for path in bucket
                    if not targets.isdisjoint(path.nodes)
                }
                if paths:
                    expected[labels] = paths
            assert {k: set(v) for k, v in found.items()} == expected
            assert sum(map(len, found.values())) == sum(
                map(len, expected.values())
            )  # no duplicates
            assert expanded <= sum(counts.values())
        assert builder.paths_through(set()) == ({}, 0)

    def test_full_enumeration_is_unchanged_by_the_shared_loop(self):
        """``_extend`` without targets is the offline build's loop."""
        from repro.index.builder import PathIndexBuilder

        peg = small_random_peg(seed=5, num_references=40)
        builder = PathIndexBuilder(peg, max_length=2, beta=0.05)
        everything, expanded = builder.paths_through(set(peg.node_ids()))
        per_key, counts = builder.collect_buckets()
        assert expanded == sum(counts.values())
        assert {k: set(v) for k, v in everything.items()} == {
            labels: {p for bucket in buckets.values() for p in bucket}
            for labels, buckets in per_key.items()
        }


class TestBucketRounding:
    """One rounding rule shared by grid, builder and lookup (regression).

    ``0.7 * 1000`` is ``699.999...``: truncation in one place and
    rounding in another put grid-boundary probabilities one bucket low —
    most visibly, a lookup at ``alpha == beta == 0.7`` mis-raised
    "below index lower bound".
    """

    @staticmethod
    def _boundary_peg():
        # One certain 'a'-'b' edge with probability exactly 0.7: the
        # indexed 2-node path has probability float(0.7).
        return build_peg(
            pgd_from_edge_list(
                node_labels={"r1": "a", "r2": "b"},
                edges=[("r1", "r2", 0.7)],
            )
        )

    def test_lookup_at_alpha_equal_beta_boundary(self):
        index = build_path_index(
            self._boundary_peg(), max_length=1, beta=0.7, gamma=0.1
        )
        hits = index.lookup(("a", "b"), 0.7)
        assert len(hits) == 1
        assert hits[0].probability == pytest.approx(0.7)

    def test_builder_and_index_agree_on_buckets(self):
        from repro.index.builder import _bucket_for, _grid_milli

        index = build_path_index(
            self._boundary_peg(), max_length=1, beta=0.1, gamma=0.2
        )
        grid = _grid_milli(0.1, 0.2)
        assert grid == index.grid()
        for probability in (0.1, 0.3, 0.5, 0.7, 0.9, 0.2999999, 1.0):
            assert _bucket_for(probability, grid) == index.bucket_for(
                probability
            ), probability

    def test_vectorized_buckets_repeat_the_scalar_rule(self):
        import numpy as np

        from repro.index.builder import _bucket_for, _buckets_for, _grid_milli

        # Grid points, half-milli ties (round-half-even), float reprs
        # just below a point, below the grid, exactly 1.
        probabilities = [
            0.1, 0.3, 0.5, 0.7, 0.9, 0.2999999, 1.0, 0.2995, 0.3005,
            0.0995, 0.05, 0.6999999999999999, 0.4985, 0.4995,
        ]
        for beta, gamma in ((0.1, 0.2), (0.05, 0.1), (0.3, 0.1), (0.7, 0.1)):
            grid = _grid_milli(beta, gamma)
            assert _buckets_for(np.array(probabilities), grid).tolist() == [
                _bucket_for(probability, grid) for probability in probabilities
            ]
        assert _buckets_for(np.empty(0), _grid_milli(0.1, 0.2)).size == 0

    def test_stored_bucket_reachable_from_equal_alpha(self):
        index = build_path_index(
            self._boundary_peg(), max_length=1, beta=0.1, gamma=0.2
        )
        # float 0.7 rounds to 700; the path must be stored in a bucket
        # that a min-bucket scan from bucket_for(0.7) reaches.
        assert index.bucket_for(0.7) <= 700
        assert index.lookup(("a", "b"), 0.7)

    def test_grid_rejects_beta_above_one(self):
        from repro.index.builder import _grid_milli
        from repro.utils.errors import IndexError_

        with pytest.raises(IndexError_):
            _grid_milli(1.2, 0.1)
        with pytest.raises(IndexError_):
            build_path_index(self._boundary_peg(), max_length=1, beta=1.01)
