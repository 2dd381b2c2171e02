"""Unit tests for repro.index.builder — completeness and correctness.

The key invariant: for every label sequence X and threshold alpha >= beta,
``index.lookup(X, alpha)`` returns exactly the paths that on-demand
enumeration finds, with identical probability components.
"""

import hashlib
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import SyntheticConfig, generate_synthetic_pgd
from repro.index import build_path_index
from repro.index.builder import (
    PathIndexBuilder,
    _Frontier,
    _Level,
    bucket_payloads,
)
from repro.index.grid import BucketGrid
from repro.index.paths import PathCandidates
from repro.peg import build_peg
from repro.pgd import pgd_from_edge_list
from repro.storage import DiskPathStore, InMemoryPathStore
from repro.testing.reference import bucket_for, encode_paths
from repro.utils.errors import IndexError_
from tests.conftest import small_random_peg


def path_key_set(paths):
    return {(p.nodes, round(p.prle, 9), round(p.prn, 9)) for p in paths}


def path_bits(paths):
    """Every row, floats bit for bit, as a sorted list (duplicates kept)."""
    return sorted((p.nodes, p.prle.hex(), p.prn.hex()) for p in paths)


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
                    on_demand = PathIndexBuilder(
                        peg, beta=alpha
                    ).paths_for_sequence(seq)
                    assert isinstance(on_demand, PathCandidates)
                    # The same rows carrying the same bits, whichever
                    # side of beta asked and in whichever orientation.
                    assert path_bits(looked_up) == path_bits(on_demand), (
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
        peg = small_random_peg(seed=5, num_references=40)
        builder = PathIndexBuilder(peg, max_length=max_length, beta=0.05)
        per_key, counts = builder.collect_buckets()
        for targets in ({0}, {3, 17}, set(range(8)), set()):
            found, expanded = builder.paths_through(targets)
            expected = {}
            for labels, rows in per_key.items():
                # Frontier order survives the restriction.
                paths = [
                    path for path in rows
                    if not targets.isdisjoint(path.nodes)
                ]
                if paths:
                    expected[labels] = paths
            assert {k: list(v) for k, v in found.items()} == expected
            assert all(
                isinstance(rows, PathCandidates)
                and rows.nodes.shape == (len(rows), len(labels))
                for labels, rows in found.items()
            )
            assert expanded <= sum(counts.values())
        assert builder.paths_through(set()) == ({}, 0)

    def test_full_enumeration_is_unchanged_by_the_shared_loop(self):
        """``_extend`` without targets is the offline build's loop."""
        peg = small_random_peg(seed=5, num_references=40)
        builder = PathIndexBuilder(peg, max_length=2, beta=0.05)
        everything, expanded = builder.paths_through(set(peg.node_ids()))
        per_key, counts = builder.collect_buckets()
        assert expanded == sum(counts.values())
        assert {k: list(v) for k, v in everything.items()} == {
            labels: list(rows) for labels, rows in per_key.items()
        }


def store_digest(index) -> str:
    """sha256 (first 16 hex digits) over everything a built index
    holds: every ``(sequence, bucket)`` with its payload bytes,
    sequences in ``repr`` order, then every sequence's histogram."""
    digest = hashlib.sha256()
    sequences = sorted(index.store.label_sequences(), key=repr)
    for sequence in sequences:
        for bucket, payload in index.store.scan_buckets(sequence, 0):
            digest.update(repr((sequence, bucket)).encode() + bytes(payload))
    for sequence in sequences:
        histogram = index.histograms[sequence]
        digest.update(
            repr((sequence, histogram.thresholds, histogram.counts)).encode()
        )
    return digest.hexdigest()[:16]


class TestStoreDigests:
    """The bytes of the three end-to-end benchmark indexes, pinned: the
    graphs of ``benchmarks/e2e/workloads.py`` (``match_heavy``,
    ``wire_zipf``, ``live_updates``; copied here as constants), built
    in this process and by two pool workers. A change to the
    enumeration, the grid or the writer that moves one stored byte
    moves a digest."""

    SEED = 20140331
    CASES = {
        "aad69d8664f61ff7": (
            SyntheticConfig(num_references=200, uncertainty=0.2, seed=SEED),
            3, 0.5,
        ),
        "648777aa7af27573": (
            SyntheticConfig(
                num_references=600, num_labels=4, uncertainty=0.4, seed=SEED
            ),
            2, 0.1,
        ),
        "c76bb66dbc6e4798": (
            SyntheticConfig(num_references=200, uncertainty=0.2, seed=SEED),
            2, 0.3,
        ),
    }

    @pytest.mark.parametrize("expected", list(CASES))
    def test_serial_and_two_process_builds(self, expected):
        config, max_length, beta = self.CASES[expected]
        peg = build_peg(generate_synthetic_pgd(config))
        for build_processes in (0, 2):
            index = build_path_index(
                peg, max_length=max_length, beta=beta,
                build_processes=build_processes,
            )
            assert store_digest(index) == expected, build_processes


class TestBuildMemory:
    """A build holds little beyond what it stores: the enumeration runs
    depth first over row blocks, so it holds one block per level beside
    the filed canonical rows, and a level's columns go once encoded.
    Pinned on the ``match_heavy`` graph (the first digest case) under
    tracemalloc, where the shipped build peaks at 3.6x the store bytes
    and a level-at-a-time build peaked at 9.6x."""

    #: Most traced bytes a build may peak at, per byte it stores.
    PEAK_PER_STORED_BYTE = 4.5

    def test_peak_is_a_small_multiple_of_the_store(self):
        config, max_length, beta = TestStoreDigests.CASES["aad69d8664f61ff7"]
        peg = build_peg(generate_synthetic_pgd(config))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = build_path_index(peg, max_length=max_length, beta=beta)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        stored = index.size_bytes()
        assert peak <= self.PEAK_PER_STORED_BYTE * stored, peak / stored


class TestLevelGrouping:
    """A level is grouped by one integer per row naming its sequence
    when ``len(sigma) ** width`` leaves room, else by ranking the label
    rows: the two give the same sequences, rows and order."""

    @staticmethod
    def grouped(size: int, blocks) -> dict:
        level = _Level()
        # ``sigma[position] == position``: keys read the same either way.
        tables = SimpleNamespace(sigma=range(size))
        for block in blocks:
            level.file(tables, block)
        return level.group(tables.sigma)

    def test_ranked_labels_group_like_integer_codes(self):
        rng = np.random.default_rng(5)
        blocks = []
        for rows in (40, 1, 0, 25):
            nodes = np.array(
                [rng.permutation(50)[:3] for _ in range(rows)],
                dtype=np.int64,
            ).reshape(rows, 3)
            blocks.append(_Frontier(
                nodes, rng.integers(0, 3, size=(rows, 3)),
                rng.random(rows), rng.random(rows),
            ))
        coded = self.grouped(3, blocks)
        ranked = self.grouped(1 << 21, blocks)  # 2**63 sequences of 3
        assert len(coded) > 1
        assert list(ranked) == list(coded)
        for key, rows in coded.items():
            for ours, theirs in zip(
                (rows.nodes, rows.prle, rows.prn),
                (ranked[key].nodes, ranked[key].prle, ranked[key].prn),
            ):
                assert ours.tobytes() == theirs.tobytes(), key
        filed = sum(len(rows) for rows in coded.values())
        assert 0 < filed < 66  # one orientation of each path


def oracle_payloads(grid, rows):
    """``[(bucket, payload)]`` of ``rows`` by the scalar oracle: one
    walk of the grid per row, one ``struct.pack`` per field."""
    filed: dict = {}
    for path in rows:
        bucket = bucket_for(path.probability, grid.points)
        filed.setdefault(bucket, []).append(path)
    return [(bucket, encode_paths(filed[bucket])) for bucket in sorted(filed)]


def _beside(probability):
    """A probability and its neighbours one ulp either side, within [0, 1]."""
    return [
        p for p in (
            np.nextafter(probability, 0.0), probability,
            np.nextafter(probability, 2.0),
        ) if 0.0 <= p <= 1.0
    ]


@st.composite
def grids_and_probabilities(draw):
    """β, γ on the milli lattice (γ need not divide 1 − β), and
    probabilities on, one ulp beside and half a milli off grid points,
    plus arbitrary ones — below the grid and exactly 1 included."""
    beta = draw(st.integers(1, 1000)) / 1000
    gamma = draw(st.integers(1, 1000)) / 1000
    grid = BucketGrid(beta, gamma)
    on_grid = st.sampled_from(grid.points).flatmap(
        lambda point: st.sampled_from(
            _beside(point / 1000)
            + _beside(min(1.0, (point + 0.5) / 1000))
            + _beside(max(0.0, (point - 0.5) / 1000))
        )
    )
    probabilities = draw(
        st.lists(on_grid | st.floats(0.0, 1.0), min_size=0, max_size=24)
    )
    return beta, gamma, probabilities


class TestWriter:
    """THE bucket writer against the scalar oracle, as one property:
    same buckets, same bytes, rows in their given order."""

    @staticmethod
    def check(beta, gamma, probabilities, width=2):
        grid = BucketGrid(beta, gamma)
        count = len(probabilities)
        rows = PathCandidates(
            np.arange(count * width, dtype=np.int64).reshape(count, width),
            np.array(probabilities, dtype=np.float64),
            np.ones(count),
        )
        written = bucket_payloads(grid, rows)
        assert [(b, bytes(p)) for b, p in written] == oracle_payloads(grid, rows)
        for probability in probabilities:
            if round(probability * 1000) >= grid.points[0]:
                assert grid.bucket_of(probability) == bucket_for(
                    probability, grid.points
                )
            else:  # a reader below the grid is an error, not a scan
                with pytest.raises(IndexError_):
                    grid.bucket_of(probability)

    @settings(max_examples=200, deadline=None)
    @given(case=grids_and_probabilities(), width=st.integers(1, 4))
    @example(case=(0.7, 0.1, [0.7, 0.6999999999999999, 0.7000000000000001]), width=2)
    @example(case=(0.1, 0.2, [0.2995, 0.3005, 0.0995, 0.05, 0.4985, 1.0]), width=1)
    @example(case=(0.3, 0.4, [0.3, 0.7, 0.9999999999999999, 1.0]), width=3)
    def test_buckets_and_bytes_equal_the_oracle(self, case, width):
        self.check(*case, width=width)

    def test_grid_points(self):
        assert BucketGrid(0.3, 0.2).points == (300, 500, 700, 900, 1000)
        # gamma that does not divide 1 - beta: the 1000 point is appended.
        assert BucketGrid(0.3, 0.4).points == (300, 700, 1000)
        assert BucketGrid(1.0, 0.1).points == (1000,)

    def test_no_rows_no_buckets(self):
        empty = PathCandidates(
            np.empty((0, 3), dtype=np.int64), np.empty(0), np.empty(0)
        )
        assert bucket_payloads(BucketGrid(0.1, 0.2), empty) == []


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

    def test_stored_bucket_reachable_from_equal_alpha(self):
        index = build_path_index(
            self._boundary_peg(), max_length=1, beta=0.1, gamma=0.2
        )
        # float 0.7 rounds to 700; the path must be stored in a bucket
        # that a min-bucket scan from the grid's bucket of 0.7 reaches.
        assert index.grid.bucket_of(0.7) <= 700
        assert index.lookup(("a", "b"), 0.7)

    def test_grid_rejects_beta_above_one(self):
        with pytest.raises(IndexError_):
            BucketGrid(1.2, 0.1)
        with pytest.raises(IndexError_):
            build_path_index(self._boundary_peg(), max_length=1, beta=1.01)
