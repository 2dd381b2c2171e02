"""Unit tests for repro.index.path_index (grid, lookup API, estimates)."""

import pytest

from repro.index import build_path_index, orient_to_sequence
from repro.index.paths import IndexedPath, PathCandidates
from repro.index.path_index import (
    PathIndex,
    canonical_sequence,
    is_palindrome,
)
from repro.storage import InMemoryPathStore
from repro.utils.errors import IndexError_
from tests.conftest import small_random_peg


class TestCanonicalization:
    def test_canonical_picks_smaller(self):
        assert canonical_sequence(("b", "a")) == ("a", "b")
        assert canonical_sequence(("a", "b")) == ("a", "b")

    def test_palindrome_detection(self):
        assert is_palindrome(("a",))
        assert is_palindrome(("a", "b", "a"))
        assert not is_palindrome(("a", "b"))

    def test_mixed_label_types(self):
        seq = (("x", 1), ("y", 2))
        assert canonical_sequence(seq) in (seq, tuple(reversed(seq)))


class TestOrientation:
    """The columnar orientation keeps the per-path definition's order."""

    @staticmethod
    def per_path(paths, seq):
        reverse_needed = canonical_sequence(seq) != seq
        results = []
        for path in paths:
            oriented = path.reversed() if reverse_needed else path
            results.append(oriented)
            if is_palindrome(seq) and len(oriented.nodes) > 1:
                results.append(oriented.reversed())
        return results

    @pytest.mark.parametrize(
        "seq",
        [("a", "b", "c"), ("c", "b", "a"), ("a", "b", "a"), ("a", "a"), ("a",)],
        ids="-".join,
    )
    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_matches_per_path_definition(self, seq, count):
        paths = [
            IndexedPath(
                tuple(range(10 * row, 10 * row + len(seq))),
                0.5 + row / 10, 0.9 - row / 10,
            )
            for row in range(count)
        ]
        oriented = orient_to_sequence(
            PathCandidates.from_paths(paths, len(seq)), seq
        )
        assert isinstance(oriented, PathCandidates)
        assert oriented.nodes.shape[1] == len(seq)
        assert list(oriented) == self.per_path(paths, seq)


class TestBucketGrid:
    def make_index(self, beta=0.1, gamma=0.1):
        return PathIndex(
            store=InMemoryPathStore(),
            max_length=2,
            beta=beta,
            gamma=gamma,
            histograms={},
        )

    def test_index_carries_the_grid_of_its_parameters(self):
        # The grid's own rules are tests/test_index_builder.py::TestWriter's.
        index = self.make_index(beta=0.3, gamma=0.2)
        assert index.grid.points == (300, 500, 700, 900, 1000)
        assert index.grid.bucket_of(0.45) == 300

    def test_below_beta_rejected(self):
        index = self.make_index(beta=0.3)
        with pytest.raises(IndexError_):
            index.grid.bucket_of(0.2)
        with pytest.raises(IndexError_):
            index.lookup_canonical(("a",), 0.2)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(IndexError_):
            self.make_index(beta=0.0)
        with pytest.raises(IndexError_):
            self.make_index(gamma=0.0)
        with pytest.raises(IndexError_):
            PathIndex(InMemoryPathStore(), 0, 0.1, 0.1, {})


class TestLookupValidation:
    def test_alpha_below_beta_rejected(self):
        peg = small_random_peg(seed=8, num_references=40)
        index = build_path_index(peg, max_length=1, beta=0.5)
        with pytest.raises(IndexError_):
            index.lookup(("L0", "L1"), 0.2)

    def test_alpha_below_beta_error_carries_context(self):
        """The error must name alpha, beta, and the label sequence."""
        peg = small_random_peg(seed=8, num_references=40)
        index = build_path_index(peg, max_length=1, beta=0.5)
        with pytest.raises(IndexError_) as excinfo:
            index.lookup(("L0", "L1"), 0.2)
        message = str(excinfo.value)
        assert "0.2" in message
        assert "0.5" in message
        assert "('L0', 'L1')" in message

    def test_overlong_sequence_rejected(self):
        peg = small_random_peg(seed=8, num_references=40)
        index = build_path_index(peg, max_length=1, beta=0.1)
        with pytest.raises(IndexError_):
            index.lookup(("L0", "L1", "L2"), 0.5)

    def test_unknown_sequence_empty(self):
        peg = small_random_peg(seed=8, num_references=40)
        index = build_path_index(peg, max_length=1, beta=0.1)
        assert index.lookup(("nope", "nope"), 0.5) == []


class TestCardinalityEstimates:
    def test_estimate_matches_exact_at_beta(self):
        peg = small_random_peg(seed=9, num_references=40)
        index = build_path_index(peg, max_length=2, beta=0.2, gamma=0.1)
        for seq in list(index.store.label_sequences())[:10]:
            exact = len(index.lookup(seq, 0.2))
            estimate = index.estimate_cardinality(seq, 0.2)
            assert estimate == pytest.approx(exact)

    def test_estimate_monotone_in_alpha(self):
        peg = small_random_peg(seed=9, num_references=40)
        index = build_path_index(peg, max_length=2, beta=0.2, gamma=0.1)
        seq = list(index.store.label_sequences())[0]
        estimates = [
            index.estimate_cardinality(seq, alpha)
            for alpha in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(estimates, estimates[1:]))

    def test_unknown_sequence_estimates_zero(self):
        peg = small_random_peg(seed=9, num_references=40)
        index = build_path_index(peg, max_length=1, beta=0.2)
        assert index.estimate_cardinality(("nope",), 0.5) == 0.0

    def test_stats_shape(self):
        peg = small_random_peg(seed=9, num_references=40)
        index = build_path_index(peg, max_length=1, beta=0.2)
        stats = index.stats()
        for key in ("max_length", "beta", "gamma", "sequences", "paths",
                    "size_bytes"):
            assert key in stats
