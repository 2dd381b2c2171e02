"""Unit tests for repro.index.paths serialization."""

import numpy as np
import pytest

from repro.index.paths import (
    IndexedPath,
    _decode_paths_scalar,
    concat_payloads,
    PathCandidates,
    as_candidates,
    decode_path_arrays,
    decode_paths,
    decode_paths_above,
    encode_path_arrays,
    payload_count,
)
from repro.testing.reference import encode_paths
from repro.utils.errors import IndexError_


class TestIndexedPath:
    def test_probability(self):
        path = IndexedPath((1, 2, 3), 0.5, 0.8)
        assert path.probability == pytest.approx(0.4)

    def test_reversed(self):
        path = IndexedPath((1, 2, 3), 0.5, 0.8)
        rev = path.reversed()
        assert rev.nodes == (3, 2, 1)
        assert rev.prle == 0.5
        assert rev.reversed() == path


class TestSerialization:
    def test_roundtrip(self):
        paths = [
            IndexedPath((0,), 1.0, 1.0),
            IndexedPath((1, 2), 0.5, 0.9),
            IndexedPath((3, 4, 5, 6), 0.25, 0.75),
        ]
        assert decode_paths(encode_paths(paths)) == paths

    def test_empty(self):
        assert decode_paths(encode_paths([])) == []

    def test_large_node_ids(self):
        paths = [IndexedPath((2**31, 2**32 - 1), 0.1, 0.2)]
        assert decode_paths(encode_paths(paths)) == paths

    def test_probability_precision(self):
        paths = [IndexedPath((1,), 0.123456789012345, 0.987654321098765)]
        decoded = decode_paths(encode_paths(paths))[0]
        assert decoded.prle == pytest.approx(0.123456789012345, abs=1e-15)
        assert decoded.prn == pytest.approx(0.987654321098765, abs=1e-15)

    def test_too_long_path_rejected(self):
        with pytest.raises(IndexError_):
            encode_path_arrays(
                np.zeros((1, 256), dtype=np.int64), np.ones(1), np.ones(1)
            )

    def test_corrupt_payload_detected(self):
        payload = encode_paths([IndexedPath((1, 2), 0.5, 0.5)])
        with pytest.raises(IndexError_):
            decode_paths(payload + b"junk")

    def test_payload_count_without_decode(self):
        paths = [IndexedPath((i, i + 1), 0.5, 0.9) for i in range(7)]
        assert payload_count(encode_paths(paths)) == 7
        assert payload_count(encode_paths([])) == 0

    def test_concat_payloads_equals_encoding_concatenation(self):
        first = [IndexedPath((0,), 1.0, 1.0), IndexedPath((1, 2), 0.5, 0.9)]
        second = [IndexedPath((3, 4, 5), 0.25, 0.75)]
        merged = concat_payloads(
            [encode_paths(first), encode_paths(second), encode_paths([])]
        )
        assert decode_paths(merged) == first + second
        assert payload_count(merged) == 3


class TestBulkDecode:
    """The np.frombuffer fast path must be indistinguishable from the
    record-by-record reference decoder."""

    def _paths(self, count=50, num_nodes=3, seed=11):
        rng = np.random.default_rng(seed)
        return [
            IndexedPath(
                tuple(int(n) for n in rng.integers(0, 2**32, num_nodes)),
                float(rng.random()),
                float(rng.random()),
            )
            for _ in range(count)
        ]

    def test_arrays_match_scalar_decoder(self):
        paths = self._paths()
        payload = encode_paths(paths)
        nodes, prle, prn = decode_path_arrays(payload)
        assert nodes.shape == (50, 3)
        for i, path in enumerate(_decode_paths_scalar(payload)):
            assert tuple(nodes[i]) == path.nodes
            assert prle[i] == path.prle  # bit-exact, not approx
            assert prn[i] == path.prn

    def test_bulk_decode_equals_scalar(self):
        payload = encode_paths(self._paths(count=17, num_nodes=4))
        assert decode_paths(payload) == _decode_paths_scalar(payload)

    def test_heterogeneous_payload_falls_back(self):
        mixed = [IndexedPath((1,), 0.5, 0.5), IndexedPath((1, 2), 0.5, 0.5)]
        payload = encode_paths(mixed)
        assert decode_path_arrays(payload) is None
        assert decode_paths(payload) == mixed

    def test_decode_above_threshold(self):
        paths = self._paths(count=200)
        payload = encode_paths(paths)
        for alpha in (0.0, 0.25, 0.5, 1.1):
            expected = [p for p in paths if p.probability >= alpha]
            assert decode_paths_above(payload, alpha) == expected

    def test_decode_above_heterogeneous_is_an_error(self):
        """Columns need one width; no bucket of one sequence mixes them."""
        mixed = [IndexedPath((1,), 0.9, 0.9), IndexedPath((1, 2), 0.1, 0.1)]
        payload = encode_paths(mixed)
        with pytest.raises(IndexError_):
            decode_paths_above(payload, 0.5)
        with pytest.raises(IndexError_):  # right shape, wrong width
            decode_paths_above(encode_paths(self._paths(count=2)), 0.0, width=2)

    def test_decode_from_memoryview(self):
        paths = self._paths(count=5)
        payload = memoryview(encode_paths(paths))
        assert decode_paths(payload) == paths
        assert decode_paths_above(payload, 0.0) == paths

    def test_empty_payload(self):
        payload = encode_paths([])
        nodes, prle, prn = decode_path_arrays(payload)
        assert nodes.shape == (0, 0) and prle.size == 0 and prn.size == 0
        nodes, _prle, _prn = decode_path_arrays(payload, width=3)
        assert nodes.shape == (0, 3)  # concatenates with any other bucket
        assert decode_paths_above(payload, 0.0) == []

    def test_columns_encode_to_the_scalar_encoder_s_bytes(self):
        for count, num_nodes in ((0, 3), (1, 1), (50, 3), (17, 4)):
            paths = self._paths(count=count, num_nodes=num_nodes)
            columns = PathCandidates.from_paths(paths, num_nodes)
            payload = encode_path_arrays(
                columns.nodes, columns.prle, columns.prn
            )
            assert payload == encode_paths(paths)
            assert encode_path_arrays(
                *decode_path_arrays(payload, num_nodes)
            ) == payload
        # A reversed (non-contiguous) view encodes its own row order.
        columns = PathCandidates.from_paths(self._paths(count=5), 3)
        flipped = columns.nodes[:, ::-1]
        assert encode_path_arrays(flipped, columns.prle, columns.prn) == (
            encode_paths(columns.reversed())
        )

    def test_corrupt_payload_still_detected(self):
        payload = encode_paths([IndexedPath((1, 2), 0.5, 0.5)])
        with pytest.raises(IndexError_):
            decode_paths(payload + b"junk")
        with pytest.raises(IndexError_):
            decode_paths(encode_paths([]) + b"junk")


class TestPathCandidates:
    """The columnar container lookups return."""

    PATHS = [
        IndexedPath((1, 2, 3), 0.9, 0.8),
        IndexedPath((4, 5, 6), 0.5, 0.4),
        IndexedPath((7, 8, 9), 0.25, 1.0),
    ]

    def test_sequence_protocol_is_lazy_indexed_paths(self):
        found = PathCandidates.from_paths(self.PATHS, 3)
        assert found.nodes.shape == (3, 3) and found.nodes.dtype == np.int64
        assert len(found) == 3 and found
        assert list(found) == self.PATHS
        assert found[1] == self.PATHS[1]
        assert found[np.int64(2)] == self.PATHS[2]
        assert type(found[0].nodes[0]) is int
        assert found == self.PATHS and found != self.PATHS[:2]

    def test_empty_keeps_its_width(self):
        empty = PathCandidates.from_paths([], 3)
        assert empty.nodes.shape == (0, 3)
        assert not empty and len(empty) == 0 and empty == []
        both = PathCandidates.concat([empty, PathCandidates.from_paths(self.PATHS, 3)])
        assert both == self.PATHS

    def test_transformations(self):
        found = PathCandidates.from_paths(self.PATHS, 3)
        assert found.reversed() == [p.reversed() for p in self.PATHS]
        assert found.take(np.array([True, False, True])) == [
            self.PATHS[0], self.PATHS[2]
        ]
        assert found.take(np.array([2, 0])) == [self.PATHS[2], self.PATHS[0]]
        assert found.above(0.25) == [self.PATHS[0], self.PATHS[2]]
        assert found.above(0.0) is found
        assert as_candidates(found, 3) is found
        assert as_candidates(self.PATHS, 3) == found
