"""One path index over a sharded store: same index, bit for bit.

* :func:`~repro.index.sharded.shard_for_sequence` is deterministic,
  orientation-invariant, and in range;
* a :class:`~repro.index.path_index.PathIndex` over a
  :class:`~repro.index.sharded.ShardedPathStore` answers ``lookup``,
  ``estimate_cardinality``, ``num_paths`` and ``num_sequences`` exactly
  like the unsharded index (the store's own routing contract is in
  ``tests/test_storage_kvstore.py``);
* a process-pool build writes the same store content as a serial one.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index import (
    PathIndex,
    build_path_index,
    canonical_sequence,
    open_store,
    shard_for_sequence,
)
from repro.utils.errors import IndexError_

from tests.conftest import small_random_peg, store_content

MAX_LENGTH = 2
BETA = 0.1
SHARD_COUNTS = (1, 4)

_LABELS = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.text(alphabet="abcxyz", min_size=0, max_size=4),
    st.booleans(),
)
_SEQUENCES = st.lists(_LABELS, min_size=1, max_size=5).map(tuple)


# ----------------------------------------------------------------------
# shard_for_sequence properties
# ----------------------------------------------------------------------


class TestShardHash:
    @given(seq=_SEQUENCES, num_shards=st.integers(min_value=1, max_value=16))
    def test_in_range_and_deterministic(self, seq, num_shards):
        shard = shard_for_sequence(seq, num_shards)
        assert 0 <= shard < num_shards
        assert shard_for_sequence(seq, num_shards) == shard

    @given(seq=_SEQUENCES, num_shards=st.integers(min_value=1, max_value=16))
    def test_orientation_invariant(self, seq, num_shards):
        reverse = tuple(reversed(seq))
        assert shard_for_sequence(seq, num_shards) == shard_for_sequence(
            reverse, num_shards
        )
        assert shard_for_sequence(
            canonical_sequence(seq), num_shards
        ) == shard_for_sequence(seq, num_shards)

    def test_stable_across_runs(self):
        # Pinned values: the hash must not depend on PYTHONHASHSEED or
        # the process — a change here breaks every saved sharded bundle.
        assert shard_for_sequence(("a", "b"), 4) == shard_for_sequence(
            ("b", "a"), 4
        )
        assert shard_for_sequence((0, 1, 0), 1) == 0

    def test_rejects_bad_shard_count(self):
        with pytest.raises(IndexError_):
            shard_for_sequence(("a",), 0)


# ----------------------------------------------------------------------
# The index over a sharded store equals the unsharded index
# ----------------------------------------------------------------------


def _build(peg, **kwargs):
    return build_path_index(peg, max_length=MAX_LENGTH, beta=BETA, **kwargs)


@pytest.fixture(scope="module")
def peg():
    return small_random_peg(seed=11)


@pytest.fixture(scope="module")
def unsharded(peg):
    return _build(peg)


@pytest.fixture(scope="module", params=SHARD_COUNTS)
def sharded(request, peg):
    return _build(peg, store=open_store(None, request.param))


class TestPartitioningInvariants:
    def test_is_the_one_index_class(self, sharded):
        assert type(sharded) is PathIndex
        assert isinstance(sharded.histograms, dict)

    def test_store_covers_every_sequence(self, unsharded, sharded):
        assert set(sharded.histograms) == set(unsharded.histograms)
        assert sharded.num_paths() == unsharded.num_paths()
        assert sharded.num_sequences() == unsharded.num_sequences()
        assert store_content(sharded.store) == store_content(unsharded.store)

    @pytest.mark.parametrize("alpha", [BETA, 0.25, 0.6, 0.95])
    def test_lookup_equals_unsharded(self, unsharded, sharded, alpha):
        for seq in unsharded.histograms:
            assert sharded.lookup(seq, alpha) == unsharded.lookup(seq, alpha)
            reverse = tuple(reversed(seq))
            assert sharded.lookup(reverse, alpha) == unsharded.lookup(
                reverse, alpha
            )

    @pytest.mark.parametrize("alpha", [BETA, 0.3, 0.7])
    def test_estimate_cardinality_equals_unsharded(
        self, unsharded, sharded, alpha
    ):
        for seq in unsharded.histograms:
            assert sharded.estimate_cardinality(
                seq, alpha
            ) == unsharded.estimate_cardinality(seq, alpha)

    def test_unindexed_sequence_everywhere_empty(self, unsharded, sharded):
        ghost = ("no-such-label", "really-not")
        assert sharded.lookup(ghost, 0.5) == []
        assert sharded.estimate_cardinality(ghost, 0.5) == 0.0
        assert unsharded.lookup(ghost, 0.5) == []

    def test_stats_agree(self, unsharded, sharded):
        stats = sharded.stats()
        for key in ("sequences", "paths", "size_bytes", "paths_per_length"):
            assert stats[key] == unsharded.stats()[key]


# ----------------------------------------------------------------------
# Parallel build == serial build
# ----------------------------------------------------------------------


class TestParallelBuild:
    def test_parallel_build_matches_serial(self, peg, unsharded):
        parallel = _build(peg, build_processes=2)
        assert store_content(parallel.store) == store_content(unsharded.store)
        assert parallel.num_paths() == unsharded.num_paths()
        assert (
            parallel.stats()["paths_per_length"]
            == unsharded.stats()["paths_per_length"]
        )

    def test_parallel_build_into_sharded_disk_store(
        self, peg, unsharded, tmp_path
    ):
        parallel = _build(
            peg, store=open_store(str(tmp_path), 3), build_processes=2
        )
        assert store_content(parallel.store) == store_content(unsharded.store)
        assert (tmp_path / "shard-02").is_dir()
        parallel.store.close()

    def test_rejects_negative_process_count(self, peg):
        with pytest.raises(IndexError_, match="build_processes"):
            _build(peg, build_processes=-1)
