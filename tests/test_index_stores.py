"""One path index, whatever holds it: same answers, bit for bit.

A :class:`~repro.index.path_index.PathIndex` built into a
:class:`~repro.storage.kvstore.DiskPathStore`, built by a two-process
pool (into memory or onto disk), or reopened from a saved bundle answers
``lookup``, ``estimate_cardinality``, ``num_paths``, ``num_sequences``
and ``stats`` exactly like the serial in-memory build, and its store
holds the same buckets. Each check runs on a small synthetic PEG and on
a DBLP graph whose identity components put several entities on one
path (the joint existence marginals the pool workers compute too).
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_dblp_pgd
from repro.index import PathIndex, build_path_index
from repro.index.bundle import load_offline
from repro.peg import build_peg
from repro.query import QueryEngine
from repro.storage import DiskPathStore, InMemoryPathStore
from repro.utils.errors import IndexError_

from tests.conftest import small_random_peg, store_content

MAX_LENGTH = 2
BETA = 0.1

GRAPHS = {
    "random": lambda: small_random_peg(seed=11),
    "dblp": lambda: build_peg(generate_dblp_pgd(num_authors=120, seed=5)),
}

#: How the index under test is made, next to the serial in-memory build.
LAYOUTS = ("disk", "parallel", "parallel-disk", "reopened")


def _build(peg, **kwargs):
    return build_path_index(peg, max_length=MAX_LENGTH, beta=BETA, **kwargs)


def _made(layout, peg, directory):
    if layout == "disk":
        return _build(peg, store=DiskPathStore(directory))
    if layout == "parallel":
        return _build(peg, build_processes=2)
    if layout == "parallel-disk":
        return _build(peg, store=DiskPathStore(directory), build_processes=2)
    QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA).save_offline(directory)
    index, _context = load_offline(directory)
    return index


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def peg(request):
    return GRAPHS[request.param]()


@pytest.fixture(scope="module")
def serial(peg):
    return _build(peg)


@pytest.fixture(scope="module", params=LAYOUTS)
def made(request, peg, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp(request.param))
    index = _made(request.param, peg, directory)
    yield index
    index.store.close()


class TestStoreInvariants:
    def test_is_the_one_index_class(self, serial, made):
        assert type(made) is PathIndex
        assert type(serial.store) is InMemoryPathStore
        assert made.grid.points == serial.grid.points

    def test_store_covers_every_sequence(self, serial, made):
        assert serial.num_paths() > 0
        assert set(made.histograms) == set(serial.histograms)
        assert made.num_paths() == serial.num_paths()
        assert made.num_sequences() == serial.num_sequences()
        assert store_content(made.store) == store_content(serial.store)

    @pytest.mark.parametrize("alpha", [BETA, 0.25, 0.6, 0.95])
    def test_lookup_equals_serial(self, serial, made, alpha):
        for seq in serial.histograms:
            for oriented in (seq, tuple(reversed(seq))):
                got = made.lookup(oriented, alpha)
                want = serial.lookup(oriented, alpha)
                assert got.nodes.tolist() == want.nodes.tolist()
                assert got.prle.tobytes() == want.prle.tobytes()
                assert got.prn.tobytes() == want.prn.tobytes()

    @pytest.mark.parametrize("alpha", [BETA, 0.3, 0.7])
    def test_estimate_cardinality_equals_serial(self, serial, made, alpha):
        for seq in serial.histograms:
            assert made.estimate_cardinality(
                seq, alpha
            ) == serial.estimate_cardinality(seq, alpha)

    def test_unindexed_sequence_everywhere_empty(self, serial, made):
        ghost = ("no-such-label", "really-not")
        assert made.lookup(ghost, 0.5) == []
        assert made.estimate_cardinality(ghost, 0.5) == 0.0
        assert serial.lookup(ghost, 0.5) == []

    def test_stats_agree(self, serial, made):
        stats, expected = made.stats(), serial.stats()
        for key in ("sequences", "paths", "paths_per_length"):
            assert stats[key] == expected[key]
        # Disk and memory stores measure their footprint differently.
        assert stats["size_bytes"] > 0


class TestParallelBuild:
    def test_rejects_negative_process_count(self):
        with pytest.raises(IndexError_, match="build_processes"):
            _build(small_random_peg(seed=11), build_processes=-1)
