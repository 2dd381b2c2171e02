"""Unit tests for offline-bundle persistence (index + context)."""

import os
import pickle

import pytest

from repro.index.bundle import clear_offline_artifacts, load_offline
from repro.query import QueryEngine, QueryGraph
from repro.service import QueryService
from repro.storage import DiskPathStore
from repro.utils.errors import IndexError_
from tests.conftest import (
    small_random_peg,
    store_content,
    write_format5_bundle,
)


def match_keys(matches):
    return {(m.nodes, m.edges, round(m.probability, 9)) for m in matches}


@pytest.fixture(scope="module")
def peg():
    return small_random_peg(seed=70, num_references=60)


class TestSaveLoadRoundtrip:
    def test_memory_store_engine_roundtrip(self, peg, tmp_path):
        directory = str(tmp_path / "bundle")
        engine = QueryEngine(peg, max_length=2, beta=0.1)
        engine.save_offline(directory)
        reopened = QueryEngine.from_saved(peg, directory)
        sigma = sorted(peg.sigma)
        query = QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[2]},
            [("a", "b"), ("b", "c")],
        )
        assert match_keys(reopened.query(query, 0.3).matches) == \
            match_keys(engine.query(query, 0.3).matches)

    def test_disk_store_saved_in_place(self, peg, tmp_path):
        directory = str(tmp_path / "disk-bundle")
        engine = QueryEngine(
            peg, max_length=2, beta=0.1, store=DiskPathStore(directory)
        )
        engine.save_offline(directory)
        reopened = QueryEngine.from_saved(peg, directory)
        assert reopened.index.num_paths() == engine.index.num_paths()

    def test_metadata_preserved(self, peg, tmp_path):
        directory = str(tmp_path / "meta-bundle")
        engine = QueryEngine(peg, max_length=2, beta=0.2, gamma=0.05)
        engine.save_offline(directory)
        index, context = load_offline(directory)
        assert index.max_length == 2
        assert index.beta == 0.2
        assert index.gamma == 0.05
        assert index.num_paths() == engine.index.num_paths()
        assert context.sigma == engine.context.sigma

    def test_histogram_estimates_preserved(self, peg, tmp_path):
        directory = str(tmp_path / "hist-bundle")
        engine = QueryEngine(peg, max_length=2, beta=0.2)
        engine.save_offline(directory)
        index, _ = load_offline(directory)
        for seq in list(engine.index.histograms)[:5]:
            assert index.estimate_cardinality(seq, 0.5) == pytest.approx(
                engine.index.estimate_cardinality(seq, 0.5)
            )

    def test_context_tables_preserved(self, peg, tmp_path):
        directory = str(tmp_path / "ctx-bundle")
        engine = QueryEngine(peg, max_length=1, beta=0.2)
        engine.save_offline(directory)
        _, context = load_offline(directory)
        for node in list(peg.node_ids())[:10]:
            for label in context.sigma:
                assert context.cardinality(node, label) == \
                    engine.context.cardinality(node, label)
                assert context.full_upperbound(node, label) == \
                    engine.context.full_upperbound(node, label)
        # The bundle stores the tables themselves: same dtype, layout, bits.
        for loaded, saved in zip(context.tables(), engine.context.tables()):
            assert loaded.dtype == saved.dtype and loaded.flags.f_contiguous
            assert loaded.tobytes() == saved.tobytes()


class TestValidation:
    def test_missing_bundle(self, tmp_path):
        with pytest.raises(IndexError_):
            load_offline(str(tmp_path / "nothing"))

    @pytest.mark.parametrize("version", [2, 4, 999])
    def test_other_versions_rejected_then_rebuilt(
        self, peg, tmp_path, version
    ):
        """Version 4 is what the previous release wrote (the context as
        per-node row lists); no old loader."""
        import pickle
        import os

        from repro.service import QueryService

        directory = str(tmp_path / "versioned")
        engine = QueryEngine(peg, max_length=1, beta=0.2)
        engine.save_offline(directory)
        meta_path = os.path.join(directory, "offline.meta")
        with open(meta_path, "rb") as handle:
            meta = pickle.load(handle)
        meta["version"] = version
        if version == 4:
            sigma, *tables = meta["context"]
            meta["context"] = dict(
                zip(
                    ("cardinality", "partial_upper", "full_upper"),
                    (table.tolist() for table in tables),
                ),
                sigma=sigma,
            )
        with open(meta_path, "wb") as handle:
            pickle.dump(meta, handle)
        with pytest.raises(IndexError_, match="unsupported"):
            load_offline(directory)
        with QueryService.open(
            peg, directory, max_length=1, beta=0.2
        ) as service:
            assert not service.warm_started
        index, _ = load_offline(directory)
        assert index.num_paths() == engine.index.num_paths()
        index.store.close()

    @pytest.mark.parametrize("keep", [0.0, 0.5], ids=["emptied", "halved"])
    @pytest.mark.parametrize("victim", ["offline.meta", "index.dir", "index.log"])
    def test_torn_bundle_is_rebuilt(self, peg, tmp_path, victim, keep):
        """A truncated file anywhere in a bundle is a cold start, not a
        traceback (v1.15 leaked ``UnpicklingError`` / ``StorageError``)."""
        directory = str(tmp_path / "torn")
        sigma = sorted(peg.sigma)
        query = QueryGraph({"a": sigma[0], "b": sigma[1]}, [("a", "b")])
        build = dict(max_length=1, beta=0.2)
        with QueryService.build(peg, snapshot_dir=directory, **build) as service:
            expected = match_keys(service.query(query, 0.3).matches)
        assert expected
        path = os.path.join(directory, victim)
        assert os.path.getsize(path) > 1
        os.truncate(path, int(os.path.getsize(path) * keep))
        with pytest.raises(IndexError_):
            load_offline(directory)
        with QueryService.open(peg, directory, **build) as service:
            assert service.warm_started is False
            assert match_keys(service.query(query, 0.3).matches) == expected
        with QueryService.open(peg, directory, **build) as service:
            assert service.warm_started is True
            assert match_keys(service.query(query, 0.3).matches) == expected

    def test_build_over_a_v3_directory_leaves_only_v4_files(
        self, peg, tmp_path
    ):
        """v1.15's three store files, its metadata, temporaries of an
        interrupted commit — and a bystander that must survive."""
        directory = tmp_path / "reused"
        directory.mkdir()
        for name in ("index.btree", "index.log", "index.dir.tmp",
                     "offline.meta.tmp", "notes.txt"):
            (directory / name).write_bytes(b"left behind")
        (directory / "index.dir").write_bytes(pickle.dumps({("a",): 0}))
        (directory / "offline.meta").write_bytes(
            pickle.dumps({"version": 3})
        )
        with QueryService.open(
            peg, str(directory), max_length=1, beta=0.2
        ) as service:
            assert not service.warm_started
        assert sorted(os.listdir(directory)) == [
            "index.dir", "index.log", "notes.txt", "offline.meta",
        ]
        assert b"left behind" not in (directory / "index.log").read_bytes()
        fresh = QueryEngine(peg, max_length=1, beta=0.2)
        index, _ = load_offline(str(directory))
        assert store_content(index.store) == store_content(fresh.index.store)
        index.store.close()


class TestFormat5ShardedBundle:
    """Format 5 could keep its stores under ``shard-NN/``; opening one as
    a root store would serve an empty index, so it is rejected and
    rebuilt."""

    def test_load_rejects_it(self, peg, tmp_path):
        directory = str(tmp_path / "v5")
        write_format5_bundle(peg, directory, max_length=1, beta=0.2)
        with pytest.raises(IndexError_, match="unsupported"):
            load_offline(directory)

    def test_open_rebuilds_and_answers_as_a_fresh_build(self, peg, tmp_path):
        directory = str(tmp_path / "v5")
        write_format5_bundle(peg, directory, max_length=1, beta=0.2)
        sigma = sorted(peg.sigma)
        query = QueryGraph({"a": sigma[0], "b": sigma[1]}, [("a", "b")])
        fresh = QueryEngine(peg, max_length=1, beta=0.2)
        expected = match_keys(fresh.query(query, 0.3).matches)
        assert expected
        with QueryService.open(
            peg, directory, max_length=1, beta=0.2
        ) as service:
            assert not service.warm_started
            assert match_keys(service.query(query, 0.3).matches) == expected
        assert not any(
            name.startswith("shard-") for name in os.listdir(directory)
        )
        index, _ = load_offline(directory)
        assert store_content(index.store) == store_content(fresh.index.store)
        index.store.close()

    def test_clear_sweeps_only_shard_directories(self, tmp_path):
        for name in ("shard-00", "shard-07", "shard-notes", "keep"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "index.log").write_bytes(b"left behind")
        clear_offline_artifacts(str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["keep", "shard-notes"]
