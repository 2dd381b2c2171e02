"""Unit tests for the two-level path stores (in-memory, disk, sharded)."""

import os
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.bundle import clear_offline_artifacts
from repro.index.sharded import ShardedPathStore, open_store
from repro.storage.kvstore import DiskPathStore
from repro.utils.errors import StorageError
from tests.conftest import store_content


@pytest.fixture(params=["memory", "disk", "sharded-memory", "sharded-disk"])
def store(request, tmp_path):
    directory = str(tmp_path / "store") if "disk" in request.param else None
    num_shards = 3 if "sharded" in request.param else 0
    with open_store(directory, num_shards) as s:
        yield s


SEQ_A = ("a", "b")
SEQ_B = ("a", "b", "c")


class TestPathStore:
    def test_put_get_roundtrip(self, store):
        store.put_bucket(SEQ_A, 700, b"payload-700")
        assert store.get_bucket(SEQ_A, 700) == b"payload-700"
        assert store.get_bucket(SEQ_A, 800) is None
        assert store.get_bucket(SEQ_B, 700) is None

    def test_scan_ascending_from_threshold(self, store):
        for bucket in (300, 900, 500, 700):
            store.put_bucket(SEQ_A, bucket, str(bucket).encode())
        scanned = list(store.scan_buckets(SEQ_A, 500))
        assert [b for b, _ in scanned] == [500, 700, 900]
        assert [p for _, p in scanned] == [b"500", b"700", b"900"]

    def test_scan_unknown_sequence_empty(self, store):
        assert list(store.scan_buckets(("zz",), 0)) == []

    def test_sequences_tracked(self, store):
        store.put_bucket(SEQ_A, 100, b"x")
        store.put_bucket(SEQ_B, 100, b"y")
        assert set(store.label_sequences()) == {SEQ_A, SEQ_B}

    def test_sequences_do_not_collide(self, store):
        store.put_bucket(SEQ_A, 100, b"short")
        store.put_bucket(SEQ_B, 100, b"long")
        assert store.get_bucket(SEQ_A, 100) == b"short"
        assert store.get_bucket(SEQ_B, 100) == b"long"

    def test_replace_bucket(self, store):
        store.put_bucket(SEQ_A, 100, b"first")
        store.put_bucket(SEQ_A, 100, b"second")
        assert store.get_bucket(SEQ_A, 100) == b"second"

    def test_bad_bucket_rejected(self, store):
        with pytest.raises(StorageError):
            store.put_bucket(SEQ_A, 1500, b"x")
        with pytest.raises(StorageError):
            store.put_bucket(SEQ_A, -1, b"x")

    def test_size_bytes_positive_after_write(self, store):
        store.put_bucket(SEQ_A, 100, b"x" * 100)
        assert store.size_bytes() >= 100


_LABELS = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.text(alphabet="abcxyz", min_size=0, max_size=4),
)
_SEQUENCES = st.lists(_LABELS, min_size=1, max_size=5).map(tuple)


class TestShardedRouting:
    """A sharded store partitions sequences and nothing else changes."""

    @given(sequences=st.lists(_SEQUENCES, min_size=1, max_size=12))
    def test_children_partition_the_sequences(self, sequences):
        sharded = open_store(None, 4)
        plain = open_store(None)
        for i, seq in enumerate(sequences):
            for target in (sharded, plain):
                target.put_bucket(seq, 500, str(i).encode())
        assert isinstance(sharded, ShardedPathStore)
        # No sequence in two children, each in the child its hash names ...
        seen: dict = {}
        for shard_id, child in enumerate(sharded.children):
            for seq in child.label_sequences():
                assert seq not in seen
                seen[seq] = shard_id
                assert sharded.shard_for(seq) == shard_id
        # ... and the children cover exactly the plain store's content.
        assert set(seen) == set(plain.label_sequences())
        assert store_content(sharded) == store_content(plain)

    @given(seq=_SEQUENCES)
    def test_orientation_invariant(self, seq):
        sharded = open_store(None, 5)
        assert sharded.shard_for(seq) == sharded.shard_for(
            tuple(reversed(seq))
        )

    @given(sequences=st.lists(_SEQUENCES, min_size=1, max_size=8))
    def test_one_shard_equals_plain_store(self, sequences):
        single = open_store(None, 1)
        plain = open_store(None)
        for i, seq in enumerate(sequences):
            for target in (single, plain):
                target.put_bucket(seq, 100 + i, str(i).encode())
        assert store_content(single) == store_content(plain)
        assert single.size_bytes() == plain.size_bytes()

    def test_read_counters_sum_over_children(self):
        sharded = open_store(None, 4)
        sequences = [(f"s{i}",) for i in range(8)]
        for seq in sequences:
            sharded.put_bucket(seq, 500, b"12345")
        for seq in sequences:
            assert sharded.get_bucket(seq, 500) == b"12345"
            list(sharded.scan_buckets(seq, 0))
        assert sharded.read_count == 16
        assert sharded.bytes_read == 80
        sharded.reset_read_count()
        assert (sharded.read_count, sharded.bytes_read) == (0, 0)

    def test_needs_a_child(self):
        from repro.utils.errors import IndexError_

        with pytest.raises(IndexError_):
            ShardedPathStore([])
        with pytest.raises(IndexError_):
            open_store(None, -1)

    def test_rebuild_with_other_shard_count_leaves_no_stale_shard(
        self, tmp_path
    ):
        directory = str(tmp_path)
        with open_store(directory, 4) as first:
            for i in range(8):
                first.put_bucket((f"s{i}",), 500, b"old")
        clear_offline_artifacts(directory)
        with open_store(directory, 2) as rebuilt:
            rebuilt.put_bucket(("s0",), 500, b"new")
            assert store_content(rebuilt) == {("s0",): [(500, b"new")]}
        assert sorted(os.listdir(directory)) == ["shard-00", "shard-01"]

    def test_reopen_preserves_everything(self, tmp_path):
        directory = str(tmp_path)
        with open_store(directory, 3) as store:
            for i in range(6):
                store.put_bucket((f"s{i}", "t"), 400, str(i).encode())
            expected = store_content(store)
        with open_store(directory, 3) as reopened:
            assert store_content(reopened) == expected


class TestDiskPersistence:
    def test_reopen_preserves_everything(self, tmp_path):
        directory = str(tmp_path / "persist")
        with DiskPathStore(directory) as store:
            store.put_bucket(SEQ_A, 400, b"A")
            store.put_bucket(SEQ_B, 600, b"B")
        with DiskPathStore(directory) as reopened:
            assert reopened.get_bucket(SEQ_A, 400) == b"A"
            assert reopened.get_bucket(SEQ_B, 600) == b"B"
            assert set(reopened.label_sequences()) == {SEQ_A, SEQ_B}

    def test_non_string_labels(self, tmp_path):
        with DiskPathStore(str(tmp_path / "labels")) as store:
            seq = ((1, "x"), (2, "y"))
            store.put_bucket(seq, 500, b"tuple-labels")
            assert store.get_bucket(seq, 500) == b"tuple-labels"

    def test_a_closed_store_is_exactly_two_files(self, tmp_path):
        directory = tmp_path / "empty"
        DiskPathStore(str(directory)).close()
        assert sorted(os.listdir(directory)) == ["index.dir", "index.log"]
        with DiskPathStore(str(directory)) as store:
            store.put_bucket(SEQ_A, 400, b"A")
        assert sorted(os.listdir(directory)) == ["index.dir", "index.log"]

    def test_unflushed_puts_are_not_in_the_published_directory(self, tmp_path):
        directory = str(tmp_path / "commit")
        with DiskPathStore(directory) as writer:
            writer.put_bucket(SEQ_A, 400, b"committed")
            writer.flush()
            writer.put_bucket(SEQ_A, 400, b"pending")
            writer.put_bucket(SEQ_B, 600, b"pending")
            with DiskPathStore(directory) as reader:
                assert store_content(reader) == {SEQ_A: [(400, b"committed")]}
        with DiskPathStore(directory) as reader:
            assert store_content(reader) == {
                SEQ_A: [(400, b"pending")], SEQ_B: [(600, b"pending")],
            }

    @pytest.mark.parametrize(
        "victim, damage",
        [
            ("index.dir", lambda raw: b""),
            ("index.dir", lambda raw: raw[:5]),
            ("index.dir", lambda raw: raw[:-1]),
            ("index.dir", lambda raw: raw[:-1] + bytes([raw[-1] ^ 1])),
            ("index.dir", lambda raw: raw + b"\0"),
            ("index.dir", lambda raw: b"XXXX" + raw[4:]),
            # What v1.15 wrote there: a bare pickle of {sequence: id}.
            ("index.dir", lambda raw: pickle.dumps({SEQ_A: 0, SEQ_B: 1})),
            ("index.log", lambda raw: raw[:-1]),
            ("index.log", lambda raw: b""),
        ],
    )
    def test_damaged_store_is_a_storage_error(self, tmp_path, victim, damage):
        directory = tmp_path / "damaged"
        with DiskPathStore(str(directory)) as store:
            store.put_bucket(SEQ_A, 400, b"A" * 40)
            store.put_bucket(SEQ_B, 600, b"B" * 40)
        path = directory / victim
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(StorageError):
            DiskPathStore(str(directory))


class TestConcurrentReaders:
    """A shared DiskPathStore must serve parallel readers correctly.

    The record log's file handle and its lazily grown mapping are
    stateful; without the store-level lock, interleaved seeks
    corrupt reads. Many threads hammer disjoint (sequence, bucket)
    slots and verify every payload byte-for-byte.
    """

    def test_parallel_point_reads_and_scans(self, tmp_path):
        import threading

        sequences = [(f"s{i}", f"t{i}") for i in range(8)]
        buckets = (200, 400, 600, 800)
        with DiskPathStore(str(tmp_path / "shared")) as shared:
            for seq in sequences:
                for bucket in buckets:
                    payload = f"{seq[0]}:{bucket}".encode() * 50
                    shared.put_bucket(seq, bucket, payload)
            shared.flush()

            errors = []

            def reader(worker: int):
                try:
                    for round_num in range(20):
                        seq = sequences[(worker + round_num) % len(sequences)]
                        for bucket in buckets:
                            expected = f"{seq[0]}:{bucket}".encode() * 50
                            assert shared.get_bucket(seq, bucket) == expected
                        scanned = list(shared.scan_buckets(seq, 400))
                        assert [b for b, _ in scanned] == [400, 600, 800]
                        for bucket, payload in scanned:
                            assert payload == f"{seq[0]}:{bucket}".encode() * 50
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []


class TestMmapReads:
    """DiskPathStore's zero-copy read path."""

    def test_get_bucket_returns_view(self, tmp_path):
        with DiskPathStore(str(tmp_path / "zc")) as store:
            store.put_bucket(SEQ_A, 500, b"zero-copy")
            payload = store.get_bucket(SEQ_A, 500)
            assert isinstance(payload, memoryview)
            assert payload == b"zero-copy"
            assert bytes(payload) == b"zero-copy"

    def test_scan_buckets_returns_views(self, tmp_path):
        with DiskPathStore(str(tmp_path / "zc")) as store:
            for bucket in (300, 700):
                store.put_bucket(SEQ_A, bucket, str(bucket).encode())
            scanned = dict(store.scan_buckets(SEQ_A, 0))
            assert scanned[300] == b"300" and scanned[700] == b"700"

    def test_view_survives_store_close(self, tmp_path):
        store = DiskPathStore(str(tmp_path / "zc"))
        store.put_bucket(SEQ_A, 500, b"still-valid")
        payload = store.get_bucket(SEQ_A, 500)
        store.close()  # must not raise despite the exported view
        assert payload == b"still-valid"

    def test_interleaved_put_get(self, tmp_path):
        with DiskPathStore(str(tmp_path / "zc")) as store:
            views = []
            for i in range(10):
                body = bytes([65 + i]) * (50 * (i + 1))
                store.put_bucket(SEQ_A, 100 + i, body)
                views.append((store.get_bucket(SEQ_A, 100 + i), body))
            for view, body in views:
                assert view == body

    def test_frombuffer_over_view(self, tmp_path):
        import numpy as np

        with DiskPathStore(str(tmp_path / "zc")) as store:
            data = np.arange(16, dtype=np.uint8).tobytes()
            store.put_bucket(SEQ_A, 500, data)
            view = store.get_bucket(SEQ_A, 500)
            array = np.frombuffer(view, dtype=np.uint8)
            assert array.tolist() == list(range(16))
