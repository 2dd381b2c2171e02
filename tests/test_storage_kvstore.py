"""Unit tests for the two-level path stores (in-memory and disk)."""

import os
import pickle
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.index.bundle import clear_offline_artifacts
from repro.storage.kvstore import DiskPathStore, InMemoryPathStore
from repro.utils.errors import StorageError
from tests.conftest import store_content


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        yield InMemoryPathStore()
        return
    with DiskPathStore(str(tmp_path / "store")) as s:
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

    def test_read_counters(self, store):
        sequences = [(f"s{i}",) for i in range(8)]
        for seq in sequences:
            store.put_bucket(seq, 500, b"12345")
        for seq in sequences:
            assert store.get_bucket(seq, 500) == b"12345"
            list(store.scan_buckets(seq, 0))
        assert store.read_count == 16
        assert store.bytes_read == 80
        store.reset_read_count()
        assert (store.read_count, store.bytes_read) == (0, 0)


_LABELS = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.text(alphabet="abcxyz", min_size=0, max_size=4),
)
_SEQUENCES = st.lists(_LABELS, min_size=1, max_size=5).map(tuple)
_BUCKETS = st.integers(min_value=0, max_value=1000)


class TestStoreAgreement:
    """A disk store holds exactly what the in-memory store holds."""

    @settings(
        max_examples=25,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(puts=st.lists(st.tuples(_SEQUENCES, _BUCKETS), max_size=12))
    def test_disk_equals_memory_before_and_after_reopen(self, tmp_path, puts):
        directory = tempfile.mkdtemp(dir=tmp_path)
        memory = InMemoryPathStore()
        with DiskPathStore(directory) as disk:
            for i, (seq, bucket) in enumerate(puts):
                for target in (memory, disk):
                    target.put_bucket(seq, bucket, str(i).encode())
            assert store_content(disk) == store_content(memory)
        with DiskPathStore(directory) as reopened:
            assert store_content(reopened) == store_content(memory)

    def test_rebuild_after_clear_leaves_no_stale_content(self, tmp_path):
        directory = str(tmp_path)
        with DiskPathStore(directory) as first:
            for i in range(8):
                first.put_bucket((f"s{i}",), 500, b"old")
        clear_offline_artifacts(directory)
        with DiskPathStore(directory) as rebuilt:
            rebuilt.put_bucket(("s0",), 500, b"new")
            assert store_content(rebuilt) == {("s0",): [(500, b"new")]}
        assert sorted(os.listdir(directory)) == ["index.dir", "index.log"]


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
