"""Regression tests for violations the invariant linter surfaced.

Running ``repro.analysis`` over the tree for the first time found a
handful of true violations — unlocked reads of lock-guarded state and
one hash-order-dependent iteration. Each fix is locked down here with a
behavioural test (a recording lock proxy that counts acquisitions, or a
direct ordering assertion), so the contract survives even if the
annotations are ever removed.
"""

from __future__ import annotations

import threading

import pytest

from repro.net.client import QueryClient
from repro.obs.metrics import MetricsRegistry
from repro.query import QueryGraph
from repro.relational.engine import build_relations
from repro.service.service import (
    RESULT_NEUTRAL_OPTIONS,
    QueryService,
    request_key,
)
from repro.utils.errors import NetError, ServiceError
from tests.conftest import small_random_peg
from tests.test_service import FakeEngine


class RecordingLock:
    """Context-manager proxy that counts acquisitions of a real lock."""

    def __init__(self, inner=None):
        self._inner = inner if inner is not None else threading.Lock()
        self.acquisitions = 0

    def acquire(self, *args, **kwargs):
        self.acquisitions += 1
        return self._inner.acquire(*args, **kwargs)

    def release(self):
        return self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()
        return False


class TestHistogramLocking:
    def test_quantile_runs_entirely_under_lock(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.observe(0.5)
        lock = RecordingLock(histogram._lock)
        histogram._lock = lock
        value = histogram.quantile(0.5)
        assert lock.acquisitions == 1
        assert value == pytest.approx(0.5, rel=0.25)


class TestServiceClosedCheckLocking:
    def test_submit_after_close_checks_closed_under_gate(self):
        service = QueryService(FakeEngine(), num_workers=1)
        service.close()
        gate = RecordingLock(service._gate)
        service._gate = gate
        with pytest.raises(ServiceError, match="closed"):
            service.submit(QueryGraph({"u": "a"}, []), 0.5)
        assert gate.acquisitions >= 1


class TestClientCloseLocking:
    def test_close_disconnects_under_the_request_lock(self):
        client = QueryClient("127.0.0.1", 1)
        lock = RecordingLock(client._lock)
        client._lock = lock
        client.close()  # never connected: still must serialize vs request()
        assert lock.acquisitions == 1
        assert client._sock is None


class TestClientBackoffLocking:
    """REP211 fix: the retry backoff sleep releases the request lock.

    Sleeping inside ``with self._lock`` would stall every other
    thread's request for the whole backoff schedule; the flow checker
    flagged it and the fix moved the sleep outside the hold.
    """

    def test_backoff_sleep_runs_with_the_lock_released(self, monkeypatch):
        client = QueryClient(
            "127.0.0.1", 1,
            max_retries=2, backoff_base=0.001, backoff_max=0.002,
            breaker_threshold=100, seed=7,
        )

        def refused(payload):
            raise ConnectionError("refused")

        lock_held_during_sleep: list = []

        def observing_sleep(delay):
            assert delay > 0.0
            lock_held_during_sleep.append(client._lock.locked())

        monkeypatch.setattr(client, "_exchange", refused)
        monkeypatch.setattr("repro.net.client.time.sleep", observing_sleep)
        with pytest.raises(NetError, match="after 3 attempts"):
            client.request({"kind": "query", "nodes": {}})
        # One backoff per retry, each with the lock released.
        assert lock_held_during_sleep == [False, False]
        assert client.retries == 2


class TestRelationalDeterminism:
    def test_node_relations_built_in_sorted_label_order(self):
        peg = small_random_peg(seed=3, num_references=20)
        # Insertion order deliberately unsorted: the builder must not
        # inherit set-iteration (hash) order for its relation layout.
        query = QueryGraph(
            {"n1": "zz", "n2": "aa", "n3": "mm"},
            [("n1", "n2"), ("n2", "n3")],
        )
        relations = build_relations(peg, query)
        node_labels = [
            key[1] for key in relations if key[0] == "node"
        ]
        assert node_labels == sorted(node_labels)
        assert set(node_labels) == {"aa", "mm", "zz"}


class TestResultNeutralOptionsContract:
    def test_neutral_options_do_not_change_the_key(self):
        from repro.query.engine import QueryOptions

        query = QueryGraph({"u": "a", "v": "b"}, [("u", "v")])
        base = request_key(query, 0.5, QueryOptions())
        for field in sorted(RESULT_NEUTRAL_OPTIONS):
            current = getattr(QueryOptions(), field)
            if isinstance(current, bool):
                changed = QueryOptions(**{field: not current})
            elif isinstance(current, int):
                changed = QueryOptions(**{field: current + 1})
            else:
                changed = QueryOptions(**{field: "other"})
            assert request_key(query, 0.5, changed) == base, field

    def test_every_option_field_is_keyed_or_declared_neutral(self):
        import dataclasses

        from repro.query.engine import QueryOptions

        fields = {f.name for f in dataclasses.fields(QueryOptions)}
        keyed = fields - RESULT_NEUTRAL_OPTIONS
        assert RESULT_NEUTRAL_OPTIONS <= fields
        # Changing any non-neutral field must change the key.
        query = QueryGraph({"u": "a", "v": "b"}, [("u", "v")])
        base = request_key(query, 0.5, QueryOptions())
        for field in sorted(keyed):
            current = getattr(QueryOptions(), field)
            if isinstance(current, bool):
                changed = QueryOptions(**{field: not current})
            elif isinstance(current, int):
                changed = QueryOptions(**{field: current + 17})
            else:
                changed = QueryOptions(**{field: "k-partite"})
            assert request_key(query, 0.5, changed) != base, field
