"""Batched serving: grouped evaluation, dedup, and concurrency stress.

The stress test drives :meth:`QueryService.submit_batch` under mixed
batch/single traffic from many threads and asserts the service neither
deadlocks nor loses a request: every future resolves to the correct
result, the stats counters add up to exactly the number of logical
requests observed, and the in-flight gauge returns to zero.
"""

from __future__ import annotations

import threading

import pytest

from repro.index import open_store
from repro.peg import build_peg
from repro.query import QueryEngine, QueryGraph
from repro.service import QueryService
from repro.utils.errors import ServiceError

from tests.conftest import small_random_peg


@pytest.fixture(scope="module")
def serving_setup():
    peg = small_random_peg(seed=5)
    engine = QueryEngine(
        peg, max_length=2, beta=0.1, store=open_store(None, 3)
    )
    sigma = sorted(peg.sigma, key=repr)
    queries = [
        QueryGraph({"u": sigma[i % len(sigma)], "v": sigma[(i + 1) % len(sigma)]},
                   [("u", "v")])
        for i in range(3)
    ]
    queries.append(
        QueryGraph(
            {"a": sigma[0], "b": sigma[1], "c": sigma[0]},
            [("a", "b"), ("b", "c")],
        )
    )
    return engine, queries


def match_keys(result):
    return sorted(
        (m.nodes, m.edges, round(m.probability, 9)) for m in result.matches
    )


class TestSubmitBatch:
    def test_batch_results_match_individual(self, serving_setup):
        engine, queries = serving_setup
        requests = [(query, 0.3) for query in queries]
        with QueryService(engine, num_workers=2, cache_size=0) as service:
            expected = [engine.query(query, alpha) for query, alpha in requests]
            results = service.query_batch(requests)
            for got, want in zip(results, expected):
                assert match_keys(got) == match_keys(want)

    def test_batch_counters_and_dedup(self, serving_setup):
        engine, queries = serving_setup
        requests = [(query, 0.3) for query in queries]
        # Duplicates inside one batch collapse onto the batch leader.
        doubled = requests + requests
        with QueryService(engine, num_workers=2) as service:
            service.query_batch(doubled)
            snap = service.stats_snapshot()
            assert snap["requests"] == len(doubled)
            assert snap["misses"] == len(requests)
            assert snap["deduplicated"] == len(requests)
            assert snap["in_flight"] == 0
            # A second submission is all cache hits.
            service.query_batch(doubled)
            snap = service.stats_snapshot()
            assert snap["hits"] == len(doubled)
            assert snap["requests"] == 2 * len(doubled)

    def test_empty_batch(self, serving_setup):
        engine, _ = serving_setup
        with QueryService(engine, num_workers=1) as service:
            assert service.submit_batch([]) == []

    def test_invalid_request_does_not_poison_batch(self, serving_setup):
        from repro.utils.errors import QueryError

        engine, queries = serving_setup
        requests = [
            (queries[0], 0.3),
            (queries[1], 1.5),   # invalid threshold
            (queries[2], 0.3),
        ]
        with QueryService(engine, num_workers=2, cache_size=0) as service:
            futures = service.submit_batch(requests)
            with pytest.raises(QueryError):
                futures[1].result(timeout=30)
            # The valid co-batched requests still resolve normally.
            assert match_keys(futures[0].result(timeout=30)) == match_keys(
                engine.query(queries[0], 0.3)
            )
            assert match_keys(futures[2].result(timeout=30)) == match_keys(
                engine.query(queries[2], 0.3)
            )

    def test_malformed_query_does_not_leak_inflight(self, serving_setup):
        from repro.utils.errors import QueryError

        engine, queries = serving_setup
        requests = [
            (queries[0], 0.3),
            (None, 0.3),         # request_key would blow up on this
            (queries[1], 0.3),
        ]
        with QueryService(engine, num_workers=2, cache_size=0) as service:
            futures = service.submit_batch(requests)
            with pytest.raises(QueryError):
                futures[1].result(timeout=30)
            futures[0].result(timeout=30)
            futures[2].result(timeout=30)
            # Nothing stays registered: an identical follow-up request
            # must evaluate (not attach to a dead future) and resolve.
            assert service._inflight == {}
            follow_up = service.submit(queries[0], 0.3)
            assert match_keys(follow_up.result(timeout=30)) == match_keys(
                engine.query(queries[0], 0.3)
            )

    def test_closed_service_rejects_batches(self, serving_setup):
        engine, queries = serving_setup
        service = QueryService(engine, num_workers=1)
        service.close()
        with pytest.raises(ServiceError):
            service.submit_batch([(queries[0], 0.3)])


class TestMixedTrafficStress:
    """submit_batch and submit interleaved from many threads."""

    NUM_BATCH_THREADS = 4
    NUM_SINGLE_THREADS = 4
    ROUNDS = 6

    def test_no_deadlock_and_consistent_stats(self, serving_setup):
        engine, queries = serving_setup
        alphas = (0.25, 0.4)
        reference = {
            (i, alpha): match_keys(engine.query(query, alpha))
            for i, query in enumerate(queries)
            for alpha in alphas
        }
        # cache_size=0 keeps every request on the miss/dedup path, the
        # most contended one.
        service = QueryService(engine, num_workers=3, cache_size=0)
        start_gate = threading.Event()
        failures: list = []
        submitted = []
        submitted_lock = threading.Lock()

        def record(count):
            with submitted_lock:
                submitted.append(count)

        def batch_worker(offset):
            start_gate.wait(timeout=5)
            try:
                for round_num in range(self.ROUNDS):
                    alpha = alphas[(round_num + offset) % len(alphas)]
                    requests = [(query, alpha) for query in queries]
                    futures = service.submit_batch(requests)
                    record(len(requests))
                    for i, future in enumerate(futures):
                        got = match_keys(future.result(timeout=60))
                        if got != reference[(i, alpha)]:
                            failures.append((offset, round_num, i, alpha))
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        def single_worker(offset):
            start_gate.wait(timeout=5)
            try:
                for round_num in range(self.ROUNDS):
                    i = (round_num + offset) % len(queries)
                    alpha = alphas[round_num % len(alphas)]
                    future = service.submit(queries[i], alpha)
                    record(1)
                    got = match_keys(future.result(timeout=60))
                    if got != reference[(i, alpha)]:
                        failures.append((offset, round_num, i, alpha))
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [
            threading.Thread(target=batch_worker, args=(t,))
            for t in range(self.NUM_BATCH_THREADS)
        ] + [
            threading.Thread(target=single_worker, args=(t,))
            for t in range(self.NUM_SINGLE_THREADS)
        ]
        for thread in threads:
            thread.start()
        start_gate.set()
        for thread in threads:
            thread.join(timeout=120)
        alive = [t for t in threads if t.is_alive()]
        try:
            assert not alive, f"{len(alive)} workers deadlocked"
            assert not failures, failures[:5]
            total = sum(submitted)
            expected_total = (
                self.NUM_BATCH_THREADS * self.ROUNDS * len(queries)
                + self.NUM_SINGLE_THREADS * self.ROUNDS
            )
            assert total == expected_total
            snap = service.stats_snapshot()
            # Every logical request is observed exactly once: as a hit
            # (impossible here: cache disabled), a miss, or a dedup.
            assert snap["hits"] == 0
            assert snap["misses"] + snap["deduplicated"] == total
            assert snap["in_flight"] == 0
            assert snap["errors"] == 0
        finally:
            service.close()
