"""One submit path over a real engine: results, counters, bad requests
and a many-thread stress.

Every request reaches the engine through :meth:`QueryService.submit`
(``query`` and ``query_many`` wrap it). The stress test drives it from
many threads with the cache off and asserts the service neither
deadlocks nor loses a request: every future resolves to the engine's
answer, the counters add up to exactly the requests made, and the
in-flight gauge returns to zero.
"""

from __future__ import annotations

import threading

import pytest

from repro.query import QueryEngine, QueryGraph
from repro.service import QueryService
from repro.utils.errors import QueryError, ServiceError

from tests.conftest import small_random_peg


@pytest.fixture(scope="module")
def serving_setup():
    peg = small_random_peg(seed=5)
    engine = QueryEngine(peg, max_length=2, beta=0.1)
    sigma = sorted(peg.sigma, key=repr)
    queries = [
        QueryGraph(
            {"u": sigma[i % len(sigma)], "v": sigma[(i + 1) % len(sigma)]},
            [("u", "v")],
        )
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


class TestSubmit:
    def test_results_match_the_engine(self, serving_setup):
        engine, queries = serving_setup
        with QueryService(engine, num_workers=2, cache_size=0) as service:
            results = service.query_many(queries, 0.3)
        assert any(len(result.matches) for result in results)
        for query, got in zip(queries, results):
            assert match_keys(got) == match_keys(engine.query(query, 0.3))

    def test_counters_add_up(self, serving_setup):
        engine, queries = serving_setup
        with QueryService(engine, num_workers=2) as service:
            service.query_many(queries, 0.3)
            snap = service.stats_snapshot()
            assert snap["requests"] == len(queries)
            assert snap["misses"] == len(queries)
            assert snap["in_flight"] == 0
            # The same requests again are all cache hits.
            service.query_many(queries, 0.3)
            snap = service.stats_snapshot()
            assert snap["hits"] == len(queries)
            assert snap["misses"] == len(queries)
            assert snap["requests"] == 2 * len(queries)

    def test_invalid_threshold_does_not_poison_its_neighbours(
        self, serving_setup
    ):
        engine, queries = serving_setup
        with QueryService(engine, num_workers=2, cache_size=0) as service:
            first = service.submit(queries[0], 0.3)
            with pytest.raises(QueryError):
                service.submit(queries[1], 1.5).result(timeout=30)
            last = service.submit(queries[2], 0.3)
            assert match_keys(first.result(timeout=30)) == match_keys(
                engine.query(queries[0], 0.3)
            )
            assert match_keys(last.result(timeout=30)) == match_keys(
                engine.query(queries[2], 0.3)
            )
            assert service.stats_snapshot()["in_flight"] == 0

    def test_malformed_query_does_not_leak_inflight(self, serving_setup):
        engine, queries = serving_setup
        with QueryService(engine, num_workers=2, cache_size=0) as service:
            # The request key cannot be computed: submit raises before
            # the request is admitted.
            with pytest.raises(AttributeError):
                service.submit(None, 0.3)
            # Nothing stays registered: an identical follow-up request
            # must evaluate (not attach to a dead future) and resolve.
            assert service._inflight == {}
            follow_up = service.submit(queries[0], 0.3)
            assert match_keys(follow_up.result(timeout=30)) == match_keys(
                engine.query(queries[0], 0.3)
            )

    def test_closed_service_rejects_submits(self, serving_setup):
        engine, queries = serving_setup
        service = QueryService(engine, num_workers=1)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(queries[0], 0.3)
        with pytest.raises(ServiceError):
            service.query_many(queries, 0.3)


class TestManyThreadStress:
    """``submit`` and ``query_many`` interleaved from many threads."""

    NUM_MANY_THREADS = 4
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

        def many_worker(offset):
            start_gate.wait(timeout=5)
            try:
                for round_num in range(self.ROUNDS):
                    alpha = alphas[(round_num + offset) % len(alphas)]
                    results = service.query_many(queries, alpha)
                    record(len(queries))
                    for i, result in enumerate(results):
                        if match_keys(result) != reference[(i, alpha)]:
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
            threading.Thread(target=many_worker, args=(t,))
            for t in range(self.NUM_MANY_THREADS)
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
            assert total == (
                self.NUM_MANY_THREADS * self.ROUNDS * len(queries)
                + self.NUM_SINGLE_THREADS * self.ROUNDS
            )
            snap = service.stats_snapshot()
            # Every request is observed exactly once: as a hit
            # (impossible here: cache disabled), a miss, or a dedup.
            assert snap["hits"] == 0
            assert snap["misses"] + snap["deduplicated"] == total
            assert snap["in_flight"] == 0
            assert snap["errors"] == 0
        finally:
            service.close()
