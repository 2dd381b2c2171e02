"""Unit and concurrency tests for the query-serving subsystem."""

from __future__ import annotations

import threading
import time

import pytest

from repro.peg import build_peg
from repro.pgd import pgd_from_edge_list
from repro.query import QueryEngine, QueryGraph, QueryOptions
from repro.net import protocol
from repro.query.matcher import MatchColumns
from repro.service import QueryService, ResultCache, ServiceStats, request_key
from repro.utils.errors import (
    DeadlineExceeded,
    QueryError,
    ServiceError,
    ServiceUnavailable,
)
from tests.conftest import small_random_peg


@pytest.fixture
def peg(figure1_pgd):
    return build_peg(figure1_pgd)


def figure1_query(a="u", b="v"):
    return QueryGraph({a: "i", b: "a"}, [(a, b)])


class FakeEngine:
    """Scriptable engine double: records calls, can block or raise."""

    def __init__(self, delay=0.0, gate=None, fail=False):
        self.calls = 0
        self.delay = delay
        self.gate = gate
        self.fail = fail
        self._lock = threading.Lock()

    def query(self, query, alpha, options=None):
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            self.gate.wait(timeout=5)
        if self.delay:
            time.sleep(self.delay)
        if self.fail:
            raise QueryError("scripted failure")
        return ("result", query.signature(), alpha)


class TestResultCache:
    def test_put_get_and_lru_eviction(self):
        evicted = []
        cache = ResultCache(capacity=2, on_evict=evicted.append)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)           # evicts "b", the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert evicted == [1]

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)


#: Scripted ``record_*`` sequences -> the ``snapshot()`` they must yield.
#: ``drained`` scripts leave nothing in flight and every follower
#: resolved, so the second reconciliation identity applies to them.
STATS_SCRIPTS = [
    pytest.param(
        [("miss",), ("done", 0.010), ("hit", 0.001), ("dedup",),
         ("eviction", 2)],
        dict(hits=1, misses=1, deduplicated=1, evictions=2, requests=3,
             completed=2, in_flight=0, hit_rate=1 / 3),
        False,
        id="counters",
    ),
    pytest.param(
        [("miss",), ("miss",), ("done", 0.010)],
        dict(misses=2, in_flight=1, completed=1, requests=2),
        False,
        id="in-flight-gauge",
    ),
    pytest.param(
        # Regression: record_done(error=True) used to drop the sample,
        # hiding slow failures from every latency view.
        [("miss",), ("done", 0.5, True)],
        dict(errors=1, completed=1, latency_p50=0.0, latency_p95=0.0,
             error_latency_p50=0.5, error_latency_p95=0.5),
        True,
        id="error-latency-has-its-own-quantiles",
    ),
    pytest.param(
        # Regression: record_dedup never produced a completion, so
        # requests and completed diverged forever on a drained service.
        # The leader's failure is the only countable error: a follower
        # attached to it must not double-count.
        [("miss",), ("dedup",), ("dedup",), ("done", 0.010),
         ("attached_done", 0.011), ("attached_done", 0.012, True)],
        dict(requests=3, completed=3, attached=2, errors=0),
        True,
        id="attached-followers-complete",
    ),
    pytest.param(
        [("rejected",), ("rejected", True), ("hit", 0.001),
         ("deadline_exceeded",), ("queue_wait", 0.002)],
        dict(rejected=2, shed=1, requests=3, completed=1,
             deadline_exceeded=1, hit_rate=1.0),
        True,
        id="rejections-count-as-requests-not-completions",
    ),
    pytest.param([], dict(requests=0, hit_rate=0.0, latency_p50=0.0), True,
                 id="idle"),
]


class TestServiceStats:
    @pytest.mark.parametrize("script, expected, drained", STATS_SCRIPTS)
    def test_scripted_recordings_yield_snapshot(
        self, script, expected, drained
    ):
        stats = ServiceStats()
        for name, *args in script:
            getattr(stats, f"record_{name}")(*args)
        snap = stats.snapshot()
        for key, value in expected.items():
            assert snap[key] == pytest.approx(value), key
            view = getattr(stats, key, None)  # quantiles: snapshot only
            if view is not None:
                assert (view() if callable(view) else view) == snap[key], key
        assert snap["requests"] == (
            snap["hits"] + snap["misses"] + snap["deduplicated"]
            + snap["rejected"]
        )
        if drained:
            assert snap["requests"] == snap["completed"] + snap["rejected"]

    def test_quantiles_are_lifetime_bucket_estimates(self):
        stats = ServiceStats()
        for millis in range(1, 101):
            stats.record_hit(millis / 1e3)
        snap = stats.snapshot()
        # log buckets: within one bucket width (19%) of the exact value
        assert snap["latency_p50"] == pytest.approx(0.050, rel=0.19)
        assert snap["latency_p95"] == pytest.approx(0.095, rel=0.19)
        assert snap["latency_p50"] <= snap["latency_p95"] <= 0.100

    def test_holds_no_lock_deque_or_int_of_its_own(self):
        # The instruments are the only storage: nothing to mirror.
        state = vars(ServiceStats())
        assert not any(
            isinstance(value, (int, float, list, dict)) or
            type(value).__name__ in ("lock", "deque")
            for value in state.values()
        ), state

    def test_two_services_do_not_see_each_others_counts(self):
        with QueryService(FakeEngine(), num_workers=1) as one, \
                QueryService(FakeEngine(), num_workers=1) as other:
            one.query(figure1_query(), 0.5)
            one.query(figure1_query(), 0.5)
            snap, idle = one.stats_snapshot(), other.stats_snapshot()
        assert (snap["misses"], snap["hits"], snap["requests"]) == (1, 1, 2)
        assert snap["repro_service_requests_total{outcome=hit}"] == 1
        assert idle["requests"] == idle["completed"] == 0
        assert idle["repro_service_requests_total{outcome=miss}"] == 0

    def test_requests_and_hit_rate_consistent_under_concurrency(self):
        # Regression: requests/hit_rate read three counters without the
        # lock, so a reader could see a torn sum.
        stats = ServiceStats()
        per_thread = 2000

        def hammer():
            for _ in range(per_thread):
                stats.record_hit(0.001)
                stats.record_miss()
                stats.record_done(0.002)
                stats.record_dedup()
                stats.record_attached_done(0.002)

        readers_ok = []

        def read():
            for _ in range(per_thread):
                total = stats.requests
                rate = stats.hit_rate()
                readers_ok.append(total >= 0 and 0.0 <= rate <= 1.0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        threads += [threading.Thread(target=read) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(readers_ok)
        snap = stats.snapshot()
        assert snap["requests"] == 4 * per_thread * 3
        assert snap["completed"] == snap["requests"]
        assert stats.hit_rate() == pytest.approx(1 / 3)


class TestRequestKey:
    def test_isomorphic_queries_share_key(self):
        options = QueryOptions()
        key_a = request_key(figure1_query("u", "v"), 0.5, options)
        key_b = request_key(figure1_query("x", "y"), 0.5, options)
        assert key_a == key_b

    def test_execution_knobs_ignored(self):
        q = figure1_query()
        base = request_key(q, 0.5, QueryOptions())
        tuned = request_key(
            q, 0.5,
            QueryOptions(reduction_backend="python", link_backend="python"),
        )
        assert base == tuned

    def test_result_relevant_fields_distinguish(self):
        q = figure1_query()
        base = request_key(q, 0.5, QueryOptions())
        assert request_key(q, 0.4, QueryOptions()) != base
        assert request_key(
            q, 0.5, QueryOptions(use_context_pruning=False)
        ) != base


class TestCacheAndSingleFlight:
    def test_cache_hit_returns_same_result(self):
        engine = FakeEngine()
        with QueryService(engine, num_workers=2) as service:
            first = service.query(figure1_query(), 0.5)
            second = service.query(figure1_query("a", "b"), 0.5)  # renamed
        assert second is first
        assert engine.calls == 1
        snap = service.stats.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1

    def test_distinct_alpha_not_shared(self):
        engine = FakeEngine()
        with QueryService(engine, num_workers=2) as service:
            service.query(figure1_query(), 0.5)
            service.query(figure1_query(), 0.6)
        assert engine.calls == 2

    def test_single_flight_dedup(self):
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        with QueryService(engine, num_workers=2) as service:
            leader = service.submit(figure1_query(), 0.5)
            followers = [
                service.submit(figure1_query(f"n{i}", f"m{i}"), 0.5)
                for i in range(3)
            ]
            # Same node names share the leader's future; renamed
            # followers get one of their own, settled with its outcome.
            assert service.submit(figure1_query(), 0.5) is leader
            assert all(f is not leader for f in followers)
            assert service.stats.in_flight == 1
            gate.set()
            result = leader.result(timeout=5)
            assert [f.result(timeout=5) for f in followers] == [result] * 3
        assert engine.calls == 1
        snap = service.stats.snapshot()
        assert snap["deduplicated"] == 4
        assert snap["misses"] == 1
        assert snap["in_flight"] == 0
        assert result[0] == "result"

    def test_dedup_requests_converge_on_drained_service(self):
        # Regression: deduplicated requests never counted a completion,
        # so requests and completed could not converge after a drain.
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        with QueryService(engine, num_workers=2, cache_size=0) as service:
            leader = service.submit(figure1_query(), 0.5)
            for i in range(3):
                service.submit(figure1_query(f"n{i}", f"m{i}"), 0.5)
            gate.set()
            leader.result(timeout=5)
            deadline = time.time() + 5
            while time.time() < deadline:
                snap = service.stats.snapshot()
                if snap["completed"] == snap["requests"]:
                    break
                time.sleep(0.005)  # attached callbacks may still be firing
        snap = service.stats.snapshot()
        assert snap["requests"] == 4
        assert snap["completed"] == 4
        assert snap["attached"] == 3
        assert snap["errors"] == 0

    def test_dedup_converges_when_close_fails_the_leader(self):
        # close(wait=False) resolves the leader's future with
        # ServiceError; the attached followers' completions must still
        # be counted through that resolution.
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        service = QueryService(engine, num_workers=1, cache_size=0)
        blocker = service.submit(figure1_query(), 0.5)
        service.submit(figure1_query("x", "y"), 0.3)
        follower = service.submit(figure1_query("p", "q"), 0.3)
        assert service.stats.snapshot()["deduplicated"] == 1
        service.close(wait=False)
        gate.set()
        with pytest.raises((ServiceError, QueryError)):
            follower.result(timeout=5)
        try:
            blocker.result(timeout=5)
        except (ServiceError, QueryError):
            pass
        deadline = time.time() + 5
        while time.time() < deadline:
            snap = service.stats.snapshot()
            if snap["completed"] == snap["requests"]:
                break
            time.sleep(0.005)
        snap = service.stats.snapshot()
        assert snap["requests"] == 3
        assert snap["completed"] == 3
        assert snap["attached"] == 1

    def test_eviction_counted_in_stats(self):
        engine = FakeEngine()
        queries = [
            QueryGraph({"a": f"label{i}"}, []) for i in range(3)
        ]
        with QueryService(engine, num_workers=1, cache_size=2) as service:
            for query in queries:
                service.query(query, 0.5)
        assert service.stats.snapshot()["evictions"] == 1

    def test_cache_disabled(self):
        engine = FakeEngine()
        with QueryService(engine, num_workers=1, cache_size=0) as service:
            service.query(figure1_query(), 0.5)
            service.query(figure1_query(), 0.5)
        assert engine.calls == 2

    def test_error_propagates_and_is_not_cached(self):
        engine = FakeEngine(fail=True)
        with QueryService(engine, num_workers=1) as service:
            with pytest.raises(QueryError):
                service.query(figure1_query(), 0.5)
            engine.fail = False
            result = service.query(figure1_query(), 0.5)
        assert result[0] == "result"
        snap = service.stats.snapshot()
        assert snap["errors"] == 1
        assert snap["misses"] == 2
        assert snap["in_flight"] == 0

    def test_closed_service_rejects(self):
        service = QueryService(FakeEngine(), num_workers=1)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(figure1_query(), 0.5)

    def test_bad_construction_rejected(self):
        with pytest.raises(ServiceError):
            QueryService(FakeEngine(), num_workers=0)
        with pytest.raises(ServiceError):
            QueryService(FakeEngine(), executor="fiber")
        with pytest.raises(ServiceError):
            QueryService(FakeEngine(), executor="process")  # no snapshot


class _GatedRealEngine:
    """A real engine whose evaluations wait for ``gate``."""

    def __init__(self, engine, gate):
        self.engine = engine
        self.gate = gate
        self.graph_version = engine.graph_version

    def query(self, query, alpha, options=None):
        assert self.gate.wait(timeout=10)
        return self.engine.query(query, alpha, options)


class TestRenamedRequests:
    """A request answered from another query's evaluation (a cache hit
    or a single-flight follower) reads in its own node names."""

    ORIGINAL = QueryGraph(
        {"a": "DB", "b": "ML", "c": "DB"}, [("a", "b"), ("b", "c")]
    )
    RENAMED = QueryGraph(
        {"x": "ML", "y": "DB", "z": "DB"}, [("y", "x"), ("x", "z")]
    )

    @pytest.fixture(scope="class")
    def dblp_peg(self):
        from repro.datasets.dblp import generate_dblp_pgd

        return build_peg(generate_dblp_pgd(num_authors=60, seed=5))

    def assert_answers(self, result, query, fresh):
        """``result`` answers ``query`` as ``fresh``, a fresh evaluation
        of it, does — the representative ``mapping`` included: a
        match keeps the embedding least in canonical order, and a
        renaming maps canonical order onto canonical order."""
        def keys(r):
            return [
                (m.nodes, m.edges, m.probability, m.mapping) for m in r.matches
            ]

        assert keys(result) == keys(fresh) and len(fresh.matches) > 0
        for match in result.matches:
            mapping = dict(match.mapping)
            assert set(mapping) == set(query.nodes)
            assert len(set(mapping.values())) == len(mapping)
            labels = dict(match.nodes)
            for node, entity in mapping.items():
                assert labels[entity] == query.label(node)
            for edge in query.edges:
                node_a, node_b = edge
                assert frozenset((mapping[node_a], mapping[node_b])) in match.edges
        for path in result.decomposition_paths:
            assert set(path) <= set(query.nodes)

    @pytest.mark.parametrize("backend", ["vectorized", "python"])
    def test_cache_hit_reads_in_the_requesters_names(self, dblp_peg, backend):
        engine = QueryEngine(dblp_peg, max_length=2, beta=0.1)
        options = QueryOptions(reduction_backend=backend)
        fresh = QueryEngine(dblp_peg, max_length=2, beta=0.1)
        assert self.ORIGINAL.canonical_order() != self.RENAMED.canonical_order()
        with QueryService(engine, num_workers=1, cache_size=16) as service:
            first = service.query(self.ORIGINAL, 0.2, options)
            hit = service.query(self.RENAMED, 0.2, options)
            again = service.query(self.ORIGINAL, 0.2, options)
            assert service.stats.hits == 2
        assert again is first
        self.assert_answers(hit, self.RENAMED, fresh.query(self.RENAMED, 0.2))
        self.assert_answers(
            first, self.ORIGINAL, fresh.query(self.ORIGINAL, 0.2)
        )
        if backend == "vectorized":
            # a view of the cached columns, wire body included
            assert hit.matches.nodes is first.matches.nodes
            assert protocol.result_response(1, hit) == (
                protocol.result_response(1, first)
            )

    def test_dedup_follower_reads_in_its_own_names(self, dblp_peg):
        gate = threading.Event()
        engine = _GatedRealEngine(
            QueryEngine(dblp_peg, max_length=2, beta=0.1), gate
        )
        fresh = QueryEngine(dblp_peg, max_length=2, beta=0.1)
        with QueryService(engine, num_workers=1, cache_size=0) as service:
            leader = service.submit(self.ORIGINAL, 0.2)
            follower = service.submit(self.RENAMED, 0.2)
            assert service.stats.snapshot()["deduplicated"] == 1
            gate.set()
            led, followed = leader.result(timeout=10), follower.result(timeout=10)
        self.assert_answers(led, self.ORIGINAL, fresh.query(self.ORIGINAL, 0.2))
        self.assert_answers(
            followed, self.RENAMED, fresh.query(self.RENAMED, 0.2)
        )


class TestConcurrentServing:
    def test_many_clients_agree_with_direct_engine(self, peg):
        engine = QueryEngine(peg, max_length=2, beta=0.05)
        query = figure1_query()
        expected = engine.query(query, 0.4)
        with QueryService(engine, num_workers=4) as service:
            results = []
            errors = []

            def client(i):
                try:
                    renamed = figure1_query(f"u{i}", f"v{i}")
                    results.append(service.query(renamed, 0.4, timeout=30))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(results) == 8
        expected_probs = sorted(m.probability for m in expected.matches)
        for result in results:
            assert sorted(
                m.probability for m in result.matches
            ) == pytest.approx(expected_probs)
        snap = service.stats.snapshot()
        assert snap["requests"] == 8
        assert snap["misses"] == 1

    def test_concurrent_first_read_builds_matches_once(self, monkeypatch):
        """Eight threads iterate and slice one cached result at once:
        each sees the same list, and every ``Match`` is built by exactly
        one full materialization (slices taken before it build only
        their own rows)."""
        engine = QueryEngine(small_random_peg(2), max_length=2, beta=0.05)
        query = QueryGraph(
            {"a": "L0", "b": "L1", "c": "L2"}, [("a", "b"), ("b", "c")]
        )
        full_builds = []
        build = MatchColumns._build

        def counting_build(self, rows):
            if rows == slice(None):
                full_builds.append(self)
            return build(self, rows)

        monkeypatch.setattr(MatchColumns, "_build", counting_build)
        with QueryService(engine, num_workers=2) as service:
            result = service.query(query, 0.2)
            assert service.query(query, 0.2) is result  # a cache hit
        matches = result.matches
        assert isinstance(matches, MatchColumns) and len(matches) > 8
        barrier = threading.Barrier(8)
        seen = [None] * 8
        errors = []

        def reader(i):
            try:
                barrier.wait(timeout=10)
                if i % 2:
                    sliced = matches[1::3]
                    rows = list(matches)
                else:
                    rows = list(matches)
                    sliced = matches[1::3]
                seen[i] = (rows, sliced)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert full_builds == [matches]
        first = seen[0][0]
        assert first == engine.query(
            query, 0.2, QueryOptions(reduction_backend="python")
        ).matches
        for rows, sliced in seen:
            assert all(a is b for a, b in zip(rows, first))
            assert len(rows) == len(first) and sliced == first[1::3]

    def test_query_many_preserves_order(self, peg):
        engine = QueryEngine(peg, max_length=2, beta=0.05)
        queries = [
            QueryGraph({"x": "i", "y": "a"}, [("x", "y")]),
            QueryGraph({"x": "r", "y": "a"}, [("x", "y")]),
            QueryGraph({"p": "a", "q": "i"}, [("p", "q")]),  # iso to [0]
        ]
        with QueryService(engine, num_workers=3) as service:
            results = service.query_many(queries, 0.4)
        assert len(results) == 3
        # [2] is answered from [0]'s evaluation, in its own node names.
        assert results[2].matches.nodes is results[0].matches.nodes
        assert [(m.nodes, m.edges, m.probability) for m in results[2].matches] \
            == [(m.nodes, m.edges, m.probability) for m in results[0].matches]
        assert len(results[0].matches) > 0
        for match in results[2].matches:
            assert {node for node, _ in match.mapping} == {"p", "q"}


class TestSnapshotRoundTrip:
    def test_build_snapshot_restore_serve(self, peg, tmp_path):
        snapshot = str(tmp_path / "bundle")
        query = figure1_query()
        with QueryService.build(
            peg, max_length=2, beta=0.05, snapshot_dir=snapshot,
            num_workers=2,
        ) as cold:
            assert not cold.warm_started
            cold_result = cold.query(query, 0.4)

        with QueryService.from_snapshot(peg, snapshot, num_workers=2) as warm:
            assert warm.warm_started
            warm_result = warm.query(query, 0.4)
        assert sorted(
            m.probability for m in warm_result.matches
        ) == pytest.approx(
            sorted(m.probability for m in cold_result.matches)
        )

    def test_open_builds_then_restores(self, peg, tmp_path):
        snapshot = str(tmp_path / "bundle")
        with QueryService.open(
            peg, snapshot, max_length=1, beta=0.05, num_workers=1
        ) as first:
            assert not first.warm_started
        with QueryService.open(peg, snapshot, num_workers=1) as second:
            assert second.warm_started

    def test_process_pool_round_trip(self, peg, tmp_path):
        snapshot = str(tmp_path / "bundle")
        engine = QueryEngine(peg, max_length=1, beta=0.05)
        engine.save_offline(snapshot)
        expected = engine.query(figure1_query(), 0.4)
        with QueryService.from_snapshot(
            peg, snapshot, num_workers=1, executor="process"
        ) as service:
            result = service.query(figure1_query(), 0.4, timeout=60)
        assert sorted(
            m.probability for m in result.matches
        ) == pytest.approx(sorted(m.probability for m in expected.matches))

    def test_process_pool_ships_the_thread_modes_matches(self, tmp_path):
        """A process worker's result is pickled back as columns and
        reads as the very list the thread executor returns."""
        peg = small_random_peg(2)
        snapshot = str(tmp_path / "bundle")
        QueryEngine(peg, max_length=2, beta=0.05).save_offline(snapshot)
        query = QueryGraph(
            {"a": "L0", "b": "L1", "c": "L2"}, [("a", "b"), ("b", "c")]
        )
        with QueryService.from_snapshot(peg, snapshot, num_workers=1) as threads:
            expected = threads.query(query, 0.2, timeout=60).matches
        with QueryService.from_snapshot(
            peg, snapshot, num_workers=1, executor="process"
        ) as processes:
            shipped = processes.query(query, 0.2, timeout=60).matches
        assert isinstance(shipped, MatchColumns) and len(shipped) > 8
        assert list(shipped) == list(expected)


class TestExports:
    def test_top_level_exports(self):
        import repro

        assert repro.QueryService is QueryService
        assert repro.ResultCache is ResultCache
        assert repro.ServiceStats is ServiceStats


class TestCloseLifecycle:
    def test_submit_after_close_raises(self):
        service = QueryService(FakeEngine(), num_workers=1)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(figure1_query(), 0.5)

    def test_close_is_idempotent(self):
        service = QueryService(FakeEngine(), num_workers=1)
        service.close()
        service.close()
        service.close(wait=False)

    def test_close_under_load_leaves_no_hanging_waiters(self):
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        service = QueryService(engine, num_workers=1, cache_size=0)
        # Two distinct requests: the first occupies the only worker
        # (blocked on the gate), the second sits in the executor queue;
        # a third deduplicates against the first.
        first = service.submit(figure1_query(), 0.5)
        queued = service.submit(figure1_query(), 0.4)
        follower = service.submit(figure1_query("p", "q"), 0.5)

        closer = threading.Thread(target=service.close, args=(False,))
        closer.start()
        gate.set()
        closer.join(timeout=10)
        assert not closer.is_alive()

        for future in (first, queued, follower):
            assert future.done() or future.result(timeout=10) is not None
        # The queued task was cancelled: its waiter got ServiceError,
        # not a hang; the single-flight table is empty.
        with pytest.raises(ServiceError):
            queued.result(timeout=1)
        assert service._inflight == {}

        with pytest.raises(ServiceError):
            service.submit(figure1_query(), 0.5)

    def test_racing_submits_get_service_error_not_runtime_error(self):
        engine = FakeEngine(delay=0.005)
        service = QueryService(engine, num_workers=2, cache_size=0)
        errors = []
        done = []

        def hammer(i):
            try:
                future = service.submit(figure1_query(f"a{i}", f"b{i}"), 0.5)
                try:
                    future.result(timeout=10)
                    done.append(i)
                except ServiceError:
                    done.append(i)
            except ServiceError:
                done.append(i)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(16)
        ]
        for index, thread in enumerate(threads):
            thread.start()
            if index == 4:
                service.close(wait=False)
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert len(done) == 16
        assert service._inflight == {}


class TestDeadlines:
    def test_expired_deadline_resolves_with_clean_error(self):
        with QueryService(FakeEngine(), num_workers=1, cache_size=0) as service:
            with pytest.raises(DeadlineExceeded):
                service.query(
                    figure1_query(), 0.5, timeout=10,
                    deadline=time.monotonic() - 0.01,
                )
            assert service.stats.deadline_exceeded == 1
            # the request still completed (as an error): counters reconcile
            assert service.stats.requests == service.stats.completed

    def test_future_deadline_does_not_interfere(self):
        with QueryService(FakeEngine(), num_workers=1, cache_size=0) as service:
            future = service.submit(
                figure1_query(), 0.5, deadline=time.monotonic() + 30.0
            )
            assert future.result(timeout=10) is not None
            assert service.stats.deadline_exceeded == 0

    def test_queued_expired_request_never_evaluates(self):
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        with QueryService(engine, num_workers=1, cache_size=0) as service:
            blocker = service.submit(figure1_query(), 0.5)
            # distinct alpha: a distinct request key (same-shape queries
            # would deduplicate against the blocker)
            expired = service.submit(
                figure1_query(), 0.4,
                deadline=time.monotonic() + 0.01,
            )
            time.sleep(0.05)  # let the deadline lapse while queued
            gate.set()
            assert blocker.result(timeout=10) is not None
            with pytest.raises(DeadlineExceeded):
                expired.result(timeout=10)
            # only the blocker reached the engine
            assert engine.calls == 1


class TestBoundedAdmissionWait:
    def test_invalid_max_admission_wait_rejected(self):
        with pytest.raises(ServiceError):
            QueryService(FakeEngine(), max_admission_wait=0)
        with pytest.raises(ServiceError):
            QueryService(FakeEngine(), max_admission_wait=-1.0)

    def test_admission_pause_times_out_cleanly(self):
        service = QueryService(
            FakeEngine(), num_workers=1, cache_size=0,
            max_admission_wait=0.05,
        )
        try:
            with service._gate:
                service._applying = True
            start = time.perf_counter()
            with pytest.raises(ServiceUnavailable):
                service.submit(figure1_query(), 0.5)
            assert time.perf_counter() - start < 5.0
            assert service.stats.rejected == 1
            assert service.stats.requests == service.stats.rejected
            with service._gate:
                service._applying = False
                service._apply_done.notify_all()
            # the pause lifted: submits are admitted again
            assert service.submit(figure1_query(), 0.5).result(timeout=10)
        finally:
            service.close()

    def test_no_hang_under_concurrent_update_and_query_load(self):
        class UpdatableEngine(FakeEngine):
            def __init__(self, hold):
                super().__init__()
                self.hold = hold
                self.graph_version = 0

            def apply_updates(self, ops, log=None):
                assert self.hold.wait(timeout=10)
                self.graph_version += 1
                return {"applied": len(ops)}

        hold = threading.Event()
        service = QueryService(
            UpdatableEngine(hold), num_workers=2, cache_size=0,
            max_admission_wait=0.1,
        )
        try:
            updater = threading.Thread(
                target=service.apply_updates, args=([],)
            )
            updater.start()
            deadline = time.monotonic() + 5.0
            while not service._applying:  # wait for the pause to engage
                assert time.monotonic() < deadline
                time.sleep(0.005)
            outcomes = []

            def query(i):
                try:
                    service.submit(
                        figure1_query(f"x{i}", f"y{i}"), 0.5
                    ).result(timeout=10)
                    outcomes.append("ok")
                except ServiceUnavailable:
                    outcomes.append("unavailable")

            threads = [
                threading.Thread(target=query, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            # the stuck update must not hang the submitters: every one
            # resolved, with a clean typed error
            assert not any(thread.is_alive() for thread in threads)
            assert outcomes == ["unavailable"] * 4
            hold.set()
            updater.join(timeout=10)
            assert not updater.is_alive()
            assert service.submit(figure1_query(), 0.5).result(timeout=10)
        finally:
            hold.set()
            service.close()
