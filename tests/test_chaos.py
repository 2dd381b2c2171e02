"""Chaos suite: the serving tier under seeded fault injection.

The invariant under test (ISSUE 8 acceptance): with faults enabled at
every site — store reads erroring, workers delayed or erroring, the
server dropping reads and writes mid-exchange — every client request
returns either a result *bit-identical to the fault-free oracle* or a
clean typed error. Never a wrong answer; never a hang (each exchange is
bounded by the client's connect/request timeouts, which double as the
suite's watchdog).

The sweep (:class:`TestChaosSweep`) runs CHAOS_SEEDS full
service+server stacks, each with a differently-seeded injector, firing
CHAOS_QUERIES_PER_SEED requests — well over the 50-case floor. Seeds
derive from ``REPRO_FAULTS_SEED`` when set (the CI chaos step pins it)
so a CI failure reproduces locally with the same environment.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.index.bundle import load_offline
from repro.net import QueryClient, protocol, start_server
from repro.peg import build_peg
from repro.pgd import BernoulliEdge
from repro.query import QueryEngine, QueryGraph
from repro.service import QueryService
from repro.delta import AddEdge, AddEntity, MutationLog, UpdateLabelProbability
from repro.storage import DiskPathStore
from repro.testing import faults
from repro.utils.errors import (
    CircuitOpenError,
    FaultError,
    IndexError_,
    NetError,
    RemoteError,
)
from tests.conftest import small_random_peg, store_content

#: Every typed application error the wire protocol may answer with.
TYPED_ERRORS = {
    protocol.ERROR_REJECTED,
    protocol.ERROR_DEADLINE,
    protocol.ERROR_UNAVAILABLE,
    protocol.ERROR_BAD_REQUEST,
    protocol.ERROR_QUERY,
    protocol.ERROR_INTERNAL,
}

CHAOS_SEEDS = 18
CHAOS_QUERIES_PER_SEED = 4  # 72 fault-exposed requests, floor is 50

#: Per-exchange watchdog. Nothing in the suite may take longer.
WATCHDOG = 15.0

QUERIES = [
    ({"u": "i", "v": "a"}, [("u", "v")], 0.3),
    ({"u": "i", "v": "a"}, [("u", "v")], 0.6),
    ({"x": "r", "y": "a"}, [("x", "y")], 0.2),
    ({"a": "i"}, [], 0.5),
]


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    faults.uninstall()
    yield
    faults.uninstall()


def chaos_rules(injector: faults.FaultInjector) -> faults.FaultInjector:
    """Arm every production fault site with moderate probabilities."""
    injector.add("store.read", "error", probability=0.15)
    injector.add("service.worker", "error", probability=0.10)
    injector.add("service.worker", "delay", probability=0.15, param=0.02)
    injector.add("net.read", "drop", probability=0.08)
    injector.add("net.write", "drop", probability=0.08)
    injector.add("net.accept", "drop", probability=0.10)
    return injector


class TestChaosSweep:
    def test_correct_or_clean_error_never_wrong_never_hung(self, figure1_peg):
        # Fault-free oracle replies, computed once.
        engine = QueryEngine(figure1_peg, max_length=2, beta=0.1)
        oracles = [
            protocol.serialize_matches(
                engine.query(QueryGraph(nodes, edges), alpha).matches
            )
            for nodes, edges, alpha in QUERIES
        ]

        base_seed = int(os.environ.get("REPRO_FAULTS_SEED", "1337"))
        outcomes = {"ok": 0, "typed_error": 0, "transport_error": 0}
        exercised = 0
        suite_start = time.monotonic()

        for case in range(CHAOS_SEEDS):
            # A fresh stack per case, built fault-free (the sweep tests
            # serving under faults, not index construction): a shared
            # cache would serve pre-fault results and mask store faults.
            engine = QueryEngine(figure1_peg, max_length=2, beta=0.1)
            service = QueryService(
                engine, num_workers=2, cache_size=0, max_admission_wait=2.0
            )
            handle = start_server(service, max_pending=8)
            faults.install(
                chaos_rules(faults.FaultInjector(seed=base_seed + case))
            )
            try:
                client = QueryClient(
                    *handle.address,
                    connect_timeout=WATCHDOG,
                    request_timeout=WATCHDOG,
                    max_retries=2,
                    backoff_base=0.005,
                    breaker_threshold=100,  # the sweep measures replies,
                    seed=case,              # not fail-fast behavior
                )
                for (nodes, edges, alpha), oracle in zip(QUERIES, oracles):
                    start = time.monotonic()
                    try:
                        reply = client.query(nodes, edges, alpha=alpha)
                    except RemoteError as exc:
                        # clean typed error
                        assert exc.code in TYPED_ERRORS, exc.code
                        outcomes["typed_error"] += 1
                    except (NetError, CircuitOpenError):
                        # connection torn by an injected drop: a clean
                        # transport error, never a corrupt frame
                        outcomes["transport_error"] += 1
                    else:
                        # the zero-wrong-answers half of the invariant:
                        # a success must be bit-identical to the oracle
                        assert reply["matches"] == oracle
                        outcomes["ok"] += 1
                    # the zero-hangs half: every exchange bounded
                    assert time.monotonic() - start < WATCHDOG
                    exercised += 1
                client.close()
            finally:
                faults.uninstall()  # clean shutdown path
                handle.stop(close_service=True)
        assert exercised == CHAOS_SEEDS * CHAOS_QUERIES_PER_SEED >= 50
        # the sweep must actually exercise faults and still succeed often
        assert outcomes["ok"] > 0
        assert outcomes["typed_error"] + outcomes["transport_error"] > 0
        assert time.monotonic() - suite_start < CHAOS_SEEDS * WATCHDOG

    def test_sweep_is_seed_deterministic(self):
        """The same seed must fire the same faults (reproducible CI)."""

        def fire_pattern(seed):
            injector = chaos_rules(faults.FaultInjector(seed=seed))
            return [
                (injector.fire(site) or faults.FaultAction(site, "none")).kind
                for site in ("store.read", "service.worker", "net.read",
                             "net.write", "net.accept") * 20
            ]

        assert fire_pattern(5) == fire_pattern(5)
        assert fire_pattern(5) != fire_pattern(6)


class TestFaultSites:
    """Each production site surfaces injected faults as clean errors."""

    def test_store_read_fault_is_typed_query_failure(self):
        peg = small_random_peg(seed=3)
        engine = QueryEngine(peg, max_length=2, beta=0.1)
        query = QueryGraph(
            {"a": sorted(peg.sigma, key=repr)[0]}, []
        )
        engine.query(query, 0.5)  # warm path works
        faults.install(faults.FaultInjector(seed=0)).add(
            "store.read", "error"
        )
        with pytest.raises(FaultError):
            engine.query(query, 0.5)
        faults.uninstall()
        # the engine survives the fault: clean evaluation afterwards
        assert engine.query(query, 0.5) is not None

    def test_worker_fault_surfaces_through_service(self, figure1_peg):
        engine = QueryEngine(figure1_peg, max_length=2, beta=0.1)
        with QueryService(engine, num_workers=1, cache_size=0) as service:
            faults.install(faults.FaultInjector(seed=0)).add(
                "service.worker", "error", max_fires=1
            )
            query = QueryGraph({"u": "i", "v": "a"}, [("u", "v")])
            with pytest.raises(FaultError):
                service.query(query, 0.5, timeout=WATCHDOG)
            # the worker pool survives: next request succeeds
            assert service.query(query, 0.5, timeout=WATCHDOG) is not None
            assert service.stats.errors == 1
            assert service.stats.requests == service.stats.completed

    def test_mutation_log_replay_fault_is_clean(self, tmp_path):
        path = str(tmp_path / "mutations.log")
        with MutationLog(path) as log:
            log.append(AddEntity(("f1",), {"A": 1.0}))
        faults.install(faults.FaultInjector(seed=0)).add(
            "log.replay", "error"
        )
        with MutationLog(path) as log:
            with pytest.raises(FaultError):
                log.replay()
        faults.uninstall()
        with MutationLog(path) as log:
            assert len(log.replay()) == 1

    def test_server_write_drop_tears_connection_not_protocol(self):
        """A dropped reply means a torn connection — never a torn frame."""
        peg = build_peg_figure1()
        engine = QueryEngine(peg, max_length=2, beta=0.1)
        service = QueryService(engine, num_workers=1, cache_size=0)
        handle = start_server(service)
        try:
            faults.install(faults.FaultInjector(seed=0)).add(
                "net.write", "drop", max_fires=1
            )
            client = QueryClient(
                *handle.address, max_retries=2, backoff_base=0.005,
                request_timeout=WATCHDOG,
            )
            # first reply dropped -> retry on a fresh connection wins
            reply = client.query({"u": "i", "v": "a"}, [("u", "v")], alpha=0.4)
            assert reply["ok"] is True
            assert client.retries >= 1
            client.close()
        finally:
            faults.uninstall()
            handle.stop(close_service=True)


def build_peg_figure1():
    from repro.pgd import pgd_from_edge_list

    return build_peg(
        pgd_from_edge_list(
            node_labels={
                "r1": {"r": 0.25, "i": 0.75},
                "r2": "a",
                "r3": "r",
                "r4": "i",
            },
            edges=[
                ("r1", "r2", 0.9),
                ("r2", "r3", 1.0),
                ("r2", "r4", 0.5),
                ("r1", "r4", 1.0),
            ],
            reference_sets=[(("r3", "r4"), 0.8)],
        )
    )


# ----------------------------------------------------------------------
# The commit point: a crash between the temp write and the rename
# ----------------------------------------------------------------------

L, BETA = 2, 0.05


def commit_peg():
    return small_random_peg(seed=1234, num_references=40)


def commit_ops(peg):
    """A batch that adds sequences and dirties existing ones."""
    sigma = sorted(peg.sigma, key=repr)
    singles = [
        tuple(sorted(peg.entity_of(node), key=repr))
        for node in peg.node_ids()
        if len(peg.component_of(peg.entity_of(node)).entities) == 1
    ]
    return [
        AddEntity(("s-1",), {sigma[0]: 0.6, "fresh-label": 0.4}, 0.9),
        AddEdge(singles[0], ("s-1",), BernoulliEdge(0.8)),
        UpdateLabelProbability(singles[1], {sigma[1]: 1.0}),
    ]


def fail_commit(nth: int) -> faults.FaultInjector:
    """Arm ``store.commit`` to fail the ``nth`` (0-based) rename only."""
    injector = faults.FaultInjector()
    if nth:
        injector.add("store.commit", "delay", max_fires=nth)
    injector.add("store.commit", "error", max_fires=1)
    return faults.install(injector)


def disk_content(directory) -> dict:
    """What a fresh process finds in the store there."""
    with DiskPathStore(directory) as store:
        return store_content(store)


def lookups(engine, sequences) -> dict:
    return {
        seq: sorted(
            (p.nodes, p.prle.hex(), p.prn.hex())
            for p in engine.index.lookup_canonical(seq, 0.1)
        )
        for seq in sequences
    }


def close_store(engine) -> None:
    index = engine.index
    getattr(index, "base", index).store.close()


def no_temporaries(directory) -> bool:
    return not any(
        name.endswith(".tmp")
        for _root, _dirs, names in os.walk(directory)
        for name in names
    )


class TestCommitPoint:
    """``store.commit`` fires after a replacement file is durable and
    before it is renamed into place — a crash there. Whatever is
    reopened afterwards is the state before the write or the state
    after it, store by store and bucket by bucket, and the only error
    anyone sees is the typed injected one."""

    def test_rebuild_in_place_keeps_the_old_directory_until_the_rename(
        self, tmp_path
    ):
        directory = str(tmp_path / "store")
        with DiskPathStore(directory) as store:
            store.put_bucket(("a", "b"), 400, b"old-400")
            store.put_bucket(("a", "b"), 700, b"old-700")
            store.put_bucket(("c",), 500, b"old-c")
        before = disk_content(directory)

        def rebuild(store):
            store.put_bucket(("a", "b"), 400, b"new-400")
            store.put_bucket(("a", "b"), 100, b"new-100")
            store.put_bucket(("d",), 900, b"new-d")
            return store_content(store)

        store = DiskPathStore(directory)
        after = rebuild(store)
        fail_commit(0)
        with pytest.raises(FaultError):
            store.close()
        faults.uninstall()
        assert os.path.exists(os.path.join(directory, "index.dir.tmp"))
        assert disk_content(directory) == before
        with DiskPathStore(directory) as store:
            assert rebuild(store) == after
        assert disk_content(directory) == after != before
        assert no_temporaries(directory)

    def test_rebuild_over_a_bundle_is_the_new_bundle_or_a_cold_start(
        self, tmp_path
    ):
        """``build`` clears before it writes, so until ``offline.meta``
        is renamed in there is no bundle and ``open`` builds one."""
        directory = str(tmp_path / "bundle")
        peg = commit_peg()
        query = QueryGraph({"a": sorted(peg.sigma)[0]}, [])
        build = dict(max_length=L, beta=BETA)
        with QueryService.build(peg, snapshot_dir=directory, **build) as ok:
            expected = ok.query(query, 0.3).matches
        content = disk_content(directory)
        commits = 2  # the store, then offline.meta
        for nth in range(commits + 1):
            injector = fail_commit(nth)
            if nth < commits:
                with pytest.raises(FaultError):
                    QueryService.build(peg, snapshot_dir=directory, **build)
                faults.uninstall()
                with pytest.raises(IndexError_):
                    load_offline(directory)
            else:  # one past the last commit: nothing left to fail
                QueryService.build(peg, snapshot_dir=directory, **build).close()
                faults.uninstall()
                assert injector.evaluated["store.commit"] == commits
            with QueryService.open(peg, directory, **build) as service:
                assert service.warm_started is (nth == commits)
                assert service.query(query, 0.3).matches == expected
            assert disk_content(directory) == content
            assert no_temporaries(directory)

    def test_compaction_leaves_the_store_before_or_after(self, tmp_path):
        def opened(name):
            peg = commit_peg()
            directory = str(tmp_path / name)
            QueryEngine(peg, max_length=L, beta=BETA).save_offline(directory)
            return QueryEngine.from_saved(peg, directory), directory

        reference, reference_dir = opened("reference")
        ops = commit_ops(reference.peg)
        before = disk_content(reference_dir)
        reference.apply_updates(ops)
        reference.compact_updates()
        after = disk_content(reference_dir)
        assert before != after
        sequences = reference.index.store.label_sequences()
        expected = lookups(reference, sequences)

        engine, directory = opened("crash")
        engine.apply_updates(ops)
        fail_commit(0)
        with pytest.raises(FaultError):
            engine.compact_updates()
        faults.uninstall()
        # The store that crashed before its rename is still before.
        assert disk_content(directory) == before
        # The engine that took the fault still answers correctly ...
        assert lookups(engine, sequences) == expected
        # ... and so does a restart: the bundle plus the replayed batch.
        restarted = QueryEngine.from_saved(commit_peg(), directory)
        restarted.apply_updates(ops)
        assert lookups(restarted, sequences) == expected
        close_store(restarted)
        # Retrying finishes the job.
        engine.compact_updates()
        assert disk_content(directory) == after
        assert no_temporaries(directory)
        close_store(engine)
        close_store(reference)

    def test_save_offline_is_no_bundle_until_its_last_rename(self, tmp_path):
        peg = commit_peg()
        engine = QueryEngine(peg, max_length=L, beta=BETA)
        content = store_content(engine.index.store)
        commits = 2  # the store, then offline.meta
        for nth in range(commits):
            directory = str(tmp_path / f"crash-{nth}")
            fail_commit(nth)
            with pytest.raises(FaultError):
                engine.save_offline(directory)
            faults.uninstall()
            with pytest.raises(IndexError_, match="no offline bundle"):
                load_offline(directory)
            # The store is complete once it got its rename, empty before,
            # and a retry over the leftovers is the whole bundle.
            assert disk_content(directory) == (content if nth else {})
            engine.save_offline(directory)
            assert disk_content(directory) == content
            index, _context = load_offline(directory)
            assert index.num_paths() == engine.index.num_paths()
            index.store.close()
            assert no_temporaries(directory)
