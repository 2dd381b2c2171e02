"""The network serving tier: protocol, server semantics, client mechanics.

Server tests drive a real :class:`~repro.net.server.QueryServer` on an
ephemeral port, mostly over scriptable engine doubles whose evaluations
block on an event — the only way to make admission control, fairness,
deadlines and drain *deterministic* instead of timing-lottery tests.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import socket
import struct
import threading
import time

import pytest

from repro.net import (
    ERROR_DEADLINE,
    ERROR_REJECTED,
    ERROR_UNAVAILABLE,
    CircuitBreaker,
    QueryClient,
    start_server,
)
from repro.datasets.dblp import generate_dblp_pgd
from repro.net import protocol
from repro.net.server import QueryServer
from repro.obs.trace import Tracer
from repro.peg import build_peg
from repro.pgd import pgd_from_edge_list
from repro.query import QueryEngine, QueryGraph
from repro.query.plan import QueryPlanner
from repro.service import QueryService
from repro.testing import faults
from repro.utils.errors import (
    CircuitOpenError,
    NetError,
    NetTimeout,
    QueryError,
    RemoteError,
)

FIGURE1_NODES = {"u": "i", "v": "a"}
FIGURE1_EDGES = [("u", "v")]

# Query specs of the wrong JSON shape: each is a ``QueryError`` from
# ``query_graph_from_spec``, so a ``BAD_REQUEST`` reply on the wire.
MALFORMED_SPECS = [
    {"nodes": FIGURE1_NODES, "edges": None},
    {"nodes": FIGURE1_NODES, "edges": 3},
    {"nodes": FIGURE1_NODES, "edges": [[["u"], "v"]]},
    {"nodes": {"u": ["i"], "v": "a"}, "edges": FIGURE1_EDGES},
    {"nodes": {"u": {"i": 1}, "v": "a"}, "edges": FIGURE1_EDGES},
]


# ``deadline_ms`` values that are not null or a finite number >= 0:
# each is a ``BAD_REQUEST`` reply on a connection that stays open.
MALFORMED_DEADLINES = [
    "abc", [1], {"x": 1}, True, "5", -1, float("inf"), float("nan"),
]


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    faults.uninstall()
    yield
    faults.uninstall()


class FakeResult:
    def __init__(self, matches=()):
        self.matches = list(matches)


class GatedEngine:
    """Engine double whose evaluations block until ``gate`` is set."""

    def __init__(self, gate=None):
        self.gate = gate
        self.calls = []  # (alpha, graph_version at evaluation time)
        self.graph_version = 0
        self.applied = 0
        self._lock = threading.Lock()

    def query(self, query, alpha, options=None):
        if self.gate is not None:
            assert self.gate.wait(timeout=10)
        with self._lock:
            self.calls.append((alpha, self.graph_version))
        return FakeResult()

    def apply_updates(self, ops, log=None):
        self.graph_version += 1
        self.applied += 1
        return {"applied": len(ops)}


def gated_server(gate=None, *, num_workers=1, **config):
    """A started server over a GatedEngine service; caller must stop()."""
    engine = GatedEngine(gate)
    service = QueryService(engine, num_workers=num_workers, cache_size=0)
    handle = start_server(service, **config)
    return handle, engine, service


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


# ----------------------------------------------------------------------
# Raw-socket helpers: pipelined frames (a QueryClient keeps only one
# request outstanding, which can never trip per-client caps).
# ----------------------------------------------------------------------


def connect_raw(address):
    sock = socket.create_connection(address, timeout=10)
    sock.settimeout(10)
    return sock


def send_frames(sock, frames):
    for frame in frames:
        sock.sendall(protocol.encode_frame(frame))


def read_reply(sock):
    return protocol.decode_frame(read_raw_reply(sock))


def read_raw_reply(sock):
    """One reply frame's payload, as the bytes the server wrote."""
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        if not chunk:
            raise ConnectionError("EOF")
        header += chunk
    (length,) = struct.unpack(">I", header)
    payload = b""
    while len(payload) < length:
        chunk = sock.recv(length - len(payload))
        if not chunk:
            raise ConnectionError("EOF")
        payload += chunk
    return payload


def read_replies(sock, count):
    return {reply["id"]: reply for reply in
            (read_reply(sock) for _ in range(count))}


def query_frame(rid, alpha=0.5, deadline_ms=None, nodes=None, edges=None):
    frame = {
        "id": rid,
        "kind": "query",
        "nodes": dict(FIGURE1_NODES if nodes is None else nodes),
        "edges": [list(e) for e in (FIGURE1_EDGES if edges is None else edges)],
        "alpha": alpha,
    }
    if deadline_ms is not None:
        frame["deadline_ms"] = deadline_ms
    return frame


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        message = {"id": 1, "kind": "query", "nodes": {"a": "X"}}
        frame = protocol.encode_frame(message)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert protocol.decode_frame(frame[4:]) == message

    def test_decode_rejects_non_object(self):
        with pytest.raises(NetError):
            protocol.decode_frame(b"[1, 2]")
        with pytest.raises(NetError):
            protocol.decode_frame(b"not json")

    def test_read_frame_clean_eof(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await protocol.read_frame(reader)

        assert asyncio.run(run()) is None

    def test_read_frame_torn_header(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00")
            reader.feed_eof()
            return await protocol.read_frame(reader)

        with pytest.raises(NetError, match="torn frame header"):
            asyncio.run(run())

    def test_read_frame_torn_payload(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00\x00\x08abc")
            reader.feed_eof()
            return await protocol.read_frame(reader)

        with pytest.raises(NetError, match="torn frame payload"):
            asyncio.run(run())

    def test_read_frame_implausible_length(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\xff\xff\xff\xff")
            return await protocol.read_frame(reader)

        with pytest.raises(NetError, match="exceeds"):
            asyncio.run(run())

    def test_query_graph_from_spec_validation(self):
        query = protocol.query_graph_from_spec(
            {"nodes": {"a": "X", "b": "Y"}, "edges": [["a", "b"]]}
        )
        assert isinstance(query, QueryGraph)
        with pytest.raises(QueryError):
            protocol.query_graph_from_spec({"nodes": {}})
        with pytest.raises(QueryError):
            protocol.query_graph_from_spec({"edges": []})
        with pytest.raises(QueryError):
            protocol.query_graph_from_spec(
                {"nodes": {"a": "X"}, "edges": [["a"]]}
            )
        for spec in MALFORMED_SPECS:
            with pytest.raises(QueryError):
                protocol.query_graph_from_spec(spec)


# ----------------------------------------------------------------------
# Server: request path, admission, fairness, deadlines
# ----------------------------------------------------------------------


class TestServerRoundtrip:
    def test_query_matches_inprocess_oracle(self, figure1_peg):
        engine = QueryEngine(figure1_peg, max_length=2, beta=0.1)
        oracle = protocol.serialize_matches(
            engine.query(
                QueryGraph(FIGURE1_NODES, FIGURE1_EDGES), 0.3
            ).matches
        )
        service = QueryService(engine, num_workers=2)
        with start_server(service) as handle:
            with QueryClient(*handle.address) as client:
                reply = client.query(FIGURE1_NODES, FIGURE1_EDGES, alpha=0.3)
                assert reply["ok"] is True
                assert reply["num_matches"] == len(oracle)
                assert reply["matches"] == oracle
                # served twice (second hits the result cache): still
                # byte-identical on the wire
                assert client.query(
                    FIGURE1_NODES, FIGURE1_EDGES, alpha=0.3
                )["matches"] == oracle
        service.close()

    def test_readme_wire_example_is_answered(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as handle:
            section = handle.read().split("## Serving over the network", 1)[1]
        example = section.split("```json\n", 1)[1].split("\n```", 1)[0]
        frame = json.loads(example)
        peg = build_peg(generate_dblp_pgd(num_authors=60, seed=5))
        service = QueryService(QueryEngine(peg, max_length=2, beta=0.1))
        with start_server(service) as handle:
            sock = connect_raw(handle.address)
            send_frames(sock, [frame])
            reply = read_reply(sock)
            sock.close()
        service.close()
        assert reply["id"] == frame["id"]
        assert reply["ok"] is True, reply
        assert reply["num_matches"] == len(reply["matches"]) > 0

    def test_ping_and_stats(self):
        handle, _, service = gated_server()
        try:
            with QueryClient(*handle.address) as client:
                assert client.ping() is True
                stats = client.stats()
                assert stats["net_connections"] == 1
                assert stats["requests"] == 0
        finally:
            handle.stop(close_service=True)

    def test_bad_request_typed_error_not_counted(self, caplog):
        handle, _, service = gated_server()
        try:
            with QueryClient(*handle.address) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.query({}, [], alpha=0.5)
                assert excinfo.value.code == "BAD_REQUEST"
                with pytest.raises(RemoteError) as excinfo:
                    client.query(FIGURE1_NODES, FIGURE1_EDGES, alpha=7.0)
                assert excinfo.value.code == "BAD_REQUEST"
                with pytest.raises(RemoteError) as excinfo:
                    client.request({"kind": "mystery"})
                assert excinfo.value.code == "BAD_REQUEST"
            # each malformed query is answered on a connection that stays
            # open: a raw socket shows no reconnect can hide a torn one
            sock = connect_raw(handle.address)
            try:
                frames = [dict(spec, kind="query", alpha=0.5)
                          for spec in MALFORMED_SPECS]
                frames.append({"kind": "query", "nodes": FIGURE1_NODES,
                               "edges": FIGURE1_EDGES, "alpha": True})
                frames.extend(
                    {"kind": "query", "nodes": FIGURE1_NODES,
                     "edges": FIGURE1_EDGES, "alpha": 0.5,
                     "deadline_ms": deadline_ms}
                    for deadline_ms in MALFORMED_DEADLINES
                )
                for rid, frame in enumerate(frames, start=1):
                    send_frames(sock, [dict(frame, id=rid)])
                    reply = read_reply(sock)
                    assert reply["id"] == rid
                    assert reply["ok"] is False
                    assert reply["error"]["type"] == "BAD_REQUEST", frame
                send_frames(sock, [{"id": 0, "kind": "ping"}])
                assert read_reply(sock)["pong"] is True
            finally:
                sock.close()
            # malformed requests never reach the service counters
            assert service.stats.requests == 0
            assert not [r for r in caplog.records if r.name == "asyncio"]
        finally:
            handle.stop(close_service=True)

    def test_malformed_default_deadline_rejected_at_construction(self):
        service = QueryService(GatedEngine(), num_workers=1, cache_size=0)
        try:
            for deadline_ms in MALFORMED_DEADLINES:
                with pytest.raises(QueryError):
                    QueryServer(service, default_deadline_ms=deadline_ms)
        finally:
            service.close()

    def test_deadline_watchdog_answers_while_evaluation_runs(self):
        gate = threading.Event()
        handle, engine, service = gated_server(gate)
        try:
            with QueryClient(*handle.address) as client:
                start = time.monotonic()
                with pytest.raises(RemoteError) as excinfo:
                    client.query(
                        FIGURE1_NODES, FIGURE1_EDGES,
                        alpha=0.5, deadline_ms=150,
                    )
                elapsed = time.monotonic() - start
                assert excinfo.value.code == ERROR_DEADLINE
                # answered at the deadline, not when the engine unblocks
                assert elapsed < 5.0
                assert service.stats.deadline_exceeded == 1
            gate.set()  # release the stuck evaluation; its result is
            # discarded by the finished entry, not resent
            wait_until(lambda: len(engine.calls) == 1)
        finally:
            gate.set()
            handle.stop(close_service=True)

    def test_deadline_expired_in_worker_queue_counted_once(self):
        # Regression: the watchdog answered (and counted) the request
        # at its deadline, then the worker that finally picked it up
        # found it expired and counted it again.
        gate = threading.Event()
        handle, engine, service = gated_server(gate, max_inflight=2)
        try:
            with QueryClient(*handle.address) as holder, \
                    QueryClient(*handle.address) as client:
                blocker = threading.Thread(
                    target=holder.query,
                    args=(FIGURE1_NODES, FIGURE1_EDGES),
                    kwargs={"alpha": 0.5},
                )
                blocker.start()  # occupies the only worker
                wait_until(lambda: service.stats.in_flight == 1)
                with pytest.raises(RemoteError) as excinfo:
                    client.query(
                        FIGURE1_NODES, FIGURE1_EDGES,
                        alpha=0.4, deadline_ms=100,
                    )
                assert excinfo.value.code == ERROR_DEADLINE
                assert service.stats.deadline_exceeded == 1
                gate.set()  # the worker now picks the expired request up
                blocker.join(timeout=10)
                wait_until(lambda: service.stats.in_flight == 0)
            assert service.stats.deadline_exceeded == 1
            assert len(engine.calls) == 1  # never evaluated
            assert service.stats.requests == service.stats.completed == 2
        finally:
            gate.set()
            handle.stop(close_service=True)

    def test_deadline_expired_on_arrival_counted_once(self):
        # Watchdog and worker race to notice; whichever answers counts.
        handle, engine, service = gated_server()
        try:
            with QueryClient(*handle.address) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.query(
                        FIGURE1_NODES, FIGURE1_EDGES,
                        alpha=0.5, deadline_ms=0,
                    )
                assert excinfo.value.code == ERROR_DEADLINE
                wait_until(lambda: service.stats.completed == 1)
            assert service.stats.deadline_exceeded == 1
            assert engine.calls == []
        finally:
            handle.stop(close_service=True)


class TestAdmissionControl:
    def test_load_shedding_bounded_queue(self):
        gate = threading.Event()
        handle, engine, service = gated_server(
            gate, max_pending=2, max_inflight=1, per_client_inflight=16
        )
        server = handle.server
        try:
            first = connect_raw(handle.address)
            # stage the sends so the dispatcher settles between frames:
            # 1 dispatched (blocked on the gate) + 2 pending = at bound
            send_frames(first, [query_frame(0, alpha=0.10)])
            wait_until(lambda: server._inflight_total == 1
                       and server._pending_total == 0)
            send_frames(first, [query_frame(1, alpha=0.11)])
            wait_until(lambda: server._pending_total == 1)
            send_frames(first, [query_frame(2, alpha=0.12)])
            wait_until(lambda: server._pending_total == 2)
            second = connect_raw(handle.address)
            send_frames(second, [query_frame(10, alpha=0.9),
                                 query_frame(11, alpha=0.91)])
            rejected = read_replies(second, 2)
            for rid in (10, 11):
                assert rejected[rid]["ok"] is False
                assert rejected[rid]["error"]["type"] == ERROR_REJECTED
            gate.set()
            admitted = read_replies(first, 3)
            assert all(reply["ok"] for reply in admitted.values())
            wait_until(lambda: service.stats.completed == 3)
            # exact reconciliation on the drained service
            assert service.stats.shed == 2
            assert service.stats.rejected == 2
            assert service.stats.requests == (
                service.stats.completed + service.stats.rejected
            )
            first.close()
            second.close()
        finally:
            gate.set()
            handle.stop(close_service=True)

    def test_per_client_inflight_cap(self):
        gate = threading.Event()
        handle, engine, service = gated_server(
            gate, max_pending=64, max_inflight=1, per_client_inflight=2
        )
        try:
            sock = connect_raw(handle.address)
            send_frames(sock, [query_frame(i, alpha=0.1 + i / 100)
                               for i in range(4)])
            # ids 2 and 3 exceed the cap and bounce immediately
            capped = read_replies(sock, 2)
            assert set(capped) == {2, 3}
            assert all(
                reply["error"]["type"] == ERROR_REJECTED
                for reply in capped.values()
            )
            gate.set()
            served = read_replies(sock, 2)
            assert set(served) == {0, 1}
            assert all(reply["ok"] for reply in served.values())
            sock.close()
        finally:
            gate.set()
            handle.stop(close_service=True)

    def test_round_robin_fairness_across_clients(self):
        gate = threading.Event()
        handle, engine, service = gated_server(
            gate, max_pending=64, max_inflight=1, per_client_inflight=16
        )
        server = handle.server
        try:
            heavy = connect_raw(handle.address)
            send_frames(heavy, [query_frame(0, alpha=0.10)])
            wait_until(lambda: server._inflight_total == 1)
            send_frames(heavy, [query_frame(1, alpha=0.11),
                                query_frame(2, alpha=0.12)])
            wait_until(lambda: server._pending_total == 2)
            light = connect_raw(handle.address)
            send_frames(light, [query_frame(100, alpha=0.9)])
            wait_until(lambda: server._pending_total == 3)
            gate.set()
            heavy_replies = read_replies(heavy, 3)
            light_reply = read_reply(light)
            assert all(r["ok"] for r in heavy_replies.values())
            assert light_reply["ok"]
            # round-robin: the light client's single request was
            # dispatched before the heavy client's backlog drained
            order = [alpha for alpha, _ in engine.calls]
            assert order.index(0.9) < order.index(0.12)
            heavy.close()
            light.close()
        finally:
            gate.set()
            handle.stop(close_service=True)


# ----------------------------------------------------------------------
# Drain: live updates and shutdown
# ----------------------------------------------------------------------


def start_update(service):
    """Run an empty live update on a thread; return once it has paused
    admission (it then waits for the in-flight evaluations)."""
    applied = []
    updater = threading.Thread(
        target=lambda: applied.append(service.apply_updates([]))
    )
    updater.start()
    wait_until(lambda: service._applying)
    return updater, applied


class TestDrain:
    def test_apply_updates_holds_queued_requests(self):
        gate = threading.Event()
        handle, engine, service = gated_server(
            gate, max_pending=64, max_inflight=1
        )
        server = handle.server
        try:
            sock = connect_raw(handle.address)
            send_frames(sock, [query_frame(0, alpha=0.5)])
            wait_until(lambda: server._inflight_total == 1)
            updater, applied = start_update(handle.service)
            # a request arriving mid-update is held, not rejected: the
            # server's one in-flight slot is taken, so it waits queued
            send_frames(sock, [query_frame(1, alpha=0.6)])
            wait_until(lambda: server._pending_total == 1)
            gate.set()
            replies = read_replies(sock, 2)
            updater.join(timeout=10)
            assert not updater.is_alive()
            assert applied == [{"applied": 0}]
            assert replies[0]["ok"] and replies[1]["ok"]
            # the held request evaluated against the post-update graph
            assert dict(engine.calls)[0.6] == 1
            assert dict(engine.calls)[0.5] == 0
            sock.close()
        finally:
            gate.set()
            handle.stop(close_service=True)

    def test_apply_updates_holds_dispatched_requests(self):
        # With a free in-flight slot the mid-update request is
        # dispatched at once, and the paused-admission fallback holds it.
        gate = threading.Event()
        handle, engine, service = gated_server(
            gate, max_pending=64, max_inflight=2
        )
        server = handle.server
        try:
            sock = connect_raw(handle.address)
            send_frames(sock, [query_frame(0, alpha=0.5)])
            wait_until(lambda: server._inflight_total == 1)
            updater, applied = start_update(handle.service)
            send_frames(sock, [query_frame(1, alpha=0.6)])
            wait_until(lambda: server._inflight_total == 2)
            # dispatched, yet not admitted: admission is paused
            assert server._pending_total == 0
            assert service.stats.requests == 1
            gate.set()
            replies = read_replies(sock, 2)
            updater.join(timeout=10)
            assert not updater.is_alive()
            assert applied == [{"applied": 0}]
            assert replies[0]["ok"] and replies[1]["ok"]
            assert dict(engine.calls)[0.6] == 1
            assert dict(engine.calls)[0.5] == 0
            assert service.stats.requests == service.stats.completed == 2
            sock.close()
        finally:
            gate.set()
            handle.stop(close_service=True)

    def test_stop_hard_cutoff_resolves_inflight(self):
        gate = threading.Event()
        handle, engine, service = gated_server(gate)
        try:
            sock = connect_raw(handle.address)
            send_frames(sock, [query_frame(0, alpha=0.5)])
            wait_until(lambda: handle.server._inflight_total == 1)
            stopper = threading.Thread(
                target=handle.stop, kwargs={"drain_timeout": 0.2}
            )
            stopper.start()
            # the stuck evaluation cannot complete, yet the client gets
            # a typed reply at the cutoff instead of a dead socket
            reply = read_reply(sock)
            assert reply["id"] == 0
            assert reply["ok"] is False
            assert reply["error"]["type"] == ERROR_UNAVAILABLE
            stopper.join(timeout=10)
            assert not stopper.is_alive()
            sock.close()
        finally:
            gate.set()
            handle.stop(close_service=True)

    def test_service_close_nowait_resolves_net_futures(self):
        gate = threading.Event()
        handle, engine, service = gated_server(gate, max_inflight=2)
        server = handle.server
        try:
            sock = connect_raw(handle.address)
            # one running (gated), one queued inside the service executor
            send_frames(sock, [query_frame(0, alpha=0.5),
                               query_frame(1, alpha=0.6)])
            wait_until(lambda: server._inflight_total == 2)
            service.close(wait=False)
            # both futures resolve with errors -> both net replies
            # arrive as typed UNAVAILABLE; no dangling connection
            replies = read_replies(sock, 2)
            for rid in (0, 1):
                assert replies[rid]["ok"] is False
                assert replies[rid]["error"]["type"] == ERROR_UNAVAILABLE
            sock.close()
        finally:
            gate.set()
            handle.stop()


# ----------------------------------------------------------------------
# Overload (satellite: 2x capacity offered load)
# ----------------------------------------------------------------------


class TestOverload:
    def test_double_capacity_sheds_and_reconciles(self):
        class SlowEngine(GatedEngine):
            def query(self, query, alpha, options=None):
                time.sleep(0.02)
                return super().query(query, alpha, options)

        engine = SlowEngine()
        service = QueryService(engine, num_workers=1, cache_size=0)
        # capacity: 1 in flight + 2 pending = 3 concurrent requests
        handle = start_server(
            service, max_pending=2, max_inflight=1, per_client_inflight=16
        )
        outcomes = []
        lock = threading.Lock()

        def hammer(tid):
            with QueryClient(*handle.address, max_retries=0) as client:
                for i in range(6):
                    try:
                        reply = client.query(
                            FIGURE1_NODES, FIGURE1_EDGES,
                            alpha=0.3 + (tid * 6 + i) * 1e-3,
                        )
                        with lock:
                            outcomes.append("ok" if reply["ok"] else "?")
                    except RemoteError as exc:
                        assert exc.code == ERROR_REJECTED
                        with lock:
                            outcomes.append("rejected")

        try:
            # 6 concurrent clients >= 2x the 3-slot capacity
            threads = [
                threading.Thread(target=hammer, args=(tid,))
                for tid in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(outcomes) == 36
            assert "?" not in outcomes
            # overload was actually shed, and admitted requests all ran
            assert outcomes.count("rejected") >= 1
            assert service.stats.shed >= 1
            wait_until(lambda: service.stats.in_flight == 0)
            snap = service.stats_snapshot()
            assert snap["requests"] == 36
            assert snap["completed"] == outcomes.count("ok")
            assert snap["rejected"] == outcomes.count("rejected")
            assert snap["requests"] == snap["completed"] + snap["rejected"]
        finally:
            handle.stop(close_service=True)


# ----------------------------------------------------------------------
# Client: retry, timeouts, breaker
# ----------------------------------------------------------------------


def _dead_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class TestCircuitBreaker:
    def test_transitions(self):
        breaker = CircuitBreaker(threshold=2, cooldown=0.05)
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.allow() is False
        time.sleep(0.06)
        assert breaker.allow() is True  # half-open probe
        assert breaker.state == "half-open"
        assert breaker.allow() is False  # only one probe at a time
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.06)
        assert breaker.allow() is True
        breaker.record_success()
        assert breaker.state == "closed"

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)


class TestClientRetry:
    def test_connection_refused_retries_then_raises(self):
        client = QueryClient(
            "127.0.0.1", _dead_port(),
            max_retries=2, backoff_base=0.001, breaker_threshold=10,
        )
        with pytest.raises(NetError):
            client.ping()
        assert client.retries == 2

    def test_retry_recovers_from_dropped_connection(self):
        injector = faults.install(faults.FaultInjector(seed=1))
        # the server refuses exactly one connection, then behaves
        injector.add("net.accept", "drop", max_fires=1)
        handle, engine, service = gated_server()
        try:
            client = QueryClient(
                *handle.address, max_retries=2, backoff_base=0.001,
            )
            assert client.ping() is True
            assert client.retries == 1
            client.close()
        finally:
            handle.stop(close_service=True)

    def test_application_errors_never_retried(self):
        handle, engine, service = gated_server()
        try:
            with QueryClient(*handle.address, max_retries=3) as client:
                with pytest.raises(RemoteError):
                    client.query({}, [], alpha=0.5)
                assert client.retries == 0
                assert client.breaker.state == "closed"
        finally:
            handle.stop(close_service=True)

    def test_timeout_not_retried(self):
        gate = threading.Event()
        handle, engine, service = gated_server(gate)
        try:
            client = QueryClient(
                *handle.address, request_timeout=0.2, max_retries=3,
            )
            with pytest.raises(NetTimeout):
                client.query(FIGURE1_NODES, FIGURE1_EDGES, alpha=0.5)
            assert client.retries == 0
            client.close()
        finally:
            gate.set()
            handle.stop(close_service=True)

    def test_breaker_fails_fast_on_dead_server(self):
        client = QueryClient(
            "127.0.0.1", _dead_port(),
            max_retries=0, backoff_base=0.001,
            breaker_threshold=1, breaker_cooldown=0.1,
        )
        with pytest.raises(NetError):
            client.ping()
        # breaker open: fail fast, no connect attempt
        start = time.perf_counter()
        with pytest.raises(CircuitOpenError):
            client.ping()
        assert time.perf_counter() - start < 0.05
        time.sleep(0.12)
        # half-open probe fails -> open again
        with pytest.raises(NetError):
            client.ping()
        with pytest.raises(CircuitOpenError):
            client.ping()


# ----------------------------------------------------------------------
# Wire fast path: admission and replies on the event loop
# ----------------------------------------------------------------------


def count_to_thread(monkeypatch) -> list:
    """Count the server's ``asyncio.to_thread`` hand-offs (one entry each)."""
    calls = []
    real = asyncio.to_thread

    def counting(func, *args, **kwargs):
        calls.append(getattr(func, "__name__", repr(func)))
        return real(func, *args, **kwargs)

    monkeypatch.setattr(asyncio, "to_thread", counting)
    return calls


class ScriptedErrorEngine:
    """A real engine whose evaluations at ``bad_alpha`` raise QueryError."""

    def __init__(self, engine, bad_alpha):
        self.engine = engine
        self.bad_alpha = bad_alpha
        self.graph_version = engine.graph_version

    def query(self, query, alpha, options=None):
        if alpha == self.bad_alpha:
            raise QueryError("scripted evaluation failure")
        return self.engine.query(query, alpha, options)


class UpdateGatedEngine(GatedEngine):
    """GatedEngine whose ``apply_updates`` blocks until ``release`` is set."""

    def __init__(self):
        super().__init__()
        self.updating = threading.Event()
        self.release = threading.Event()

    def apply_updates(self, ops, log=None):
        self.updating.set()
        assert self.release.wait(timeout=10)
        return super().apply_updates(ops, log)


def exact_result_payload(rid, matches) -> bytes:
    """The reply ``json.dumps`` writes for a result: the wire oracle."""
    serialized = protocol.serialize_matches(matches)
    return json.dumps(
        {"id": rid, "ok": True, "matches": serialized,
         "num_matches": len(serialized)},
        separators=(",", ":"),
    ).encode()


def exact_error_payload(rid, code, message) -> bytes:
    return json.dumps(
        {"id": rid, "ok": False, "error": {"type": code, "message": message}},
        separators=(",", ":"),
    ).encode()


class TestWireFastPath:
    def test_no_thread_hop_on_common_path(self, figure1_peg, monkeypatch):
        engine = QueryEngine(figure1_peg, max_length=2, beta=0.1)
        oracle = engine.query(QueryGraph(FIGURE1_NODES, FIGURE1_EDGES), 0.3)
        assert len(oracle.matches) > 0
        service = QueryService(ScriptedErrorEngine(engine, 0.9), num_workers=1)
        calls = count_to_thread(monkeypatch)
        handle = start_server(service)
        try:
            sock = connect_raw(handle.address)
            exchanges = [
                (query_frame(1, alpha=0.3),  # miss
                 exact_result_payload(1, oracle.matches)),
                (query_frame(2, alpha=0.3),  # hit of it
                 exact_result_payload(2, oracle.matches)),
                ({"id": 3, "kind": "ping"},
                 b'{"id":3,"ok":true,"pong":true}'),
                (query_frame(4, nodes={}, edges=[]),
                 exact_error_payload(
                     4, "BAD_REQUEST",
                     "query spec 'nodes' mapping must not be empty",
                 )),
                (query_frame(5, alpha=0.9),
                 exact_error_payload(
                     5, "QUERY_ERROR", "scripted evaluation failure"
                 )),
            ]
            for frame, expected in exchanges:
                send_frames(sock, [frame])
                assert read_raw_reply(sock) == expected
            sock.close()
            assert service.stats.hits == 1
            assert calls == []
        finally:
            handle.stop(close_service=True)

    def test_paused_admission_falls_back_and_loop_stays_responsive(
        self, monkeypatch
    ):
        engine = UpdateGatedEngine()
        tracer = Tracer()
        service = QueryService(
            engine, num_workers=1, cache_size=0, tracer=tracer
        )
        calls = count_to_thread(monkeypatch)
        handle = start_server(service)
        updater = threading.Thread(target=service.apply_updates, args=([],))
        try:
            updater.start()
            assert engine.updating.wait(timeout=10)
            sock = connect_raw(handle.address)
            send_frames(sock, [query_frame(1, alpha=0.5)])
            wait_until(lambda: len(calls) == 1)
            # The query waits out the update on a thread; the loop does not.
            send_frames(sock, [{"id": 2, "kind": "ping"}])
            assert read_reply(sock) == {"id": 2, "ok": True, "pong": True}
            assert service.stats.requests == 0  # not admitted yet
            assert engine.calls == []
            engine.release.set()
            reply = read_reply(sock)
            assert reply["id"] == 1 and reply["ok"] is True
            # evaluated against the post-update graph
            assert engine.calls == [(0.5, 1)]
            updater.join(timeout=10)
            assert not updater.is_alive()
            wait_until(lambda: service.stats.in_flight == 0)
            assert service.stats.requests == (
                service.stats.completed + service.stats.rejected
            ) == 1
            assert calls == ["submit"]
            # The paused attempt left no span: one request, one root.
            assert [
                (root.name, root.attributes.get("outcome"))
                for root in tracer.roots()
            ] == [("request", "miss")]
            sock.close()
        finally:
            engine.release.set()
            handle.stop(close_service=True)

    def test_replies_wait_for_a_drain_in_order(self, monkeypatch):
        buffered = []  # the transport buffer whenever a reply task is made
        real_send_task = QueryServer._send_task

        def counting_send_task(self, client, payload, action):
            buffered.append(client.writer.transport.get_write_buffer_size())
            real_send_task(self, client, payload, action)

        monkeypatch.setattr(QueryServer, "_send_task", counting_send_task)
        handle, _, service = gated_server()
        try:
            # A small receive window and ~10 MB of ~5 kB stats replies,
            # mostly unread until the server has made them: its
            # transport buffer fills and the replies queue behind drains.
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10)
            sock.connect(handle.address)
            count = 2000
            send_frames(sock, [{"id": i, "kind": "stats"} for i in range(count)])
            wait_until(lambda: len(buffered) >= count // 2)
            assert [read_reply(sock)["id"] for _ in range(count)] == list(
                range(count)
            )
            sock.close()
            # Backpressure: behind a pending drain a reply waits in its
            # task; it is not piled into the transport buffer.
            assert max(buffered) < 1 << 20
        finally:
            handle.stop(close_service=True)

    def test_oversized_reply_is_a_typed_error(self, figure1_peg, monkeypatch):
        engine = QueryEngine(figure1_peg, max_length=2, beta=0.1)
        oracle = engine.query(QueryGraph(FIGURE1_NODES, FIGURE1_EDGES), 0.3)
        limit = len(protocol.result_response(1, oracle)) - 1
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", limit)
        service = QueryService(engine, num_workers=1)
        handle = start_server(service)
        try:
            with QueryClient(*handle.address, max_retries=0) as client:
                for _ in range(2):  # a miss, then a hit answered inline
                    with pytest.raises(RemoteError) as excinfo:
                        client.query(FIGURE1_NODES, FIGURE1_EDGES, alpha=0.3)
                    assert excinfo.value.code == "INTERNAL"
                    assert "frame limit" in str(excinfo.value)
                assert client.ping() is True  # the dispatcher lives on
            assert service.stats.hits == 1
        finally:
            handle.stop(close_service=True)

    def test_oversized_id_on_inline_hit_keeps_the_dispatcher(
        self, figure1_peg, monkeypatch
    ):
        # A reply re-escapes the echoed id as ASCII JSON: a non-BMP
        # character sent as 4 UTF-8 bytes comes back as 12, so a request
        # under the frame limit can earn a reply (and an error) over it.
        limit = 4096
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", limit)
        engine = QueryEngine(figure1_peg, max_length=2, beta=0.1)
        service = QueryService(engine, num_workers=1)
        handle = start_server(service)
        try:
            sock = connect_raw(handle.address)
            send_frames(sock, [query_frame(1, alpha=0.3)])  # the miss
            assert read_reply(sock)["ok"] is True
            frame = query_frame("\U0001F600" * 600, alpha=0.3)
            payload = json.dumps(frame, ensure_ascii=False).encode()
            assert len(payload) < limit < len(json.dumps(frame["id"]))
            sock.sendall(protocol.FRAME_HEADER.pack(len(payload)) + payload)
            reply = read_reply(sock)
            assert reply["id"] is None and reply["ok"] is False
            assert reply["error"]["type"] == "INTERNAL"
            assert "frame limit" in reply["error"]["message"]
            assert service.stats.hits == 1  # answered inline
            sock.close()
            with QueryClient(*handle.address, max_retries=0) as client:
                assert client.query(
                    FIGURE1_NODES, FIGURE1_EDGES, alpha=0.3
                )["num_matches"] > 0
        finally:
            handle.stop(close_service=True)

    def test_result_response_encodes_cached_result_once(
        self, figure1_peg, monkeypatch
    ):
        engine = QueryEngine(figure1_peg, max_length=2, beta=0.1)
        result = engine.query(QueryGraph(FIGURE1_NODES, FIGURE1_EDGES), 0.3)
        encodes = []
        real = protocol._encode_columns

        def counting(columns):
            encodes.append(columns)
            return real(columns)

        monkeypatch.setattr(protocol, "_encode_columns", counting)
        first = protocol.result_response(7, result)
        assert protocol.result_response(7, result) == first
        assert len(encodes) == 1
        assert first == exact_result_payload(7, result.matches)
        # another id frames the same body
        assert protocol.result_response("r", result) == (
            exact_result_payload("r", result.matches)
        )
        assert len(encodes) == 1

    def test_pickled_columns_encode_identically(self, figure1_peg):
        engine = QueryEngine(figure1_peg, max_length=2, beta=0.1)
        result = engine.query(QueryGraph(FIGURE1_NODES, FIGURE1_EDGES), 0.3)
        encoded = protocol.result_response(1, result)  # memo now set
        restored = pickle.loads(pickle.dumps(result))
        assert not hasattr(restored.matches, protocol._BODY_MEMO)
        assert protocol.result_response(1, restored) == encoded

    def test_net_write_fires_once_per_reply(self, figure1_peg, monkeypatch):
        replies = []
        real_reply = QueryServer._reply

        def counting_reply(self, client, payload):
            if not client.closed:
                replies.append(payload)
            real_reply(self, client, payload)

        monkeypatch.setattr(QueryServer, "_reply", counting_reply)
        engine = QueryEngine(figure1_peg, max_length=2, beta=0.1)
        service = QueryService(engine, num_workers=2, cache_size=4)
        handle = start_server(service, per_client_inflight=16)
        seed = int(os.environ.get("REPRO_FAULTS_SEED", "1337"))
        injector = faults.install(faults.FaultInjector(seed=seed))
        injector.add("net.write", "delay", probability=0.3, param=0.002)
        injector.add("net.write", "drop", probability=0.05)
        injector.add("service.worker", "delay", probability=0.3, param=0.002)
        answered = []
        try:
            # Pipelined frames over raw sockets: replies queue behind
            # delayed ones of the same connection.
            for round_ in range(6):
                sock = connect_raw(handle.address)
                frames = [
                    query_frame(i, alpha=0.2 + 0.1 * (i % 5))
                    if i % 3 else {"id": i, "kind": "ping"}
                    for i in range(12)
                ]
                try:
                    # A reply dropped while later frames are still being
                    # sent tears the connection under the sender too.
                    send_frames(sock, frames)
                    for _ in frames:
                        answered.append(read_reply(sock)["id"])
                except (ConnectionError, OSError):
                    pass  # a dropped reply tore the connection
                sock.close()
            wait_until(lambda: service.stats.in_flight == 0)
            wait_until(lambda: not handle.server._reply_tasks)
        finally:
            faults.uninstall()
            handle.stop(close_service=True)
        assert injector.fired.get("net.write", 0) >= 1
        assert len(answered) >= 12
        assert injector.evaluated["net.write"] == len(replies)


# ----------------------------------------------------------------------
# Query-text cache: a repeated request text is parsed once
# ----------------------------------------------------------------------


def parse_on_loop(handle, frame):
    """``QueryServer._parse_query(frame)``, run on the server's loop."""
    async def parse():
        return handle.server._parse_query(frame)

    return asyncio.run_coroutine_threadsafe(parse(), handle._loop).result(5)


class TestQueryTextCache:
    @staticmethod
    def serve_and_check(handle, peg, frames):
        """Send ``frames`` one at a time; each reply must be the bytes a
        fresh engine's evaluation of the frame's own text encodes to."""
        fresh = QueryEngine(peg, max_length=2, beta=0.1)
        sock = connect_raw(handle.address)
        try:
            for frame in frames:
                send_frames(sock, [frame])
                want = fresh.query(
                    protocol.query_graph_from_spec(frame), frame["alpha"]
                )
                assert read_raw_reply(sock) == exact_result_payload(
                    frame["id"], want.matches
                ), frame
        finally:
            sock.close()

    def test_label_types_are_distinct_texts(self):
        # 1, 1.0 and true hash alike; a text keyed on the label value
        # alone would answer 1.0 and true with the reply of 1.
        peg = build_peg(pgd_from_edge_list(
            node_labels={"r1": 1, "r2": "1", "r3": 1},
            edges=[("r1", "r2", 0.9), ("r2", "r3", 0.8)],
        ))
        service = QueryService(QueryEngine(peg, max_length=2, beta=0.1))
        frames = [
            query_frame(rid, alpha=0.3, nodes={"u": label, "v": "1"},
                        edges=[("u", "v")])
            for rid, label in enumerate([1, 1.0, True, "1"] * 2)
        ]
        with start_server(service) as handle:
            self.serve_and_check(handle, peg, frames)
            assert len(handle.server._queries) == 4
            forms = {
                parse_on_loop(handle, frame).canonical_form()
                for frame in frames
            }
            assert len(forms) == 4
        assert service.stats.misses == 4 and service.stats.hits == 4
        service.close()

    def test_repeated_text_is_the_same_query_graph(self, figure1_peg):
        service = QueryService(QueryEngine(figure1_peg, max_length=2, beta=0.1))
        with start_server(service) as handle:
            first = parse_on_loop(handle, query_frame(1))
            # the id, alpha and deadline are not the query's text
            again = parse_on_loop(
                handle, query_frame(2, alpha=0.9, deadline_ms=50)
            )
            assert again is first
            assert parse_on_loop(
                handle, query_frame(3, nodes={"v": "a", "u": "i"})
            ) is not first
            self.serve_and_check(
                handle, figure1_peg,
                [query_frame(rid, alpha=0.3) for rid in range(3)],
            )
            assert len(handle.server._queries) == 2
        service.close()

    def test_failures_are_never_kept(self, figure1_peg):
        service = QueryService(QueryEngine(figure1_peg, max_length=2, beta=0.1))
        bad = [
            {"nodes": FIGURE1_NODES, "edges": [["u", "x"]]},
            {"nodes": {"u": ["i"], "v": "a"}, "edges": FIGURE1_EDGES},
            {"nodes": FIGURE1_NODES, "edges": [["u", "v"], ["v", "u"]]},
            {"nodes": FIGURE1_NODES, "edges": ["uv"]},
        ] + MALFORMED_SPECS
        with start_server(service) as handle:
            sock = connect_raw(handle.address)
            try:
                for rid, spec in enumerate(bad * 2):
                    send_frames(sock, [dict(spec, id=rid, kind="query",
                                            alpha=0.5)])
                    reply = read_reply(sock)
                    assert reply["error"]["type"] == "BAD_REQUEST", spec
                assert len(handle.server._queries) == 0
                send_frames(sock, [{"id": 0, "kind": "ping"}])
                assert read_reply(sock)["pong"] is True
            finally:
                sock.close()
            self.serve_and_check(handle, figure1_peg, [query_frame(1)])
            assert len(handle.server._queries) == 1
        assert service.stats.requests == 1
        service.close()

    def test_holds_as_many_texts_as_the_planner_holds_plans(
        self, figure1_peg
    ):
        engine = QueryEngine(figure1_peg, max_length=2, beta=0.1)
        engine.planner = QueryPlanner(engine, cache_size=3)
        service = QueryService(engine)
        frames = [
            query_frame(rid, alpha=0.3, nodes={f"u{rid % 5}": "i", "v": "a"},
                        edges=[(f"u{rid % 5}", "v")])
            for rid in range(10)
        ]
        with start_server(service) as handle:
            assert handle.server._queries.capacity == 3
            sizes = []
            for frame in frames:
                self.serve_and_check(handle, figure1_peg, [frame])
                sizes.append(len(handle.server._queries))
        assert sizes == [1, 2, 3] + [3] * 7
        # five renamings of one shape: one result, rehydrated per name
        assert service.stats.misses == 1 and service.stats.hits == 9
        service.close()

    def test_edge_order_is_another_text_with_the_same_result(self):
        peg = build_peg(generate_dblp_pgd(num_authors=60, seed=5))
        service = QueryService(QueryEngine(peg, max_length=2, beta=0.1))
        nodes = {"a": "DB", "b": "ML", "c": "DB"}
        forward = query_frame(1, alpha=0.2, nodes=nodes,
                              edges=[("a", "b"), ("b", "c")])
        backward = query_frame(2, alpha=0.2, nodes=nodes,
                               edges=[("c", "b"), ("b", "a")])
        with start_server(service) as handle:
            self.serve_and_check(handle, peg, [forward, backward])
            assert len(handle.server._queries) == 2
            assert parse_on_loop(handle, forward) is not parse_on_loop(
                handle, backward
            )
        assert service.stats.misses == 1 and service.stats.hits == 1
        service.close()
