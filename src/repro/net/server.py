"""The asyncio serving tier in front of :class:`~repro.service.QueryService`.

:class:`QueryServer` accepts length-prefixed JSON connections
(:mod:`repro.net.protocol`) and forwards admitted requests into the
in-process service's worker pool. What it adds over calling the
service directly is everything an *online* system needs under overload
and partial failure:

* **Bounded admission with explicit backpressure** — at most
  ``max_pending`` requests wait for dispatch and at most
  ``max_inflight`` occupy the service at once; past the bound new
  requests are *shed* with a typed ``REJECTED`` reply (the 429 of this
  protocol) instead of growing an unbounded queue. Sheds are counted
  in :class:`~repro.service.stats.ServiceStats` (``rejected``/``shed``)
  so ``requests == completed + rejected`` reconciles exactly on drain.
* **Per-client fairness** — dispatch round-robins across connections
  and each client is capped at ``per_client_inflight`` queued+running
  requests, so one chatty client cannot starve the rest.
* **Deadlines that cannot hang** — a request's ``deadline_ms``
  propagates into :meth:`QueryService.submit` (expired-in-queue
  requests are never evaluated) *and* arms a server-side watchdog that
  answers ``DEADLINE_EXCEEDED`` at the deadline even if the evaluation
  is still running; the late result is then discarded.
* **Graceful drain** — the server has no update pause of its own: a
  live update is :meth:`QueryService.apply_updates`, whose admission
  pause holds the requests dispatched meanwhile (see below) for the
  post-update graph. :meth:`stop` drains with a hard cutoff: whatever
  is still unresolved at the cutoff is answered ``UNAVAILABLE`` — no
  client is left waiting on a reply that will never come.
* **Fault sites** — ``net.accept``, ``net.read`` and ``net.write``
  let the chaos suite (:mod:`repro.testing.faults`) drop or delay
  connections mid-exchange and assert the correct-or-clean-error
  invariant end to end.

A request is served on the event loop from frame to reply; only work
that can block leaves it. A query text the server has seen before is
not parsed again: the loop keeps the checked
:class:`~repro.query.query_graph.QueryGraph` of each recent text (as
many as the planner keeps plans), canonical form already computed, so a
result-cache hit costs one dictionary lookup, the request key and the
reply's framing. The dispatcher admits an entry with a
non-blocking :meth:`QueryService.submit` (``wait_if_paused=False``): a
cache hit or an admission error is settled before ``submit`` returns
and is answered in the same turn, and a miss runs on the service's
workers, whose completion comes back through ``call_soon_threadsafe``.
The one fallback is a live update that has paused the service's
admission: that entry's submit then waits on a thread
(``asyncio.to_thread``) while the loop keeps serving. A reply is
written straight to the transport; a task is made only for a fired
``net.write`` fault, to queue behind a reply of the same connection
still in a task, or to ``drain`` a full transport buffer.

Use :func:`start_server` to run a server on its own event-loop thread
(the shape the CLI and the tests use); the asyncio API
(:meth:`QueryServer.start` / :meth:`QueryServer.stop`) is also public
for embedding into an existing loop.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from collections import deque

from repro.net import protocol
from repro.obs.metrics import get_registry
from repro.testing import faults
from repro.utils.errors import (
    DeadlineExceeded,
    NetError,
    QueryError,
    ReproError,
    ServiceError,
)
from repro.utils.lru import ResultCache


def _query_text(frame: dict) -> tuple | None:
    """The key of a request's query text, or ``None`` for a text that
    has none (it cannot parse either, or its edges are not JSON lists).
    """
    nodes = frame.get("nodes")
    edges = frame.get("edges", [])
    if (not isinstance(nodes, dict) or type(edges) is not list
            or not all(type(edge) is list for edge in edges)):
        return None
    key = (
        tuple(
            (name, type(label), repr(label)) for name, label in nodes.items()
        ),
        tuple(map(tuple, edges)),
    )
    try:
        hash(key)
    except TypeError:  # an unhashable edge endpoint
        return None
    return key


class _Client:
    """Per-connection state: queue, in-flight count, serialized writes."""

    def __init__(self, cid: int, writer: asyncio.StreamWriter) -> None:
        self.cid = cid
        self.writer = writer
        self.queue: deque = deque()
        self.inflight = 0
        self.write_lock = asyncio.Lock()
        #: Reply tasks of this connection not yet done; while any is,
        #: later replies queue behind it instead of writing directly.
        self.sending = 0
        self.closed = False


class _Entry:
    """One admitted query request moving through the server."""

    __slots__ = (
        "request_id", "client", "query", "alpha", "deadline", "finished",
        "timer",
    )

    def __init__(self, request_id, client, query, alpha, deadline) -> None:
        self.request_id = request_id
        self.client = client
        self.query = query
        self.alpha = alpha
        #: Absolute ``time.monotonic()`` deadline, or ``None``.
        self.deadline = deadline
        #: Set exactly once, when the entry's slots are released and its
        #: reply (result, error, or watchdog expiry) is owned.
        self.finished = False
        #: The armed watchdog timer handle, if any.
        self.timer = None


class QueryServer:
    """Serves one :class:`~repro.service.QueryService` over asyncio TCP.

    Parameters
    ----------
    service:
        The in-process service evaluations run on. The server never
        closes it — the caller owns its lifecycle.
    host, port:
        Listen address; port 0 binds an ephemeral port (see
        :attr:`address` after :meth:`start`).
    max_pending:
        Bound on requests queued for dispatch across all clients.
        Overflow is shed with ``REJECTED``.
    max_inflight:
        Bound on requests concurrently submitted to the service
        (default ``2 * service.num_workers``): backpressure that keeps
        the service's internal executor queue from growing unboundedly
        behind the admission queue's back.
    per_client_inflight:
        Per-connection cap on queued+running requests (fairness).
    default_deadline_ms:
        Deadline applied to requests that carry none (``None`` = no
        deadline).
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_pending: int = 64,
        max_inflight: int | None = None,
        per_client_inflight: int = 8,
        default_deadline_ms: float | None = None,
    ) -> None:
        if max_pending < 1:
            raise ServiceError(f"max_pending must be >= 1, got {max_pending}")
        if per_client_inflight < 1:
            raise ServiceError(
                f"per_client_inflight must be >= 1, got {per_client_inflight}"
            )
        self.service = service
        self.host = host
        self.port = port
        self.max_pending = int(max_pending)
        self.max_inflight = int(
            max_inflight if max_inflight is not None
            else 2 * service.num_workers
        )
        self.per_client_inflight = int(per_client_inflight)
        self.default_deadline_ms = protocol.checked_deadline_ms(
            default_deadline_ms
        )

        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._dispatch_task: asyncio.Task | None = None
        # All mutable serving state below is confined to the event
        # loop: only coroutines and call_soon_threadsafe callbacks may
        # touch it, which the ``lock-discipline`` checker enforces via
        # the ``event-loop`` pseudo-guard (sync methods touching these
        # must carry ``# loop-only``).
        self._clients: dict[int, _Client] = {}  # guarded-by: event-loop
        #: Round-robin order of client ids (rotated by the dispatcher).
        self._rr: deque = deque()  # guarded-by: event-loop
        self._cid_counter = itertools.count(1)
        self._pending_total = 0  # guarded-by: event-loop
        self._inflight_total = 0  # guarded-by: event-loop
        self._inflight_entries: set = set()  # guarded-by: event-loop
        self._reply_tasks: set = set()  # guarded-by: event-loop
        #: Parsed query of each recent request text (see
        #: :meth:`_parse_query`), as many as the planner keeps plans
        #: (none for an engine double without a planner).
        planner = getattr(service.engine, "planner", None)
        self._queries = ResultCache(  # guarded-by: event-loop
            planner.cache.capacity if planner is not None else 0
        )
        self._dispatch_wake: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._closing = False  # guarded-by: event-loop
        self._stopped = False  # guarded-by: event-loop

        registry = get_registry()
        self._m_connections = registry.counter("repro_net_connections_total")
        self._m_requests = {
            outcome: registry.counter(
                "repro_net_requests_total", outcome=outcome
            )
            for outcome in ("ok", "error", "rejected", "deadline")
        }
        self._m_dropped = registry.counter(
            "repro_net_dropped_connections_total"
        )
        self._m_pending = registry.gauge("repro_net_pending")
        self._m_inflight = registry.gauge("repro_net_inflight")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listen socket and start the dispatcher."""
        self._loop = asyncio.get_running_loop()
        self._dispatch_wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatch_task = self._loop.create_task(self._dispatch_loop())

    @property
    def address(self) -> tuple:
        """``(host, port)`` actually bound (port resolved if 0)."""
        return (self.host, self.port)

    async def stop(self, drain_timeout: float = 10.0) -> None:
        """Drain and shut down; every pending request gets a reply.

        New connections are refused, queued requests are shed with
        ``UNAVAILABLE``, in-flight requests get ``drain_timeout``
        seconds to complete, and whatever is still unresolved at the
        hard cutoff is answered ``UNAVAILABLE`` — the evaluation may
        still finish service-side, but no client is left hanging.
        Idempotent.
        """
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._shed_queued()
        try:
            await asyncio.wait_for(self._wait_idle(), drain_timeout)
        except asyncio.TimeoutError:
            pass
        # Hard cutoff: answer the stragglers now. Their service futures
        # still resolve later and are discarded (entry.finished).
        for entry in list(self._inflight_entries):
            if self._finish_entry(entry):
                self._reply_error(
                    entry.client, entry.request_id,
                    protocol.ERROR_UNAVAILABLE,
                    "server shut down before the request completed",
                )
        self._stopped = True
        if self._dispatch_wake is not None:
            self._dispatch_wake.set()
        if self._dispatch_task is not None:
            try:
                await asyncio.wait_for(self._dispatch_task, 1.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._dispatch_task.cancel()
        # Flush every in-progress reply before tearing sockets down —
        # including the UNAVAILABLE replies created just above. Bounded:
        # a peer that stopped reading must not wedge the shutdown.
        flush_deadline = self._loop.time() + 2.0
        while self._reply_tasks and self._loop.time() < flush_deadline:
            try:
                await asyncio.wait_for(
                    asyncio.gather(
                        *list(self._reply_tasks), return_exceptions=True
                    ),
                    flush_deadline - self._loop.time(),
                )
            except asyncio.TimeoutError:
                break
        for client in list(self._clients.values()):
            client.closed = True
            try:
                client.writer.close()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        action = faults.fire("net.accept")
        if action is not None and action.kind == "delay":
            await asyncio.sleep(action.param)
            action = None
        if action is not None:  # drop / error: refuse the connection
            self._m_dropped.inc()
            writer.close()
            return
        client = _Client(next(self._cid_counter), writer)
        self._clients[client.cid] = client
        self._rr.append(client.cid)
        self._m_connections.inc()
        try:
            while not self._closing:
                action = faults.fire("net.read")
                if action is not None:
                    if action.kind == "delay":
                        await asyncio.sleep(action.param)
                    else:  # drop / error: tear the connection down
                        self._m_dropped.inc()
                        break
                frame = await protocol.read_frame(reader)
                if frame is None:
                    break
                await self._handle_request(client, frame)
        except (ConnectionError, OSError, ReproError):
            pass  # torn connection: the client's retry layer handles it
        finally:
            self._disconnect(client)

    def _disconnect(self, client: _Client) -> None:  # loop-only
        """Unregister a connection; queued-but-undispatched work is dropped.

        Entries already in flight keep running (their replies are
        discarded by the ``closed`` check); entries still queued were
        never counted in the service stats, so dropping them leaves
        the counters reconciled.
        """
        client.closed = True
        if client.cid in self._clients:
            del self._clients[client.cid]
            try:
                self._rr.remove(client.cid)
            except ValueError:
                pass
        while client.queue:
            client.queue.popleft()
            self._pending_total -= 1
            self._m_pending.dec()
        try:
            client.writer.close()
        except Exception:
            pass

    async def _handle_request(self, client: _Client, frame: dict) -> None:
        rid = frame.get("id")
        kind = frame.get("kind", "query")
        if kind == "ping":
            self._reply(client, {"id": rid, "ok": True, "pong": True})
            return
        if kind == "stats":
            snap = self.service.stats_snapshot()
            snap["net_pending"] = self._pending_total
            snap["net_inflight"] = self._inflight_total
            snap["net_connections"] = len(self._clients)
            self._reply(client, {"id": rid, "ok": True, "stats": snap})
            return
        if kind != "query":
            self._reply_error(
                client, rid, protocol.ERROR_BAD_REQUEST,
                f"unknown request kind {kind!r}",
            )
            return
        # Admission control. Order matters: shed on global overflow
        # before spending parse work, cap per-client before global
        # (a greedy client must hit its own limit, not everyone's).
        if self._closing:
            self._reply_error(
                client, rid, protocol.ERROR_UNAVAILABLE,
                "server shutting down",
            )
            return
        if client.inflight + len(client.queue) >= self.per_client_inflight:
            self.service.stats.record_rejected()
            self._m_requests["rejected"].inc()
            self._reply_error(
                client, rid, protocol.ERROR_REJECTED,
                f"per-client in-flight cap ({self.per_client_inflight}) "
                "reached",
            )
            return
        if self._pending_total >= self.max_pending:
            self.service.stats.record_rejected(shed=True)
            self._m_requests["rejected"].inc()
            self._reply_error(
                client, rid, protocol.ERROR_REJECTED,
                f"admission queue full ({self.max_pending} pending)",
            )
            return
        try:
            query = self._parse_query(frame)
            alpha = protocol.checked_alpha(frame.get("alpha", 0.5))
            deadline_ms = protocol.checked_deadline_ms(
                frame.get("deadline_ms", self.default_deadline_ms)
            )
        except ReproError as exc:
            self._reply_error(
                client, rid, protocol.ERROR_BAD_REQUEST, str(exc)
            )
            return
        deadline = None
        if deadline_ms is not None:
            deadline = time.monotonic() + deadline_ms / 1e3
        client.queue.append(_Entry(rid, client, query, alpha, deadline))
        self._pending_total += 1
        self._m_pending.inc()
        self._dispatch_wake.set()

    def _parse_query(self, frame: dict):  # loop-only
        """The :class:`~repro.query.query_graph.QueryGraph` of a query
        request, parsed once per distinct query text.

        The text is the frame's ``nodes`` as ``(name, type(label),
        repr(label))`` triples and its ``edges`` as tuples, both in frame
        order: ``1``, ``1.0``, ``true`` and ``"1"`` are different labels
        (as are ``0.0`` and ``-0.0``), and the same graph with its edges
        in another order is another text that reaches the same result
        key. A new text is parsed and checked by
        :func:`~repro.net.protocol.query_graph_from_spec`; only a text
        that parsed is kept, so a repeated text skips nothing a first one
        would have failed. A kept graph is shared with every request that
        repeats its text, on any thread: it is immutable but for its
        canonical-form memo (see :meth:`QueryGraph.canonical_form`).
        """
        key = _query_text(frame)
        query = self._queries.get(key) if key is not None else None
        if query is None:
            query = protocol.query_graph_from_spec(frame)
            if key is not None:
                self._queries.put(key, query)
        return query

    # ------------------------------------------------------------------
    # Dispatch (round-robin fairness, bounded in-flight)
    # ------------------------------------------------------------------

    def _next_entry(self) -> _Entry | None:  # loop-only
        """Pop the next dispatchable entry, round-robin across clients."""
        if self._inflight_total >= self.max_inflight:
            return None
        for _ in range(len(self._rr)):
            cid = self._rr[0]
            self._rr.rotate(-1)
            client = self._clients.get(cid)
            if client is None or not client.queue:
                continue
            if client.inflight >= self.per_client_inflight:
                continue
            return client.queue.popleft()
        return None

    async def _dispatch_loop(self) -> None:
        while not self._stopped:
            await self._dispatch_wake.wait()
            self._dispatch_wake.clear()
            while not self._closing:
                entry = self._next_entry()
                if entry is None:
                    break
                self._pending_total -= 1
                self._m_pending.dec()
                entry.client.inflight += 1
                self._inflight_total += 1
                self._m_inflight.inc()
                self._idle.clear()
                self._inflight_entries.add(entry)
                await self._submit(entry)

    async def _submit(self, entry: _Entry) -> None:
        """Hand one entry to the service; answer it if already settled.

        Admission runs here, on the loop, and never waits: a hit or an
        admission error is answered in this turn. Only while a live
        update pauses the service's admission does the entry take the
        one blocking path, a waiting submit on a thread, which keeps
        the loop serving until the update is done.
        """
        try:
            future = self.service.submit(
                entry.query, entry.alpha, deadline=entry.deadline,
                wait_if_paused=False,
            )
            if future is None:
                self._arm_watchdog(entry)
                future = await asyncio.to_thread(
                    self.service.submit, entry.query, entry.alpha,
                    deadline=entry.deadline,
                )
        except ReproError as exc:
            self._entry_failed(entry, exc)
            return
        if future.done():
            self._entry_done(entry, future)
            return
        self._arm_watchdog(entry)
        future.add_done_callback(
            lambda fut: self._loop.call_soon_threadsafe(
                self._entry_done, entry, fut
            )
        )

    def _arm_watchdog(self, entry: _Entry) -> None:  # loop-only
        """Answer ``entry`` at its deadline if nothing else has by then."""
        if entry.deadline is not None and entry.timer is None:
            entry.timer = self._loop.call_later(
                max(0.0, entry.deadline - time.monotonic()),
                self._entry_expired, entry,
            )

    # ------------------------------------------------------------------
    # Completion (loop-side)
    # ------------------------------------------------------------------

    def _finish_entry(self, entry: _Entry) -> bool:  # loop-only
        """Release an entry's slots exactly once; False if already done."""
        if entry.finished:
            return False
        entry.finished = True
        if entry.timer is not None:
            entry.timer.cancel()
        self._inflight_entries.discard(entry)
        entry.client.inflight -= 1
        self._inflight_total -= 1
        self._m_inflight.dec()
        if self._inflight_total == 0:
            self._idle.set()
        self._dispatch_wake.set()
        return True

    def _entry_done(self, entry: _Entry, future) -> None:  # loop-only
        """Answer ``entry`` from its settled service future."""
        if not self._finish_entry(entry):
            return  # the watchdog already answered; discard the late result
        if future.cancelled():
            self._m_requests["error"].inc()
            self._reply_error(
                entry.client, entry.request_id, protocol.ERROR_UNAVAILABLE,
                "service closed before the request ran",
            )
            return
        exc = future.exception(0)
        if exc is not None:
            code, message = self._classify(exc)
            if code == protocol.ERROR_DEADLINE:
                # A worker found the request expired at pick-up before
                # the watchdog fired; whichever of the two gets past
                # _finish_entry answers the client and counts it (the
                # service itself counts only what query() reports).
                self.service.stats.record_deadline_exceeded()
                self._m_requests["deadline"].inc()
            else:
                self._m_requests["error"].inc()
            self._reply_error(entry.client, entry.request_id, code, message)
            return
        self._m_requests["ok"].inc()
        self._reply(
            entry.client,
            protocol.result_response(entry.request_id, future.result(0)),
        )

    def _entry_failed(self, entry: _Entry, exc: Exception) -> None:  # loop-only
        if not self._finish_entry(entry):
            return
        code, message = self._classify(exc)
        self._m_requests["error"].inc()
        self._reply_error(entry.client, entry.request_id, code, message)

    def _entry_expired(self, entry: _Entry) -> None:
        """Watchdog: the deadline passed with the evaluation still running."""
        if not self._finish_entry(entry):
            return
        self.service.stats.record_deadline_exceeded()
        self._m_requests["deadline"].inc()
        self._reply_error(
            entry.client, entry.request_id, protocol.ERROR_DEADLINE,
            "deadline expired before the evaluation completed",
        )

    @staticmethod
    def _classify(exc: Exception) -> tuple:
        """Map an evaluation failure to a wire error code."""
        if isinstance(exc, DeadlineExceeded):
            return protocol.ERROR_DEADLINE, str(exc)
        if isinstance(exc, ServiceError):
            # Covers ServiceUnavailable and the "service closed before
            # the request completed" errors close(wait=False) resolves
            # pending futures with.
            return protocol.ERROR_UNAVAILABLE, str(exc)
        if isinstance(exc, QueryError):
            return protocol.ERROR_QUERY, str(exc)
        return protocol.ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------

    def _reply(self, client: _Client, payload: dict | bytes) -> None:  # loop-only
        """Send one reply frame, in order with the connection's others.

        The common case writes the frame right here: no fault fired
        and no earlier reply of the connection is still in a task. A
        task is made only for a fired ``net.write`` fault, to queue
        behind such a task, or to ``drain`` a transport buffer the
        write left non-empty.
        """
        if client.closed:
            return
        action = faults.fire("net.write")
        if action is None and not client.sending:
            try:
                client.writer.write(self._frame(payload))
            except (ConnectionError, OSError):
                self._disconnect(client)
                return
            if client.writer.transport.get_write_buffer_size():
                self._send_task(client, None, None)
            return
        self._send_task(client, payload, action)

    def _send_task(self, client: _Client, payload, action) -> None:  # loop-only
        """Send (or only drain, for a ``None`` payload) in a reply task."""
        client.sending += 1
        task = self._loop.create_task(self._send(client, payload, action))
        self._reply_tasks.add(task)

        def sent(task) -> None:
            self._reply_tasks.discard(task)
            client.sending -= 1

        task.add_done_callback(sent)

    @staticmethod
    def _frame(payload: dict | bytes) -> bytes:
        """``payload`` as a frame, or a short ``INTERNAL`` error in its
        place when it exceeds the frame limit.

        The error echoes no id: the id itself may be what grew past the
        limit (the reply re-escapes it as ASCII JSON).
        """
        try:
            return protocol.encode_frame(payload)
        except NetError as exc:
            return protocol.encode_frame(protocol.error_response(
                None, protocol.ERROR_INTERNAL,
                f"reply over the frame limit: {exc}",
            ))

    def _reply_error(self, client, request_id, code, message) -> None:
        self._reply(client, protocol.error_response(request_id, code, message))

    async def _send(self, client: _Client, payload, action) -> None:
        """Reply-task side of :meth:`_reply`: ``action`` is the fault the
        reply already fired, and a ``None`` payload only drains."""
        if action is not None:
            if action.kind == "delay":
                await asyncio.sleep(action.param)
            else:  # drop / error: tear the connection down mid-reply
                self._m_dropped.inc()
                self._disconnect(client)
                return
        async with client.write_lock:
            if client.closed:
                return
            try:
                if payload is not None:
                    client.writer.write(self._frame(payload))
                await client.writer.drain()
            except (ConnectionError, OSError):
                self._disconnect(client)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    async def _wait_idle(self) -> None:
        while self._inflight_total > 0:
            await self._idle.wait()

    def _shed_queued(self) -> None:  # loop-only
        """Answer every queued-but-undispatched request ``UNAVAILABLE``."""
        for client in list(self._clients.values()):
            while client.queue:
                entry = client.queue.popleft()
                self._pending_total -= 1
                self._m_pending.dec()
                self.service.stats.record_rejected()
                self._m_requests["rejected"].inc()
                self._reply_error(
                    client, entry.request_id, protocol.ERROR_UNAVAILABLE,
                    "server shutting down",
                )


class ServerHandle:
    """A :class:`QueryServer` running on its own event-loop thread.

    The synchronous façade the CLI and tests use: construction via
    :func:`start_server`, a thread-safe :meth:`stop`, and
    context-manager cleanup. Live updates go to ``handle.service``.
    """

    def __init__(self, server: QueryServer, loop, thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def address(self) -> tuple:
        return self.server.address

    @property
    def service(self):
        return self.server.service

    def stop(
        self, drain_timeout: float = 10.0, close_service: bool = False
    ) -> None:
        """Drain and stop the server; optionally close the service too."""
        if not self._stopped:
            self._stopped = True
            asyncio.run_coroutine_threadsafe(
                self.server.stop(drain_timeout), self._loop
            ).result()
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            if not self._loop.is_running():
                self._loop.close()
        if close_service:
            self.server.service.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server(service, host: str = "127.0.0.1", port: int = 0,
                 **config) -> ServerHandle:
    """Start a :class:`QueryServer` on a dedicated event-loop thread.

    Returns once the listen socket is bound; ``handle.address`` carries
    the resolved port. ``config`` forwards to :class:`QueryServer`.
    """
    server = QueryServer(service, host, port, **config)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    boot_error: list = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except Exception as exc:  # bind failure etc.
            boot_error.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(
        target=_run, name="repro-net-server", daemon=True
    )
    thread.start()
    started.wait()
    if boot_error:
        raise boot_error[0]
    return ServerHandle(server, loop, thread)
