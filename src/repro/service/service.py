"""The concurrent query service: worker pool, cache, single-flight.

:class:`QueryService` owns one immutable
:class:`~repro.query.engine.QueryEngine` (offline phase already done)
and serves many online queries against it:

* evaluations run on a ``ThreadPoolExecutor`` of ``num_workers``
  threads, so independent requests overlap;
* results are memoized in a :class:`~repro.utils.lru.ResultCache`
  keyed by the *canonical* request signature — query graphs equal up to
  node renaming share one entry;
* identical concurrent requests are collapsed by single-flight
  deduplication: the first becomes the leader, later arrivals attach to
  the leader's future instead of re-evaluating;
* a cached or shared result reaches a renamed query in that query's
  own node names (:meth:`~repro.query.engine.QueryResult.renamed`,
  through the two queries' canonical orders);
* the offline phase can be snapshotted to disk and warm-started on the
  next process via :meth:`snapshot` / :meth:`from_snapshot` /
  :meth:`open`.
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import (
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)

from repro.index.bundle import clear_offline_artifacts
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_TRACER, use_span
from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.query.engine import QueryEngine, QueryOptions, QueryResult
from repro.query.query_graph import QueryGraph
from repro.service.stats import ServiceStats
from repro.testing import faults
from repro.utils.errors import (
    DeadlineExceeded,
    ServiceError,
    ServiceUnavailable,
)
from repro.utils.lru import ResultCache

#: Engine of the current process-pool worker (set by the initializer).
_WORKER_ENGINE: QueryEngine | None = None


def _process_worker_init(peg, snapshot_dir: str) -> None:
    """Warm-start one pool worker from the service's snapshot bundle."""
    global _WORKER_ENGINE
    _WORKER_ENGINE = QueryEngine.from_saved(peg, snapshot_dir)


def _process_worker_query(query, alpha, options, deadline=None):
    """Evaluate one request on the worker's warm-started engine."""
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceeded(
            "deadline expired before the evaluation started"
        )
    return _WORKER_ENGINE.query(query, alpha, options)


#: :class:`QueryOptions` fields deliberately excluded from
#: :func:`request_key`. Every field listed here must be *result-neutral*:
#: changing it may change how a query is executed (which backend,
#: whether caches or tracing are used) but never which
#: matches come back or their probabilities. The differential test
#: suites (``test_differential_links``, backend-equivalence tests) are
#: the runtime evidence; the ``cache-keys`` checker in
#: ``repro.analysis`` is the static gate — a new ``QueryOptions`` field
#: must either join the key below or be added here, and the linter
#: fails the build until one of the two happens.
RESULT_NEUTRAL_OPTIONS = frozenset(
    {
        "reduction_backend",
        "link_backend",
        "use_link_cache",
        "trace",
    }
)


def request_key(
    query: QueryGraph,
    alpha: float,
    options: QueryOptions,
    graph_version: int = 0,
) -> tuple:
    """Canonical cache/dedup key of one request.

    Combines the query's canonical form (rename-invariant), alpha, the
    :class:`QueryOptions` fields that change the *result*, and the
    engine's ``graph_version`` — execution knobs
    (``reduction_backend``, ``link_backend``) are deliberately excluded
    so the same logical query shares one entry regardless of how it is
    executed. The graph version makes cache invalidation versioned
    instead of explicit: every applied mutation batch bumps it, so
    entries computed against the pre-mutation graph simply stop being
    addressable and age out of the LRU.
    """
    return (
        query.canonical_form(),
        float(alpha),
        options.decomposition,
        options.use_context_pruning,
        options.use_structure_reduction,
        options.use_upperbound_reduction,
        options.seed,
        int(graph_version),
    )


#: The options of a request that passes none.
_DEFAULT_OPTIONS = QueryOptions()


def _rehydrate(result, evaluated_order: tuple, query: QueryGraph):
    """``result``, evaluated for a query whose canonical order is
    ``evaluated_order``, in ``query``'s node names.

    Both queries share a request key, so their canonical forms are
    equal and position ``i`` of one canonical order is the image of
    position ``i`` of the other (as :mod:`repro.query.plan` rehydrates a
    plan). A result of the same names, or an engine double's, is
    returned as it is.
    """
    order = query.canonical_order()
    if order == evaluated_order or not isinstance(result, QueryResult):
        return result
    return result.renamed(dict(zip(evaluated_order, order)))


class QueryService:
    """Serves pattern-matching queries concurrently over one engine.

    Parameters
    ----------
    engine:
        The shared engine. Treated as immutable: the service never
        mutates it, and all stores reached through it must be safe for
        concurrent readers (both bundled stores are).
    num_workers:
        Evaluation threads (>= 1).
    cache_size:
        Result-cache capacity in entries; 0 disables caching.
    executor:
        ``"thread"`` (default) evaluates on a thread pool — cheap, and
        right for cache-heavy or I/O-bound serving. ``"process"``
        evaluates on a process pool whose workers each warm-start their
        own engine from ``snapshot_dir``, buying true CPU parallelism
        for compute-bound workloads on multi-core hosts (requests and
        results cross a pickling boundary).
    snapshot_dir:
        Offline-bundle directory; required for ``executor="process"``.
    tracer:
        A :class:`~repro.obs.trace.Tracer` recording one span tree per
        request (admission outcome, queue wait, and — on the thread
        executor — the engine's stage spans nested beneath). Defaults
        to the no-op tracer, which costs one attribute check per
        request. Process-pool evaluations cannot carry spans across the
        pickling boundary; their request spans record admission and
        outcome only.
    max_admission_wait:
        Upper bound, in seconds, a request may block in admission while
        a live update (:meth:`apply_updates`) holds the gate. Past it
        the request fails with
        :class:`~repro.utils.errors.ServiceUnavailable` instead of
        blocking indefinitely — callers always get an answer or a clean
        error, never a hang.
    """

    def __init__(
        self,
        engine: QueryEngine,
        num_workers: int = 4,
        cache_size: int = 256,
        executor: str = "thread",
        snapshot_dir: str | None = None,
        tracer=None,
        max_admission_wait: float = 5.0,
    ) -> None:
        if num_workers < 1:
            raise ServiceError(f"num_workers must be >= 1, got {num_workers}")
        if executor not in ("thread", "process"):
            raise ServiceError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        self.engine = engine
        self.num_workers = int(num_workers)
        self.executor_kind = executor
        self.snapshot_dir = snapshot_dir
        if max_admission_wait <= 0:
            raise ServiceError(
                f"max_admission_wait must be > 0, got {max_admission_wait}"
            )
        self.max_admission_wait = float(max_admission_wait)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = ServiceStats()
        self.cache = ResultCache(
            cache_size, on_evict=self.stats.record_eviction
        )
        self.warm_started = False
        if executor == "process":
            if snapshot_dir is None:
                raise ServiceError(
                    "executor='process' needs snapshot_dir: pool workers "
                    "warm-start their engines from the snapshot bundle"
                )
            self._executor: ThreadPoolExecutor | ProcessPoolExecutor = (
                ProcessPoolExecutor(
                    max_workers=self.num_workers,
                    initializer=_process_worker_init,
                    initargs=(engine.peg, snapshot_dir),
                )
            )
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="repro-serve"
            )
        self._inflight: dict = {}  # guarded-by: _gate
        self._gate = threading.Lock()
        #: Signalled when a mutation batch finishes; admissions wait on
        #: it so no evaluation overlaps graph surgery.
        self._apply_done = threading.Condition(self._gate)
        self._applying = False  # guarded-by: _gate
        #: Serializes whole apply_updates() calls against each other.
        self._apply_lock = threading.Lock()
        self._closed = False  # guarded-by: _gate

    # ------------------------------------------------------------------
    # Construction / warm start
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        peg: ProbabilisticEntityGraph,
        max_length: int = 3,
        beta: float = 0.1,
        gamma: float = 0.1,
        snapshot_dir: str | None = None,
        build_processes: int = 0,
        **service_kwargs,
    ) -> "QueryService":
        """Run the offline phase and wrap the engine in a service.

        When ``snapshot_dir`` is given, earlier offline artifacts there
        are cleared and the freshly built ones persisted immediately,
        ready for :meth:`from_snapshot` on the next process (the index
        is built in memory and copied there). ``build_processes`` > 1
        parallelizes the build on a process pool.
        """
        if snapshot_dir is not None:
            clear_offline_artifacts(snapshot_dir)
        engine = QueryEngine(
            peg,
            max_length=max_length,
            beta=beta,
            gamma=gamma,
            build_processes=build_processes,
        )
        if snapshot_dir is not None:
            engine.save_offline(snapshot_dir)
            service_kwargs.setdefault("snapshot_dir", snapshot_dir)
        return cls(engine, **service_kwargs)

    @classmethod
    def from_snapshot(
        cls,
        peg: ProbabilisticEntityGraph,
        directory: str,
        **service_kwargs,
    ) -> "QueryService":
        """Warm-start from a snapshot written by :meth:`snapshot`/:meth:`build`.

        Skips the offline phase entirely — the service is ready in the
        time it takes to reopen the disk store. The PEG must be the one
        the snapshot was built from.
        """
        service_kwargs.setdefault("snapshot_dir", directory)
        service = cls(QueryEngine.from_saved(peg, directory), **service_kwargs)
        service.warm_started = True
        return service

    @classmethod
    def open(
        cls,
        peg: ProbabilisticEntityGraph,
        snapshot_dir: str,
        max_length: int = 3,
        beta: float = 0.1,
        gamma: float = 0.1,
        build_processes: int = 0,
        **service_kwargs,
    ) -> "QueryService":
        """Warm-start from ``snapshot_dir`` if possible, else build into it.

        The one-call lifecycle: the first run pays for the offline phase
        and leaves a snapshot behind; every later run restores it
        (``service.warm_started`` tells which happened).

        On a warm start the build parameters (``max_length``, ``beta``,
        ``gamma``, ``build_processes``) are ignored — the snapshot's own
        parameters win; check ``engine.max_length`` /
        ``engine.index.beta`` after opening. Delete the snapshot
        directory to rebuild with different parameters.
        """
        from repro.utils.errors import IndexError_

        try:
            return cls.from_snapshot(peg, snapshot_dir, **service_kwargs)
        except IndexError_:
            return cls.build(
                peg,
                max_length=max_length,
                beta=beta,
                gamma=gamma,
                snapshot_dir=snapshot_dir,
                build_processes=build_processes,
                **service_kwargs,
            )

    def snapshot(self, directory: str) -> None:
        """Persist the engine's offline artifacts for later warm starts."""
        self.engine.save_offline(directory)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _admit(
        self,
        query: QueryGraph,
        alpha: float,
        options: QueryOptions,
        span,
        wait_if_paused: bool = True,
    ) -> tuple:
        """Resolve one request against the cache and in-flight registry.

        Returns ``(future, key)``: ``key`` is ``None`` when the future
        is already settled (cache hit) or attached to an in-flight
        evaluation (dedup); otherwise the request was registered
        in-flight under ``key`` and the caller owns evaluating it and
        completing the future (via :meth:`_finish` /
        :meth:`_abort_submission`). While a live update pauses
        admission this waits for it (bounded by
        ``max_admission_wait``), or — with ``wait_if_paused=False`` —
        returns ``(None, None)`` at once, having recorded nothing. The
        admission outcome is recorded on ``span`` here, where it is
        decided, so the attribute can never disagree with the stats.
        """
        start = time.perf_counter()
        with self._gate:
            # Admission is atomic with respect to apply_updates: the
            # whole resolve-key / cache-check / in-flight registration
            # happens under one gate hold, so a request is either
            # registered before an update's drain snapshot (and hence
            # drained) or admitted after the update completed (keyed
            # and evaluated against the post-update graph). Splitting
            # this into separate gate holds would let a request slip
            # between the drain snapshot and the graph surgery.
            #
            # The wait is bounded: a stuck or slow mutation batch must
            # not turn every submit into an indefinite block.
            wait_deadline = time.monotonic() + self.max_admission_wait
            while True:
                admitted = self._try_admit(query, alpha, options, span, start)
                if admitted is not None or not wait_if_paused:
                    break
                remaining = wait_deadline - time.monotonic()
                if remaining <= 0:
                    self.stats.record_rejected()
                    span.set("outcome", "unavailable")
                    raise ServiceUnavailable(
                        "admission paused by a live update for more than "
                        f"max_admission_wait={self.max_admission_wait}s"
                    )
                self._apply_done.wait(remaining)
        if admitted is None:
            return None, None
        future, key = admitted
        if key is not None:
            self.stats.record_miss()
            span.set("outcome", "miss")
        return future, key

    def _try_admit(  # holds-lock: _gate
        self, query, alpha, options, span, start
    ) -> tuple | None:
        """:meth:`_admit`'s non-blocking core; ``None`` while paused.

        A miss is registered in-flight here but recorded by the caller,
        after the gate is released.
        """
        if self._applying:
            return None
        if self._closed:
            raise ServiceError("service is closed")
        # Engine-like test doubles may not carry a version; treat
        # them as frozen graphs.
        key = request_key(
            query, alpha, options,
            getattr(self.engine, "graph_version", 0),
        )
        cached = self.cache.get(key)
        if cached is not None:
            future: Future = Future()
            future.set_result(_rehydrate(cached[1], cached[0], query))
            self.stats.record_hit(time.perf_counter() - start)
            span.set("outcome", "cache")
            return future, None
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.stats.record_dedup()
            span.set("outcome", "dedup")
            leader, order = inflight
            # The follower's completion is recorded when the
            # leader's future resolves — including via close(),
            # which fails leftover futures — so ``requests`` and
            # ``completed`` converge on any drained service.
            leader.add_done_callback(
                functools.partial(self._finish_attached, start)
            )
            return self._follow(leader, order, query), None
        future = Future()
        self._inflight[key] = (future, query.canonical_order())
        return future, key

    @classmethod
    def _follow(cls, leader: Future, order: tuple, query) -> Future:
        """The future of a request deduplicated onto ``leader``, whose
        query's canonical order is ``order``: the leader's own future,
        or — for a renamed query — one that resolves with the leader's
        outcome in ``query``'s node names."""
        if order == query.canonical_order():
            return leader
        follower: Future = Future()

        def relay(done: Future) -> None:
            if done.cancelled():
                follower.cancel()
                return
            exc = done.exception()
            if exc is not None:
                cls._resolve(follower, exc=exc)
            else:
                cls._resolve(
                    follower, result=_rehydrate(done.result(), order, query)
                )

        leader.add_done_callback(relay)
        return follower

    def _abort_submission(self, key, future, start, exc) -> None:
        """Unwind one registered request after an executor rejection.

        close() can win the race after the in-flight registration: the
        entry must be unregistered so attached followers fail instead
        of hanging.
        """
        with self._gate:
            self._inflight.pop(key, None)
        self.stats.record_done(time.perf_counter() - start, error=True)
        future.set_exception(
            ServiceError(f"service is shutting down: {exc}")
        )

    def submit(
        self,
        query: QueryGraph,
        alpha: float,
        options: QueryOptions | None = None,
        deadline: float | None = None,
        *,
        wait_if_paused: bool = True,
    ) -> Future | None:
        """Enqueue one request; returns a future of its ``QueryResult``.

        Cache hits resolve immediately; a request identical (up to node
        renaming) to one already in flight shares that evaluation's
        future instead of spawning another.

        ``deadline`` is an absolute ``time.monotonic()`` instant. A
        request still queued behind busy workers when it passes is
        never evaluated: its future resolves with
        :class:`~repro.utils.errors.DeadlineExceeded` the moment a
        worker picks it up, so expired requests cannot occupy
        evaluation capacity and their callers cannot hang. (A deadline
        cannot interrupt an evaluation already running; the network
        tier adds the watchdog that answers the client at the deadline
        regardless.) The expiry is counted in
        ``stats.deadline_exceeded`` by whoever reports it to the
        requester — :meth:`query` here, the server's watchdog or reply
        for a wire request — so one request is never counted twice.

        While a live update (:meth:`apply_updates`) pauses admission,
        ``submit`` waits for it to finish. A caller that must not block
        (the network tier's event loop) passes ``wait_if_paused=False``
        and gets ``None`` back instead: nothing was admitted, counted
        or traced, and the caller retries with a waiting submit on a
        thread of its own.
        """
        with self._gate:
            if self._closed:
                raise ServiceError("service is closed")
        options = options or _DEFAULT_OPTIONS
        span = self.tracer.span("request")
        span.begin()
        try:
            span.set("alpha", float(alpha))
            future, key = self._admit(
                query, alpha, options, span, wait_if_paused
            )
        except BaseException:
            # Refused (admission-pause timeout, closed) or malformed
            # (request_key raised): the request's lifecycle ends here.
            span.finish(error=True)
            raise
        if future is None:
            # Nothing was admitted; the waiting retry is the request
            # and opens its own span.
            self.tracer.discard(span)
            return None
        if key is None:
            # Cache hit or dedup attach: the request's own lifecycle is
            # over even though an attached evaluation may still run.
            span.finish()
            return future
        start = time.perf_counter()
        try:
            if self.executor_kind == "process":
                # Spans cannot cross the pickling boundary; the worker
                # evaluates untraced and this request span keeps only
                # admission + outcome (queue wait is unmeasurable from
                # the worker side too).
                task = self._executor.submit(
                    _process_worker_query, query, alpha, options, deadline
                )
            else:
                task = self._executor.submit(
                    self._run_query, query, alpha, options, span, start,
                    deadline,
                )
        except RuntimeError as exc:
            self._abort_submission(key, future, start, exc)
            span.finish(error=True)
            return future
        task.add_done_callback(functools.partial(
            self._finish, key, future, query.canonical_order(), start, span
        ))
        return future

    def _run_query(
        self, query, alpha, options, span, submitted, deadline=None
    ) -> QueryResult:
        """Worker-side wrapper of one evaluation.

        Records how long the task sat queued behind busy workers and
        re-attaches the request span on this worker thread, so the
        engine's stage spans nest under it across the pool boundary.
        Expired deadlines are detected here — after the queue wait,
        before any evaluation work — so a timed-out request resolves
        with a clean error instead of wasting a worker.
        """
        wait = time.perf_counter() - submitted
        self.stats.record_queue_wait(wait)
        if span.enabled:
            span.set("queue_wait_ms", round(wait * 1e3, 3))
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded(
                f"deadline expired after {wait * 1e3:.1f} ms queued, "
                "before the evaluation started"
            )
        faults.check("service.worker")
        with use_span(span):
            return self.engine.query(query, alpha, options)

    def query(
        self,
        query: QueryGraph,
        alpha: float,
        options: QueryOptions | None = None,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> QueryResult:
        """Blocking wrapper around :meth:`submit`; counts a deadline expiry."""
        future = self.submit(query, alpha, options, deadline=deadline)
        try:
            return future.result(timeout)
        except DeadlineExceeded:
            self.stats.record_deadline_exceeded()
            raise

    def query_many(
        self,
        queries,
        alpha: float,
        options: QueryOptions | None = None,
    ) -> list:
        """Evaluate a batch concurrently; results in request order.

        Each query becomes its own evaluation task (maximum worker
        parallelism).
        """
        futures = [self.submit(q, alpha, options) for q in queries]
        return [future.result() for future in futures]

    @staticmethod
    def _task_outcome(task) -> tuple:
        """``(exception, result)`` of a finished task, cancellation-safe.

        ``close(wait=False)`` cancels queued tasks; their done-callbacks
        still run, but ``task.exception()`` would itself raise
        ``CancelledError`` — which, uncaught inside a callback, would
        leave the request future unresolved and its waiters hanging.
        """
        if task.cancelled():
            return ServiceError("service closed before the request ran"), None
        exc = task.exception()
        if exc is not None:
            return exc, None
        return None, task.result()

    @staticmethod
    def _resolve(future, exc=None, result=None) -> None:
        """Complete a request future unless close() already failed it."""
        try:
            if future.done():
                return
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(result)
        except InvalidStateError:  # lost the race against close()
            pass

    def _finish(self, key, future, order, start, span, task) -> None:
        """Done-callback of one evaluation: publish, uncount, resolve."""
        exc, result = self._task_outcome(task)
        if exc is not None:
            with self._gate:
                self._inflight.pop(key, None)
            self.stats.record_done(time.perf_counter() - start, error=True)
            span.finish(error=True)
            self._resolve(future, exc=exc)
            return
        self.cache.put(key, (order, result))
        with self._gate:
            self._inflight.pop(key, None)
        self.stats.record_done(time.perf_counter() - start)
        span.finish()
        self._resolve(future, result=result)

    def _finish_attached(self, start, future) -> None:
        """Done-callback of a deduplicated request's attached future."""
        error = future.cancelled() or future.exception() is not None
        self.stats.record_attached_done(
            time.perf_counter() - start, error=error
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Service counters + latency quantiles + cache occupancy.

        Also merges the planner's per-engine cache sizes and two
        registry snapshots — the process-wide one (engine stage, store,
        plan-/link-cache and estimator series, shared by every engine
        in the process) and this service's own ``repro_service_*``
        instruments, the storage behind the unprefixed keys above.
        """
        snap = self.stats.snapshot()
        snap["cache_size"] = len(self.cache)
        snap["cache_capacity"] = self.cache.capacity
        snap["num_workers"] = self.num_workers
        snap["executor"] = self.executor_kind
        snap["warm_started"] = self.warm_started
        planner = getattr(self.engine, "planner", None)
        if planner is not None:
            snap.update(planner.stats_snapshot())
        snap.update(get_registry().snapshot())
        snap.update(self.stats.registry.snapshot())
        return snap

    def apply_updates(self, ops, log=None) -> dict:
        """Absorb a batch of PEG mutations with versioned invalidation.

        Admission is paused, every in-flight evaluation is drained, and
        only then is the mutation batch applied to the shared engine
        (:meth:`repro.query.engine.QueryEngine.apply_updates`) — graph
        surgery never overlaps an evaluation. The engine's
        ``graph_version`` bump re-keys all subsequent requests, so once
        this method returns no cached or deduplicated pre-mutation
        result can be served again; stale entries age out of the LRU on
        their own. Requests submitted concurrently with the update
        block briefly in admission and then run against (and are cached
        under) the post-update graph.

        Only thread-executor services support live updates: process
        pool workers hold their own warm-started engine copies, which a
        mutation here would silently not reach.
        """
        if self.executor_kind == "process":
            raise ServiceError(
                "live updates require executor='thread': process pool "
                "workers hold independent engine copies"
            )
        with self._apply_lock:
            with self._gate:
                if self._closed:
                    raise ServiceError("service is closed")
                self._applying = True
                pending = [future for future, _ in self._inflight.values()]
            try:
                for future in pending:
                    try:
                        # Holding _apply_lock across the drain IS the
                        # pause; workers never take _apply_lock, and
                        # each future is bounded by its own evaluation.
                        future.result()  # lint-ok: REP211 drain-by-design
                    except Exception:
                        pass  # delivered to its own waiters
                return self.engine.apply_updates(ops, log=log)
            finally:
                with self._gate:
                    self._applying = False
                    self._apply_done.notify_all()

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests and shut the worker pool down.

        Idempotent. Submits racing the close either fail in admission
        with :class:`ServiceError` or — when they reached the executor
        first — run to completion (``wait=True``) or are cancelled and
        resolved with :class:`ServiceError` (``wait=False``). Either
        way the single-flight table is left empty and every registered
        future is completed, so no deduplicated waiter can hang on a
        request that will never run.
        """
        with self._gate:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
        if already:
            return
        self._executor.shutdown(wait=wait, cancel_futures=not wait)
        with self._gate:
            leftover = list(self._inflight.items())
            self._inflight.clear()
        for _key, (future, _order) in leftover:
            self._resolve(
                future,
                exc=ServiceError("service closed before the request completed"),
            )

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryService(workers={self.num_workers}, "
            f"cache={len(self.cache)}/{self.cache.capacity}, "
            f"warm_started={self.warm_started})"
        )
