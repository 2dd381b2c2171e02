"""Serving metrics: one instrument per event, read back as a view.

:class:`ServiceStats` is the single mutation point for everything the
service observes — cache hits/misses, single-flight deduplications,
evictions, errors, in-flight gauge, request latencies — and stores each
of them exactly once, in a :mod:`repro.obs.metrics` instrument. The
read surface (``hits``, ``completed``, ``requests``, ``snapshot()``,
...) is computed from those instruments; nothing is kept beside them.

The instruments live in a registry the stats object owns, not the
process-wide one: counts are per service (a process may run many).
``QueryService.stats_snapshot()`` merges this registry's ``repro_service_*``
series next to the process-wide ones.

Latency quantiles come from log-bucketed histograms: they cover the
service's whole lifetime and are bucket estimates (see
:class:`~repro.obs.metrics.Histogram`), with successful and failed
requests in separate histograms so overload pathologies show up in the
error quantiles instead of vanishing from the latency picture.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry


def _reading(instrument: str, doc: str) -> property:
    """Read-only attribute: the current value of one instrument."""
    return property(lambda self: getattr(self, instrument).value, doc=doc)


class ServiceStats:
    """Counters and latency quantiles of one query service.

    Thread-safe: every instrument synchronizes its own updates, and
    every derived reading (``requests``, ``hit_rate()``, ``snapshot()``)
    is computed from one set of reads.
    """

    def __init__(self) -> None:
        self.registry = registry = MetricsRegistry()
        self._hits, self._misses, self._dedups = (
            registry.counter("repro_service_requests_total", outcome=outcome)
            for outcome in ("hit", "miss", "dedup")
        )
        # Buckets from 1 us: a cache hit takes a few microseconds.
        self._latency, self._error_latency = (
            registry.histogram(
                "repro_service_request_seconds", low=1e-6, outcome=outcome
            )
            for outcome in ("ok", "error")
        )
        self._shed, self._refused = (
            registry.counter("repro_service_rejected_total", kind=kind)
            for kind in ("shed", "refused")
        )
        self._queue_wait = registry.histogram(
            "repro_service_queue_wait_seconds"
        )
        self._in_flight = registry.gauge("repro_service_in_flight")
        self._attached = registry.counter("repro_service_attached_total")
        self._errors = registry.counter("repro_service_errors_total")
        self._evictions = registry.counter("repro_service_evictions_total")
        self._deadline = registry.counter(
            "repro_service_deadline_exceeded_total"
        )

    # -- recording -----------------------------------------------------

    def record_hit(self, seconds: float) -> None:
        """A request served straight from the result cache."""
        self._hits.inc()
        self._latency.observe(seconds)

    def record_miss(self) -> None:
        """A request that must be evaluated (enters the in-flight set)."""
        self._misses.inc()
        self._in_flight.inc()

    def record_dedup(self) -> None:
        """A request attached to an identical in-flight evaluation.

        Completion is counted separately when the attached evaluation
        resolves (:meth:`record_attached_done`), so ``requests`` and
        ``completed`` converge on a drained service.
        """
        self._dedups.inc()

    def record_queue_wait(self, seconds: float) -> None:
        """Time one evaluation spent queued before a worker picked it up."""
        self._queue_wait.observe(seconds)

    def record_done(self, seconds: float, error: bool = False) -> None:
        """An evaluated request finished (successfully or not).

        Failed requests keep their latency too — in the histogram
        feeding the ``error_latency_*`` quantiles — so overload
        pathologies (errors that are also slow) stay visible.
        """
        self._in_flight.dec()
        if error:
            self._errors.inc()
            self._error_latency.observe(seconds)
        else:
            self._latency.observe(seconds)

    def record_attached_done(self, seconds: float, error: bool = False) -> None:
        """A deduplicated request's attached evaluation resolved.

        Counts the follower's completion and wall-clock latency;
        ``errors`` is deliberately *not* incremented — it counts failed
        evaluations, and the leader already recorded the failure.
        """
        self._attached.inc()
        (self._error_latency if error else self._latency).observe(seconds)

    def record_rejected(self, shed: bool = False) -> None:
        """A request was refused admission (never evaluated).

        ``shed=True`` marks queue-overflow load shedding; ``False``
        covers per-client fairness caps, requests queued at shutdown and
        admission-pause timeouts.
        """
        (self._shed if shed else self._refused).inc()

    def record_deadline_exceeded(self) -> None:
        """A request's deadline expired before its result was produced."""
        self._deadline.inc()

    def record_eviction(self, count: int = 1) -> None:
        """``count`` entries were evicted from the result cache."""
        self._evictions.inc(count)

    # -- reading -------------------------------------------------------

    hits = _reading("_hits", "Requests served from the result cache.")
    misses = _reading("_misses", "Requests that had to be evaluated.")
    deduplicated = _reading(
        "_dedups", "Requests attached to an identical in-flight evaluation."
    )
    attached = _reading(
        "_attached",
        "Deduplicated requests whose attached evaluation has resolved "
        "(each contributes to ``completed``).",
    )
    evictions = _reading("_evictions", "Result-cache entries evicted.")
    errors = _reading("_errors", "Evaluations that failed.")
    shed = _reading(
        "_shed", "Subset of ``rejected`` shed because a bounded queue was full."
    )
    deadline_exceeded = _reading(
        "_deadline",
        "Requests whose deadline expired before a result was produced "
        "(informational; the request still completes as an error or, for "
        "a server-side late reply, as its eventual outcome).",
    )

    @property
    def completed(self) -> int:
        """Requests that produced an answer or an error: every
        completion (hit, evaluation, attached follower) records exactly
        one latency sample, so this is the two histograms' count."""
        return self._latency.count + self._error_latency.count

    @property
    def in_flight(self) -> int:
        return int(self._in_flight.value)

    @property
    def rejected(self) -> int:
        """Requests refused admission (load shedding, per-client caps,
        admission-pause timeouts). They count toward ``requests`` but
        never toward ``completed``."""
        return self._shed.value + self._refused.value

    #: ``snapshot()`` keys that are attributes (``shed`` is read before
    #: ``rejected``, so a concurrent shed never makes it the larger).
    _COUNTS = (
        "hits", "misses", "deduplicated", "attached", "evictions", "errors",
        "completed", "in_flight", "shed", "rejected", "deadline_exceeded",
    )

    @property
    def requests(self) -> int:
        """Total requests observed (hits + misses + dedup + rejected).

        Rejected requests were refused admission, so on a drained
        service the counters reconcile exactly:
        ``requests == completed + rejected``.
        """
        return self._counts()["requests"]

    def hit_rate(self) -> float:
        """Cache hit fraction over admitted requests (0 when idle).

        Rejected requests never reach the cache, so they are excluded
        from the denominator.
        """
        return self._counts()["hit_rate"]

    def _counts(self) -> dict:
        """Every count plus the sums derived from that one set of reads."""
        snap = {name: getattr(self, name) for name in self._COUNTS}
        admitted = snap["hits"] + snap["misses"] + snap["deduplicated"]
        snap["requests"] = admitted + snap["rejected"]
        snap["hit_rate"] = snap["hits"] / admitted if admitted else 0.0
        return snap

    def snapshot(self) -> dict:
        """One dict of every count plus the lifetime latency quantiles."""
        snap = self._counts()
        snap["latency_p50"] = self._latency.quantile(0.50)
        snap["latency_p95"] = self._latency.quantile(0.95)
        snap["error_latency_p50"] = self._error_latency.quantile(0.50)
        snap["error_latency_p95"] = self._error_latency.quantile(0.95)
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServiceStats(requests={self.requests}, hits={self.hits}, "
            f"misses={self.misses}, in_flight={self.in_flight})"
        )
