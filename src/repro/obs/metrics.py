"""Process-wide metrics: counters, gauges, log-bucketed histograms.

:class:`MetricsRegistry` hands out named instruments, optionally
distinguished by labels (``registry.histogram("seconds", stage="lookup")``).
Requesting the same name/labels pair returns the same instrument, so
hot paths can cache a handle once and skip the lookup thereafter.

Latency distributions use logarithmically bucketed histograms: bucket
boundaries grow geometrically, which bounds the *relative* error of any
reported quantile by the growth factor (under 19% with the default
``2**0.25``) while using a few dozen integers of memory — accurate
p50/p95/p99 without reservoir sampling, and mergeable across snapshots.

Two export forms:

- :meth:`MetricsRegistry.snapshot` — a flat ``{key: number}`` dict
  (histograms flattened to ``_count``/``_sum``/``_p50``/``_p95``/
  ``_p99`` entries) that ``QueryService.stats_snapshot()`` merges into
  its existing dict.
- :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition (``# TYPE`` headers, cumulative ``_bucket{le=...}``
  series) for scraping or the ``metrics`` CLI command.

A module-level default registry (:func:`get_registry`) is what the
instrumented layers report into; each
:class:`~repro.service.stats.ServiceStats` owns a private one (its
counts are per service), and tests may construct their own.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]


class Counter:
    """Monotonically increasing count (thread-safe)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self._value = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A value that can go up and down (thread-safe)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0  # guarded-by: _lock
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self):
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Log-bucketed distribution with bounded-relative-error quantiles.

    Bucket boundaries are ``low * growth**i`` up to ``high``; an
    underflow bucket catches values below ``low`` and an overflow
    bucket values above ``high``. Quantiles interpolate linearly within
    the containing bucket, so any reported quantile is within one
    bucket width (a factor of ``growth``) of the true value.
    """

    __slots__ = ("name", "labels", "_bounds", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str, labels: tuple, low: float = 1e-5,
                 high: float = 100.0, growth: float = 2 ** 0.25) -> None:
        if not (low > 0 and high > low and growth > 1.0):
            raise ValueError(
                f"invalid histogram bounds: low={low} high={high} growth={growth}")
        self.name = name
        self.labels = labels
        bounds = []
        edge = float(low)
        while edge <= high * (1 + 1e-12):
            bounds.append(edge)
            edge *= growth
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._min = math.inf  # guarded-by: _lock
        self._max = -math.inf  # guarded-by: _lock
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_right(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile of everything observed (0 if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = max(1, math.ceil(q * self._count))
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= rank:
                    lo = self._bounds[index - 1] if index > 0 else 0.0
                    hi = (self._bounds[index] if index < len(self._bounds)
                          else self._max)
                    lo = max(lo, self._min)
                    hi = max(min(hi, self._max), lo)
                    fraction = (rank - cumulative) / bucket_count
                    return lo + (hi - lo) * fraction
                cumulative += bucket_count
            return self._max  # pragma: no cover - unreachable

    def percentiles(self) -> dict:
        """``{"p50": ..., "p95": ..., "p99": ...}`` estimates."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def bucket_counts(self) -> list:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style."""
        with self._lock:
            pairs = []
            cumulative = 0
            for index, bound in enumerate(self._bounds):
                cumulative += self._counts[index]
                pairs.append((bound, cumulative))
            pairs.append((math.inf, cumulative + self._counts[-1]))
        return pairs

    def _reset(self) -> None:
        with self._lock:
            for index in range(len(self._counts)):
                self._counts[index] = 0
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf


def _label_suffix(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return "{" + inner + "}"


def _prometheus_labels(labels: tuple, extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class MetricsRegistry:
    """Get-or-create home for every instrument in the process.

    Instruments are keyed by ``(name, sorted labels)``; asking twice
    returns the same object, so layers cache handles at import or
    construction time. :meth:`reset` zeroes every instrument *in
    place* — cached handles stay valid across resets (tests and the
    bench harness rely on this).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict = {}  # guarded-by: _lock

    def _get_or_create(self, kind: str, name: str, labels: dict, factory):
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                instrument, existing_kind = existing
                if existing_kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing_kind}")
                return instrument
            instrument = factory(name, key[1])
            self._metrics[key] = (instrument, kind)
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create("counter", name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create("gauge", name, labels, Gauge)

    def histogram(self, name: str, low: float = 1e-5, high: float = 100.0,
                  growth: float = 2 ** 0.25, **labels) -> Histogram:
        return self._get_or_create(
            "histogram", name, labels,
            lambda name, key_labels: Histogram(
                name, key_labels, low=low, high=high, growth=growth))

    def _items(self) -> list:
        with self._lock:
            return sorted(self._metrics.items(), key=lambda item: item[0])

    def snapshot(self) -> dict:
        """Flat ``{key: number}`` dict of every instrument.

        Counter/gauge keys are ``name`` or ``name{label=value}``;
        histograms flatten to ``_count``/``_sum``/``_p50``/``_p95``/
        ``_p99`` suffixed keys.
        """
        snap: dict = {}
        for (name, labels), (instrument, kind) in self._items():
            key = name + _label_suffix(labels)
            if kind == "histogram":
                snap[key + "_count"] = instrument.count
                snap[key + "_sum"] = instrument.sum
                for pct, value in instrument.percentiles().items():
                    snap[f"{key}_{pct}"] = value
            else:
                snap[key] = instrument.value
        return snap

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every instrument."""
        lines: list = []
        seen_types: set = set()
        for (name, labels), (instrument, kind) in self._items():
            if name not in seen_types:
                lines.append(f"# TYPE {name} {kind}")
                seen_types.add(name)
            if kind == "histogram":
                for bound, cumulative in instrument.bucket_counts():
                    le = "+Inf" if math.isinf(bound) else f"{bound:.9g}"
                    label_text = _prometheus_labels(labels, f'le="{le}"')
                    lines.append(f"{name}_bucket{label_text} {cumulative}")
                base = _prometheus_labels(labels)
                lines.append(f"{name}_sum{base} {instrument.sum:.9g}")
                lines.append(f"{name}_count{base} {instrument.count}")
            else:
                label_text = _prometheus_labels(labels)
                value = instrument.value
                if isinstance(value, float):
                    lines.append(f"{name}{label_text} {value:.9g}")
                else:
                    lines.append(f"{name}{label_text} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Zero every instrument in place (handles stay valid)."""
        for _, (instrument, _) in self._items():
            instrument._reset()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every layer reports into."""
    return _REGISTRY
