"""Unit tests of the observability primitives (repro.obs)."""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    current_span,
    render_trace,
    use_span,
)


class TestSpan:
    def test_context_manager_builds_tree(self):
        with Span("root") as root:
            root.set("alpha", 0.5)
            with root.child("stage") as stage:
                stage.incr("fetches")
                stage.incr("fetches", 2)
        exported = root.to_dict()
        assert exported["name"] == "root"
        assert exported["attributes"]["alpha"] == 0.5
        assert exported["elapsed"] >= 0.0
        (child,) = exported["children"]
        assert child["name"] == "stage"
        assert child["counters"]["fetches"] == 3

    def test_current_span_follows_the_stack(self):
        assert current_span() is NULL_SPAN
        with Span("outer") as outer:
            assert current_span() is outer
            with outer.child("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is NULL_SPAN

    def test_exception_marks_error_and_unwinds(self):
        with pytest.raises(ValueError):
            with Span("boom") as span:
                raise ValueError("nope")
        assert current_span() is NULL_SPAN
        exported = span.to_dict()
        assert exported["status"] == "error"
        assert "ValueError" in exported["attributes"]["exception"]

    def test_begin_finish_lifecycle_without_stack(self):
        span = Span("request").begin()
        assert current_span() is NULL_SPAN  # begin() does not push
        span.finish(error=True)
        assert span.to_dict()["status"] == "error"

    def test_use_span_reattaches_on_another_thread(self):
        span = Span("request").begin()
        seen = {}

        def worker():
            with use_span(span):
                seen["current"] = current_span()
                with span.child("stage"):
                    pass
            seen["after"] = current_span()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["current"] is span
        assert seen["after"] is NULL_SPAN
        span.finish()
        assert [c["name"] for c in span.to_dict()["children"]] == ["stage"]

    def test_null_span_is_inert_and_cheap(self):
        assert not NULL_SPAN
        assert not NULL_SPAN.enabled
        assert NULL_SPAN.child("x") is NULL_SPAN
        NULL_SPAN.set("k", 1)
        NULL_SPAN.incr("c")
        with NULL_SPAN as span:
            assert current_span() is NULL_SPAN
            assert span is NULL_SPAN

    def test_to_json_round_trips(self):
        with Span("root") as root:
            root.set("k", "v")
        parsed = json.loads(root.to_json())
        assert parsed["name"] == "root"
        assert parsed["attributes"]["k"] == "v"


class TestTracer:
    def test_span_nests_under_ambient_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        assert [r.name for r in tracer.roots()] == ["outer"]
        assert [c["name"] for c in outer.to_dict()["children"]] == ["inner"]

    def test_root_retention_is_bounded(self):
        tracer = Tracer(max_roots=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [r.name for r in tracer.roots()] == ["s2", "s3", "s4"]
        tracer.clear()
        assert tracer.roots() == []

    def test_null_tracer_returns_null_span(self):
        assert NULL_TRACER.span("x") is NULL_SPAN
        assert NULL_TRACER.export() == []


class TestRenderTrace:
    def test_renders_tree_with_attrs_and_counters(self):
        with Span("query") as root:
            root.set("alpha", 0.5)
            with root.child("lookup") as lookup:
                lookup.incr("fetches", 2)
                with lookup.child("partition"):
                    pass
            with root.child("match"):
                pass
        text = render_trace(root)
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert "alpha=0.5" in lines[0]
        assert any(l.startswith("|- lookup") and "fetches=2" in l
                   for l in lines)
        assert any("`- partition" in l for l in lines)
        assert lines[-1].startswith("`- match")


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = registry.gauge("g")
        gauge.set(7.0)
        gauge.dec(2.0)
        assert gauge.value == 5.0

    def test_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry()
        assert registry.counter("x", shard="0") is registry.counter(
            "x", shard="0"
        )
        assert registry.counter("x", shard="0") is not registry.counter(
            "x", shard="1"
        )
        with pytest.raises(ValueError):
            registry.gauge("x", shard="0")  # kind conflict

    def test_histogram_quantiles_are_accurate(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", low=1e-4, high=10.0)
        values = [i / 1000.0 for i in range(1, 1001)]  # 1ms .. 1s
        for v in values:
            histogram.observe(v)
        assert histogram.count == 1000
        assert histogram.sum == pytest.approx(sum(values))
        for q, true in ((0.50, 0.5), (0.95, 0.95), (0.99, 0.99)):
            assert histogram.quantile(q) == pytest.approx(true, rel=0.10)
        # log-bucketing keeps relative error far below the gate above
        assert histogram.quantile(0.5) == pytest.approx(0.5, rel=0.02)

    def test_histogram_min_max_clamp(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.observe(0.25)
        assert histogram.quantile(0.0) == pytest.approx(0.25)
        assert histogram.quantile(1.0) == pytest.approx(0.25)

    def test_snapshot_flattens_all_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(2)
        registry.gauge("b", kind="x").set(1.5)
        registry.histogram("c_seconds").observe(0.5)
        snap = registry.snapshot()
        assert snap["a_total"] == 2
        assert snap["b{kind=x}"] == 1.5
        assert snap["c_seconds_count"] == 1
        assert snap["c_seconds_p50"] == pytest.approx(0.5, rel=0.2)

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("req_total", outcome="ok").inc(3)
        registry.histogram("lat_seconds").observe(0.01)
        text = registry.render_prometheus()
        assert "# TYPE req_total counter" in text
        assert 'req_total{outcome="ok"} 3' in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc(3)
        histogram = registry.histogram("h")
        histogram.observe(1.0)
        registry.reset()
        assert counter.value == 0  # same handle, zeroed
        assert histogram.count == 0

    def test_process_registry_is_a_singleton(self):
        assert get_registry() is get_registry()


class TestConcurrency:
    """Satellite: no lost increments, well-formed trees across threads."""

    def test_counter_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("stress_total")
        histogram = registry.histogram("stress_seconds")
        threads, per_thread = 8, 5000

        def hammer():
            for _ in range(per_thread):
                counter.inc()
                histogram.observe(0.001)

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert counter.value == threads * per_thread
        assert histogram.count == threads * per_thread

    def test_span_trees_stay_well_formed_across_worker_pool(self):
        """One request span per task, engine-style children attached from
        pool threads via use_span; every exported tree must contain
        exactly its own children and every stack must unwind clean."""
        tracer = Tracer(max_roots=64)

        def request(i):
            span = tracer.span(f"request-{i}").begin()
            with use_span(span):
                for j in range(3):
                    with current_span().child(f"stage-{j}") as stage:
                        stage.incr("work")
            span.finish()
            assert current_span() is NULL_SPAN
            return span

        with ThreadPoolExecutor(max_workers=6) as pool:
            spans = list(pool.map(request, range(24)))
        assert len(tracer.roots()) == 24
        for i, span in enumerate(spans):
            exported = span.to_dict()
            assert exported["name"] == f"request-{i}"
            assert [c["name"] for c in exported["children"]] == [
                "stage-0", "stage-1", "stage-2"
            ]
            assert all(
                c["counters"]["work"] == 1 for c in exported["children"]
            )
