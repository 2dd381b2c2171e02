"""Observability threaded through engine, index, delta, and service."""

from __future__ import annotations

import re
import time

import pytest

from tests.conftest import small_random_peg

from repro.delta import AddEdge, UpdateLabelProbability
from repro.obs import STAGES, Tracer, get_registry, render_trace
from repro.obs.trace import current_span
from repro.query.engine import QueryEngine, QueryOptions
from repro.query.query_graph import QueryGraph
from repro.query.topk import top_k_matches
from repro.service.service import QueryService
from repro.utils.errors import ServiceUnavailable


def _chain_query(labels, n=3):
    names = [chr(ord("a") + i) for i in range(n)]
    nodes = {name: labels[i % 2] for i, name in enumerate(names)}
    edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    return QueryGraph(nodes, edges)


def _span_names(trace: dict) -> list:
    """Names of every descendant span, depth first."""
    names = []
    for child in trace["children"]:
        names.append(child["name"])
        names.extend(_span_names(child))
    return names


class TestStageVocabulary:
    def test_timings_metrics_and_spans_share_one_vocabulary(self):
        peg = small_random_peg(seed=11)
        labels = sorted(peg.sigma)
        engine = QueryEngine(peg, max_length=2)
        result = engine.query(
            _chain_query(labels, n=4), 0.2, QueryOptions(trace=True)
        )
        assert result.matches, "the query must reach the match stage"
        assert tuple(result.timings) == STAGES
        stage_labels = {
            match.group(1)
            for key in get_registry().snapshot()
            for match in [
                re.match(r"repro_query_stage_seconds\{stage=(\w+)\}", key)
            ]
            if match
        }
        assert stage_labels == set(STAGES)
        spans = [n for n in _span_names(result.trace) if n != "partition"]
        # One span per stage, in evaluation order.
        assert tuple(spans) == STAGES
        assert result.total_seconds == sum(result.timings.values())
        # The match span says why it cost what it cost.
        match_span = result.trace["children"][-1]
        assert match_span["name"] == "match"
        assert {
            "matches", "frontier_peak", "fallback_rows"
        } <= set(match_span["attributes"])
        assert match_span["attributes"]["frontier_peak"] >= len(result.matches)

    def test_empty_partition_reports_only_the_stages_it_ran(self):
        peg = small_random_peg(seed=11)
        labels = sorted(peg.sigma)
        engine = QueryEngine(peg, max_length=2)
        query = QueryGraph({"a": labels[0], "b": "no-such-label"}, [("a", "b")])
        result = engine.query(query, 0.2, QueryOptions(trace=True))
        assert result.matches == []
        assert result.trace["attributes"]["empty_partition"] is True
        assert tuple(result.timings) == STAGES[:2]
        spans = [n for n in _span_names(result.trace) if n != "partition"]
        assert tuple(spans) == ("plan", "lookup")

    def test_estimate_measurement_is_booked_to_the_lookup_stage(
        self, monkeypatch
    ):
        """Measuring the estimates against the raw counts runs inside
        the ``lookup`` span, and its time reaches ``timings["lookup"]``."""
        peg = small_random_peg(seed=11)
        engine = QueryEngine(peg, max_length=2)
        observe = engine.planner.observe
        spans = []

        def slow_observe(*args):
            spans.append(current_span().name)
            time.sleep(0.05)
            return observe(*args)

        monkeypatch.setattr(engine.planner, "observe", slow_observe)
        result = engine.query(
            _chain_query(sorted(peg.sigma), n=4), 0.2, QueryOptions(trace=True)
        )
        assert spans == ["lookup"]
        assert result.timings["lookup"] >= 0.05
        assert result.timings["plan"] < 0.05
        assert result.total_seconds == sum(result.timings.values())


class TestEstimateMeasurement:
    """``QueryResult.estimate_observations`` and the estimate-error
    histogram report the index's histogram estimates, uncorrected."""

    def test_observations_are_the_histogram_estimates(self):
        peg = small_random_peg(seed=11)
        engine = QueryEngine(peg, max_length=2)
        query = _chain_query(sorted(peg.sigma), n=4)
        result = engine.query(query, 0.2, QueryOptions(trace=True))
        lookup = next(
            c for c in result.trace["children"] if c["name"] == "lookup"
        )
        raw = [
            c["attributes"]["raw"]
            for c in lookup["children"] if c["name"] == "partition"
        ]
        assert len(raw) == len(result.decomposition_paths) > 0
        assert result.estimate_observations == {
            i: (
                engine.index.estimate_cardinality(
                    query.label_sequence(nodes), 0.2
                ),
                raw[i],
            )
            for i, nodes in enumerate(result.decomposition_paths)
        }

    def test_error_histogram_counts_each_observed_partition(self):
        peg = small_random_peg(seed=11)
        engine = QueryEngine(peg, max_length=2)
        query = _chain_query(sorted(peg.sigma), n=4)
        key = "repro_estimate_abs_log2_error_count"
        before = get_registry().snapshot().get(key, 0)
        result = engine.query(query, 0.2)
        after = get_registry().snapshot()[key]
        assert result.estimate_observations
        assert after - before == len(result.estimate_observations)

    def test_root_span_reports_realized_over_estimated_cost(self):
        """A 2-edge path at ``L = 2`` plans as one partition priced at
        its cardinality, so the realized search space over the plan's
        estimate reads near 1, not the ~1e-9 of a degree-0 path priced
        through an epsilon denominator."""
        peg = small_random_peg(seed=11)
        engine = QueryEngine(peg, max_length=2)
        query = _chain_query(sorted(peg.sigma), n=3)
        result = engine.query(query, 0.2, QueryOptions(trace=True))
        assert len(result.decomposition_paths) == 1
        ratio = result.trace["attributes"]["realized_cost_ratio"]
        assert ratio == pytest.approx(
            result.search_space_path / result.plan.estimated_cost, rel=1e-3
        )
        assert 1e-3 < ratio < 1e3
        assert "estimate_abs_log2_err" in result.trace["attributes"]

    def test_below_beta_observes_nothing(self):
        peg = small_random_peg(seed=11)
        engine = QueryEngine(peg, max_length=2, beta=0.1)
        query = _chain_query(sorted(peg.sigma), n=4)
        key = "repro_estimate_abs_log2_error_count"
        before = get_registry().snapshot().get(key, 0)
        result = engine.query(query, 0.05, QueryOptions(trace=True))
        assert result.estimate_observations == {}
        assert get_registry().snapshot().get(key, 0) == before
        assert "estimate_abs_log2_err" not in result.trace["attributes"]


class TestEngineTracing:
    def test_trace_option_exports_stage_tree(self):
        peg = small_random_peg(seed=11)
        labels = sorted(peg.sigma)
        engine = QueryEngine(peg, max_length=2)
        query = _chain_query(labels, n=4)
        result = engine.query(query, 0.2, QueryOptions(trace=True))
        trace = result.trace
        assert trace is not None and trace["name"] == "query"
        assert trace["attributes"]["matches"] == len(result.matches)
        stages = [c["name"] for c in trace["children"]]
        assert stages[0] == "plan"
        assert "lookup" in stages
        lookup = trace["children"][stages.index("lookup")]
        partitions = [c for c in lookup["children"] if c["name"] == "partition"]
        assert len(partitions) == trace["children"][0]["attributes"]["partitions"]
        for p in partitions:
            attributes = p["attributes"]
            assert "labels" in attributes
            assert attributes["raw"] >= attributes["pruned"]
            # Rows dropped by the node tests, then by the pu*cpr bound.
            assert attributes["node_pruned"] >= 0
            assert attributes["path_pruned"] >= 0
            assert attributes["raw"] == (
                attributes["pruned"] + attributes["node_pruned"]
                + attributes["path_pruned"]
            )
            # Stored rows decoded (a palindrome returns each twice).
            assert attributes["raw"] in (
                p["counters"]["paths_decoded"],
                2 * p["counters"]["paths_decoded"],
            )
        if result.matches:
            assert stages[-1] == "match"
        # The reduction starts from both orientations of every link and
        # reports how many survive it.
        link_build = trace["children"][stages.index("link_build")]
        reduce = trace["children"][stages.index("reduce")]
        pairs = link_build["attributes"]["pairs"]
        assert pairs > 0
        assert reduce["attributes"]["links"] == 2 * pairs
        assert 0 <= reduce["attributes"]["links_live"] <= 2 * pairs
        rendered = render_trace(trace)
        assert rendered.splitlines()[0].startswith("query")

    def test_trace_defaults_off_and_matches_are_identical(self):
        peg = small_random_peg(seed=11)
        labels = sorted(peg.sigma)
        engine = QueryEngine(peg, max_length=2)
        query = _chain_query(labels, n=3)
        plain = engine.query(query, 0.2)
        traced = engine.query(query, 0.2, QueryOptions(trace=True))
        assert plain.trace is None
        assert [m.probability for m in plain.matches] == [
            m.probability for m in traced.matches
        ]

    def test_lookup_reports_store_reads(self):
        peg = small_random_peg(seed=5)
        labels = sorted(peg.sigma)
        engine = QueryEngine(peg, max_length=1)
        query = _chain_query(labels, n=3)
        before = get_registry().snapshot().get("repro_store_reads_total", 0)
        result = engine.query(query, 0.3, QueryOptions(trace=True))
        lookup = [
            c for c in result.trace["children"] if c["name"] == "lookup"
        ][0]
        # One range scan per partition, counted on the span and in the
        # registry alike.
        reads = lookup["counters"]["store_reads"]
        partitions = [
            c for c in lookup["children"] if c["name"] == "partition"
        ]
        assert reads == len(partitions) > 0
        assert lookup["counters"]["store_bytes_read"] > 0
        after = get_registry().snapshot()["repro_store_reads_total"]
        assert after - before == reads

    def test_query_metrics_recorded_in_registry(self):
        registry = get_registry()
        before = registry.snapshot().get("repro_queries_total", 0)
        peg = small_random_peg(seed=3)
        labels = sorted(peg.sigma)
        engine = QueryEngine(peg, max_length=1)
        engine.query(_chain_query(labels, n=3), 0.3)
        snap = registry.snapshot()
        assert snap["repro_queries_total"] == before + 1
        assert snap["repro_query_seconds_count"] >= 1
        assert snap["repro_query_stage_seconds{stage=reduce}_count"] >= 1

    def test_topk_probes_appear_under_trace(self):
        peg = small_random_peg(seed=13)
        labels = sorted(peg.sigma)
        engine = QueryEngine(peg, max_length=1)
        tracer = Tracer()
        with tracer.span("topk_session"):
            matches = top_k_matches(
                engine, _chain_query(labels, n=3), k=3, start_alpha=0.9
            )
        (root,) = tracer.roots()
        topk_spans = [
            c for c in root.to_dict()["children"] if c["name"] == "topk"
        ]
        assert topk_spans and topk_spans[0]["counters"]["probes"] >= 1
        assert len(matches) <= 3


class TestDeltaMetrics:
    def test_apply_and_compact_report_into_registry(self):
        registry = get_registry()
        before = registry.snapshot()
        peg = small_random_peg(seed=21)
        labels = sorted(peg.sigma)
        engine = QueryEngine(peg, max_length=1)
        entity = engine.peg.entities[0]
        refs = tuple(sorted(entity, key=repr))
        summary = engine.apply_updates(
            [UpdateLabelProbability(refs, {labels[0]: 0.6, labels[1]: 0.4})]
        )
        snap = registry.snapshot()
        assert (
            snap["repro_delta_ops_applied_total"]
            == before.get("repro_delta_ops_applied_total", 0) + 1
        )
        # What the batch cost and what the overlay holds, as counts:
        # the summary, the counter and the gauge read the same numbers.
        assert summary["enumerated_paths"] > 0
        assert (
            snap["repro_delta_enumerated_paths_total"]
            == before.get("repro_delta_enumerated_paths_total", 0)
            + summary["enumerated_paths"]
        )
        assert summary["delta_paths"] == engine.index.delta_path_count() > 0
        assert snap["repro_delta_paths"] == summary["delta_paths"]
        assert engine.index.stats()["delta_paths"] == summary["delta_paths"]
        assert snap["repro_delta_apply_seconds_count"] >= 1
        assert snap["repro_delta_absorb_seconds_count"] >= 1
        engine.compact_updates()
        snap = registry.snapshot()
        assert snap["repro_delta_compact_seconds_count"] >= 1
        assert snap["repro_delta_dirty_nodes"] == 0


class TestServiceObservability:
    def test_request_spans_nest_engine_stages(self):
        peg = small_random_peg(seed=7)
        labels = sorted(peg.sigma)
        engine = QueryEngine(peg, max_length=1)
        tracer = Tracer()
        with QueryService(engine, num_workers=2, tracer=tracer) as service:
            query = _chain_query(labels, n=3)
            service.query(query, 0.3)  # miss
            service.query(query, 0.3)  # hit
        spans = [r.to_dict() for r in tracer.roots()]
        outcomes = sorted(s["attributes"]["outcome"] for s in spans)
        assert outcomes == ["cache", "miss"]
        miss = [s for s in spans if s["attributes"]["outcome"] == "miss"][0]
        assert "queue_wait_ms" in miss["attributes"]
        (engine_span,) = miss["children"]
        assert engine_span["name"] == "query"
        assert {c["name"] for c in engine_span["children"]} >= {
            "plan", "lookup"
        }

    def test_request_span_is_finished_when_admission_raises(self):
        # Regression: submit() began the span, _admit raised, and the
        # span stayed open forever (end=None, status "ok", elapsed
        # still growing in every export).
        engine = QueryEngine(small_random_peg(seed=7), max_length=1)
        tracer = Tracer()
        with QueryService(
            engine, num_workers=1, tracer=tracer, max_admission_wait=0.05
        ) as service:
            with pytest.raises(AttributeError):  # fails inside request_key
                service.submit(object(), 0.3)
            with service._gate:
                service._applying = True  # a live update holds the gate
            with pytest.raises(ServiceUnavailable):
                service.submit(_chain_query(sorted(engine.peg.sigma)), 0.3)
            with service._gate:
                service._applying = False
        malformed, refused = tracer.roots()
        for span in (malformed, refused):
            assert span.end is not None and span.status == "error"
        assert refused.attributes["outcome"] == "unavailable"
        first = [s["elapsed"] for s in tracer.export()]
        assert [s["elapsed"] for s in tracer.export()] == first

    def test_stats_snapshot_merges_registry_series(self):
        peg = small_random_peg(seed=7)
        labels = sorted(peg.sigma)
        engine = QueryEngine(peg, max_length=1)
        with QueryService(engine, num_workers=1) as service:
            service.query(_chain_query(labels, n=3), 0.3)
            snap = service.stats_snapshot()
        assert snap["requests"] == 1
        assert snap["repro_service_requests_total{outcome=miss}"] >= 1
        assert snap["repro_service_queue_wait_seconds_count"] >= 1
        assert "repro_queries_total" in snap
