"""Observability overhead gate: disabled-mode cost must stay under 5%.

The obs subsystem (:mod:`repro.obs`) is threaded through the engine's
hot path: every query resolves an ambient span, creates stage children,
times stages, and records registry metrics. When no tracer is active
all span operations hit the null span and cost roughly one attribute
lookup each — this benchmark verifies that claim against the reduction
workload of :mod:`benchmarks.bench_reduction_core` and fails if the
instrumented-but-disabled path costs more than 5% over the bare one.

Two measurements:

* **macro** — the k-partite reduction loop (build + ``reduce()``) run
  bare, and run the way the engine's default path runs it: the
  ambient-span resolution, one
  :class:`~repro.obs.timing.StageRecorder` stage per name of
  :data:`~repro.obs.timing.STAGES` on the null-span path (with the
  lookup stage's per-partition children), and the engine's own
  registry fold of the recorded seconds. The estimator is the median
  instrumented / bare ratio of ``--repeats`` paired rounds (9 with
  ``--smoke``, 15 otherwise; :func:`benchmarks.paired.paired`), with
  its IQR, range and verdict against the 1.05 bound; the gate fails
  when that median is above 1.05.
* **micro** — nanoseconds per individual obs operation (null-span
  child, ``current_span()``, histogram observe, counter inc), reported
  for context, not gated.

Results are written as machine-readable ``BENCH_obs.json`` (CI uploads
it as a build artifact); with ``--trajectory`` the same report is also
written to ``benchmarks/results/BENCH_obs-v<version>.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --trajectory  # large
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke       # CI
"""

from __future__ import annotations

import os
import sys
import time

if __package__ in (None, ""):  # run as a script: put src/ and the repo root on the path
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from benchmarks import harness
from benchmarks.bench_reduction_core import ALPHA, build_candidate_workload
from benchmarks.paired import describe, paired
from repro import __version__
from repro.obs.metrics import MetricsRegistry
from repro.obs.timing import STAGES, StageRecorder
from repro.obs.trace import NULL_SPAN, current_span
from repro.query.engine import record_query_metrics
from repro.query.reduction import VectorizedKPartiteGraph

#: Overhead gate: instrumented-but-disabled must stay within this
#: factor of the bare loop.
MAX_OVERHEAD = 1.05


def bench_macro(num_nodes: int, rounds: int) -> dict:
    """The reduction loop, obs-layered (B) against bare (A), paired."""
    peg, decomposition, candidates, links, _ = build_candidate_workload(
        num_nodes
    )
    total_vertices = sum(len(c) for c in candidates.values())

    def run_bare() -> None:
        graph = VectorizedKPartiteGraph(
            peg, decomposition, candidates, ALPHA, links=links
        )
        graph.reduce()

    def run_instrumented() -> None:
        recorder = StageRecorder(current_span())
        for stage in STAGES:
            with recorder.stage(stage) as span:
                if stage == "lookup":
                    for i in candidates:
                        with span.child("partition", index=i) as path_span:
                            if path_span.enabled:
                                path_span.set("pruned", len(candidates[i]))
                elif stage == "kpartite":
                    graph = VectorizedKPartiteGraph(
                        peg, decomposition, candidates, ALPHA, links=links
                    )
                elif stage == "reduce":
                    graph.reduce()
                if span.enabled:
                    span.set("stage", stage)
        if recorder.span.enabled:
            recorder.span.set("matches", 0)
        record_query_metrics(recorder, 0)

    overhead = paired(run_bare, run_instrumented, rounds, MAX_OVERHEAD)
    return {
        "total_vertices": total_vertices,
        "bare_seconds": overhead["a"],
        "instrumented_seconds": overhead["b"],
        "overhead_ratio": overhead["median"],
        "overhead": overhead,
    }


def bench_micro(iterations: int) -> dict:
    """Nanoseconds per obs operation."""
    registry = MetricsRegistry()
    histogram = registry.histogram("bench_seconds")
    counter = registry.counter("bench_total")

    def per_op(fn) -> float:
        started = time.perf_counter()
        for _ in range(iterations):
            fn()
        return (time.perf_counter() - started) / iterations * 1e9

    return {
        "iterations": iterations,
        "null_span_child_ns": per_op(lambda: NULL_SPAN.child("stage")),
        "current_span_ns": per_op(current_span),
        "histogram_observe_ns": per_op(lambda: histogram.observe(1e-3)),
        "enabled_counter_inc_ns": per_op(counter.inc),
    }


def main(argv=None) -> int:
    parser = harness.bench_parser(
        __doc__, "BENCH_obs",
        "small CI workload; exit 1 when disabled-mode overhead "
        f"exceeds {MAX_OVERHEAD:.2f}x",
    )
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="override the PEG size (nodes; candidates scale ~4x)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="paired round count"
    )
    args = parser.parse_args(argv)

    # 2500 nodes put ~30k candidate vertices through the reduction —
    # the workload the acceptance gate is defined on.
    num_nodes = args.nodes or (500 if args.smoke else 2500)
    # At least the rounds the gate used to spend in its worst case:
    # three best-of-3 (smoke) or best-of-5 attempts.
    repeats = args.repeats or (9 if args.smoke else 15)

    macro = bench_macro(num_nodes, repeats)
    micro = bench_micro(20_000 if args.smoke else 200_000)

    report = {
        "benchmark": "obs_overhead",
        "repro_version": __version__,
        "mode": "smoke" if args.smoke else "large",
        "workload": {
            "nodes": num_nodes,
            "alpha": ALPHA,
            "repeats": repeats,
            "max_overhead": MAX_OVERHEAD,
        },
        "macro": macro,
        "micro": micro,
    }
    outputs = harness.write_bench(report, args, "BENCH_obs")

    print(
        f"[macro] {macro['total_vertices']} candidate vertices: bare "
        f"{macro['bare_seconds']:.4f}s, instrumented-disabled "
        f"{macro['instrumented_seconds']:.4f}s "
        f"({(macro['overhead_ratio'] - 1) * 100:+.2f}%); instrumented/bare "
        f"{describe(macro['overhead'])}"
    )
    print(
        f"[micro] null-span child {micro['null_span_child_ns']:.0f}ns, "
        f"current_span {micro['current_span_ns']:.0f}ns, histogram "
        f"observe {micro['histogram_observe_ns']:.0f}ns, enabled counter "
        f"inc {micro['enabled_counter_inc_ns']:.0f}ns"
    )
    print("wrote " + ", ".join(outputs))

    if macro["overhead_ratio"] > MAX_OVERHEAD:
        print(
            f"FAIL: disabled-mode obs overhead "
            f"{macro['overhead_ratio']:.3f}x exceeds {MAX_OVERHEAD:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
