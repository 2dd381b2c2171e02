"""Worker-scaling benchmark: one worker vs a thread pool vs a process pool.

Not a paper figure — this measures the one thing about the serving
layer (``repro.service``) that ``benchmarks/e2e`` does not: whether
more workers serve a mixed workload of distinct queries faster, and
through which executor. Caching is disabled and every configuration
is warmed with full passes over the workload before the clock starts —
a ``ProcessPoolExecutor`` spawns workers on demand, so a short warm-up
leaves pool processes loading their engines inside the timed drain —
and the figure is the best of three drains (the rule
``bench_build_scaling.py`` uses), so the numbers are steady-state
serving, not process start-up or one scheduler hiccup.

Scaling needs CPUs to scale onto: on a single-core host every ratio is
pinned near 1.0 by hardware, so the assertion — the process pool
out-serves one worker — only applies when >= 2 CPUs are available.
The thread pool is measured alongside, not gated. The CPU count is
recorded with the series.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_service_throughput.py -v``.
"""

import time

import pytest

from benchmarks import harness
from repro.service import QueryService

NUM_REFERENCES = 120
MAX_LENGTH = 2
BETA = 0.1
ALPHA = 0.5
WORKERS = 4
WARMUP_PASSES = 2
TIMED_DRAINS = 3


def _drain_qps(peg, snapshot_dir, workload, workers: int, executor: str) -> float:
    """Queries per second draining ``workload`` submitted all at once."""
    with QueryService.from_snapshot(
        peg, snapshot_dir, num_workers=workers, cache_size=0,
        executor=executor,
    ) as service:
        for _ in range(WARMUP_PASSES):
            service.query_many(workload, ALPHA)
        best = float("inf")
        for _ in range(TIMED_DRAINS):
            start = time.perf_counter()
            service.query_many(workload, ALPHA)
            best = min(best, time.perf_counter() - start)
        return len(workload) / best


def test_worker_scaling(tmp_path):
    peg = harness.synthetic_peg(NUM_REFERENCES)
    snapshot_dir = str(tmp_path / "snapshot")
    QueryService.open(
        peg, snapshot_dir, max_length=MAX_LENGTH, beta=BETA, num_workers=1
    ).close()
    workload = harness.synthetic_queries(
        peg, 3, 2, seeds=range(12)
    ) + harness.synthetic_queries(peg, 4, 4, seeds=range(12))

    cpus = harness.available_cpus()
    single = _drain_qps(peg, snapshot_dir, workload, 1, "thread")
    threads = _drain_qps(peg, snapshot_dir, workload, WORKERS, "thread")
    processes = _drain_qps(peg, snapshot_dir, workload, WORKERS, "process")
    harness.report(
        "service_throughput",
        "measurement  value",
        [
            ("cpus", cpus),
            ("single_worker_qps", round(single, 1)),
            (f"thread_workers_{WORKERS}_qps", round(threads, 1)),
            (f"process_workers_{WORKERS}_qps", round(processes, 1)),
        ],
    )
    if cpus < 2:
        pytest.skip(
            "single-CPU host: worker scaling is hardware-bound (measured "
            f"{single:.0f} qps single, {threads:.0f} thread pool, "
            f"{processes:.0f} process pool)"
        )
    assert processes > single
