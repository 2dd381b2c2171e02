"""Worker-scaling benchmark: one worker vs a thread pool vs a process pool.

Not a paper figure — this measures the one thing about the serving
layer (``repro.service``) that ``benchmarks/e2e`` does not: whether
more workers serve a mixed workload of distinct queries faster, and
through which executor. Caching is disabled and every configuration
is warmed with full passes over the workload before the clock starts —
a ``ProcessPoolExecutor`` spawns workers on demand, so a short warm-up
leaves pool processes loading their engines inside the timed drain.

The gate compares the process pool's drain time with one worker's in
three paired rounds (:func:`benchmarks.paired.paired`): the median
ratio, with its IQR, range and verdict against the claim "the process
pool out-serves one worker" (bound 1.0). On a single-core host every
ratio is pinned near 1.0 by hardware, so the assertion (a median below
1.0) only applies when >= 2 CPUs are available; the CPU count is
recorded with the series. The thread pool's row is its fastest of
three drains (:func:`benchmarks.paired.fastest`), not gated.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_service_throughput.py -v``.
"""

import contextlib

import pytest

from benchmarks import harness
from benchmarks.paired import describe, fastest, paired
from repro.service import QueryService

NUM_REFERENCES = 120
MAX_LENGTH = 2
BETA = 0.1
ALPHA = 0.5
WORKERS = 4
WARMUP_PASSES = 2
TIMED_DRAINS = 3


def _drain_side(stack, peg, snapshot_dir, workload, workers: int,
                executor: str):
    """A side of the timer: one drain of ``workload``, submitted all at
    once, on a cache-free service warmed by :data:`WARMUP_PASSES`."""
    service = stack.enter_context(QueryService.from_snapshot(
        peg, snapshot_dir, num_workers=workers, cache_size=0,
        executor=executor,
    ))
    for _ in range(WARMUP_PASSES):
        service.query_many(workload, ALPHA)
    return lambda: service.query_many(workload, ALPHA)


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
    with contextlib.ExitStack() as stack:
        drain = _drain_side(stack, peg, snapshot_dir, workload, WORKERS,
                              "thread")
        threads = len(workload) / fastest(drain, TIMED_DRAINS)
    with contextlib.ExitStack() as stack:
        # The pool forks its workers before the single worker's engine
        # is loaded here, as it did when each configuration ran alone.
        process = _drain_side(stack, peg, snapshot_dir, workload, WORKERS,
                              "process")
        single = _drain_side(stack, peg, snapshot_dir, workload, 1, "thread")
        ratio = paired(single, process, TIMED_DRAINS, 1.0)
    single, processes = len(workload) / ratio["a"], len(workload) / ratio["b"]
    harness.report(
        "service_throughput",
        "measurement  value",
        [
            ("cpus", cpus),
            ("single_worker_qps", round(single, 1)),
            (f"thread_workers_{WORKERS}_qps", round(threads, 1)),
            (f"process_workers_{WORKERS}_qps", round(processes, 1)),
            ("process_over_single_time", round(ratio["median"], 3)),
            ("process_over_single_iqr", "{:.3f}-{:.3f}".format(*ratio["iqr"])),
            ("verdict", ratio["verdict"].replace(" ", "_")),
        ],
    )
    if cpus < 2:
        pytest.skip(
            "single-CPU host: worker scaling is hardware-bound (measured "
            f"{single:.0f} qps single, {threads:.0f} thread pool, "
            f"{processes:.0f} process pool)"
        )
    assert ratio["median"] < 1.0, (
        "the process pool did not out-serve one worker: process/single "
        f"drain time {describe(ratio)}"
    )
