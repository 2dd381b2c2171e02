"""The one timer of the benchmark harnesses outside ``benchmarks/e2e``.

* :func:`fastest` — the least of ``repeats`` timed calls of one thing.
* :func:`paired` — is B within ``bound`` times A? A and B run in
  interleaved rounds, one call each, the side that goes first
  alternating, so the host's drift lands on both sides of every
  round's ratio instead of on one side of two separate best-ofs. The
  estimator is the median per-round ratio B / A, with its quartiles
  and min-max range. The verdict reads the interquartile range against
  the bound: :data:`HOLDS` when the upper quartile is within it,
  :data:`DOES_NOT_HOLD` when the lower quartile is past it,
  :data:`UNRESOLVED` otherwise. A gate checks the median against its
  bound and prints the verdict beside it (:func:`describe`).

Every round also records its wall / CPU ratio, so a round that was
preempted, or whose clock under-read, stands out among the others.
"""

from __future__ import annotations

import math
import statistics
import time

from benchmarks import harness

HOLDS, DOES_NOT_HOLD, UNRESOLVED = "holds", "does not hold", "unresolved"


def fastest(fn, repeats: int, clock=time.perf_counter) -> float:
    """Least seconds on ``clock`` of ``repeats`` calls of ``fn()``."""
    best = math.inf
    for _ in range(repeats):
        start = clock()
        fn()
        best = min(best, clock() - start)
    return best


def paired(a, b, rounds: int, bound: float, clock=time.perf_counter,
           cpu=time.process_time) -> dict:
    """B against A over ``rounds`` rounds; the claim is B / A <= ``bound``.

    Round ``i`` calls ``a()`` first when ``i`` is even and ``b()`` first
    when it is odd. A call's cost is its seconds on ``clock``, a wall
    clock; ``cpu`` is the CPU clock of each round's wall / CPU ratio.

    Returns a JSON-ready record: ``a`` and ``b`` (each side's median
    cost), ``median``, ``iqr`` and ``range`` of the per-round ratios,
    ``ratios`` and ``wall_cpu`` (one per round), ``rounds``, ``bound``,
    ``cpus`` and ``verdict``.
    """
    if rounds < 1:
        raise ValueError(f"paired needs at least one round, not {rounds}")
    costs = ([], [])
    ratios, wall_cpu = [], []
    for index in range(rounds):
        round_wall = 0.0
        cpu_start = cpu()
        for side in (0, 1) if index % 2 == 0 else (1, 0):
            start = clock()
            (a, b)[side]()
            seconds = clock() - start
            round_wall += seconds
            costs[side].append(seconds)
        round_cpu = cpu() - cpu_start
        cost_a, cost_b = costs[0][-1], costs[1][-1]
        ratios.append(cost_b / cost_a if cost_a else math.inf)
        wall_cpu.append(round_wall / round_cpu if round_cpu else math.inf)
    ordered = sorted(ratios)
    if len(ordered) > 1:
        low, _, high = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        low = high = ordered[0]
    if high <= bound:
        verdict = HOLDS
    elif low > bound:
        verdict = DOES_NOT_HOLD
    else:
        verdict = UNRESOLVED
    return {
        "a": statistics.median(costs[0]),
        "b": statistics.median(costs[1]),
        "median": statistics.median(ordered),
        "iqr": [low, high],
        "range": [ordered[0], ordered[-1]],
        "ratios": ratios,
        "wall_cpu": wall_cpu,
        "rounds": rounds,
        "bound": bound,
        "cpus": harness.available_cpus(),
        "verdict": verdict,
    }


def describe(record: dict) -> str:
    """``median 0.98x (IQR 0.95-1.01, range 0.90-1.04; wall/CPU
    0.99-1.02) of 9 rounds, bound 1x: unresolved``."""
    low, high = record["iqr"]
    least, most = record["range"]
    return (
        f"median {record['median']:.3f}x (IQR {low:.3f}-{high:.3f}, range "
        f"{least:.3f}-{most:.3f}; wall/CPU {min(record['wall_cpu']):.2f}-"
        f"{max(record['wall_cpu']):.2f}) of {record['rounds']} rounds, "
        f"bound {record['bound']:.3g}x: {record['verdict']}"
    )
