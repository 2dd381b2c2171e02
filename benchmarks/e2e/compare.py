"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 benchmarks/e2e/run.py --trace 0 --repeat 10 --out benchmarks/e2e/out/A.json
    python3 benchmarks/e2e/run.py --trace 0 --repeat 10 --out benchmarks/e2e/out/B.json
    python3 benchmarks/e2e/compare.py benchmarks/e2e/out/A.json benchmarks/e2e/out/B.json

For every workload and end-to-end metric this prints A's and B's median,
the ratio B/A with its base, each side's run-to-run spread (distance
between the first and third quartile as a share of the median) and a
verdict against the bound fixed in ``BENCHMARK.json``:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's spread is wider than the bound, so the
  medians cannot settle the question either way;
* ``ok``         — neither.

A is the base (the parent commit, or the first of two sets of runs of
the same code). The exit code is 1 if anything regressed, 2 if nothing
regressed but something is unresolved, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_values(path: str) -> dict:
    """``{(workload, metric): [value per untraced run]}`` of one file."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    values: dict = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(base, other, better: str, bound: float) -> tuple:
    """``(ratio other/base, spread of base, spread of other, verdict)``."""
    base_median = statistics.median(base)
    other_median = statistics.median(other)
    change = (other_median - base_median) / base_median
    worsening = change if better == "lower" else -change
    spreads = spread(base), spread(other)
    if worsening > bound:
        word = "regressed"
    elif max(spreads) > bound:
        word = "unresolved"
    else:
        word = "ok"
    return other_median / base_median, spreads[0], spreads[1], word


def compare(path_a: str, path_b: str, spec: dict) -> list:
    """One row per workload x end-to-end metric present in both files."""
    values_a, values_b = load_values(path_a), load_values(path_b)
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in values_a or key not in values_b:
                continue
            ratio, spread_a, spread_b, word = verdict(
                values_a[key], values_b[key], metric["better"], metric["bound"]
            )
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "a": statistics.median(values_a[key]),
                "b": statistics.median(values_b[key]),
                "runs": (len(values_a[key]), len(values_b[key])),
                "ratio": ratio,
                "spread_a": spread_a,
                "spread_b": spread_b,
                "bound": metric["bound"],
                "verdict": word,
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    rows = compare(argv[0], argv[1], spec)
    print(f"{'workload':14s}{'metric':16s}{'A (base)':>12s}{'B':>12s} unit "
          f"{'B/A':>7s} {'spread A':>9s}{'spread B':>9s}{'bound':>7s} verdict")
    for row in rows:
        print(
            f"{row['workload']:14s}{row['metric']:16s}{row['a']:12.5g}"
            f"{row['b']:12.5g} {row['unit']:5s}{row['ratio']:7.3f} "
            f"{row['spread_a']:9.3f}{row['spread_b']:9.3f}{row['bound']:7.2f} "
            f"{row['verdict']} (n={row['runs'][0]}/{row['runs'][1]})"
        )
    words = {row["verdict"] for row in rows}
    if "regressed" in words:
        return 1
    return 2 if "unresolved" in words else 0


if __name__ == "__main__":
    sys.exit(main())
