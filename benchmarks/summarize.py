"""Summarize ``benchmarks/results/*.txt`` into one report.

Usage::

    python benchmarks/summarize.py            # print to stdout
    python benchmarks/summarize.py --out summary.txt

Each result file is a whitespace-separated series written by
:func:`benchmarks.harness.report` (worker and build scaling); this
script aligns each into a table headed by its file stem. The paper's
Section 6 is ``reproduce.py``'s ``REPRODUCTION.json``, not a series.

Machine-readable benchmark runs (``BENCH_*.json``, e.g. from
``bench_reduction_core.py``) found at the repository root or under
``results/`` are additionally merged into one perf-trajectory table:
one column per run, one row per (flattened) metric.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Captions for machine-readable benchmark families (``BENCH_<family>``
#: stems, version suffixes stripped).
BENCH_CAPTIONS = {
    "BENCH_reduction": "Online-phase core: vectorized vs Python backend",
    "BENCH_links": "Candidate links: vectorized builder and link cache",
    "BENCH_delta": "Live updates: delta overlay vs full rebuild",
    "BENCH_planner": "Planner: plan cache and exact strategy",
    "BENCH_obs": "Observability: disabled-mode overhead and micro-costs",
    "BENCH_net": "Network serving: overload shedding and admitted-p95 gate",
    "BENCH_scale": "Offline build at scale: peak RSS against store bytes",
}


def _format_table(lines: list) -> list:
    """Align whitespace-separated rows into columns."""
    rows = [line.split() for line in lines if line.strip()]
    if not rows:
        return []
    widths = [0] * max(len(row) for row in rows)
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    return [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]


def _flatten(value, prefix: str, row: dict) -> None:
    """Flatten nested dicts into dotted scalar keys (lists are skipped)."""
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(sub, f"{prefix}.{key}" if prefix else str(key), row)
    elif isinstance(value, bool):
        row[prefix] = "yes" if value else "no"
    elif isinstance(value, float):
        row[prefix] = f"{value:.6g}"
    elif isinstance(value, (int, str)):
        row[prefix] = str(value).replace(" ", "_")


def _bench_family(stem: str) -> str:
    """Benchmark family of a run stem (version suffix stripped)."""
    return stem.split("-v")[0]


def bench_trajectory(paths=None) -> str:
    """Merge per-run ``BENCH_*.json`` files into trajectory tables.

    ``paths`` defaults to every ``BENCH_*.json`` at the repository root
    and under ``results/``. Runs are grouped into one table per
    benchmark *family* (``BENCH_delta``, ``BENCH_reduction``, ...;
    captions from :data:`BENCH_CAPTIONS`) so each table's metric rows
    stay dense — columns are that family's runs, rows the union of its
    flattened metric keys, with ``-`` for metrics a run lacks. Returns
    an empty string when no run files exist.
    """
    if paths is None:
        found = []
        for directory in (REPO_ROOT, RESULTS_DIR):
            found.extend(glob.glob(os.path.join(directory, "BENCH_*.json")))
        paths = sorted(set(found), key=os.path.basename)
    families: dict = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except ValueError:
                continue
        row: dict = {}
        _flatten(data, "", row)
        stem = os.path.splitext(os.path.basename(path))[0]
        families.setdefault(_bench_family(stem), []).append((stem, row))
    if not families:
        return ""
    sections = []
    for family in sorted(families):
        runs = families[family]
        caption = BENCH_CAPTIONS.get(family, family)
        metrics = sorted({key for _, row in runs for key in row})
        lines = [" ".join(["metric"] + [label for label, _ in runs])]
        for metric in metrics:
            lines.append(
                " ".join([metric] + [row.get(metric, "-") for _, row in runs])
            )
        body = _format_table(lines)
        sections.append(
            "\n".join([f"== Performance trajectory — {caption}", *body])
        )
    return "\n\n".join(sections)


def summarize(results_dir: str = RESULTS_DIR) -> str:
    """Render every result series into one aligned report string."""
    sections = []
    paths = sorted(glob.glob(os.path.join(results_dir, "*.txt")))
    for path in paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        body = _format_table(lines)
        sections.append("\n".join([f"== {stem}", *body]))
    trajectory = bench_trajectory()
    if trajectory:
        sections.append(trajectory)
    if not sections:
        return "no result series found\n"
    return "\n\n".join(sections) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=None, help="write the summary to a file"
    )
    parser.add_argument(
        "--results", default=RESULTS_DIR, help="results directory"
    )
    args = parser.parse_args(argv)
    text = summarize(args.results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
