"""Summarize ``benchmarks/results/*.txt`` into one report.

Usage::

    python benchmarks/summarize.py            # print to stdout
    python benchmarks/summarize.py --out summary.txt

Each result file is a whitespace-separated series written by
:func:`benchmarks.harness.report` (worker and build scaling); this
script aligns each into a table headed by its file stem. The paper's
Section 6 is ``reproduce.py``'s ``REPRODUCTION.json``, not a series.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


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
