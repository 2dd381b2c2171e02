"""The analysis runner: discover, parse, check, report, gate.

``run_paths`` is the library surface (the tests drive it directly);
``main`` is the CLI behind both ``python -m repro.analysis`` and
``python -m repro lint``. Exit status: 0 when clean (or when not in
``--strict`` mode), 1 on any unsuppressed diagnostic under
``--strict``, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from repro.analysis.core import (
    AnalysisError,
    Diagnostic,
    ProjectChecker,
    parse_source,
)
from repro.analysis.checkers import all_checkers
from repro.analysis.flow import CallGraph, FlowChecker


def discover_files(paths) -> list:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    found: list = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(dirpath, filename))
    return found


def _parse_files(files) -> tuple:
    """``(sources, diagnostics)``: each file parsed, or one REP001."""
    sources: list = []
    diagnostics: list = []
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            sources.append(parse_source(path, text))
        except (OSError, UnicodeDecodeError, AnalysisError) as exc:
            diagnostics.append(
                Diagnostic(
                    code="REP001",
                    message=f"file could not be analyzed: {exc}",
                    path=path,
                    line=1,
                    checker="runner",
                )
            )
    return sources, diagnostics


def run_paths(paths, checkers=None, select=None) -> "Report":
    """Lint every file under ``paths``; returns a :class:`Report`.

    ``select`` optionally restricts to a set of checker names or
    diagnostic codes (the fixture tests isolate one checker at a
    time with it): a named checker reports every code it has, a named
    code only that code. The flow model (one :class:`CallGraph`) is
    built once, and only when a selected checker is a
    :class:`FlowChecker`.
    """
    # A run allocates every module's tree and drops them together at
    # the end, so a collection during it only re-scans live objects:
    # with the collector paused a run over src/repro took 0.76x as long
    # (median of 12 alternating runs on a 2-CPU host).
    collecting = gc.isenabled()
    gc.disable()
    try:
        checkers = list(checkers) if checkers is not None else all_checkers()
        wanted = set(select or ())
        if wanted:
            checkers = [
                checker for checker in checkers
                if checker.name in wanted or (set(checker.codes) & wanted)
            ]
        files = discover_files(paths)
        sources, diagnostics = _parse_files(files)
        by_path = {source.path: source for source in sources}
        flow = None
        suppressed = 0
        for checker in checkers:
            if isinstance(checker, FlowChecker):
                if flow is None:
                    flow = CallGraph(sources)
                found = checker.check_flow(flow)
            elif isinstance(checker, ProjectChecker):
                found = checker.check_project(sources)
            else:
                found = []
                for source in sources:
                    found.extend(checker.check(source))
            every_code = not wanted or checker.name in wanted
            for diagnostic in found:
                if not (every_code or diagnostic.code in wanted):
                    continue
                source = by_path.get(diagnostic.path)
                if source is not None and source.is_suppressed(
                    diagnostic.code, diagnostic.line
                ):
                    suppressed += 1
                    continue
                diagnostics.append(diagnostic)
        diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.code))
        return Report(
            files_checked=len(files),
            diagnostics=diagnostics,
            suppressed=suppressed,
            checkers=[checker.name for checker in checkers],
        )
    finally:
        if collecting:
            gc.enable()


class Report:
    """Outcome of one analysis run."""

    def __init__(self, files_checked, diagnostics, suppressed, checkers):
        self.files_checked = files_checked
        self.diagnostics = diagnostics
        self.suppressed = suppressed
        self.checkers = checkers

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def codes(self) -> dict:
        """``{code: count}`` over the (unsuppressed) diagnostics."""
        counts: dict = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "checkers": list(self.checkers),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": self.suppressed,
            "counts_by_code": self.codes(),
            "clean": self.clean,
        }

    def render(self) -> str:
        """Human report: one line per finding plus a summary line."""
        lines = [diagnostic.format() for diagnostic in self.diagnostics]
        summary = (
            f"{self.files_checked} files checked, "
            f"{len(self.diagnostics)} finding(s), "
            f"{self.suppressed} suppressed"
        )
        lines.append(summary)
        return "\n".join(lines)


def _write_json(data: dict, destination: str) -> None:
    """Indented, key-sorted JSON to ``destination`` ('-' = stdout)."""
    payload = json.dumps(data, indent=2, sort_keys=True)
    if destination == "-":
        print(payload)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")


def _dump_call_graph(paths, destination: str, strict: bool) -> int:
    """Parse ``paths`` and dump the resolved call graph as JSON.

    A file that cannot be parsed has no nodes; its REP001 goes to
    stderr (and fails the run under ``--strict``).
    """
    sources, errors = _parse_files(discover_files(paths))
    for diagnostic in errors:
        print(diagnostic.format(), file=sys.stderr)
    _write_json(CallGraph(sources).to_dict(), destination)
    return 1 if strict and errors else 0


def _list_codes() -> str:
    lines: list = []
    for checker in all_checkers():
        lines.append(f"{checker.name}:")
        for code in sorted(checker.codes):
            lines.append(f"  {code}  {checker.codes[code]}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=(
            "AST-based invariant linter for the repro codebase: "
            "determinism, lock discipline, cache-key completeness, "
            "asyncio hygiene, error taxonomy, float equality, dead shims."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 if any unsuppressed diagnostic is found (the CI gate)",
    )
    parser.add_argument(
        "--json", metavar="FILE",
        help="also write the machine-readable report to FILE ('-' = stdout)",
    )
    parser.add_argument(
        "--select", action="append", metavar="NAME_OR_CODE",
        help=(
            "run only the named checkers (all their codes) or codes "
            "(only those codes); repeatable"
        ),
    )
    parser.add_argument(
        "--list-codes", action="store_true",
        help="print every diagnostic code with its description and exit",
    )
    parser.add_argument(
        "--call-graph", metavar="FILE", dest="call_graph",
        help=(
            "dump the resolved call graph the flow checkers use as "
            "JSON to FILE ('-' = stdout) and exit"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the human report (useful with --json)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_codes:
        print(_list_codes())
        return 0
    for path in args.paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
    if args.call_graph:
        return _dump_call_graph(args.paths, args.call_graph, args.strict)
    report = run_paths(args.paths, select=args.select)
    if args.json:
        _write_json(report.to_dict(), args.json)
    if not args.quiet:
        print(report.render())
    if args.strict and not report.clean:
        return 1
    return 0
