"""Core data model of the invariant linter.

The analysis framework is deliberately small: a :class:`SourceFile`
is one parsed module, walked once (text, lines, AST, the nodes by type,
import bindings, comment map, suppressions) and read by every checker, a
:class:`Checker` inspects one file at a time, a :class:`ProjectChecker`
inspects the whole parsed corpus at once (for cross-file contracts such
as cache-key completeness), and a :class:`Diagnostic` is one finding
with a stable code and a location. Everything downstream — the runner,
the CLI, the CI gate — consumes only these types.

Suppressions
------------
A finding is suppressed by a ``lint-ok`` comment on the flagged line::

    value = repr(frozenset(labels))  # lint-ok: REP102 stable within a run

``# lint-ok: CODE[,CODE...]`` suppresses exactly those codes on that
line; a bare ``# lint-ok`` (no codes) suppresses every code on the
line. Anything after the code list is free-form justification — a
suppression without a reason is legal but frowned upon in review.
A ``#`` inside a string literal starts no comment (the comment map
skips the spans of the tree's string literals), so ``lint-ok`` inside a
string is never misread as a suppression.
"""

from __future__ import annotations

import ast
import bisect
import collections
import itertools
import re
from dataclasses import dataclass, field

from repro.analysis.imports import ImportMap


#: ``# lint-ok`` / ``# lint-ok: REP101,REP201 reason...``
_SUPPRESS_RE = re.compile(
    r"lint-ok(?:\s*:\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?"
)

#: One string literal, prefix and quotes included.
_STRING_RE = re.compile(
    r"[A-Za-z]*(?:'''[^'\\]*(?:(?:\\.|'(?!''))[^'\\]*)*'''"
    r'|"""[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*"""'
    r"|'[^'\\\n]*(?:\\.[^'\\\n]*)*'"
    r'|"[^"\\\n]*(?:\\.[^"\\\n]*)*")',
    re.S,
)

#: What may separate implicitly concatenated literals.
_GAP_RE = re.compile(r"(?:[ \t\f\n]|\\\n|#[^\n]*)*")

#: The line breaks the parser counts.
_NEWLINE_RE = re.compile(r"\r\n|\r|\n")

#: ``# guarded-by: _lock`` / ``# guarded-by: event-loop``
GUARDED_BY_RE = re.compile(r"guarded-by:\s*(?P<guard>[A-Za-z_][\w-]*)")

#: ``# holds-lock: _lock`` — the function's callers hold the lock.
HOLDS_LOCK_RE = re.compile(r"holds-lock:\s*(?P<guard>[A-Za-z_]\w*)")

#: ``# loop-only`` — a sync method only ever invoked on the event loop.
LOOP_ONLY_RE = re.compile(r"\bloop-only\b")


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a message, and a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    checker: str = ""

    def format(self) -> str:
        """``path:line:col: CODE message`` — the human report line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "checker": self.checker,
        }


@dataclass
class SourceFile:
    """One parsed module, walked once: every checker reads this record."""

    path: str
    text: str
    tree: ast.Module
    #: Dotted module name starting at the ``repro`` package when the
    #: path contains one (``repro.query.engine``), else the bare stem.
    module: str
    #: The physical lines, split on ``\r\n`` / ``\r`` / ``\n`` as the
    #: parser counts them (``lines[n - 1]`` is line ``n``).
    lines: list
    #: line -> comment text (without the leading ``#``).
    comments: dict
    #: line -> set of suppressed codes; the sentinel ``"*"`` means all.
    suppressions: dict
    #: How the module's imports bind local names.
    imports: ImportMap
    #: node type -> nodes of exactly that type, in ``ast.walk`` order.
    _nodes: dict = field(repr=False)

    def nodes(self, *types) -> list:
        """Nodes of exactly these types: type by type in the order given,
        each type's in ``ast.walk`` order."""
        return [node for kind in types for node in self._nodes.get(kind, ())]

    def is_suppressed(self, code: str, line: int) -> bool:
        codes = self.suppressions.get(line)
        if codes is None:
            return False
        return "*" in codes or code in codes

    def comment_on(self, line: int) -> str:
        """The comment on ``line`` ('' when there is none)."""
        return self.comments.get(line, "")

    def leading_comment_block(self, line: int) -> str:
        """Contiguous comment-only lines immediately above ``line``, joined.

        Lets annotations like ``# guarded-by:`` sit on their own line
        above the attribute they describe (the ``#:`` doc-comment
        style) as well as trailing on the same line.
        """
        parts: list = []
        lineno = line - 1
        while lineno >= 1 and lineno <= len(self.lines):
            stripped = self.lines[lineno - 1].strip()
            if not stripped.startswith("#"):
                break
            parts.append(self.comments.get(lineno, stripped.lstrip("#")))
            lineno -= 1
        return "\n".join(reversed(parts))


class AnalysisError(Exception):
    """A file could not be read or parsed (reported, never a crash)."""


def module_name_for(path: str) -> str:
    """Dotted module name anchored at the last ``repro`` path segment.

    Anchoring at ``repro`` makes scoping rules ("applies under
    ``repro.query``") work for both the real tree and test fixtures
    written under any temporary directory, as long as the fixture
    mirrors the package layout (``<tmp>/repro/query/mod.py``).
    """
    parts = path.replace("\\", "/").split("/")
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    if "repro" in parts[:-1]:
        anchor = len(parts) - 1 - parts[:-1][::-1].index("repro") - 1
        dotted = parts[anchor:-1] + [stem]
        return ".".join(dotted)
    return stem


def self_attr(node: ast.AST) -> str | None:
    """``X`` when ``node`` is exactly ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _comment_map(lines: list, nodes: dict) -> dict:
    """line -> comment text, scanning only the lines that hold ``#``.

    On such a line the first ``#`` outside every string literal starts
    the comment. The literals are the spans of the tree's str/bytes
    ``Constant`` and ``JoinedStr`` nodes (column offsets are UTF-8
    bytes).
    """
    hashed = [number for number, line in enumerate(lines, 1) if "#" in line]
    if not hashed:
        return {}
    starts = list(itertools.accumulate(
        (len(line) + 1 for line in lines), initial=0
    ))

    def offset(lineno: int, col: int) -> int:
        line = lines[lineno - 1]
        if not line.isascii():
            col = len(line.encode()[:col].decode())
        return starts[lineno - 1] + col

    # Only the outermost literals: what nests in an f-string lies inside
    # its span (and before Python 3.12 may carry rough positions).
    joined = nodes.get(ast.JoinedStr, [])
    nested = {
        id(inner) for node in joined for inner in ast.walk(node)
        if inner is not node
    }
    strings = [
        node for node in nodes.get(ast.Constant, ())
        if isinstance(node.value, (str, bytes))
    ] + joined
    bounds: list = []
    for node in strings:
        first = bisect.bisect_left(hashed, node.lineno)
        if id(node) not in nested and first < len(hashed) and (
            hashed[first] <= node.end_lineno
        ):
            bounds.append((offset(node.lineno, node.col_offset),
                           offset(node.end_lineno, node.end_col_offset)))
    text = "\n".join(lines)
    spans: list = []
    for start, end in sorted(bounds):
        # Implicitly concatenated literals are one node; what lies
        # between them (whitespace, continuations, comments) is code.
        # Anything else (an f-string that nests its own quotes, PEP 701)
        # leaves the rest of the node as one literal.
        while start < end:
            match = _STRING_RE.match(text, start)
            stop = match.end() if match and match.end() <= end else end
            spans.append((start, stop))
            start = _GAP_RE.match(text, stop).end()
    span_starts = [start for start, _ in spans]
    comments: dict = {}
    for number in hashed:
        line = lines[number - 1]
        col = line.find("#")
        while col >= 0:
            at = starts[number - 1] + col
            index = bisect.bisect_right(span_starts, at) - 1
            if index < 0 or at >= spans[index][1]:
                comments[number] = line[col:].lstrip("#").strip()
                break
            col = line.find("#", col + 1)
    return comments


def _extract_suppressions(comments: dict) -> dict:
    suppressions: dict = {}
    for line, comment in comments.items():
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[line] = {"*"}
        else:
            suppressions[line] = {
                code.strip() for code in codes.split(",") if code.strip()
            }
    return suppressions


def parse_source(path: str, text: str) -> SourceFile:
    """Parse one module into a :class:`SourceFile`, walking it once.

    Raises :class:`AnalysisError` on a syntax error — the runner turns
    that into a regular diagnostic instead of crashing the whole run.
    """
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(
            f"syntax error at line {exc.lineno}: {exc.msg}"
        ) from exc
    nodes: dict = collections.defaultdict(list)
    for node in ast.walk(tree):
        nodes[type(node)].append(node)
    lines = _NEWLINE_RE.split(text)
    comments = _comment_map(lines, nodes)
    return SourceFile(
        path=path,
        text=text,
        tree=tree,
        module=module_name_for(path),
        lines=lines,
        comments=comments,
        suppressions=_extract_suppressions(comments),
        imports=ImportMap(
            nodes.get(ast.Import, []) + nodes.get(ast.ImportFrom, [])
        ),
        _nodes=nodes,
    )


class Checker:
    """Base class of a per-file checker.

    Subclasses set ``name``, declare the ``codes`` they may emit (the
    CLI's ``--list-codes`` and the self-check tests enumerate these)
    and implement :meth:`check`.
    """

    #: Short kebab-case identifier (shows up in reports and --select).
    name: str = ""
    #: ``{code: one-line description}`` of every code this may emit.
    codes: dict = {}

    def check(self, source: SourceFile) -> list:
        raise NotImplementedError

    def diagnostic(self, source: SourceFile, code: str, line: int,
                   message: str, col: int = 0) -> Diagnostic:
        return Diagnostic(
            code=code,
            message=message,
            path=source.path,
            line=line,
            col=col,
            checker=self.name,
        )


class ProjectChecker(Checker):
    """A checker that needs the whole corpus at once (cross-file).

    The runner calls :meth:`check_project` exactly once with every
    parsed file (a flow checker's ``check_flow`` with the run's one
    call graph instead); :meth:`check` is never called.
    """

    def check_project(self, sources: list) -> list:
        raise NotImplementedError
