"""Core data model of the invariant linter.

The analysis framework is deliberately small: a :class:`SourceFile`
wraps one parsed module (text, AST, comment map, suppressions), a
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
Suppression comments are extracted with :mod:`tokenize`, so ``lint-ok``
inside string literals is never misread as a suppression.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field


#: ``# lint-ok`` / ``# lint-ok: REP101,REP201 reason...``
_SUPPRESS_RE = re.compile(
    r"lint-ok(?:\s*:\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?"
)

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
    """One parsed module plus everything checkers need to inspect it."""

    path: str
    text: str
    tree: ast.Module
    #: Dotted module name starting at the ``repro`` package when the
    #: path contains one (``repro.query.engine``), else the bare stem.
    module: str
    #: line -> comment text (without the leading ``#``), via tokenize.
    comments: dict = field(default_factory=dict)
    #: line -> set of suppressed codes; the sentinel ``"*"`` means all.
    suppressions: dict = field(default_factory=dict)

    @property
    def lines(self) -> list:
        return self.text.splitlines()

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
        source_lines = self.lines
        while lineno >= 1 and lineno <= len(source_lines):
            stripped = source_lines[lineno - 1].strip()
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


def _extract_comments(text: str) -> dict:
    """line -> comment text, tolerant of tokenize failures."""
    comments: dict = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string.lstrip("#").strip()
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
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
    """Parse one module into a :class:`SourceFile`.

    Raises :class:`AnalysisError` on a syntax error — the runner turns
    that into a regular diagnostic instead of crashing the whole run.
    """
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(
            f"syntax error at line {exc.lineno}: {exc.msg}"
        ) from exc
    comments = _extract_comments(text)
    return SourceFile(
        path=path,
        text=text,
        tree=tree,
        module=module_name_for(path),
        comments=comments,
        suppressions=_extract_suppressions(comments),
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

    def check(self, source: SourceFile) -> list:  # pragma: no cover
        return []

    def check_project(self, sources: list) -> list:
        raise NotImplementedError
