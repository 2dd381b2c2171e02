"""Error taxonomy: serving layers raise typed errors, never generic ones.

The network tier's whole fault story rests on every failure being
classifiable: :meth:`QueryServer._classify` maps typed
:mod:`repro.utils.errors` exceptions to wire codes, the client decides
retry-vs-fail on the type, and the chaos suite asserts
"correct result or clean typed error". A ``raise Exception(...)``
anywhere in ``repro.service``, ``repro.net`` or the CLI collapses to
``INTERNAL`` on the wire and defeats all of it.

``REP501`` flags ``raise`` statements in those modules whose exception
is one of the generic classes (``Exception``, ``BaseException``,
``RuntimeError``, ``SystemError``). Bare re-raises, typed library
errors, and builtin *contract* errors (``ValueError``/``TypeError``/
``KeyError`` for caller programming mistakes — a deliberate, documented
carve-out) stay legal.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Checker, SourceFile

#: Modules whose raise sites feed the wire-error classification.
SCOPED_MODULE_PREFIXES = (
    "repro.service",
    "repro.net",
    "repro.cli",
)

_GENERIC_EXCEPTIONS = {
    "Exception", "BaseException", "RuntimeError", "SystemError",
}


class ErrorTaxonomyChecker(Checker):
    name = "error-taxonomy"
    codes = {
        "REP501": "generic exception raised in a serving-layer module",
    }

    def check(self, source: SourceFile) -> list:
        if not source.module.startswith(SCOPED_MODULE_PREFIXES):
            return []
        diagnostics: list = []
        for node in source.nodes(ast.Raise):
            if node.exc is None:
                continue
            name = self._raised_name(node.exc)
            if name in _GENERIC_EXCEPTIONS:
                diagnostics.append(
                    self.diagnostic(
                        source, "REP501", node.lineno,
                        f"raise {name} in a serving-layer module is "
                        "unclassifiable on the wire; raise a typed "
                        "repro.utils.errors subclass so clients get a "
                        "meaningful error code",
                        col=node.col_offset,
                    )
                )
        return diagnostics

    @staticmethod
    def _raised_name(exc: ast.AST) -> str | None:
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name):
            return exc.id
        if isinstance(exc, ast.Attribute):
            return exc.attr
        return None
