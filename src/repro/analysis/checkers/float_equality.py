"""Float equality in probability code: one rounding rule, no ``==``.

Probabilities in this reproduction flow through one quantization rule —
``milli`` (:mod:`repro.index.grid`) — precisely because exact float
comparison at bucket boundaries mis-classified ``alpha == beta == 0.7``
in PR 4. Comparing probabilities with ``==``/``!=`` against a fractional
literal reintroduces that bug class: ``0.7`` is not representable, so
whether ``p == 0.7`` holds depends on the arithmetic path that produced
``p``.

``REP601`` flags equality comparisons against fractional float literals
in the probability-bearing modules (``repro.pgm``, ``repro.pgd``,
``repro.peg``, ``repro.query``, ``repro.index``, ``repro.relational``,
``repro.delta``). Comparisons against ``0.0`` / ``1.0`` / ``-1.0``
stay legal — they are exactly representable and the idiomatic guards
for "impossible" / "certain" / sentinel. Thresholding (``<``, ``>=``)
is untouched. Where exact bit equality *is* the contract (differential
assertions), say so with ``# lint-ok: REP601 <why>``.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Checker, SourceFile

SCOPED_MODULE_PREFIXES = (
    "repro.pgm",
    "repro.pgd",
    "repro.peg",
    "repro.query",
    "repro.index",
    "repro.relational",
    "repro.delta",
)

_EXACT_FLOATS = {0.0, 1.0, -1.0}


def _fractional_float(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return node.value not in _EXACT_FLOATS
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, float)
    ):
        return node.operand.value not in _EXACT_FLOATS
    return False


class FloatEqualityChecker(Checker):
    name = "float-equality"
    codes = {
        "REP601": "float equality against a fractional literal in "
                  "probability code",
    }

    def check(self, source: SourceFile) -> list:
        if not source.module.startswith(SCOPED_MODULE_PREFIXES):
            return []
        diagnostics: list = []
        for node in source.nodes(ast.Compare):
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(
                node.ops, operands[:-1], operands[1:]
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _fractional_float(left) or _fractional_float(right):
                    diagnostics.append(
                        self.diagnostic(
                            source, "REP601", node.lineno,
                            "equality against a fractional float literal "
                            "is representation-dependent; compare through "
                            "the milli rounding rule or use an explicit "
                            "tolerance",
                            col=node.col_offset,
                        )
                    )
                    break
        return diagnostics
