"""Determinism checkers: hash-order and hidden-entropy hazards.

The reproduction's core contract is bit-exact, ``PYTHONHASHSEED``-
independent output: the vectorized and reference backends must agree,
match lists must sort identically across processes, and cache keys must
be stable. Three recurring ways that contract has been broken by hand
before tooling existed (PR 5 fixed a hash-order ``frozenset`` repr in
the exact-cover tie-break; PR 4 fixed ``top_k_matches`` trusting
set-iteration emission order):

``REP101``
    Iterating a set (literal, comprehension, or ``set()``/
    ``frozenset()`` call) in a position where the iteration order can
    escape — a ``for`` loop, a comprehension, or an order-preserving
    conversion (``list``/``tuple``/``iter``/``enumerate``/``join``).
    Hash randomization makes that order differ between processes.
    Wrap the iterable in ``sorted(...)`` or restructure.

``REP102``
    ``repr()`` / ``str()`` of a set or frozenset expression. The
    rendering follows hash order, so using it as a sort key, cache-key
    component or stored artifact is nondeterministic across processes.

``REP103``
    Module-level ``random.*`` (process-global, unseeded RNG) or wall
    clock (``time.time`` / ``time.time_ns``) inside pure query logic
    (``repro.query``, ``repro.pgm``, ``repro.pgd``, ``repro.peg``,
    ``repro.index``, ``repro.relational``, ``repro.delta``). Pure
    stages must be replayable: take a seeded ``random.Random`` and use
    monotonic clocks for timing.

Only syntactically evident sets are flagged — a variable that happens
to hold a set is beyond a single-file AST pass. That keeps the checker
free of false positives at the cost of missed cases; the differential
harness remains the backstop for those.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Checker, SourceFile

#: Modules whose logic must be a pure function of (graph, query, seed).
PURE_MODULE_PREFIXES = (
    "repro.query",
    "repro.pgm",
    "repro.pgd",
    "repro.peg",
    "repro.index",
    "repro.relational",
    "repro.delta",
)

#: Order-preserving consumers: feeding them a set leaks hash order.
_ORDER_SENSITIVE_BUILTINS = {"list", "tuple", "iter", "enumerate"}

#: Global-RNG entry points on the ``random`` module.
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "normalvariate",
    "betavariate", "expovariate", "seed",
}

_WALL_CLOCK_FNS = {"time", "time_ns"}


def is_set_expression(node: ast.AST) -> bool:
    """Is ``node`` syntactically guaranteed to evaluate to a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    return False


class DeterminismChecker(Checker):
    name = "determinism"
    codes = {
        "REP101": "iteration over a set leaks hash order into emitted order",
        "REP102": "repr()/str() of a set is hash-order dependent",
        "REP103": "unseeded global RNG or wall clock in pure query logic",
    }

    def check(self, source: SourceFile) -> list:
        found: list = []

        def flag(code: str, node: ast.AST, message: str) -> None:
            found.append(self.diagnostic(
                source, code, node.lineno, message, col=node.col_offset,
            ))

        # REP101: a set feeding a loop or an order-keeping comprehension
        # (a set comprehension's output is itself a set: its generator's
        # order cannot escape).
        loops = {ast.For: "for loop", ast.AsyncFor: "async for loop"}
        iterables = [
            (node.iter, context)
            for kind, context in loops.items() for node in source.nodes(kind)
        ] + [
            (generator.iter, "comprehension")
            for node in source.nodes(ast.ListComp, ast.GeneratorExp,
                                     ast.DictComp)
            for generator in node.generators
        ]
        for iterable, context in iterables:
            if is_set_expression(iterable):
                flag(
                    "REP101", iterable,
                    f"{context} iterates a set in hash order; wrap it in "
                    "sorted(...) so the order is PYTHONHASHSEED-independent",
                )
        pure = source.module.startswith(PURE_MODULE_PREFIXES)
        for node in source.nodes(ast.Call):
            self._check_call(node, pure, flag)
        return found

    @staticmethod
    def _check_call(node: ast.Call, pure: bool, flag) -> None:
        """REP101 conversions, REP102 repr, REP103 entropy."""
        func = node.func
        if isinstance(func, ast.Name):
            if (
                func.id in _ORDER_SENSITIVE_BUILTINS
                and node.args
                and is_set_expression(node.args[0])
            ):
                flag(
                    "REP101", node,
                    f"{func.id}() of a set preserves hash order; use "
                    "sorted(...) for a stable order",
                )
            elif func.id in ("repr", "str", "format") and node.args and (
                is_set_expression(node.args[0])
            ):
                flag(
                    "REP102", node,
                    f"{func.id}() of a set renders in hash order and is "
                    "not stable across processes; sort the elements and "
                    "render those",
                )
        elif isinstance(func, ast.Attribute):
            if (
                func.attr == "join"
                and node.args
                and is_set_expression(node.args[0])
            ):
                flag(
                    "REP101", node,
                    "join() over a set emits elements in hash order; "
                    "join(sorted(...)) instead",
                )
            elif pure and isinstance(func.value, ast.Name):
                base = func.value.id
                if base == "random" and func.attr in _GLOBAL_RANDOM_FNS:
                    flag(
                        "REP103", node,
                        f"random.{func.attr}() uses the process-global "
                        "RNG; pure query logic must take a seeded "
                        "random.Random so runs are replayable",
                    )
                elif base == "time" and func.attr in _WALL_CLOCK_FNS:
                    flag(
                        "REP103", node,
                        f"time.{func.attr}() reads the wall clock inside "
                        "pure query logic; use time.monotonic()/"
                        "perf_counter() for intervals or pass timestamps in",
                    )
