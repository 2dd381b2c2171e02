"""Interprocedural flow analysis over the AST linter framework.

The per-file checkers see one function at a time; this package links
them together. :mod:`callgraph` resolves calls between ``repro``
functions (``self.method()``, module-level names, cross-module
attributes, constructor calls, and ``self.attr.method()`` through
inferred attribute types — conservative everywhere else) and indexes
every coroutine, however deeply nested; :mod:`summaries` walks each
function body once, recording the facts the checkers consume (call
sites, lock regions, raise sites, handler context), and resolves them
once the graph knows every attribute and lock type. That graph is the
run's one flow model: the runner builds it once and :mod:`checkers`
runs three whole-program analyses on top:

* ``REP210``/``REP211`` — global lock-acquisition-order cycles and
  unbounded waits while holding a lock;
* ``REP401``/``REP410`` — an event-loop-blocking call in a coroutine's
  own body, or reachable from a coroutine through sync calls (with the
  offending chain in the diagnostic);
* ``REP510`` — untyped exceptions escaping from the engine layers into
  ``repro.net`` handlers.
"""

from __future__ import annotations

from repro.analysis.flow.callgraph import CallGraph, FunctionInfo
from repro.analysis.flow.checkers import (
    ErrorEscapeChecker,
    FlowChecker,
    LockFlowChecker,
    TransitiveBlockingChecker,
)
from repro.analysis.flow.summaries import CallSite

__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "FlowChecker",
    "LockFlowChecker",
    "TransitiveBlockingChecker",
    "ErrorEscapeChecker",
]
