"""Per-function summaries the interprocedural checkers consume.

One linear walk per function produces everything downstream analyses
need, each fact tagged with its lexical context:

* **acquisitions** — every lock taken (``with self._lock:`` /
  ``with MODULE_LOCK:`` / ``self._lock.acquire()``), with the locks
  already held at that point (lock-order edges fall straight out);
* **entry locks** — ``# holds-lock: <attr>`` on the ``def`` line:
  locks the *caller* holds for the whole body;
* **blocking sites** — split exactly like :mod:`repro.analysis.imports`:
  event-loop-blocking calls (for ``REP401`` / ``REP410``; a directly
  awaited call is exempt) and unbounded waits (for ``REP211``), each
  with its position and the held-lock context;
* **call sites** — resolved edges with held locks and the exception
  types any enclosing ``try`` would catch;
* **raise sites** — explicit ``raise X(...)`` with the class resolved
  through the file's imports, minus those an enclosing handler of the
  same function already catches.

A ``Condition.wait`` on a condition whose underlying lock is currently
held is *not* an unbounded-wait site: that is the designed
producer/consumer idiom (wait releases the lock), not a hold-and-block.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.core import HOLDS_LOCK_RE, LOOP_ONLY_RE
from repro.analysis.flow.callgraph import CallGraph, FunctionInfo
from repro.analysis.imports import loop_blocking_call, unbounded_wait_call


@dataclass
class Acquisition:
    lock: str
    lineno: int
    held: tuple  # locks already held, outermost first


@dataclass
class BlockingSite:
    lineno: int
    col: int
    desc: str
    held: tuple


@dataclass
class SummaryCall:
    callee: str | None
    lineno: int
    text: str
    held: tuple
    caught: tuple  # resolved exception names enclosing handlers catch


@dataclass
class RaiseSite:
    exc: str  # resolved class id ("builtins.ValueError" / "module.Class")
    lineno: int
    caught: tuple = ()  # enclosing-handler types at the raise


@dataclass
class FunctionSummary:
    fid: str
    info: FunctionInfo
    entry_locks: tuple
    loop_only: bool
    acquisitions: list = field(default_factory=list)
    loop_blocking: list = field(default_factory=list)   # BlockingSite
    unbounded_blocking: list = field(default_factory=list)  # BlockingSite
    calls: list = field(default_factory=list)           # SummaryCall
    raises: list = field(default_factory=list)          # RaiseSite


def summarize(graph: CallGraph) -> dict:
    """``{fid: FunctionSummary}`` for every function in the graph."""
    summaries: dict = {}
    for fid in sorted(graph.functions):
        summaries[fid] = _summarize_one(graph, graph.functions[fid])
    return summaries


def _summarize_one(graph: CallGraph,
                   info: FunctionInfo) -> FunctionSummary:
    comment = info.source.comment_on(info.node.lineno)
    entry_locks = []
    for match in HOLDS_LOCK_RE.finditer(comment):
        lock = graph.lock_id_for_attr(info, match.group("guard"))
        if lock is not None:
            entry_locks.append(lock)
    summary = FunctionSummary(
        fid=info.fid,
        info=info,
        entry_locks=tuple(entry_locks),
        loop_only=bool(LOOP_ONLY_RE.search(comment)),
    )
    walker = _SummaryWalker(graph, info, summary)
    for stmt in info.node.body:
        walker.walk(stmt)
    return summary


class _SummaryWalker:
    """Context-carrying statement walk of one function body.

    ``held`` is the lexical ``with``-lock stack (entry locks excluded —
    checkers add those; they are held at *every* site). ``caught`` is
    the tuple of exception names enclosing ``try`` blocks catch at the
    current position; the empty string stands for a bare ``except:`` /
    ``except Exception`` catch-all.
    """

    def __init__(self, graph: CallGraph, info: FunctionInfo,
                 summary: FunctionSummary) -> None:
        self.graph = graph
        self.info = info
        self.summary = summary
        self._awaited: set = set()

    def walk(self, node: ast.AST, held: tuple = (),
             caught: tuple = ()) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # nested bodies run later, maybe elsewhere
        if isinstance(node, ast.With):
            self._walk_with(node, held, caught)
            return
        if isinstance(node, ast.Try):
            self._walk_try(node, held, caught)
            return
        if isinstance(node, ast.Raise):
            self._record_raise(node, caught)
            # fall through: the exception expression may contain calls
        if isinstance(node, ast.Await) and isinstance(
            node.value, ast.Call
        ):
            self._awaited.add(id(node.value))
        if isinstance(node, ast.Call):
            self._record_call(node, held, caught)
        for child in ast.iter_child_nodes(node):
            self.walk(child, held, caught)

    def _walk_with(self, node: ast.With, held: tuple,
                   caught: tuple) -> None:
        inner = held
        for item in node.items:
            lock = self.graph.lock_id_for(self.info, item.context_expr)
            if lock is not None:
                self.summary.acquisitions.append(
                    Acquisition(lock=lock, lineno=item.context_expr.lineno,
                                held=inner)
                )
                inner = inner + (lock,)
            else:
                self.walk(item.context_expr, inner, caught)
            if item.optional_vars is not None:
                self.walk(item.optional_vars, inner, caught)
        for stmt in node.body:
            self.walk(stmt, inner, caught)

    def _walk_try(self, node: ast.Try, held: tuple,
                  caught: tuple) -> None:
        handled = caught + self._handler_types(node)
        for stmt in node.body:
            self.walk(stmt, held, handled)
        # Handler / else / finally bodies run outside this try's
        # protection — their exceptions see only the outer handlers.
        for handler in node.handlers:
            for stmt in handler.body:
                self.walk(stmt, held, caught)
        for stmt in node.orelse:
            self.walk(stmt, held, caught)
        for stmt in node.finalbody:
            self.walk(stmt, held, caught)

    def _handler_types(self, node: ast.Try) -> tuple:
        types: list = []
        for handler in node.handlers:
            if handler.type is None:
                types.append("")  # bare except: catches everything
            else:
                exprs = (
                    handler.type.elts
                    if isinstance(handler.type, ast.Tuple)
                    else [handler.type]
                )
                for expr in exprs:
                    name = self.graph.exception_id(self.info.module, expr)
                    types.append(name if name is not None else "")
        return tuple(types)

    def _record_call(self, node: ast.Call, held: tuple,
                     caught: tuple) -> None:
        site = self.info.call_for.get(id(node))
        self.summary.calls.append(
            SummaryCall(
                callee=site.callee if site else None,
                lineno=node.lineno,
                text=site.text if site else "<call>()",
                held=held,
                caught=caught,
            )
        )
        loop_msg = loop_blocking_call(
            node, self.info.source.imports,
            awaited=id(node) in self._awaited,
        )
        if loop_msg is not None:
            self.summary.loop_blocking.append(BlockingSite(
                lineno=node.lineno, col=node.col_offset, desc=loop_msg,
                held=held,
            ))
        wait_msg = unbounded_wait_call(node, self.info.source.imports)
        if wait_msg is not None and not self._is_condition_wait(node, held):
            self.summary.unbounded_blocking.append(BlockingSite(
                lineno=node.lineno, col=node.col_offset, desc=wait_msg,
                held=held,
            ))
        self._record_explicit_acquire(node, held)

    def _record_explicit_acquire(self, node: ast.Call,
                                 held: tuple) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr == "acquire"):
            return
        lock = self.graph.lock_id_for(self.info, func.value)
        if lock is not None:
            self.summary.acquisitions.append(
                Acquisition(lock=lock, lineno=node.lineno, held=held)
            )

    def _is_condition_wait(self, node: ast.Call, held: tuple) -> bool:
        """``self._cond.wait()`` while holding the condition's lock.

        That is the designed wait idiom — ``wait`` *releases* the lock
        for the duration — not an unbounded hold-and-block. Entry locks
        count as held here (``# holds-lock:`` helpers wait too).
        """
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "wait"):
            return False
        lock = self.graph.lock_id_for(self.info, func.value)
        if lock is None:
            return False
        return lock in held or lock in self.summary.entry_locks

    def _record_raise(self, node: ast.Raise, caught: tuple) -> None:
        if node.exc is None:
            return  # bare re-raise: the original raise is tracked
        expr = node.exc
        if isinstance(expr, ast.Call):
            expr = expr.func
        exc = self.graph.exception_id(self.info.module, expr)
        if exc is None:
            return  # dynamic exception object: out of scope
        # Whether an enclosing handler catches it is the checker's call
        # (it owns the class hierarchy); record the handler context.
        self.summary.raises.append(
            RaiseSite(exc=exc, lineno=node.lineno, caught=caught)
        )
