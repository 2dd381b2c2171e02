"""Per-function facts: one scoped walk records them, a second phase
resolves them.

**The walk.** :func:`walk_body` enters each function body exactly once
and records, in source order, each fact with its lexical context:

* **call sites** — every call, with the enclosing ``with`` items that
  may be locks (``held``), the type expressions of the enclosing
  ``try`` handlers (``caught``) and whether it is directly awaited;
* **acquisitions** — every ``with`` item that may be a lock
  (``with self._lock:`` / ``with MODULE_LOCK:``) and every
  ``x.acquire()`` call, with the candidates already held there;
* **raise sites** — explicit ``raise X(...)`` with the class expression
  and the handler context;
* **attribute assignments** — ``self.x = Cls(...)`` in a method, the
  input of :class:`~repro.analysis.flow.callgraph.CallGraph`'s
  attribute and lock typing. A nested ``def`` runs later, maybe on
  another thread, so its calls are not the function's; its
  assignments still type the class, so the walk collects only those
  there.

**The resolve phase** (:func:`resolve_facts`, run by the graph once
every attribute and lock type is known and every callee resolved)
turns the recorded expressions into ids, over the facts and not the
tree: ``held`` becomes the lock ids among the candidates, outermost
first; ``caught`` the exception ids (``""`` for a bare ``except:`` or
an unresolvable type); acquisitions and raises that name no lock or no
class are dropped. It also reads the ``def`` line's comment —
``# holds-lock: <attr>`` gives the entry locks (held by the *caller*
for the whole body), ``# loop-only`` marks an event-loop entry point —
and classifies each call, exactly like :mod:`repro.analysis.imports`,
as event-loop-blocking (``REP401`` / ``REP410``; a directly awaited
call is exempt) and as an unbounded wait (``REP211``).

A ``Condition.wait`` on a condition whose underlying lock is currently
held is *not* an unbounded wait: that is the designed
producer/consumer idiom (wait releases the lock), not a hold-and-block.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.core import HOLDS_LOCK_RE, LOOP_ONLY_RE, self_attr
from repro.analysis.imports import loop_blocking_call, unbounded_wait_call


@dataclass
class CallSite:
    """One call expression inside a function, with its resolution.

    The walk fills ``held`` and ``caught`` with expressions; the
    resolve phase replaces them with ids and fills the rest.
    """

    node: ast.Call
    lineno: int
    #: Source rendering of the callee expression (for diagnostics).
    text: str
    awaited: bool
    #: Lock ids held at the call (``with`` nesting), outermost first.
    held: tuple
    #: Exception ids enclosing handlers catch (``""``: catches all).
    caught: tuple
    #: Resolved callee function id, or ``None`` (conservative: no edge).
    callee: str | None = None
    #: Why the call blocks an event loop, if it does.
    loop_blocking: str | None = None
    #: Why the call is an unbounded wait, if it is.
    unbounded_wait: str | None = None


@dataclass
class Acquisition:
    lock: object  # the walk's expression, then the resolved lock id
    lineno: int
    held: tuple  # locks already held, outermost first


@dataclass
class RaiseSite:
    exc: object  # the walk's expression, then the resolved class id
    lineno: int
    caught: tuple  # enclosing-handler types at the raise


#: Nodes that hold no call, assignment or raise: two thirds of a body.
_LEAVES = frozenset({ast.Name, ast.Constant, ast.Load, ast.Store})


def _lock_candidate(expr: ast.AST) -> bool:
    """Only ``self.x`` and a bare name can resolve to a lock."""
    return isinstance(expr, ast.Name) or self_attr(expr) is not None


def walk_body(info, assignments: list | None) -> None:
    """The one walk of ``info.node``'s body; see the module docstring.

    ``assignments`` collects ``(attr, value)`` of every
    ``self.attr = Cls(...)`` when ``info`` is a method, else is None.
    """
    walker = _BodyWalker(info, assignments)
    for stmt in info.node.body:
        walker.walk(stmt, (), ())


class _BodyWalker:
    """Context-carrying walk of one function body.

    ``held`` is the lexical stack of ``with`` items that may be locks
    (entry locks excluded — checkers add those; they are held at
    *every* site). ``caught`` is the tuple of type expressions the
    handlers of the enclosing ``try`` blocks name, ``None`` for a bare
    ``except:``.
    """

    def __init__(self, info, assignments: list | None) -> None:
        self.info = info
        self.assignments = assignments
        self._awaited: set = set()

    def walk(self, node: ast.AST, held: tuple, caught: tuple) -> None:
        kind = type(node)
        if kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
            if self.assignments is not None:
                self._nested_assignments(node)
            return  # nested bodies run later, maybe elsewhere
        if kind is ast.Lambda:
            return
        if kind is ast.With:
            self._walk_with(node, held, caught)
            return
        if kind is ast.Try:
            self._walk_try(node, held, caught)
            return
        if kind is ast.Call:
            self._record_call(node, held, caught)
        elif kind is ast.Assign:
            self._record_assign(node)
        elif kind is ast.Raise:
            self._record_raise(node, caught)
        elif kind is ast.Await and type(node.value) is ast.Call:
            self._awaited.add(id(node.value))
        for child in ast.iter_child_nodes(node):
            if type(child) not in _LEAVES:
                self.walk(child, held, caught)

    def _walk_with(self, node: ast.With, held: tuple,
                   caught: tuple) -> None:
        inner = held
        for item in node.items:
            expr = item.context_expr
            self.walk(expr, inner, caught)
            if _lock_candidate(expr):
                self.info.acquisitions.append(
                    Acquisition(lock=expr, lineno=expr.lineno, held=inner)
                )
                inner = inner + (expr,)
            if item.optional_vars is not None:
                self.walk(item.optional_vars, inner, caught)
        for stmt in node.body:
            self.walk(stmt, inner, caught)

    def _walk_try(self, node: ast.Try, held: tuple,
                  caught: tuple) -> None:
        handled = caught + tuple(
            expr
            for handler in node.handlers
            for expr in (
                handler.type.elts if isinstance(handler.type, ast.Tuple)
                else (handler.type,)
            )
        )
        for stmt in node.body:
            self.walk(stmt, held, handled)
        # Handler / else / finally bodies run outside this try's
        # protection — their exceptions see only the outer handlers.
        for handler in node.handlers:
            if handler.type is not None:
                self.walk(handler.type, held, caught)
            for stmt in handler.body:
                self.walk(stmt, held, caught)
        for stmt in node.orelse:
            self.walk(stmt, held, caught)
        for stmt in node.finalbody:
            self.walk(stmt, held, caught)

    def _record_call(self, node: ast.Call, held: tuple,
                     caught: tuple) -> None:
        self.info.calls.append(CallSite(
            node=node, lineno=node.lineno, text=_render_callee(node.func),
            awaited=id(node) in self._awaited, held=held, caught=caught,
        ))
        func = node.func
        if type(func) is ast.Attribute and func.attr == "acquire" and \
                _lock_candidate(func.value):
            self.info.acquisitions.append(
                Acquisition(lock=func.value, lineno=node.lineno, held=held)
            )

    def _record_assign(self, node: ast.Assign) -> None:
        if self.assignments is None or type(node.value) is not ast.Call:
            return
        for target in node.targets:
            attr = self_attr(target)
            if attr is not None:
                self.assignments.append((attr, node.value))

    def _nested_assignments(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if type(child) is ast.Assign:
                self._record_assign(child)
            self._nested_assignments(child)

    def _record_raise(self, node: ast.Raise, caught: tuple) -> None:
        if node.exc is None:
            return  # bare re-raise: the original raise is tracked
        expr = node.exc
        if isinstance(expr, ast.Call):
            expr = expr.func
        self.info.raises.append(
            RaiseSite(exc=expr, lineno=node.lineno, caught=caught)
        )


def resolve_facts(graph, info) -> None:
    """Turn ``info``'s recorded expressions into lock and exception ids.

    Runs after every callee is resolved. Whether an enclosing handler
    catches a raise is the checker's call (it owns the class
    hierarchy); the raise keeps its handler context.
    """
    comment = info.source.comment_on(info.node.lineno)
    info.entry_locks = tuple(
        lock for lock in (
            graph.lock_id_for_attr(info, match.group("guard"))
            for match in HOLDS_LOCK_RE.finditer(comment)
        ) if lock is not None
    )
    info.loop_only = bool(LOOP_ONLY_RE.search(comment))

    def locks(exprs: tuple) -> tuple:
        return tuple(
            lock for lock in (graph.lock_id_for(info, expr) for expr in exprs)
            if lock is not None
        )

    def handlers(exprs: tuple) -> tuple:
        return tuple(
            "" if expr is None
            else graph.exception_id(info.module, expr) or ""
            for expr in exprs
        )

    imports = info.source.imports
    for acq in info.acquisitions:
        acq.lock, acq.held = graph.lock_id_for(info, acq.lock), locks(acq.held)
    info.acquisitions = [acq for acq in info.acquisitions if acq.lock]
    for site in info.calls:
        site.held = locks(site.held)
        site.caught = handlers(site.caught)
        site.loop_blocking = loop_blocking_call(
            site.node, imports, awaited=site.awaited
        )
        wait = unbounded_wait_call(site.node, imports)
        if wait is not None and not _is_condition_wait(graph, info, site):
            site.unbounded_wait = wait
    for site in info.raises:
        site.exc = graph.exception_id(info.module, site.exc)
        site.caught = handlers(site.caught)
    # A dynamic exception object is out of scope.
    info.raises = [site for site in info.raises if site.exc is not None]


def _is_condition_wait(graph, info, site: CallSite) -> bool:
    """``self._cond.wait()`` while holding the condition's lock.

    That is the designed wait idiom — ``wait`` *releases* the lock for
    the duration — not an unbounded hold-and-block. Entry locks count
    as held here (``# holds-lock:`` helpers wait too).
    """
    func = site.node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "wait"):
        return False
    lock = graph.lock_id_for(info, func.value)
    if lock is None:
        return False
    return lock in site.held or lock in info.entry_locks


def _render_callee(func: ast.AST) -> str:
    try:
        return f"{ast.unparse(func)}()"
    except Exception:  # pragma: no cover - unparse is total on exprs
        return "<call>()"
