"""Lock-discipline checker: the ``# guarded-by:`` convention, enforced.

PR 6 fixed ``ServiceStats.requests`` reading a multi-field sum without
its lock — a torn read only visible under thread contention. The fix
was easy; *finding* it was review vigilance. This checker mechanizes
the convention so the next torn read is a CI failure, not a code-review
catch.

Annotation grammar
------------------
An attribute is declared guarded where it is initialized, either with a
trailing comment or a comment block immediately above::

    self.hits = 0  # guarded-by: _lock
    #: guarded-by: _gate
    self._inflight = {}

Two guard kinds:

* ``# guarded-by: <attr>`` — a lock-like object stored on the same
  instance (``threading.Lock``, ``RLock``, ``Condition``). Every other
  read or write of the attribute must sit lexically inside
  ``with self.<attr>:`` (``REP201``), or inside a function whose
  ``def`` line carries ``# holds-lock: <attr>`` — the documented
  "callers hold the lock" contract for private helpers.
* ``# guarded-by: event-loop`` — the attribute is confined to the
  asyncio event loop thread instead of a lock. Touches are legal in
  ``__init__``, in ``async def`` methods (coroutines run on the loop
  by construction), and in sync methods whose ``def`` line carries
  ``# loop-only`` (e.g. ``call_soon_threadsafe`` targets). Anything
  else flags ``REP202``: it might run on a foreign thread.

``__init__`` is exempt for both kinds — no other thread can hold a
reference during construction. A ``guarded-by`` naming a lock attribute
the class never assigns flags ``REP203`` (a typo'd guard silently
protects nothing).

Limits, deliberately accepted: the analysis is lexical, so a lambda or
nested ``def`` created inside a ``with`` block counts as guarded even
though it may execute after release, and locks held by callers are
only visible through ``holds-lock``. Both are documented contracts
rather than inference — which is the point: the annotation *is* the
design record, and the checker keeps the code honest against it.
"""

from __future__ import annotations

import ast
import collections

from repro.analysis.core import (
    GUARDED_BY_RE,
    HOLDS_LOCK_RE,
    LOOP_ONLY_RE,
    Checker,
    SourceFile,
    self_attr,
)

#: Guard spelling for event-loop confinement (no lock object involved).
EVENT_LOOP_GUARD = "event-loop"


def _collect_guards(source: SourceFile, class_node: ast.ClassDef) -> tuple:
    """``({attr: (guard, decl_line)}, assigned)`` of one class's own body.

    One breadth-first pass over the class's nodes that does not enter
    a nested class (each class is checked on its own): the guards its
    ``self.X`` assignments declare, and every ``self.X`` it assigns
    (a guard must name one of those).
    """
    guards: dict = {}
    assigned: set = set()
    queue = collections.deque(ast.iter_child_nodes(class_node))
    while queue:
        node = queue.popleft()
        if isinstance(node, ast.ClassDef):
            continue
        queue.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            attr = self_attr(target)
            if attr is None:
                continue
            assigned.add(attr)
            match = GUARDED_BY_RE.search(source.comment_on(node.lineno))
            if match is None:
                match = GUARDED_BY_RE.search(
                    source.leading_comment_block(node.lineno)
                )
            if match is not None:
                guards[attr] = (match.group("guard"), node.lineno)
    return guards, assigned


class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    codes = {
        "REP201": "guarded attribute touched outside `with self.<lock>`",
        "REP202": "loop-confined attribute touched off the event loop",
        "REP203": "guarded-by names a lock the class never assigns",
    }

    def check(self, source: SourceFile) -> list:
        if "guarded-by" not in source.text:
            return []  # no class here declares a guard
        diagnostics: list = []
        for node in source.nodes(ast.ClassDef):
            diagnostics.extend(self._check_class(source, node))
        return diagnostics

    def _check_class(self, source: SourceFile, class_node: ast.ClassDef) -> list:
        guards, assigned = _collect_guards(source, class_node)
        if not guards:
            return []
        diagnostics: list = []
        for attr, (guard, decl_line) in guards.items():
            if guard != EVENT_LOOP_GUARD and guard not in assigned:
                diagnostics.append(
                    self.diagnostic(
                        source, "REP203", decl_line,
                        f"attribute '{attr}' is guarded-by '{guard}' but "
                        f"the class never assigns self.{guard}",
                    )
                )
        visitor = _ClassVisitor(self, source, class_node, guards)
        for statement in class_node.body:
            visitor.visit(statement)
        diagnostics.extend(visitor.diagnostics)
        return diagnostics


class _ClassVisitor(ast.NodeVisitor):
    """Walks one class body tracking function / with-lock context."""

    def __init__(self, checker, source, class_node, guards) -> None:
        self.checker = checker
        self.source = source
        self.class_node = class_node
        self.guards = guards
        self.diagnostics: list = []
        #: Stack of (func_name, is_async, loop_only, holds_locks).
        self._funcs: list = []
        #: Stack of held lock-attribute names (lexical `with` nesting).
        self._locks: list = []

    # -- context tracking ----------------------------------------------

    def _function_markers(self, node) -> tuple:
        comment = self.source.comment_on(node.lineno)
        holds = {
            m.group("guard") for m in HOLDS_LOCK_RE.finditer(comment)
        }
        loop_only = bool(LOOP_ONLY_RE.search(comment))
        return loop_only, holds

    def _visit_function(self, node, is_async: bool) -> None:
        loop_only, holds = self._function_markers(node)
        self._funcs.append((node.name, is_async, loop_only, holds))
        try:
            self.generic_visit(node)
        finally:
            self._funcs.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, is_async=True)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # A lambda inherits its enclosing context (lexical model).
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # A nested class gets its own _check_class pass; do not
        # double-visit its body here.
        pass

    def _with_locks(self, items) -> list:
        held: list = []
        for item in items:
            attr = self_attr(item.context_expr)
            if attr is not None:
                held.append(attr)
        return held

    def _visit_with(self, node) -> None:
        held = self._with_locks(node.items)
        self._locks.extend(held)
        try:
            self.generic_visit(node)
        finally:
            del self._locks[len(self._locks) - len(held):]

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    # -- the check -----------------------------------------------------

    def _in_init(self) -> bool:
        return bool(self._funcs) and self._funcs[0][0] == "__init__"

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self_attr(node)
        if attr is not None and attr in self.guards and not self._in_init():
            guard, _ = self.guards[attr]
            if guard == EVENT_LOOP_GUARD:
                self._check_loop_confined(node, attr)
            else:
                self._check_lock_guarded(node, attr, guard)
        self.generic_visit(node)

    def _check_lock_guarded(self, node, attr: str, guard: str) -> None:
        if guard in self._locks:
            return
        if any(guard in holds for _, _, _, holds in self._funcs):
            return
        self.diagnostics.append(
            self.checker.diagnostic(
                self.source, "REP201", node.lineno,
                f"'{self.class_node.name}.{attr}' is guarded-by "
                f"'{guard}' but is touched outside `with self.{guard}` "
                f"(add the with block, or mark the enclosing def "
                f"`# holds-lock: {guard}` if callers hold it)",
                col=node.col_offset,
            )
        )

    def _check_loop_confined(self, node, attr: str) -> None:
        if not self._funcs:
            return  # class-body default: construction-time
        _, is_async, loop_only, _ = self._funcs[0]
        if is_async or loop_only:
            return
        self.diagnostics.append(
            self.checker.diagnostic(
                self.source, "REP202", node.lineno,
                f"'{self.class_node.name}.{attr}' is event-loop confined "
                f"but is touched in sync method "
                f"'{self._funcs[0][0]}' with no `# loop-only` marker — "
                "it may run on a foreign thread; dispatch via "
                "call_soon_threadsafe or mark the method",
                col=node.col_offset,
            )
        )
