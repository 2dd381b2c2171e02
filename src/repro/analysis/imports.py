"""Per-file import-alias resolution and the shared blocking-call model.

The flow layer (:mod:`repro.analysis.flow`) needs to answer "what
does this call expression actually invoke?" for every blocking-call
and call-graph rule. Matching blocking calls on the ``module.attr``
spelling alone lets ``from time import sleep`` or ``import time as
t`` slip straight past. :class:`ImportMap` closes that hole once:
built once per module when the file is parsed (it is
``SourceFile.imports``), it records how each local name was bound by
the file's imports, and resolves call expressions back to
``(module, attribute)`` pairs.

The blocking-call model is split in two deliberately:

* :data:`LOOP_BLOCKING_MODULE_CALLS` / :data:`LOOP_BLOCKING_BUILTINS`
  — anything that stalls an event loop, including *bounded* file I/O
  (``open``, ``os.read``). Used by ``REP401`` (direct) and ``REP410``
  (transitive): on the loop, even a 10ms disk read is a regression.
* :data:`UNBOUNDED_WAIT_METHODS` plus the unbounded subset of the
  module calls — operations with no intrinsic bound (``time.sleep``,
  ``Future.result()``, ``thread.join()``, ``queue.get()``,
  ``event.wait()`` with no timeout). Used by ``REP211`` (blocking
  while holding a lock): bounded I/O under a lock is how storage
  engines work, but an unbounded wait under a lock is a deadlock
  ingredient.

Method-shape matches (``.result()`` with no arguments, ``.join()`` /
``.wait()`` / ``.get()`` with no arguments) are name-based heuristics:
they may hit a non-future / non-queue. That is what per-line
``# lint-ok`` suppressions are for — the suppression doubles as a
reviewer-visible claim that the call cannot block. Calls that are
directly ``await``-ed are exempt from the shape rules (``await
event.wait()`` is the *correct* asyncio spelling, not a block).
"""

from __future__ import annotations

import ast


#: Calls that stall the event loop (module.attr form, post-alias).
LOOP_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"): "time.sleep blocks the event loop; await "
                       "asyncio.sleep(...) instead",
    ("os", "read"): "os.read blocks the event loop; move file I/O to a "
                    "thread (asyncio.to_thread)",
    ("os", "write"): "os.write blocks the event loop; move file I/O to a "
                     "thread (asyncio.to_thread)",
    ("socket", "create_connection"): "blocking socket dial inside a "
                                     "coroutine; use asyncio streams",
    ("socket", "socket"): "raw socket construction inside a coroutine; "
                          "use asyncio streams",
    ("subprocess", "run"): "blocking subprocess call in a coroutine; use "
                           "asyncio.create_subprocess_exec",
    ("subprocess", "call"): "blocking subprocess call in a coroutine; use "
                            "asyncio.create_subprocess_exec",
    ("subprocess", "check_output"): "blocking subprocess call in a "
                                    "coroutine; use "
                                    "asyncio.create_subprocess_exec",
    ("subprocess", "Popen"): "blocking subprocess call in a coroutine; "
                             "use asyncio.create_subprocess_exec",
}

#: Builtins that stall the event loop.
LOOP_BLOCKING_BUILTINS = {
    "open": "open() blocks the event loop on disk latency; do file I/O "
            "via asyncio.to_thread",
    "input": "input() blocks the event loop indefinitely",
}

#: Module calls with no intrinsic time bound (the lock-holding set).
UNBOUNDED_MODULE_CALLS = {
    ("time", "sleep"): "time.sleep",
    ("subprocess", "run"): "subprocess.run",
    ("subprocess", "call"): "subprocess.call",
    ("subprocess", "check_output"): "subprocess.check_output",
    ("socket", "create_connection"): "socket.create_connection",
}

#: ``obj.<name>()`` with NO arguments: an unbounded wait by shape.
#: (``future.result(0)``, ``thread.join(timeout)``, ``queue.get(False)``
#: and ``",".join(parts)`` all carry arguments and never match.)
UNBOUNDED_WAIT_METHODS = {
    "result": ".result() with no timeout waits on a future indefinitely",
    "join": ".join() with no timeout waits on a thread indefinitely",
    "wait": ".wait() with no timeout waits on an event indefinitely",
    "get": ".get() with no timeout waits on a queue indefinitely",
}


class ImportMap:
    """How one module's imports bind local names.

    Built from a module's ``Import`` / ``ImportFrom`` nodes; answers
    two questions:

    * :meth:`module_of` — is this bare name an alias of a module
      (``import time as t`` binds ``t``)?
    * :meth:`origin_of` — was this bare name imported *from* a module
      (``from time import sleep as snooze`` binds ``snooze`` to
      ``("time", "sleep")``)?

    ``import a.b.c`` binds only the top name ``a`` (to module ``a``),
    matching Python's own binding rule; ``import a.b.c as abc`` binds
    ``abc`` to ``a.b.c``.
    """

    def __init__(self, nodes) -> None:
        #: local alias -> dotted module name
        self.modules: dict = {}
        #: local name -> (module, original attribute name)
        self.names: dict = {}
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.modules[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".", 1)[0]
                        self.modules[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports: out of scope
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.names[local] = (node.module, alias.name)

    def module_of(self, name: str) -> str | None:
        """Dotted module name a bare local name aliases, or ``None``."""
        return self.modules.get(name)

    def origin_of(self, name: str) -> tuple | None:
        """``(module, attr)`` a from-import bound to ``name``, or None."""
        return self.names.get(name)

    def resolve_call(self, func: ast.AST) -> tuple | None:
        """``(module, attr)`` a call expression ultimately invokes.

        Handles the three spellings import aliasing produces::

            time.sleep(...)      # Attribute on a module alias
            t.sleep(...)         # import time as t
            sleep(...)           # from time import sleep [as ...]

        Returns ``None`` for anything else (method calls on objects,
        locals, builtins) — those are the callers' problem.
        """
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            module = self.module_of(func.value.id)
            if module is not None:
                return (module, func.attr)
            return None
        if isinstance(func, ast.Name):
            return self.origin_of(func.id)
        return None


def _resolve_with_spelling_fallback(func: ast.AST,
                                    imports: ImportMap) -> tuple | None:
    """Resolve via imports, else fall back to the literal spelling.

    ``time.sleep(...)`` reads as a blocking call even in a snippet that
    never imports ``time`` (the pre-alias matcher worked this way and
    the self-check fixtures rely on it); an unresolved ``x.sleep()``
    is still only matched when ``x`` is literally a module name from
    the tables, so method calls on objects stay out.
    """
    resolved = imports.resolve_call(func)
    if resolved is not None:
        return resolved
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if imports.module_of(func.value.id) is None:
            return (func.value.id, func.attr)
    return None


def loop_blocking_call(node: ast.Call, imports: ImportMap,
                       awaited: bool = False) -> str | None:
    """Message when ``node`` would block an event loop, else ``None``.

    ``awaited`` exempts the method-shape heuristics: ``await
    future.result()`` is nonsense the type checker owns, but ``await
    event.wait()`` is the correct asyncio idiom and must not flag.
    """
    func = node.func
    if isinstance(func, ast.Name) and func.id in LOOP_BLOCKING_BUILTINS:
        return LOOP_BLOCKING_BUILTINS[func.id]
    resolved = _resolve_with_spelling_fallback(func, imports)
    if resolved is not None and resolved in LOOP_BLOCKING_MODULE_CALLS:
        return LOOP_BLOCKING_MODULE_CALLS[resolved]
    if (
        not awaited
        and isinstance(func, ast.Attribute)
        and func.attr == "result"
        and not node.args
        and not node.keywords
    ):
        return (
            ".result() on a future blocks the event loop until "
            "the worker finishes; await asyncio.wrap_future(...) "
            "or resolve via call_soon_threadsafe"
        )
    return None


def unbounded_wait_call(node: ast.Call, imports: ImportMap) -> str | None:
    """Description when ``node`` is an unbounded wait, else ``None``.

    The lock-holding blocking set: bounded file I/O is deliberately
    excluded (reading a page under a store lock is normal); unbounded
    waits under a lock are deadlock ingredients and flag ``REP211``.
    """
    func = node.func
    resolved = _resolve_with_spelling_fallback(func, imports)
    if resolved is not None and resolved in UNBOUNDED_MODULE_CALLS:
        # A dial or subprocess call with an explicit timeout is bounded
        # (time.sleep's argument is the wait, so no such escape there).
        bounded = resolved != ("time", "sleep") and any(
            keyword.arg == "timeout" for keyword in node.keywords
        )
        if not bounded:
            return f"{UNBOUNDED_MODULE_CALLS[resolved]}(...)"
    if isinstance(func, ast.Name) and func.id == "input":
        return "input() waits on the user indefinitely"
    if (
        isinstance(func, ast.Attribute)
        and func.attr in UNBOUNDED_WAIT_METHODS
        and not node.args
        and not node.keywords
    ):
        return UNBOUNDED_WAIT_METHODS[func.attr]
    return None
