"""Static call graph over the parsed ``repro`` corpus.

The graph is *conservative*: an edge exists only when the callee can be
resolved to a specific function in the analysed corpus. Resolved forms:

* ``self.method()`` / ``cls.method()`` — same class, then base classes
  by declared name (textual MRO walk over corpus classes);
* ``name()`` — a module-level function or class of the same module, or
  a from-import of another corpus module (``from repro.x import f``);
* ``alias.name()`` — ``import repro.x as alias`` (and the
  ``from repro import x`` submodule-binding form);
* ``ClassName()`` — resolves to the class's ``__init__`` when defined;
* ``self.attr.method()`` — when some method of the class assigns
  ``self.attr = ClassName(...)`` with a resolvable class (single
  candidate type; conflicting assignments drop the inference).

Everything else — callbacks, functions passed as values (including
``asyncio.to_thread(fn, ...)`` targets), dynamic ``getattr`` dispatch,
stdlib calls — resolves to ``None``: no edge, no propagation. The
interprocedural checkers therefore under-approximate reachability and
never invent a path that the resolved code cannot take.

Nodes are the module-level functions, the methods of module-level
classes and every coroutine at any depth (``outer.<locals>.inner``):
each coroutine is an event-loop entry point the flow checkers start
from. Function ids are ``module:qualname`` — ``repro.service.service:
QueryService.submit`` or ``repro.query.links:build_links``. Lock and
class keys reuse the same ``module:Class`` shape. A second file with
an already-seen module name (two ``mod.py`` outside any ``repro``
package) is keyed ``mod#N``, so neither file's functions are lost.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.core import SourceFile, self_attr


@dataclass
class CallSite:
    """One call expression inside a function, with its resolution."""

    node: ast.Call
    lineno: int
    #: Resolved callee function id, or ``None`` (conservative: no edge).
    callee: str | None
    #: Source rendering of the callee expression (for diagnostics).
    text: str


@dataclass
class FunctionInfo:
    """One function or method of the corpus."""

    fid: str
    module: str
    qualname: str
    class_key: str | None  # "module:Class" for methods
    node: ast.AST
    source: SourceFile
    is_async: bool
    calls: list = field(default_factory=list)
    #: id(ast.Call) -> CallSite, for consumers walking the same tree.
    call_for: dict = field(default_factory=dict)


@dataclass
class ClassInfo:
    """One class: methods, declared bases, inferred attribute types."""

    key: str  # "module:Class"
    module: str
    name: str
    node: ast.ClassDef
    methods: dict = field(default_factory=dict)  # name -> fid
    base_keys: list = field(default_factory=list)  # resolved "module:Class"
    #: attr -> "module:Class" inferred from ``self.attr = ClassName(...)``
    attr_types: dict = field(default_factory=dict)
    #: lock-like attrs: attr -> kind ("lock" | "rlock" | "condition" | ...)
    lock_attrs: dict = field(default_factory=dict)
    #: Condition aliasing: attr -> underlying lock attr
    #: (``self._done = threading.Condition(self._gate)``).
    lock_aliases: dict = field(default_factory=dict)


_LOCK_CONSTRUCTORS = {
    ("threading", "Lock"): "lock",
    ("threading", "RLock"): "rlock",
    ("threading", "Condition"): "condition",
    ("threading", "Semaphore"): "semaphore",
    ("threading", "BoundedSemaphore"): "semaphore",
}


class CallGraph:
    """Functions, classes, and resolved call edges of a parsed corpus."""

    def __init__(self, sources: list) -> None:
        self.functions: dict = {}   # fid -> FunctionInfo
        self.classes: dict = {}     # "module:Class" -> ClassInfo
        self.sources: dict = {}     # module -> SourceFile
        self._module_names: dict = {}  # module -> {name: fid or class key}
        #: module-level lock objects: "module:name" from
        #: ``NAME = threading.Lock()`` at module scope.
        self.module_locks: dict = {}
        for source in sources:
            module = source.module
            if module in self.sources:  # two files, one name: keep both
                module = f"{module}#{len(self.sources)}"
            self._index_module(module, source)
        self._resolve_bases()
        for module, source in self.sources.items():
            self._infer_attr_types(module, source)
        for info in list(self.functions.values()):
            self._resolve_calls(info)

    # -- indexing ------------------------------------------------------

    def _index_module(self, module: str, source: SourceFile) -> None:
        self.sources[module] = source
        names: dict = self._module_names.setdefault(module, {})
        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fid = f"{module}:{node.name}"
                info = FunctionInfo(
                    fid=fid, module=module, qualname=node.name,
                    class_key=None, node=node, source=source,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                )
                self.functions[fid] = info
                names[node.name] = fid
            elif isinstance(node, ast.ClassDef):
                key = f"{module}:{node.name}"
                cls = ClassInfo(
                    key=key, module=module, name=node.name, node=node
                )
                self.classes[key] = cls
                names[node.name] = key
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        fid = f"{module}:{node.name}.{item.name}"
                        self.functions[fid] = FunctionInfo(
                            fid=fid, module=module,
                            qualname=f"{node.name}.{item.name}",
                            class_key=key, node=item, source=source,
                            is_async=isinstance(
                                item, ast.AsyncFunctionDef
                            ),
                        )
                        cls.methods[item.name] = fid
            elif isinstance(node, ast.Assign):
                kind = self._lock_constructor_kind(node.value, module)
                if kind is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.module_locks[f"{module}:{target.id}"] = kind
        for qualname, node in _coroutines(source.tree):
            fid = f"{module}:{qualname}"
            if fid in self.functions:
                if self.functions[fid].node is node:
                    continue  # a module-level coroutine or a method
                fid = f"{fid}@{node.lineno}"  # a redefinition
            self.functions[fid] = FunctionInfo(
                fid=fid, module=module, qualname=qualname, class_key=None,
                node=node, source=source, is_async=True,
            )

    def _lock_constructor_kind(self, value: ast.AST,
                               module: str) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        resolved = self.sources[module].imports.resolve_call(value.func)
        if resolved is None and isinstance(value.func, ast.Attribute) and \
                isinstance(value.func.value, ast.Name):
            resolved = (value.func.value.id, value.func.attr)
        if resolved is None and isinstance(value.func, ast.Name):
            resolved = ("threading", value.func.id)  # from threading import Lock
        if resolved is None:
            return None
        return _LOCK_CONSTRUCTORS.get(resolved)

    def _resolve_bases(self) -> None:
        for cls in self.classes.values():
            for base in cls.node.bases:
                key = self._resolve_class_expr(base, cls.module)
                if key is not None:
                    cls.base_keys.append(key)

    def _resolve_class_expr(self, expr: ast.AST,
                            module: str) -> str | None:
        """``module:Class`` a name/attribute expression denotes, if any."""
        imports = self.sources[module].imports
        if isinstance(expr, ast.Name):
            local = self._module_names.get(module, {}).get(expr.id)
            if local is not None and local in self.classes:
                return local
            origin = imports.origin_of(expr.id)
            if origin is not None:
                return self._lookup_in_module(
                    origin[0], origin[1], want_class=True
                )
        elif isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            target = imports.module_of(expr.value.id)
            if target is not None:
                return self._lookup_in_module(
                    target, expr.attr, want_class=True
                )
        return None

    def _lookup_in_module(self, module: str, name: str,
                          want_class: bool = False) -> str | None:
        """Resolve ``module.name`` against the corpus, repro-anchored.

        Import statements say ``repro.query.engine`` while corpus
        modules are keyed the same way (module names anchor at the
        last ``repro`` segment), so direct lookup works; ``from
        repro.query import engine`` binds a *submodule*, which has no
        entry under ``repro.query`` — fall through to the joined name.
        """
        entry = self._module_names.get(module, {}).get(name)
        if entry is not None:
            if want_class:
                return entry if entry in self.classes else None
            return entry
        return None

    def exception_id(self, module: str, expr: ast.AST) -> str | None:
        """Class id (``pkg.mod.Class``) an exception expression names.

        An imported name resolves through the imports, a local class
        to its corpus key, any other bare name to ``builtins``; None
        when the expression is dynamic.
        """
        imports = self.sources[module].imports
        if isinstance(expr, ast.Name):
            origin = imports.origin_of(expr.id)
            if origin is not None:
                return f"{origin[0]}.{origin[1]}"
            local = self._module_names.get(module, {}).get(expr.id)
            if local in self.classes:
                return local.replace(":", ".")
            return f"builtins.{expr.id}"
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            target = imports.module_of(expr.value.id)
            if target is not None:
                return f"{target}.{expr.attr}"
        return None

    # -- attribute-type inference --------------------------------------

    def _infer_attr_types(self, module: str, source: SourceFile) -> None:
        for node in source.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = self.classes[f"{module}:{node.name}"]
            conflicts: set = set()
            for method in node.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                for stmt in ast.walk(method):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    for target in stmt.targets:
                        attr = self_attr(target)
                        if attr is None:
                            continue
                        self._record_attr(
                            cls, attr, stmt.value, module, conflicts
                        )
            for attr in conflicts:
                cls.attr_types.pop(attr, None)

    def _record_attr(self, cls: ClassInfo, attr: str, value: ast.AST,
                     module: str, conflicts: set) -> None:
        if not isinstance(value, ast.Call):
            return
        kind = self._lock_constructor_kind(value, module)
        if kind is not None:
            cls.lock_attrs[attr] = kind
            if kind == "condition" and value.args:
                inner = self_attr(value.args[0])
                if inner is not None:
                    cls.lock_aliases[attr] = inner
            return
        key = self._resolve_class_expr(value.func, module)
        if key is None:
            return
        previous = cls.attr_types.get(attr)
        if previous is not None and previous != key:
            conflicts.add(attr)  # two candidate types: drop the inference
        else:
            cls.attr_types[attr] = key

    # -- call resolution -----------------------------------------------

    def _resolve_calls(self, info: FunctionInfo) -> None:
        collector = _CallCollector()
        for stmt in info.node.body:
            collector.visit(stmt)
        for call in collector.calls:
            callee = self.resolve_call(info, call)
            site = CallSite(
                node=call,
                lineno=call.lineno,
                callee=callee,
                text=_render_callee(call.func),
            )
            info.calls.append(site)
            info.call_for[id(call)] = site

    def resolve_call(self, info: FunctionInfo,
                     call: ast.Call) -> str | None:
        """Function id ``call`` invokes from inside ``info``, or None."""
        func = call.func
        module = info.module
        imports = info.source.imports
        if isinstance(func, ast.Name):
            entry = self._module_names.get(module, {}).get(func.id)
            if entry is None:
                origin = imports.origin_of(func.id)
                if origin is not None:
                    entry = self._lookup_in_module(origin[0], origin[1])
            return self._as_function(entry)
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                if value.id in ("self", "cls") and info.class_key:
                    return self.lookup_method(info.class_key, func.attr)
                target = imports.module_of(value.id)
                if target is not None:
                    return self._as_function(
                        self._lookup_in_module(target, func.attr)
                    )
                origin = imports.origin_of(value.id)
                if origin is not None:
                    # ``from repro.query import engine`` binds a module
                    return self._as_function(self._lookup_in_module(
                        f"{origin[0]}.{origin[1]}", func.attr
                    ))
                return None
            attr = self_attr(value)
            if attr is not None and info.class_key:
                cls = self.classes.get(info.class_key)
                type_key = self._attr_type(cls, attr) if cls else None
                if type_key is not None:
                    return self.lookup_method(type_key, func.attr)
        return None

    def _attr_type(self, cls: ClassInfo, attr: str) -> str | None:
        seen: set = set()
        while cls is not None and cls.key not in seen:
            seen.add(cls.key)
            if attr in cls.attr_types:
                return cls.attr_types[attr]
            cls = self.classes.get(cls.base_keys[0]) \
                if cls.base_keys else None
        return None

    def _as_function(self, entry: str | None) -> str | None:
        if entry is None:
            return None
        if entry in self.functions:
            return entry
        if entry in self.classes:  # ClassName(...) -> __init__
            return self.classes[entry].methods.get("__init__")
        return None

    def lookup_method(self, class_key: str, name: str) -> str | None:
        """Resolve a method through the class and its declared bases."""
        seen: set = set()
        queue = [class_key]
        while queue:
            key = queue.pop(0)
            if key in seen:
                continue
            seen.add(key)
            cls = self.classes.get(key)
            if cls is None:
                continue
            fid = cls.methods.get(name)
            if fid is not None:
                return fid
            queue.extend(cls.base_keys)
        return None

    # -- lock identity -------------------------------------------------

    def lock_id_for(self, info: FunctionInfo,
                    expr: ast.AST) -> str | None:
        """Stable lock identity a ``with``-expression acquires, if any.

        ``self._x`` resolves through the owning class (following base
        classes, and Condition aliasing to the underlying lock);
        module-level names resolve through :attr:`module_locks`. Lock
        identity is per *class attribute*, not per instance — the
        ordering discipline is a class-level contract.
        """
        attr = self_attr(expr)
        if attr is not None:
            return self.lock_id_for_attr(info, attr)
        if isinstance(expr, ast.Name):
            lock = f"{info.module}:{expr.id}"
            if lock in self.module_locks:
                return lock
        return None

    def lock_id_for_attr(self, info: FunctionInfo,
                         attr: str) -> str | None:
        """Lock identity of ``self.<attr>`` in ``info``'s class."""
        if not info.class_key:
            return None
        seen: set = set()
        key = info.class_key
        while key is not None and key not in seen:
            seen.add(key)
            cls = self.classes.get(key)
            if cls is None:
                break
            attr = cls.lock_aliases.get(attr, attr)
            if attr in cls.lock_attrs:
                return f"{key}.{attr}"
            key = cls.base_keys[0] if cls.base_keys else None
        return None

    def to_dict(self) -> dict:
        """JSON-friendly dump for ``repro lint --call-graph``."""
        out: dict = {}
        for fid in sorted(self.functions):
            info = self.functions[fid]
            out[fid] = {
                "module": info.module,
                "qualname": info.qualname,
                "async": info.is_async,
                "line": info.node.lineno,
                "calls": [
                    {
                        "line": site.lineno,
                        "text": site.text,
                        "callee": site.callee,
                    }
                    for site in info.calls
                ],
            }
        return out


class _CallCollector(ast.NodeVisitor):
    """Collects Call nodes, skipping nested function/lambda bodies.

    A call inside a nested ``def`` runs when the closure runs, not when
    the enclosing function does — following it would fabricate
    reachability (and the closure may run on another thread entirely).
    """

    def __init__(self) -> None:
        self.calls: list = []

    def visit_FunctionDef(self, node) -> None:
        pass

    def visit_AsyncFunctionDef(self, node) -> None:
        pass

    def visit_Lambda(self, node) -> None:
        pass

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append(node)
        self.generic_visit(node)


#: Node types whose children may hold a statement.
_BLOCKS = (ast.stmt, ast.excepthandler, ast.match_case)


def _coroutines(node: ast.AST, prefix: str = "") -> list:
    """``(qualname, node)`` of every ``async def`` under ``node``.

    Qualnames follow Python's (``outer.<locals>.inner``). Below module
    and class level only coroutines are indexed: each is an event-loop
    entry point of its own, while a nested sync ``def`` runs wherever
    its caller sends it.
    """
    found: list = []
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, _BLOCKS):
            continue  # an expression holds no ``def``
        inner = prefix
        if isinstance(child, ast.AsyncFunctionDef):
            found.append((prefix + child.name, child))
        if isinstance(child, ast.ClassDef):
            inner = f"{prefix}{child.name}."
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{prefix}{child.name}.<locals>."
        found.extend(_coroutines(child, inner))
    return found


def _render_callee(func: ast.AST) -> str:
    try:
        return f"{ast.unparse(func)}()"
    except Exception:  # pragma: no cover - unparse is total on exprs
        return "<call>()"
