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
* ``self.attr.method()`` — when some method of the class (or of a
  base, in the same textual MRO) assigns ``self.attr =
  ClassName(...)`` with a resolvable class (single candidate type;
  conflicting assignments drop the inference).

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

Construction is three steps. *Indexing* reads the module and class
bodies. *The walk* (:func:`~repro.analysis.flow.summaries.walk_body`)
enters each function body once and records its call sites, ``with``
items, raise sites and ``self.x = Cls(...)`` assignments as
expressions. *The resolve phase* then works over those records, not
the tree: attribute and lock types first (they need every method's
assignments), then each function's callees, lock ids and exception ids
(:func:`~repro.analysis.flow.summaries.resolve_facts`). The result is
the run's one flow model: each :class:`FunctionInfo` carries its
resolved facts, which the flow checkers read.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.core import SourceFile, self_attr
from repro.analysis.flow.summaries import resolve_facts, walk_body


@dataclass
class FunctionInfo:
    """One function or method of the corpus, with its resolved facts."""

    fid: str
    module: str
    qualname: str
    class_key: str | None  # "module:Class" for methods
    node: ast.AST
    source: SourceFile
    is_async: bool
    calls: list = field(default_factory=list)         # CallSite
    acquisitions: list = field(default_factory=list)  # Acquisition
    raises: list = field(default_factory=list)        # RaiseSite
    #: ``# holds-lock:`` locks the caller holds for the whole body.
    entry_locks: tuple = ()
    #: ``# loop-only``: a sync entry point run on the event loop.
    loop_only: bool = False


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
        assignments: dict = {}  # class key -> [(attr, value)]
        for info in self.functions.values():
            walk_body(info, assignments.setdefault(info.class_key, [])
                      if info.class_key else None)
        for key, found in assignments.items():
            self._infer_attr_types(self.classes[key], found)
        for info in self.functions.values():
            for site in info.calls:
                site.callee = self.resolve_call(info, site.node)
            resolve_facts(self, info)

    # -- indexing ------------------------------------------------------

    def _index_module(self, module: str, source: SourceFile) -> None:
        self.sources[module] = source
        names: dict = self._module_names.setdefault(module, {})

        def add(fid, qualname, class_key, node) -> None:
            self.functions[fid] = FunctionInfo(
                fid=fid, module=module, qualname=qualname,
                class_key=class_key, node=node, source=source,
                is_async=isinstance(node, ast.AsyncFunctionDef),
            )

        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names[node.name] = f"{module}:{node.name}"
                add(names[node.name], node.name, None, node)
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
                        qualname = f"{node.name}.{item.name}"
                        cls.methods[item.name] = f"{module}:{qualname}"
                        add(cls.methods[item.name], qualname, key, item)
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
            add(fid, qualname, None, node)

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
        last ``repro`` segment), so direct lookup works. A name with
        no entry resolves to None: ``from repro.query import engine``
        binds a *submodule*, which :meth:`resolve_call` looks up under
        the joined name itself.
        """
        entry = self._module_names.get(module, {}).get(name)
        if want_class and entry not in self.classes:
            return None
        return entry

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

    def _infer_attr_types(self, cls: ClassInfo, assignments: list) -> None:
        """Type ``cls``'s attributes from its methods' ``self.x = C(...)``."""
        conflicts: set = set()
        for attr, value in assignments:
            kind = self._lock_constructor_kind(value, cls.module)
            if kind is not None:
                cls.lock_attrs[attr] = kind
                inner = self_attr(value.args[0]) if value.args else None
                if kind == "condition" and inner is not None:
                    cls.lock_aliases[attr] = inner
                continue
            key = self._resolve_class_expr(value.func, cls.module)
            if key is None:
                continue
            if cls.attr_types.setdefault(attr, key) != key:
                conflicts.add(attr)  # two candidate types: drop the inference
        for attr in conflicts:
            cls.attr_types.pop(attr, None)

    # -- call resolution -----------------------------------------------

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
                for cls in self._mro(info.class_key):
                    if attr in cls.attr_types:
                        return self.lookup_method(
                            cls.attr_types[attr], func.attr
                        )
        return None

    def _as_function(self, entry: str | None) -> str | None:
        if entry is None:
            return None
        if entry in self.functions:
            return entry
        if entry in self.classes:  # ClassName(...) -> __init__
            return self.classes[entry].methods.get("__init__")
        return None

    def _mro(self, class_key: str):
        """The class and its corpus bases, breadth first, each once.

        The one textual MRO that methods, attribute types and lock
        attributes are all looked up through.
        """
        seen: set = set()
        queue = [class_key]
        while queue:
            key = queue.pop(0)
            cls = self.classes.get(key)
            if key in seen or cls is None:
                continue
            seen.add(key)
            yield cls
            queue.extend(cls.base_keys)

    def lookup_method(self, class_key: str, name: str) -> str | None:
        """Resolve a method through the class and its declared bases."""
        for cls in self._mro(class_key):
            if name in cls.methods:
                return cls.methods[name]
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
        for cls in self._mro(info.class_key):
            attr = cls.lock_aliases.get(attr, attr)
            if attr in cls.lock_attrs:
                return f"{cls.key}.{attr}"
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
