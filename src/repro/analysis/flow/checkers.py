"""Interprocedural checkers: REP210/211, REP401/410, REP510.

Each is a :class:`FlowChecker`: the runner builds one
:class:`CallGraph` per run, every function carrying its resolved facts,
and hands it to every selected flow checker, which runs a small
fixpoint over it:

* ``REP210`` — the global lock-acquisition-order graph has a cycle:
  two code paths take the same locks in opposite orders, which
  deadlocks the moment two threads interleave. One diagnostic per
  cycle, listing every edge with the code location that creates it.
* ``REP211`` — an unbounded wait (``time.sleep``, no-timeout
  ``Future.result()`` / ``join()`` / ``queue.get()``) executed while a
  lock is held, directly or through any resolvable call chain. A lock
  held across an unbounded wait stalls every other thread that needs
  the lock for as long as the wait lasts.
* ``REP401`` — a blocking call (``time.sleep``, ``open``, ``os.read``,
  raw sockets, ``subprocess``, a bare ``.result()`` that is not
  directly awaited; see :func:`repro.analysis.imports.loop_blocking_call`)
  in the body of a coroutine, at any nesting depth and in any module.
  One event loop multiplexes every connection, so one such call
  stalls every client at once. A sync ``def`` nested in a coroutine is
  not part of its body (it may run via ``asyncio.to_thread``).
* ``REP410`` — the same blocking-call set, but *reachable* from a
  coroutine or a ``# loop-only`` method through sync calls (the blind
  spot of per-function analysis: a helper three frames down calls
  ``time.sleep``). The diagnostic prints the full chain from the
  coroutine to the blocking site.
* ``REP510`` — an exception raised in the engine layers
  (``repro.query`` / ``index`` / ``storage`` / ``delta`` / …) that is
  *not* part of the :class:`~repro.utils.errors.ReproError` taxonomy
  can propagate into a ``repro.net`` handler uncaught. The wire
  protocol can only map typed errors; anything else tears down the
  connection instead of returning a typed failure frame.

Everything is conservative: unresolved calls propagate nothing, so a
finding always corresponds to a concrete chain of resolved calls shown
in the message. The ``.result()`` rule is name-based and may hit a
non-future; that is what ``# lint-ok: REP401`` is for.
"""

from __future__ import annotations

import builtins

from repro.analysis.core import ProjectChecker
from repro.analysis.flow.callgraph import CallGraph

#: Layers whose raises must be wrapped before reaching ``repro.net``.
ENGINE_LAYER_PREFIXES = (
    "repro.query",
    "repro.index",
    "repro.storage",
    "repro.peg",
    "repro.pgd",
    "repro.pgm",
    "repro.relational",
    "repro.delta",
    "repro.net.protocol",
)

#: Exceptions REP510 never reports: flow control and interpreter exits,
#: not error-taxonomy material.
_ESCAPE_EXEMPT = {
    "builtins.StopIteration",
    "builtins.StopAsyncIteration",
    "builtins.GeneratorExit",
    "builtins.KeyboardInterrupt",
    "builtins.SystemExit",
}

#: Builtin exception hierarchy (child -> parent), read off the running
#: interpreter: enough to decide whether an ``except`` clause catches a
#: raise. An alias (``IOError``) maps to the class it names.
BUILTIN_EXC_PARENTS = {
    f"builtins.{name}": "builtins." + (
        cls.__name__ if cls.__name__ != name else cls.__base__.__name__
    )
    for name, cls in vars(builtins).items()
    if isinstance(cls, type) and issubclass(cls, BaseException)
    and cls is not BaseException
}


def _short_lock(lock: str) -> str:
    """``repro.service.service:QueryService._gate`` -> readable form."""
    module, _, rest = lock.partition(":")
    tail = module.rsplit(".", 1)[-1]
    return f"{tail}.{rest}" if rest else lock


def _qual(graph: CallGraph, fid: str) -> str:
    info = graph.functions.get(fid)
    if info is None:
        return fid
    tail = info.module.rsplit(".", 1)[-1]
    return f"{tail}.{info.qualname}"


def _chain_text(graph: CallGraph, fids) -> str:
    """``mod.f -> mod.g -> ...`` for a call chain."""
    return " -> ".join(_qual(graph, fid) for fid in fids)


class FlowChecker(ProjectChecker):
    """A whole-program analysis over the run's one flow model.

    :func:`repro.analysis.runner.run_paths` builds the
    :class:`CallGraph` once, the first time a selected checker is a
    flow checker, and passes the same graph to each one's
    :meth:`check_flow`.
    """

    def check_flow(self, graph: CallGraph) -> list:
        raise NotImplementedError


def _blocking_witnesses(functions: dict, kind: str,
                        skip_async: bool) -> dict:
    """``{fid: (chain, desc, path, lineno)}`` — may f block, and where.

    ``kind`` names the call-site field that counts as blocking
    (``"unbounded_wait"`` for REP211, ``"loop_blocking"`` for REP410);
    with ``skip_async`` a coroutine neither blocks nor is
    traversed (it is checked as an entry point of its own). The chain
    lists fids from f down to the function containing the blocking
    site; resolution order is sorted, so witnesses are stable.

    The depth-first walk keeps an explicit stack of ``[fid, callees
    left]`` frames: a recursive closure would be a function <-> cell
    cycle holding ``functions``, which kept the whole flow model alive
    after the run until a cyclic collection.
    """
    memo: dict = {}
    for root in sorted(functions):
        visiting: set = set()
        stack = [[root, None]]
        returned = None  # the result of the frame popped last
        while stack:
            frame = stack[-1]
            fid = frame[0]
            result = None
            if frame[1] is None:  # entering fid
                if fid in memo or fid in visiting:
                    # Memoized, or recursion: no new information.
                    returned = memo.get(fid)
                    stack.pop()
                    continue
                visiting.add(fid)
                info = functions.get(fid)
                if info is not None and not (skip_async and info.is_async):
                    found = [
                        call for call in info.calls if getattr(call, kind)
                    ]
                    if found:
                        site = min(found, key=lambda s: s.lineno)
                        result = (
                            (fid,), getattr(site, kind), info.source.path,
                            site.lineno,
                        )
                    else:
                        frame[1] = iter([
                            call.callee for call in sorted(
                                info.calls, key=lambda c: (c.lineno, c.text),
                            ) if call.callee is not None
                        ])
            elif returned is not None:  # a callee's witness extends fid's
                chain, desc, path, lineno = returned
                result = ((fid,) + chain, desc, path, lineno)
            if result is None and frame[1] is not None:
                callee = next(frame[1], None)
                if callee is not None:
                    stack.append([callee, None])
                    continue
            visiting.discard(fid)
            memo[fid] = returned = result
            stack.pop()
    return memo


class LockFlowChecker(FlowChecker):
    name = "lock-flow"
    codes = {
        "REP210": "lock-order cycle across functions (potential deadlock)",
        "REP211": "unbounded wait while holding a lock",
    }

    def check_flow(self, graph) -> list:
        acquired = self._acquired_fixpoint(graph)
        diagnostics: list = []
        edges = self._lock_order_edges(graph, acquired)
        diagnostics.extend(self._cycle_diagnostics(graph, edges))
        diagnostics.extend(self._blocking_diagnostics(graph))
        return diagnostics

    # -- REP210 --------------------------------------------------------

    def _acquired_fixpoint(self, graph) -> dict:
        """``{fid: frozenset(locks f may acquire, transitively)}``.

        Entry (``holds-lock``) locks are excluded — the *caller*
        acquires those; counting them here would double every edge.
        """
        acquired = {
            fid: {acq.lock for acq in info.acquisitions}
            for fid, info in graph.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for fid, info in graph.functions.items():
                mine = acquired[fid]
                before = len(mine)
                for call in info.calls:
                    if call.callee is not None:
                        mine |= acquired.get(call.callee, set())
                if len(mine) != before:
                    changed = True
        return acquired

    def _lock_order_edges(self, graph, acquired) -> dict:
        """``{(src, dst): (source, lineno, detail)}`` — first witness wins.

        An edge src -> dst means "some path acquires dst while holding
        src". Witness iteration is sorted, so the recorded site is
        deterministic across runs.
        """
        edges: dict = {}

        def record(src, dst, source, lineno, detail):
            key = (src, dst)
            if key not in edges:
                edges[key] = (source, lineno, detail)

        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            source = info.source
            for acq in info.acquisitions:
                holders = info.entry_locks + acq.held
                for held in holders:
                    if held == acq.lock and self._reentrant(graph, held):
                        continue
                    record(
                        held, acq.lock, source, acq.lineno,
                        f"{_qual(graph, fid)} acquires "
                        f"{_short_lock(acq.lock)} while holding "
                        f"{_short_lock(held)}",
                    )
            for call in info.calls:
                if call.callee is None:
                    continue
                holders = info.entry_locks + call.held
                if not holders:
                    continue
                for lock in sorted(acquired.get(call.callee, ())):
                    for held in holders:
                        if held == lock and self._reentrant(graph, held):
                            continue
                        record(
                            held, lock, source, call.lineno,
                            f"{_qual(graph, fid)} calls {call.text} "
                            f"(which may acquire {_short_lock(lock)}) "
                            f"while holding {_short_lock(held)}",
                        )
        return edges

    def _reentrant(self, graph, lock: str) -> bool:
        kind = self._lock_kind(graph, lock)
        return kind in ("rlock", "condition")

    def _lock_kind(self, graph, lock: str) -> str | None:
        if lock in graph.module_locks:
            return graph.module_locks[lock]
        key, _, attr = lock.rpartition(".")
        cls = graph.classes.get(key)
        if cls is not None:
            return cls.lock_attrs.get(attr)
        return None

    def _cycle_diagnostics(self, graph, edges) -> list:
        adjacency: dict = {}
        for src, dst in edges:
            adjacency.setdefault(src, set()).add(dst)
            adjacency.setdefault(dst, set())
        diagnostics: list = []
        for component in _strongly_connected(adjacency):
            in_cycle = len(component) > 1 or any(
                (node, node) in edges for node in component
            )
            if not in_cycle:
                continue
            cycle_edges = sorted(
                (src, dst) for (src, dst) in edges
                if src in component and dst in component
            )
            witness_parts = []
            for src, dst in cycle_edges:
                source, lineno, detail = edges[(src, dst)]
                witness_parts.append(
                    f"{detail} at {source.path}:{lineno}"
                )
            anchor_source, anchor_line, _ = edges[cycle_edges[0]]
            order = " -> ".join(
                _short_lock(lock) for lock in sorted(component)
            )
            diagnostics.append(
                self.diagnostic(
                    anchor_source, "REP210", anchor_line,
                    f"lock-order cycle over {{{order}}} — potential "
                    f"deadlock; pick one global acquisition order. "
                    f"Edges: " + "; ".join(witness_parts),
                )
            )
        return diagnostics

    # -- REP211 --------------------------------------------------------

    def _blocking_diagnostics(self, graph) -> list:
        witnesses = _blocking_witnesses(
            graph.functions, "unbounded_wait", skip_async=False
        )
        diagnostics: list = []
        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            source = info.source
            for site in info.calls:
                held = info.entry_locks + site.held
                if site.unbounded_wait is None or not held:
                    continue
                locks = ", ".join(_short_lock(lock) for lock in held)
                diagnostics.append(
                    self.diagnostic(
                        source, "REP211", site.lineno,
                        f"{site.unbounded_wait} while holding {locks} — "
                        f"every other thread needing the lock stalls for "
                        f"the whole wait; release first or bound the wait",
                    )
                )
            for call in info.calls:
                if call.callee is None:
                    continue
                held = info.entry_locks + call.held
                if not held:
                    continue
                witness = witnesses.get(call.callee)
                if witness is None:
                    continue
                chain, desc, path, lineno = witness
                chain_text = _chain_text(graph, (fid,) + chain)
                locks = ", ".join(_short_lock(lock) for lock in held)
                diagnostics.append(
                    self.diagnostic(
                        source, "REP211", call.lineno,
                        f"call chain {chain_text} reaches an unbounded "
                        f"wait ({desc} at {path}:{lineno}) while "
                        f"holding {locks}",
                    )
                )
        return diagnostics


class TransitiveBlockingChecker(FlowChecker):
    name = "async-flow"
    codes = {
        "REP401": "blocking call inside a coroutine",
        "REP410": "event-loop-blocking call reachable from a coroutine",
    }

    def check_flow(self, graph) -> list:
        witnesses = _blocking_witnesses(
            graph.functions, "loop_blocking", skip_async=True
        )
        diagnostics: list = []
        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            if not (info.is_async or info.loop_only):
                continue
            source = info.source
            if info.is_async:
                for site in info.calls:
                    if site.loop_blocking is not None:
                        diagnostics.append(self.diagnostic(
                            source, "REP401", site.lineno,
                            site.loop_blocking, col=site.node.col_offset,
                        ))
            reported: set = set()
            for call in info.calls:
                witness = witnesses.get(call.callee)
                if witness is None or call.callee in reported:
                    continue
                reported.add(call.callee)
                chain, desc, path, lineno = witness
                chain_text = _chain_text(graph, (fid,) + chain)
                diagnostics.append(
                    self.diagnostic(
                        source, "REP410", call.lineno,
                        f"blocking call reachable from the event loop "
                        f"via {chain_text}: {desc} at {path}:{lineno} "
                        f"— run the chain in a thread "
                        f"(asyncio.to_thread) or make it async",
                    )
                )
        return diagnostics


class ErrorEscapeChecker(FlowChecker):
    name = "error-flow"
    codes = {
        "REP510": "untyped engine exception can reach a net handler",
    }

    def check_flow(self, graph) -> list:
        parents = self._exception_parents(graph)
        escapes = self._escape_fixpoint(graph.functions, parents)
        diagnostics: list = []
        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            if not info.module.startswith("repro.net"):
                continue
            if info.module.startswith("repro.net.protocol"):
                continue
            if not (info.is_async or info.loop_only):
                continue
            source = info.source
            for exc in sorted(escapes.get(fid, {})):
                chain = escapes[fid][exc]
                if self._is_repro_error(exc, parents):
                    continue
                if exc in _ESCAPE_EXEMPT:
                    continue
                origin_fid, origin_line = chain[-1]
                origin = graph.functions.get(origin_fid)
                if origin is None or not origin.module.startswith(
                    ENGINE_LAYER_PREFIXES
                ):
                    continue
                chain_text = _chain_text(graph, (step for step, _ in chain))
                diagnostics.append(
                    self.diagnostic(
                        source, "REP510", chain[0][1],
                        f"{exc} raised in {_qual(graph, origin_fid)} "
                        f"({origin.source.path}:{origin_line}) can "
                        f"reach this handler unmapped via {chain_text} "
                        f"— catch it at the boundary and wrap it in a "
                        f"typed ReproError so the wire protocol can "
                        f"encode it",
                    )
                )
        return diagnostics

    def _exception_parents(self, graph) -> dict:
        """child -> parent exception-class ids (builtin + corpus)."""
        parents = dict(BUILTIN_EXC_PARENTS)
        for key in sorted(graph.classes):
            cls = graph.classes[key]
            child = key.replace(":", ".")
            node = cls.node
            if not node.bases:
                continue
            if cls.base_keys:
                parents[child] = cls.base_keys[0].replace(":", ".")
                continue
            resolved = graph.exception_id(cls.module, node.bases[0])
            if resolved is not None:
                parents[child] = resolved
        return parents

    def _is_repro_error(self, exc: str, parents: dict) -> bool:
        seen: set = set()
        current = exc
        while current is not None and current not in seen:
            if current.rsplit(".", 1)[-1] == "ReproError":
                return True
            seen.add(current)
            current = parents.get(current)
        return False

    def _catches(self, handler: str, exc: str, parents: dict) -> bool:
        if handler in ("", "builtins.BaseException"):
            return True  # bare except / unresolvable handler type
        seen: set = set()
        current = exc
        while current is not None and current not in seen:
            if current == handler:
                return True
            seen.add(current)
            parent = parents.get(current)
            if parent is None and current not in (
                "builtins.BaseException", "builtins.Exception"
            ):
                # Unknown class: assume a plain Exception subclass so a
                # broad `except Exception` still counts as a boundary.
                parent = "builtins.Exception"
            current = parent
        return False

    def _escape_fixpoint(self, functions, parents) -> dict:
        """``{fid: {exc: witness chain ((fid, line), ...)}}``.

        The chain runs caller-first: entry call site down to the raise
        site. Propagation only ever *adds* (exc -> chain) pairs, so the
        iteration terminates; recursion just stops adding.
        """
        escapes: dict = {fid: {} for fid in functions}
        for fid, info in functions.items():
            for site in info.raises:
                if any(
                    self._catches(handler, site.exc, parents)
                    for handler in site.caught
                ):
                    continue
                escapes[fid].setdefault(
                    site.exc, ((fid, site.lineno),)
                )
        changed = True
        while changed:
            changed = False
            for fid in sorted(functions):
                for call in functions[fid].calls:
                    if call.callee is None:
                        continue
                    for exc, chain in escapes.get(
                        call.callee, {}
                    ).items():
                        if exc in escapes[fid]:
                            continue
                        if any(
                            self._catches(handler, exc, parents)
                            for handler in call.caught
                        ):
                            continue
                        escapes[fid][exc] = (
                            ((fid, call.lineno),) + chain
                        )
                        changed = True
        return escapes


def _strongly_connected(adjacency: dict) -> list:
    """Strongly connected components, each sorted, in sorted order.

    Lock-order graphs have tens of nodes, so one reachability search
    per node is plenty.
    """
    reach: dict = {}
    for root in adjacency:
        seen = {root}
        stack = [root]
        while stack:
            for neighbour in adjacency.get(stack.pop(), ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        reach[root] = seen
    components: dict = {}
    for node in sorted(adjacency):
        component = tuple(
            sorted(other for other in reach[node] if node in reach[other])
        )
        components.setdefault(component, None)
    return [list(component) for component in components]
