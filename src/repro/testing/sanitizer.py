"""Runtime concurrency sanitizer: lock-order and lockset discipline.

The static flow checkers (:mod:`repro.analysis.flow`) prove what the
*resolved* call graph can show; this module watches what actually
happens. With ``REPRO_SANITIZE=1`` (or an explicit :func:`install`),
every lock created by ``repro`` code is wrapped in a
:class:`SanitizedLock` that maintains a per-thread held-lock stack and
a global lock-acquisition-order graph keyed by each lock's *creation
site* (``module.qualname:lineno`` — the static analogue of a lock
identity). Two disciplines are enforced:

* **Lock ordering** — acquiring B while holding A records the edge
  A → B with the acquiring stack. If the reverse edge was ever
  recorded, two code paths take the same pair of locks in opposite
  orders: a deadlock waiting for the right interleaving. The
  violation report carries both stacks. A blocking re-acquire of a
  non-reentrant lock already held by the same thread is reported (and
  raised) immediately — the alternative is hanging the test run.
* **Eraser-style lockset checking** — :func:`instrument_guarded`
  reads a class's ``# guarded-by:`` annotations through the analysis
  framework and wraps ``__setattr__``: once an instance's guarded
  attribute is written by a second thread, every sampled write must
  hold the declared guard, and the empirical candidate lockset (the
  intersection of locks held across writes) must stay non-empty. The
  first-writer thread is exempt, mirroring Eraser's initialisation
  phase.

Violations never kill the offending thread mid-flight (except the
self-deadlock case, which cannot proceed); they accumulate and fail
the test through :func:`assert_clean` — the conftest drains them after
every test when the sanitizer is installed.

The patch hook replaces ``threading.Lock`` / ``threading.RLock`` with
factories that inspect the *calling frame's* module: only callers in
``repro.*`` get sanitized locks. Stdlib machinery (executors, queues,
``threading.Condition``'s internal RLock) keeps real primitives, so
instrumentation cost lands only on the locks under study.
``threading.Condition(self._gate)`` works unmodified: ``Condition``
falls back to the wrapper's ``acquire``/``release``, so the held-lock
stack correctly tracks ``wait()``'s release/re-acquire cycle.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
from dataclasses import dataclass

# Real primitives, captured before any patching can occur. Everything
# internal to the sanitizer uses these — a sanitized sanitizer would
# recurse.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

#: Frames of stack context captured per first-seen edge / violation.
_STACK_LIMIT = 16


@dataclass
class Violation:
    """One detected discipline violation, with both sides' context."""

    kind: str       # "lock-order-inversion" | "self-deadlock" |
                    # "guarded-write" | "empty-lockset"
    message: str
    first_stack: str
    second_stack: str

    def format(self) -> str:
        parts = [f"[{self.kind}] {self.message}"]
        if self.first_stack:
            parts.append("--- first side ---")
            parts.append(self.first_stack.rstrip())
        if self.second_stack:
            parts.append("--- second side ---")
            parts.append(self.second_stack.rstrip())
        return "\n".join(parts)


class _State:
    """Global sanitizer state (order graph, violations, held stacks)."""

    def __init__(self) -> None:
        self.lock = _REAL_LOCK()
        #: (site_a, site_b) -> formatted stack of the first recording.
        self.order: dict = {}
        self.violations: list = []
        self.installed = False
        self.held = threading.local()

    def held_stack(self) -> list:
        stack = getattr(self.held, "stack", None)
        if stack is None:
            stack = []
            self.held.stack = stack
        return stack


_state = _State()


def _capture_stack() -> str:
    return "".join(
        traceback.format_stack(sys._getframe(2), limit=_STACK_LIMIT)
    )


def _record_violation(kind: str, message: str, first_stack: str,
                      second_stack: str) -> None:
    with _state.lock:
        _state.violations.append(
            Violation(
                kind=kind, message=message,
                first_stack=first_stack, second_stack=second_stack,
            )
        )


class SanitizedLock:
    """A ``threading.Lock``/``RLock`` wrapper enforcing order discipline.

    ``site`` is the creation site (``module.qualname:lineno``) — lock
    identity for the order graph is per *creation site*, matching the
    static checkers' per-class-attribute identity: every instance of a
    class shares one node.
    """

    _reentrant = False

    def __init__(self, inner=None, site: str = "<unknown>") -> None:
        self._inner = inner if inner is not None else _REAL_LOCK()
        self._site = site

    # -- discipline ----------------------------------------------------

    def _check_order(self) -> None:
        held = _state.held_stack()
        if not held:
            return
        if any(entry is self for entry in held):
            if self._reentrant:
                return
            stack = _capture_stack()
            _record_violation(
                "self-deadlock",
                f"blocking re-acquire of non-reentrant lock "
                f"{self._site} already held by this thread",
                "", stack,
            )
            raise RuntimeError(
                f"sanitizer: self-deadlock on {self._site} — the "
                f"acquire below would hang forever:\n{stack}"
            )
        stack = None
        for entry in held:
            if entry._site == self._site:
                continue  # same identity: ordering is moot
            edge = (entry._site, self._site)
            reverse = (self._site, entry._site)
            with _state.lock:
                first = _state.order.get(reverse)
                if first is not None and edge not in _state.order:
                    if stack is None:
                        stack = _capture_stack()
                    _state.violations.append(
                        Violation(
                            kind="lock-order-inversion",
                            message=(
                                f"acquired {self._site} while holding "
                                f"{entry._site}, but another path "
                                f"acquires {entry._site} while holding "
                                f"{self._site} — opposite orders "
                                f"deadlock under the right interleaving"
                            ),
                            first_stack=first,
                            second_stack=stack,
                        )
                    )
                if edge not in _state.order:
                    if stack is None:
                        stack = _capture_stack()
                    _state.order[edge] = stack

    # -- lock protocol -------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1):
        if blocking:
            self._check_order()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            _state.held_stack().append(self)
        return acquired

    def release(self) -> None:
        held = _state.held_stack()
        for index in range(len(held) - 1, -1, -1):
            if held[index] is self:
                del held[index]
                break
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SanitizedLock {self._site} of {self._inner!r}>"


class SanitizedRLock(SanitizedLock):
    """Reentrant variant: same-thread re-acquire is legal by design."""

    _reentrant = True

    def __init__(self, inner=None, site: str = "<unknown>") -> None:
        super().__init__(
            inner if inner is not None else _REAL_RLOCK(), site
        )


def _creation_site(frame) -> str:
    code = frame.f_code
    qualname = getattr(code, "co_qualname", code.co_name)
    module = frame.f_globals.get("__name__", "<unknown>")
    return f"{module}.{qualname}:{frame.f_lineno}"


def _caller_is_repro(frame) -> bool:
    module = frame.f_globals.get("__name__", "")
    return module == "repro" or module.startswith("repro.")


def _lock_factory():
    frame = sys._getframe(1)
    if _caller_is_repro(frame):
        return SanitizedLock(_REAL_LOCK(), _creation_site(frame))
    return _REAL_LOCK()


def _rlock_factory():
    frame = sys._getframe(1)
    if _caller_is_repro(frame):
        return SanitizedRLock(_REAL_RLOCK(), _creation_site(frame))
    return _REAL_RLOCK()


# -- public surface ----------------------------------------------------


def install() -> None:
    """Patch ``threading.Lock``/``RLock`` to sanitize repro locks.

    Idempotent. Only locks created *after* installation are wrapped —
    install before constructing the objects under test.
    """
    with _state.lock:
        if _state.installed:
            return
        _state.installed = True
    threading.Lock = _lock_factory
    threading.RLock = _rlock_factory


def uninstall() -> None:
    """Restore the real lock factories (existing wrappers keep working)."""
    with _state.lock:
        if not _state.installed:
            return
        _state.installed = False
    threading.Lock = _REAL_LOCK
    threading.RLock = _REAL_RLOCK


def installed() -> bool:
    return _state.installed


def install_from_env(env: str = "REPRO_SANITIZE") -> bool:
    """Install when the environment opts in (``REPRO_SANITIZE=1``)."""
    if os.environ.get(env) == "1":
        install()
        return True
    return False


def violations() -> list:
    with _state.lock:
        return list(_state.violations)


def reset() -> None:
    """Clear violations and the recorded order graph (not held stacks)."""
    with _state.lock:
        _state.violations.clear()
        _state.order.clear()


def assert_clean() -> None:
    """Raise ``AssertionError`` with every pending violation, then clear.

    Clearing on failure keeps one bad test from poisoning the rest of
    the session with repeated reports of the same violation.
    """
    with _state.lock:
        pending = list(_state.violations)
        _state.violations.clear()
    if pending:
        report = "\n\n".join(v.format() for v in pending)
        raise AssertionError(
            f"sanitizer detected {len(pending)} concurrency "
            f"violation(s):\n{report}"
        )


# -- Eraser-style lockset checking ------------------------------------

_LOCKSET_STATE = "__sanitizer_lockset__"


def instrument_guarded(cls, sample_every: int = 1):
    """Enforce a class's ``# guarded-by:`` annotations at runtime.

    Parses the class's source through the analysis framework to find
    the declared guards, then wraps ``cls.__setattr__``: every
    ``sample_every``-th write to a guarded attribute by a thread other
    than the instance's first writer must hold the declared guard
    (when that guard is a sanitized lock), and the empirical lockset —
    the intersection of sanitized locks held across those writes —
    must stay non-empty. Returns ``cls`` (usable as a decorator);
    idempotent per class. ``event-loop``-confined attributes are
    skipped: they are checked statically (``REP202``), not by locks.
    """
    import ast
    import inspect

    from repro.analysis.checkers.locking import (
        EVENT_LOOP_GUARD,
        _collect_guards,
    )
    from repro.analysis.core import parse_source

    if getattr(cls, "__sanitizer_instrumented__", False):
        return cls
    path = inspect.getsourcefile(cls)
    with open(path, "r", encoding="utf-8") as handle:
        source = parse_source(path, handle.read())
    guards: dict = {}
    for node in source.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
            guards = {
                attr: guard
                for attr, (guard, _line) in
                _collect_guards(source, node)[0].items()
                if guard != EVENT_LOOP_GUARD
            }
            break
    if not guards:
        return cls

    original_setattr = cls.__setattr__
    counter = [0]

    def checking_setattr(self, name, value):
        original_setattr(self, name, value)
        if name not in guards:
            return
        counter[0] += 1
        if (counter[0] - 1) % sample_every:
            return
        _check_guarded_write(self, name, guards[name], cls.__name__)

    cls.__setattr__ = checking_setattr
    cls.__sanitizer_instrumented__ = True
    return cls


def _check_guarded_write(instance, attr: str, guard: str,
                         class_name: str) -> None:
    state = instance.__dict__.get(_LOCKSET_STATE)
    if state is None:
        state = {}
        instance.__dict__[_LOCKSET_STATE] = state
    thread = threading.get_ident()
    entry = state.get(attr)
    if entry is None:
        # Virgin -> exclusive: the first writer (usually __init__)
        # publishes without a lock by design.
        state[attr] = {"first": thread, "candidates": None}
        return
    if entry["first"] == thread and entry["candidates"] is None:
        return  # still exclusive to the first writer
    guard_lock = instance.__dict__.get(guard)
    if not isinstance(guard_lock, SanitizedLock):
        # The instance predates install(): its locks are real
        # primitives the sanitizer cannot observe, so neither the
        # declared-guard check nor lockset refinement can run.
        return
    held = _state.held_stack()
    if not any(
        entry_lock is guard_lock for entry_lock in held
    ):
        _record_violation(
            "guarded-write",
            f"{class_name}.{attr} is '# guarded-by: {guard}' but was "
            f"written without holding it (thread {thread})",
            "", _capture_stack(),
        )
        return
    candidates = {
        id(lock) for lock in held if isinstance(lock, SanitizedLock)
    }
    previous = entry["candidates"]
    refined = candidates if previous is None else previous & candidates
    entry["candidates"] = refined
    if previous is not None and not refined:
        _record_violation(
            "empty-lockset",
            f"{class_name}.{attr}: no single lock is held across all "
            f"observed writes — the guard discipline is not what the "
            f"annotation claims",
            "", _capture_stack(),
        )
        # Restart refinement so one report doesn't repeat forever.
        entry["candidates"] = None
        entry["first"] = thread
