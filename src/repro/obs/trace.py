"""Query tracing: thread-safe span trees with a no-op default path.

A :class:`Span` is one timed node of a trace tree: it records wall-clock
start/end, free-form attributes, monotonically increasing counters and
child spans. Spans are context managers; entering a span pushes it onto
a thread-local stack so deeply nested code (the candidate finder, a
path-index lookup) can attach counters to the innermost active span via
:func:`current_span` without threading a handle through every call
signature.

Tracing is opt-in. When no span is active, :func:`current_span` returns
the :data:`NULL_SPAN` singleton whose every method is a no-op — the
disabled path costs one attribute lookup plus a method call, cheap
enough to leave the instrumentation permanently compiled into the hot
loops (the ``bench_obs_overhead`` gate enforces this).

Worker pools break the thread-local chain: a span begun on the
submitting thread is not "current" on the worker that evaluates the
request. :func:`use_span` re-attaches an open span as the worker
thread's current span for the duration of a block, so engine stage
spans nest under the service's request span across the pool boundary.
"""

from __future__ import annotations

import json
import threading
import time

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "current_span",
    "render_trace",
    "use_span",
]

_LOCAL = threading.local()


def _stack() -> list:
    stack = getattr(_LOCAL, "spans", None)
    if stack is None:
        stack = _LOCAL.spans = []
    return stack


def current_span():
    """The innermost active span on this thread, or :data:`NULL_SPAN`."""
    stack = getattr(_LOCAL, "spans", None)
    if stack:
        return stack[-1]
    return NULL_SPAN


class Span:
    """One timed node of a trace tree.

    Mutation (attributes, counters, child registration) is serialized
    through a per-span lock so concurrent workers may report into a
    shared parent. Use as a context manager, or pair :meth:`begin` /
    :meth:`finish` when the span's lifetime does not nest lexically
    (e.g. a service request that starts on the submitting thread and
    finishes in a done-callback).
    """

    __slots__ = (
        "name", "attributes", "counters", "children",
        "start", "end", "status", "_lock",
    )

    #: Real spans record; the null span advertises ``enabled = False``
    #: so hot paths can skip argument construction with one check.
    enabled = True

    def __init__(self, name: str, **attributes) -> None:
        self.name = str(name)
        self.attributes = dict(attributes)  # guarded-by: _lock
        self.counters: dict = {}  # guarded-by: _lock
        self.children: list = []  # guarded-by: _lock
        self.start = None
        self.end = None
        self.status = "ok"
        self._lock = threading.Lock()

    # -- structure -----------------------------------------------------

    def child(self, name: str, **attributes) -> "Span":
        """Create and register a child span (not yet started)."""
        span = Span(name, **attributes)
        with self._lock:
            self.children.append(span)
        return span

    def set(self, key: str, value) -> None:
        """Set attribute ``key`` to ``value``."""
        with self._lock:
            self.attributes[key] = value

    def incr(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``key`` (created at zero)."""
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    # -- lifecycle -----------------------------------------------------

    def begin(self) -> "Span":
        """Record the start time without touching the thread-local stack."""
        self.start = time.perf_counter()
        return self

    def finish(self, error: bool = False) -> None:
        """Record the end time; flag the span as failed when ``error``."""
        self.end = time.perf_counter()
        if error:
            self.status = "error"

    def __enter__(self) -> "Span":
        self.begin()
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish(error=exc_type is not None)
        if exc is not None:
            self.set("exception", f"{exc_type.__name__}: {exc}")
        stack = _stack()
        if self in stack:
            # Pop through any spans left open by an exception unwind.
            while stack.pop() is not self:
                pass
        return False

    @property
    def elapsed(self) -> float:
        """Elapsed seconds (0.0 until started; live if still open)."""
        if self.start is None:
            return 0.0
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    # -- export --------------------------------------------------------

    def to_dict(self) -> dict:
        """Recursive plain-dict form (JSON-serializable)."""
        with self._lock:
            children = list(self.children)
            attributes = dict(self.attributes)
            counters = dict(self.counters)
        return {
            "name": self.name,
            "elapsed": self.elapsed,
            "status": self.status,
            "attributes": attributes,
            "counters": counters,
            "children": [span.to_dict() for span in children],
        }

    def to_json(self, indent: int | None = None) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, elapsed={self.elapsed:.6f})"


class _NullSpan:
    """No-op stand-in used whenever tracing is disabled.

    Every method does as little as possible; ``child`` returns the
    singleton itself so arbitrarily deep instrumentation collapses to
    constant work. The null span never touches the thread-local stack.
    """

    __slots__ = ()

    enabled = False
    name = ""
    status = "ok"
    attributes: dict = {}
    counters: dict = {}
    children: list = []
    start = None
    end = None
    elapsed = 0.0

    def child(self, name, **attributes) -> "_NullSpan":
        return self

    def set(self, key, value) -> None:
        pass

    def incr(self, key, amount: int = 1) -> None:
        pass

    def begin(self) -> "_NullSpan":
        return self

    def finish(self, error: bool = False) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def to_dict(self) -> dict:
        return {}

    def to_json(self, indent=None) -> str:
        return "{}"

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"


#: Process-wide no-op span; identity-comparable (``span is NULL_SPAN``).
NULL_SPAN = _NullSpan()


class use_span:
    """Make an already-open span the current span for a block.

    The bridge across worker-pool boundaries: the service opens a
    request span on the submitting thread, then the worker wraps the
    evaluation in ``with use_span(request_span):`` so the engine's
    stage spans nest under it. A null span attaches as a no-op.
    """

    __slots__ = ("_span",)

    def __init__(self, span) -> None:
        self._span = span

    def __enter__(self):
        if self._span is not NULL_SPAN:
            _stack().append(self._span)
        return self._span

    def __exit__(self, *exc_info) -> bool:
        if self._span is not NULL_SPAN:
            stack = _stack()
            if self._span in stack:
                while stack and stack[-1] is not self._span:
                    stack.pop()
                if stack:
                    stack.pop()
        return False


class Tracer:
    """Records root spans and keeps the most recent finished trees.

    ``span(name)`` returns a child of the current span when one is
    active (so nested tracer calls build one tree), otherwise a new
    root retained for :meth:`export`. The retention window is bounded
    so long-lived services do not accumulate traces without limit.
    """

    enabled = True

    def __init__(self, max_roots: int = 128) -> None:
        self._roots: list = []  # guarded-by: _lock
        self._max_roots = max(1, int(max_roots))
        self._lock = threading.Lock()

    def span(self, name: str, **attributes) -> Span:
        parent = current_span()
        if parent is not NULL_SPAN:
            return parent.child(name, **attributes)
        span = Span(name, **attributes)
        with self._lock:
            self._roots.append(span)
            if len(self._roots) > self._max_roots:
                del self._roots[: len(self._roots) - self._max_roots]
        return span

    def roots(self) -> list:
        """The retained root spans, oldest first."""
        with self._lock:
            return list(self._roots)

    def export(self) -> list:
        """Dict form of every retained root span."""
        return [span.to_dict() for span in self.roots()]

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.export(), indent=indent, default=str)

    def discard(self, span) -> None:
        """Forget root ``span``: it turned out to record no request."""
        with self._lock:
            self._roots = [root for root in self._roots if root is not span]

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()


class NullTracer:
    """Disabled tracer: every ``span()`` is the null span."""

    enabled = False

    def span(self, name: str, **attributes):
        return NULL_SPAN

    def roots(self) -> list:
        return []

    def export(self) -> list:
        return []

    def to_json(self, indent=None) -> str:
        return "[]"

    def discard(self, span) -> None:
        pass

    def clear(self) -> None:
        pass


#: Process-wide disabled tracer (the default for the query service).
NULL_TRACER = NullTracer()


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _render_node(node: dict, lines: list, prefix: str, is_last: bool,
                 is_root: bool) -> None:
    connector = "" if is_root else ("`- " if is_last else "|- ")
    elapsed_ms = float(node.get("elapsed", 0.0)) * 1000.0
    label = f"{prefix}{connector}{node.get('name', '?')}"
    detail = [f"{elapsed_ms:.3f} ms"]
    if node.get("status") == "error":
        detail.append("[error]")
    for key, value in node.get("attributes", {}).items():
        detail.append(f"{key}={_format_value(value)}")
    for key, value in node.get("counters", {}).items():
        detail.append(f"{key}={_format_value(value)}")
    lines.append(f"{label:<36s} {'  '.join(detail)}")
    children = node.get("children", [])
    child_prefix = prefix if is_root else prefix + ("   " if is_last else "|  ")
    for i, child in enumerate(children):
        _render_node(child, lines, child_prefix, i == len(children) - 1,
                     is_root=False)


def render_trace(trace) -> str:
    """ASCII tree rendering of a span (accepts a Span or its dict form).

    Each line shows the span name, elapsed milliseconds, then its
    attributes and counters as ``key=value`` pairs — the format the CLI
    prints for ``query --trace``.
    """
    if isinstance(trace, Span):
        trace = trace.to_dict()
    if not trace:
        return "(no trace recorded)"
    lines: list = []
    _render_node(trace, lines, "", is_last=True, is_root=True)
    return "\n".join(lines)
