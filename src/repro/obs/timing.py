"""Wall-clock timing primitives shared by the engine and the benches.

Home of :class:`Timer`, the stage vocabulary :data:`STAGES` and
:class:`StageRecorder` — the one always-on mechanism that delimits a
stage. A stage is timed once (its ``{stage: seconds}`` mapping feeds
``QueryResult.timings`` and the registry histograms) and named once
(the span opened under a traced evaluation carries the same name).
"""

from __future__ import annotations

import time

from repro.obs.trace import NULL_SPAN

__all__ = ["STAGES", "StageRecorder", "Timer"]

#: The online phase's stages in evaluation order (paper Section 5):
#: the keys of ``QueryResult.timings``, the ``stage=`` label values of
#: ``repro_query_stage_seconds``, the child-span names of a traced
#: query, and ``benchmarks/e2e``'s per-layer names.
STAGES = ("plan", "lookup", "link_build", "kpartite", "reduce", "match")


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    Example
    -------
    >>> with Timer() as t:
    ...     sum(range(10))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._start
        self._start = None


class StageRecorder:
    """Accumulates per-stage seconds of one multi-stage evaluation.

    ``with recorder.stage(name) as span:`` adds the block's elapsed
    seconds to ``recorder.seconds[name]`` (re-entering a name
    accumulates; a raising block is still recorded) and, when
    :attr:`span` is a real span, runs the block inside a child span of
    the same name. With the null span a stage costs one context object
    and two clock reads, and yields :data:`~repro.obs.trace.NULL_SPAN`.
    """

    __slots__ = ("seconds", "span")

    def __init__(self, span=NULL_SPAN) -> None:
        #: ``{stage: accumulated seconds}`` in first-entry order.
        self.seconds: dict = {}
        #: Parent of the stage spans.
        self.span = span

    def stage(self, name: str) -> "_Stage":
        """Context manager delimiting one run of stage ``name``."""
        return _Stage(self, name)

    @property
    def total(self) -> float:
        """Total seconds across all recorded stages."""
        return sum(self.seconds.values())


class _Stage:
    __slots__ = ("_recorder", "_name", "_span", "_start")

    def __init__(self, recorder: StageRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self):
        # The null span's child is the null span itself: nothing is
        # allocated and nothing touches the thread-local span stack.
        self._span = self._recorder.span.child(self._name).__enter__()
        self._start = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        seconds = self._recorder.seconds
        seconds[self._name] = seconds.get(self._name, 0.0) + elapsed
        return self._span.__exit__(exc_type, exc, tb)
