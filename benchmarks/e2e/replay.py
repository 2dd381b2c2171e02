"""Staged replay: the engine's online phase driven stage by stage.

``StagedReplay.run`` mirrors ``QueryEngine._evaluate`` using only the
public callables of each layer and wraps every call in one of the
benchmark's own in-memory spans, so that per-stage self time is taken
from outside the program. It owns its probability tables and link
cache, exactly as an engine owns its own.

Stage names follow ROADMAP's span vocabulary (plan, lookup,
link_build, kpartite, reduce, match) so that a later in-program
tracing change maps one to one.
"""

from __future__ import annotations

import time

from repro.index.protocol import store_read_totals
from repro.query import QueryOptions
from repro.query.candidates import CandidateFinder
from repro.query.links import LinkStructureCache, build_candidate_links_vectorized
from repro.query.matcher import generate_matches
from repro.query.reduction import PegProbabilityArrays, VectorizedKPartiteGraph

STAGES = ("plan", "lookup", "link_build", "kpartite", "reduce", "match")


class SpanLog:
    """Spans kept in memory: ``[name, start, end, parent, request]``.

    ``start`` and ``end`` are read off the process's CPU-time clock, as
    every time of this benchmark is (see ``run.busy``). ``parent`` is
    the position of the enclosing span in :attr:`spans` (``None`` for a
    request's root); spans of one request share its id.
    Nothing is written anywhere until the caller asks.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list = []

    def span(self, name: str, request) -> "_OpenSpan":
        return _OpenSpan(self, name, request)

    def self_seconds(self) -> dict:
        """``{request: {span name: self time}}``; a span's self time is
        its duration minus the durations of its child spans."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _request in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict = {}
        for (name, start, end, _parent, request), covered in zip(
            self.spans, child_time
        ):
            by_name = totals.setdefault(request, {})
            by_name[name] = by_name.get(name, 0.0) + (end - start) - covered
        return totals

    def to_rows(self) -> list:
        """JSON-ready rows for ``--out`` files."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "request": request}
            for name, start, end, parent, request in self.spans
        ]


class _OpenSpan:
    __slots__ = ("log", "row", "position")

    def __init__(self, log: SpanLog, name: str, request) -> None:
        self.log = log
        self.row = [name, 0.0, 0.0, None, request]

    def __enter__(self) -> "_OpenSpan":
        log = self.log
        self.row[3] = log._open[-1] if log._open else None
        self.position = len(log.spans)
        log.spans.append(self.row)
        log._open.append(self.position)
        self.row[1] = time.process_time()
        return self

    def __exit__(self, *exc_info) -> None:
        self.row[2] = time.process_time()
        self.log._open.pop()


class StagedReplay:
    """Evaluates requests stage by stage and counts work at each boundary."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.log = SpanLog()
        self.options = QueryOptions()
        self.arrays = PegProbabilityArrays(engine.peg)
        self.link_cache = LinkStructureCache()
        self.reset_counters()

    def reset_counters(self) -> None:
        """Forget spans and counts (kept caches stay warm)."""
        self.log = SpanLog()
        self.requests = 0
        self.counts = dict.fromkeys(
            (
                "plan_hits", "raw_candidates", "pruned_candidates",
                "store_reads", "store_bytes", "link_pairs", "link_hits",
                "link_misses", "reduce_rounds", "reduce_removed", "matches",
            ),
            0,
        )
        #: Per request that reached the reduction: final / context space.
        self.space_ratios: list = []
        #: ``link_build`` again with ``cache=None``, seconds per request.
        self.cold_link_seconds: list = []

    def run(self, request, query, alpha: float, cold_links: bool = False) -> list:
        """One request through all stages; returns the match list."""
        engine, log, counts = self.engine, self.log, self.counts
        peg, index = engine.peg, engine.index
        self.requests += 1
        with log.span("request", request):
            with log.span("plan", request):
                decomposition, plan_info = engine.planner.plan(
                    query, alpha, self.options
                )
            counts["plan_hits"] += plan_info.cached

            candidates: dict = {}
            raw_counts: dict = {}
            reads_before, bytes_before = store_read_totals(index)
            with log.span("lookup", request):
                finder = CandidateFinder(
                    peg, query, alpha, index=index, context=engine.context
                )
                for i, path in enumerate(decomposition.paths):
                    candidates[i], raw_counts[i] = finder.find(path)
            reads_after, bytes_after = store_read_totals(index)
            counts["store_reads"] += reads_after - reads_before
            counts["store_bytes"] += bytes_after - bytes_before
            counts["raw_candidates"] += sum(raw_counts.values())
            counts["pruned_candidates"] += sum(map(len, candidates.values()))

            with log.span("plan", request):
                engine.planner.observe(query, decomposition, alpha, raw_counts)

            if any(not found for found in candidates.values()):
                return []

            with log.span("link_build", request):
                links = build_candidate_links_vectorized(
                    peg, decomposition, candidates, alpha,
                    arrays=self.arrays, cache=self.link_cache,
                    graph_version=engine.graph_version,
                )
            counts["link_pairs"] += links.stats["pairs"]
            counts["link_hits"] += links.stats["cache_hits"]
            counts["link_misses"] += links.stats["cache_misses"]

            with log.span("kpartite", request):
                kpartite = VectorizedKPartiteGraph(
                    peg, decomposition, candidates, alpha,
                    links=links, arrays=self.arrays,
                )
            with log.span("reduce", request):
                reduction = kpartite.reduce()
            counts["reduce_rounds"] += reduction.rounds
            counts["reduce_removed"] += (
                reduction.structure_removed + reduction.upperbound_removed
            )
            context_space = 1.0
            for found in candidates.values():
                context_space *= len(found)
            self.space_ratios.append(
                reduction.final_search_space / context_space
            )

            with log.span("match", request):
                matches = generate_matches(peg, decomposition, kpartite, alpha)
            counts["matches"] += len(matches)

        if cold_links:
            # Outside the request span: the same link build with no
            # cache in front, for link_build.cold_ms.
            start = time.process_time()
            build_candidate_links_vectorized(
                peg, decomposition, candidates, alpha, arrays=self.arrays,
                cache=None, graph_version=engine.graph_version,
            )
            self.cold_link_seconds.append(time.process_time() - start)
        return matches
