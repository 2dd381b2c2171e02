"""The query engine: offline phase + online phase orchestration.

:class:`QueryEngine` performs the offline phase at construction time
(component probabilities are already embedded in the PEG; the engine
builds the context-aware path index and the context tables) and answers probabilistic subgraph pattern matching
queries online, producing both the matches and detailed statistics
(timings, search-space progression) that the benchmark harness
consumes.
"""

from __future__ import annotations

import math

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.index.builder import build_path_index
from repro.index.context import ContextInformation, build_context
from repro.index.path_index import PathIndex
from repro.index.protocol import store_read_totals
from repro.obs.metrics import get_registry
from repro.obs.timing import STAGES, StageRecorder
from repro.obs.trace import NULL_SPAN, Span, current_span
from repro.peg.entity_graph import Match, ProbabilisticEntityGraph
from repro.query.candidates import CandidateFinder
from repro.query.kpartite import CandidateKPartiteGraph, build_candidate_links
from repro.query.links import LinkStructureCache, build_candidate_links_vectorized
from repro.query.plan import QueryPlanner
from repro.query.matcher import (
    MatchColumns,
    generate_matches,
    generate_matches_reference,
)
from repro.query.query_graph import QueryGraph
from repro.storage.kvstore import PathStore
from repro.utils.errors import IndexError_, QueryError

_REGISTRY = get_registry()
_QUERIES_TOTAL = _REGISTRY.counter("repro_queries_total")
_MATCHES_TOTAL = _REGISTRY.counter("repro_query_matches_total")
_QUERY_SECONDS = _REGISTRY.histogram("repro_query_seconds")
#: One latency series per online-phase stage.
_STAGE_SECONDS = {
    stage: _REGISTRY.histogram("repro_query_stage_seconds", stage=stage)
    for stage in STAGES
}
_STORE_READS = _REGISTRY.counter("repro_store_reads_total")
_STORE_BYTES = _REGISTRY.counter("repro_store_bytes_read_total")
#: ``|log2(observed / estimate)|`` per partition lookup — the
#: planner's histogram-estimate error in doublings; p95 near 0 means
#: the cost model sees the graph as it is.
_ESTIMATE_ERROR = _REGISTRY.histogram(
    "repro_estimate_abs_log2_error", low=0.01, high=16.0
)


def record_query_metrics(recorder: StageRecorder, num_matches: int) -> None:
    """Fold one evaluation into the process-wide registry."""
    _QUERIES_TOTAL.inc()
    _MATCHES_TOTAL.inc(num_matches)
    _QUERY_SECONDS.observe(recorder.total)
    for stage, seconds in recorder.seconds.items():
        _STAGE_SECONDS[stage].observe(seconds)


@dataclass(frozen=True)
class QueryOptions:
    """Knobs for the online phase (all paper baselines are expressible).

    ``decomposition="random"`` gives the Random-decomposition baseline;
    ``use_structure_reduction=use_upperbound_reduction=False`` gives the
    No-search-space-reduction baseline; ``use_context_pruning=False``
    ablates Section 5.2.2's context tests.

    ``reduction_backend`` selects the joint search-space reduction
    implementation: ``"vectorized"`` (the default) runs the whole-array
    numpy backend of :mod:`repro.query.reduction` — one stacked
    k-partite graph whose Jacobi rounds sweep every partition pair in
    one pass over a shrinking link-entry list; ``"python"``
    runs the incremental pure-Python reference of
    :mod:`repro.query.kpartite` — and, being the all-reference
    configuration, the depth-first reference matcher after it
    (:func:`repro.query.matcher.generate_matches_reference`) instead of
    the array matcher. Both produce identical matches (bit for bit, in
    the same order), partition sizes and removal counts.

    ``decomposition`` accepts ``"exact"`` (the default: the cover that
    minimises the cost model's ``SS0``, by bitmask DP, with a greedy
    fallback past the DP's work budget — see
    :mod:`repro.query.decompose`), ``"greedy"`` (the paper's SET COVER
    approximation) and ``"random"``. The engine's planner
    (:mod:`repro.query.plan`) caches the chosen decomposition per
    query shape; a cached plan is the one a fresh plan would choose.

    ``link_backend`` selects the candidate-link construction:
    ``"vectorized"`` (the default) builds every joining partition pair
    in one stacked pass — one equi-join over ``(pair, key columns)``
    and one padded joined-probability factor product — straight into
    the k-partite graph's stacked vertex table and link-entry list
    (:mod:`repro.query.links`); ``"python"`` runs the per-vertex
    reference
    (:func:`repro.query.kpartite.build_candidate_links`). Both emit
    identical link sets (the differential harness asserts it), so the
    knob composes freely with ``reduction_backend``. ``use_link_cache``
    gates the engine's :class:`~repro.query.links.LinkStructureCache`
    in front of the vectorized builder; the Python reference never
    consults the cache.

    ``trace`` records a span tree of the evaluation
    (:mod:`repro.obs.trace`) and attaches it as ``QueryResult.trace``.
    Like the backend knobs it never changes the matches, so the serving
    layer's request keys exclude it.
    """

    decomposition: str = "exact"
    use_context_pruning: bool = True
    use_structure_reduction: bool = True
    use_upperbound_reduction: bool = True
    seed: int | None = None
    reduction_backend: str = "vectorized"
    link_backend: str = "vectorized"
    use_link_cache: bool = True
    trace: bool = False


@dataclass
class QueryResult:
    """Matches plus per-stage statistics of one query evaluation."""

    #: The matches, by descending probability: a
    #: :class:`~repro.query.matcher.MatchColumns` that builds a ``Match``
    #: only for a row that is read (the all-reference configuration
    #: returns a plain list). The wire encodes it without building any.
    matches: Sequence[Match]
    search_space_path: float = 0.0
    search_space_context: float = 0.0
    search_space_final: float = 0.0
    candidate_counts: dict = field(default_factory=dict)
    reduction: object = None
    timings: dict = field(default_factory=dict)
    decomposition_paths: tuple = ()
    #: :class:`~repro.query.plan.PlanInfo` provenance of the chosen
    #: decomposition.
    plan: object = None
    #: ``{partition: (histogram cardinality estimate, observed raw
    #: count)}`` — how well the planner's cost model saw this
    #: evaluation's lookups (empty below beta).
    estimate_observations: dict = field(default_factory=dict)
    #: Span-tree provenance of the evaluation (dict form of
    #: :meth:`repro.obs.trace.Span.to_dict`); populated only when
    #: ``QueryOptions.trace`` was set.
    trace: dict | None = None
    #: Link-build statistics: backend, kept pair count, link-cache
    #: hits/misses and ``fallback_pairs``, the pairs with a joint
    #: existence marginal (empty for evaluations that never reached
    #: the link stage).
    link_stats: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Total online-phase wall-clock seconds across all stages."""
        return sum(self.timings.values())

    def renamed(self, rename) -> "QueryResult":
        """This result as a renamed copy of its query would read it.

        ``rename`` maps every node of the query evaluated to its image in
        an isomorphic query, as two equal canonical forms pair their
        :meth:`~repro.query.query_graph.QueryGraph.canonical_order`
        position by position. The match mappings and the decomposition
        paths are rewritten; every match's nodes, edges and probability,
        and everything else, are shared.
        """
        matches = self.matches
        if isinstance(matches, MatchColumns):
            matches = matches.renamed(rename)
        else:
            matches = [
                replace(match, mapping=tuple(sorted(
                    ((rename[node], entity) for node, entity in match.mapping),
                    key=lambda pair: repr(pair[0]),
                )))
                for match in matches
            ]
        return replace(
            self,
            matches=matches,
            decomposition_paths=tuple(
                tuple(rename[node] for node in path)
                for path in self.decomposition_paths
            ),
        )


class QueryEngine:
    """Answers probabilistic subgraph pattern matching queries on a PEG.

    Parameters
    ----------
    peg:
        The probabilistic entity graph (already carries precomputed
        component probabilities).
    max_length:
        Index maximum path length ``L``.
    beta / gamma:
        Index threshold and resolution.
    store:
        Optional :class:`~repro.storage.kvstore.PathStore` for the index
        (defaults to in-memory; a
        :class:`~repro.storage.kvstore.DiskPathStore` puts it on disk).
    build_processes:
        Process-pool workers for the index enumeration (see
        :class:`~repro.index.builder.PathIndexBuilder`).
    """

    def __init__(
        self,
        peg: ProbabilisticEntityGraph,
        max_length: int = 3,
        beta: float = 0.1,
        gamma: float = 0.1,
        store: PathStore | None = None,
        build_processes: int = 0,
        _precomputed: tuple | None = None,
    ) -> None:
        self.peg = peg
        self.offline_timings = StageRecorder()
        #: Monotone counter bumped by every applied mutation batch
        #: (:meth:`apply_updates`); the serving layer mixes it into
        #: request keys so caches invalidate across updates.
        self.graph_version = 0
        #: High-water mark of applied :class:`repro.delta.log.MutationLog`
        #: sequence numbers — what makes log replay idempotent.
        self.applied_mutation_seq = -1
        #: Per-engine link-structure cache (keyed by partition-pair
        #: signature × candidate fingerprints × milli-alpha ×
        #: ``graph_version``); the key alone invalidates an entry.
        self.link_cache = LinkStructureCache()
        if _precomputed is not None:
            self.index, self.context = _precomputed
            self.planner = QueryPlanner(self)
            return
        with self.offline_timings.stage("path_index"):
            self.index: PathIndex = build_path_index(
                peg,
                max_length=max_length,
                beta=beta,
                gamma=gamma,
                store=store,
                build_processes=build_processes,
            )
        with self.offline_timings.stage("context"):
            self.context: ContextInformation = build_context(peg)
        #: The planning subsystem: a plan cache keyed by canonical
        #: query form × milli-alpha × the index's histogram epoch
        #: (:mod:`repro.query.plan`).
        self.planner = QueryPlanner(self)

    # ------------------------------------------------------------------
    # Offline-bundle persistence
    # ------------------------------------------------------------------

    def save_offline(self, directory: str) -> None:
        """Persist this engine's offline artifacts (index + context)."""
        from repro.index.bundle import save_offline

        if self.index.dirty_nodes:
            raise IndexError_(
                "engine has uncompacted live updates; call "
                "compact_updates() before save_offline()"
            )
        save_offline(self.index, self.context, directory)

    @classmethod
    def from_saved(
        cls, peg: ProbabilisticEntityGraph, directory: str
    ) -> "QueryEngine":
        """Open an engine from a bundle written by :meth:`save_offline`.

        The PEG must be the same graph the bundle was built from (node
        ids are positional); loading a bundle against a different PEG
        yields undefined results.
        """
        from repro.index.bundle import load_offline

        index, context = load_offline(directory)
        return cls(peg, _precomputed=(index, context))

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------

    def apply_updates(self, ops, log=None) -> dict:
        """Absorb a batch of PEG mutations without an offline rebuild.

        Thin façade over :func:`repro.delta.apply_mutations`: applies
        the ops to the PEG, has the index absorb the dirtied nodes
        (:meth:`~repro.index.path_index.PathIndex.absorb` patches its
        delta in place), patches the context tables for them (a new
        context object; the PEG's own columns were patched in place by
        the ops) and bumps :attr:`graph_version` (which re-keys the
        result and link caches). Cached plans survive: the index
        estimates from its histograms, which a batch leaves alone.
        Not safe to call concurrently with
        queries on this engine — the serving layer
        (:meth:`repro.service.QueryService.apply_updates`) provides the
        drained-quiescence discipline.
        """
        from repro.delta import apply_mutations

        return apply_mutations(self, ops, log=log)

    def compact_updates(self) -> dict:
        """Fold the index's live delta back into its store.

        Delegates to :meth:`~repro.index.path_index.PathIndex.compact`:
        the same index object is clean afterwards — e.g. ready for
        :meth:`save_offline`. No-op (zero stats) for an index with no
        absorbed updates. Compaction rewrites the histograms and bumps
        their epoch, which re-keys every cached plan; the link cache
        needs nothing: compaction leaves the PEG, and hence every
        candidate set and link structure, unchanged. Like
        :meth:`apply_updates`, not safe to call concurrently with
        queries on this engine.
        """
        return self.index.compact()

    # ------------------------------------------------------------------

    @property
    def max_length(self) -> int:
        """The index's maximum path length L."""
        return self.index.max_length

    def offline_stats(self) -> dict:
        """Offline-phase statistics: timings plus index size/shape."""
        stats = dict(self.index.stats())
        stats["offline_seconds"] = self.offline_timings.total
        stats["offline_timings"] = dict(self.offline_timings.seconds)
        return stats

    # ------------------------------------------------------------------

    def query(
        self,
        query: QueryGraph,
        alpha: float,
        options: QueryOptions | None = None,
    ) -> QueryResult:
        """Find all matches of ``query`` with probability >= ``alpha``."""
        options = options or QueryOptions()
        span = self._query_span(options)
        recorder = StageRecorder(span)

        with span:
            if span.enabled:
                span.set("alpha", alpha)
                span.set("graph_version", self.graph_version)
            decomposition, plan_info = self._plan(
                query, alpha, options, recorder
            )
            result = self._evaluate(
                query, alpha, options, decomposition, plan_info, recorder
            )
        if options.trace and span.enabled:
            result.trace = span.to_dict()
        return result

    def _query_span(self, options: QueryOptions):
        """Root (or ambient child) span of one evaluation.

        A real span is created when an outer span is active — the
        service's request span, a top-k probe — or when the caller
        asked for a trace; otherwise the null span keeps the
        instrumented path effectively free.
        """
        parent = current_span()
        if parent.enabled:
            return parent.child("query")
        if options.trace:
            return Span("query")
        return NULL_SPAN

    def _build_links(self, decomposition, candidates, alpha, options):
        """Candidate links via the selected builder; ``(links, stats)``."""
        backend = options.link_backend
        if backend == "vectorized":
            links = build_candidate_links_vectorized(
                self.peg,
                decomposition,
                candidates,
                alpha,
                cache=self.link_cache if options.use_link_cache else None,
                graph_version=self.graph_version,
            )
            return links, links.stats
        if backend == "python":
            links = build_candidate_links(
                self.peg, decomposition, _as_lists(candidates), alpha
            )
            stats = {
                "backend": "python",
                "pairs": sum(len(pairs) for pairs in links.values()),
                "cache_hits": 0,
                "cache_misses": 0,
                "fallback_pairs": 0,
            }
            return links, stats
        raise QueryError(
            f"unknown link backend {backend!r}; "
            "expected 'vectorized' or 'python'"
        )

    def _make_kpartite(self, decomposition, candidates, alpha, options, links):
        """Instantiate the selected reduction backend over one candidate set."""
        backend = options.reduction_backend
        if backend == "vectorized":
            from repro.query.reduction import VectorizedKPartiteGraph

            return VectorizedKPartiteGraph(
                self.peg,
                decomposition,
                candidates,
                alpha,
                links=links,
            )
        if backend == "python":
            return CandidateKPartiteGraph(
                self.peg,
                decomposition,
                _as_lists(candidates),
                alpha,
                links=links,
            )
        raise QueryError(
            f"unknown reduction backend {backend!r}; "
            "expected 'vectorized' or 'python'"
        )

    def _plan(self, query: QueryGraph, alpha: float, options, recorder):
        """Online phase stage 1: path decomposition through the planner
        (plan cache consulted first); ``(decomposition, PlanInfo)``.
        """
        if not 0.0 < alpha <= 1.0:
            raise QueryError(f"alpha must be in (0, 1], got {alpha}")
        with recorder.stage("plan") as plan_span:
            decomposition, plan_info = self.planner.plan(
                query, alpha, options
            )
            if plan_span.enabled:
                plan_span.set("strategy", plan_info.strategy)
                plan_span.set("source", plan_info.source)
                plan_span.set("partitions", len(decomposition.paths))
                plan_span.set(
                    "estimated_cost", round(plan_info.estimated_cost, 3)
                )
        return decomposition, plan_info

    def _evaluate(
        self,
        query: QueryGraph,
        alpha: float,
        options: QueryOptions,
        decomposition,
        plan_info,
        recorder: StageRecorder,
    ) -> QueryResult:
        """Online phase stages 2-5 over an already-chosen decomposition.

        ``recorder`` already holds the plan stage; its span is the
        already-entered parent span (or the null span) the remaining
        stage spans are created under. Callers own that span's
        lifecycle and export.
        """
        span = recorder.span
        index = self.index
        # 2. Path candidates (index lookup + context pruning).
        finder = CandidateFinder(
            self.peg,
            query,
            alpha,
            index=index,
            context=self.context,
            use_context=options.use_context_pruning,
        )
        candidates: dict = {}
        raw_counts: dict = {}
        # Store-traffic deltas around the lookup stage. The store
        # counters are process-cumulative, so under concurrent queries a
        # delta may attribute a neighbor's reads to this span — totals
        # stay exact, attribution is best-effort.
        reads_before, bytes_before = store_read_totals(index)
        with recorder.stage("lookup") as lookup_span:
            for i, path in enumerate(decomposition.paths):
                with lookup_span.child("partition", index=i) as path_span:
                    if path_span.enabled:
                        path_span.set("labels", "-".join(
                            map(str, query.label_sequence(path.nodes))
                        ))
                    # The finder adds node_pruned / path_pruned.
                    pruned, raw = finder.find(path)
                    if path_span.enabled:
                        path_span.set("raw", raw)
                        path_span.set("pruned", len(pruned))
                candidates[i] = pruned
                raw_counts[i] = raw
            reads_after, bytes_after = store_read_totals(index)
            store_reads = reads_after - reads_before
            store_bytes = bytes_after - bytes_before
            _STORE_READS.inc(store_reads)
            _STORE_BYTES.inc(store_bytes)
            if lookup_span.enabled:
                lookup_span.incr("store_reads", store_reads)
                lookup_span.incr("store_bytes_read", store_bytes)
            # The planner's histogram estimates against the raw counts
            # this stage just observed: a measurement, nothing learned.
            observations = self.planner.observe(
                query, decomposition, alpha, raw_counts
            )
            if observations:
                error_sum = 0.0
                for estimated, observed in observations.values():
                    error = abs(math.log2(
                        (observed + 1.0) / (max(estimated, 0.0) + 1.0)
                    ))
                    _ESTIMATE_ERROR.observe(error)
                    error_sum += error
                if span.enabled:
                    span.set(
                        "estimate_abs_log2_err",
                        round(error_sum / len(observations), 4),
                    )
            # The realized search space against the plan's estimate: a
            # cover the cost model misprices reads orders of magnitude
            # away from 1 here.
            search_space_path = _product(raw_counts.values())
            if span.enabled and decomposition.estimated_cost > 0:
                span.set("realized_cost_ratio", float(
                    f"{search_space_path / decomposition.estimated_cost:.4g}"
                ))

        if all(candidates.values()):
            matches, reduction, link_stats = self._join(
                decomposition, candidates, alpha, options, recorder
            )
        else:
            matches, reduction, link_stats = MatchColumns.empty(), None, {}
            if span.enabled:
                span.set("empty_partition", True)

        if span.enabled:
            span.set("matches", len(matches))
        record_query_metrics(recorder, len(matches))
        return QueryResult(
            matches=matches,
            search_space_path=search_space_path,
            search_space_context=_product(
                len(c) for c in candidates.values()
            ),
            search_space_final=(
                0.0 if reduction is None else reduction.final_search_space
            ),
            candidate_counts={i: len(c) for i, c in candidates.items()},
            reduction=reduction,
            timings=recorder.seconds,
            decomposition_paths=tuple(p.nodes for p in decomposition.paths),
            plan=plan_info,
            estimate_observations=observations,
            link_stats=link_stats,
        )

    def _join(self, decomposition, candidates, alpha, options, recorder):
        """Online phase stages 3-5 over non-empty candidate sets;
        ``(matches, ReductionStats, link_stats)``."""
        # 3. Candidate-link construction (cache-aware, its own stage:
        # the 30k-vertex bench showed it dominating the reduce it feeds).
        with recorder.stage("link_build") as link_span:
            links, link_stats = self._build_links(
                decomposition, candidates, alpha, options
            )
            if link_span.enabled:
                link_span.set("backend", link_stats["backend"])
                link_span.set("pairs", link_stats["pairs"])
                link_span.incr("cache_hits", link_stats["cache_hits"])
                link_span.incr("cache_misses", link_stats["cache_misses"])

        # 4. K-partite construction and joint search-space reduction.
        with recorder.stage("kpartite") as build_span:
            kpartite = self._make_kpartite(
                decomposition, candidates, alpha, options, links
            )
            if build_span.enabled:
                build_span.set("backend", options.reduction_backend)
                build_span.set("partitions", len(candidates))
        with recorder.stage("reduce") as reduce_span:
            reduction = kpartite.reduce(
                use_structure=options.use_structure_reduction,
                use_upperbounds=options.use_upperbound_reduction,
            )
            if reduce_span.enabled:
                reduce_span.set("rounds", reduction.rounds)
                reduce_span.set("links", reduction.links)
                reduce_span.set("links_live", reduction.links_live)
                reduce_span.incr(
                    "structure_removed", reduction.structure_removed
                )
                reduce_span.incr(
                    "upperbound_removed", reduction.upperbound_removed
                )

        # 5. Full match generation: the array matcher over the
        # vectorized graph; the all-reference configuration keeps the
        # depth-first reference matcher it is checked against.
        with recorder.stage("match") as match_span:
            match_stats: dict = {}
            if options.reduction_backend == "python":
                matches = generate_matches_reference(
                    self.peg, decomposition, kpartite, alpha
                )
            else:
                matches = generate_matches(
                    self.peg, decomposition, kpartite, alpha,
                    stats=match_stats,
                )
            if match_span.enabled:
                match_span.set("matches", len(matches))
                for name, value in match_stats.items():
                    match_span.set(name, value)
        return matches, reduction, link_stats


def _as_lists(candidates: dict) -> dict:
    """Candidate columns as the :class:`~repro.index.paths.IndexedPath`
    lists the pure-Python reference backends index one at a time."""
    return {i: list(found) for i, found in candidates.items()}


def _product(values) -> float:
    result = 1.0
    for value in values:
        result *= value
    return result
