"""Query planning: plan caching over the histogram cost model.

The paper's online phase (Section 5.2.1) re-runs the SET-COVER planner
from scratch on every query, costing each candidate path with the
offline histogram estimates. Real traffic repeats query shapes, so
:class:`QueryPlanner` plans once per shape and serves repeats from a
cache:

* **Plan caching** — chosen :class:`~repro.query.decompose.Decomposition`
  plans are memoized in the same LRU machinery the serving layer uses
  (:class:`~repro.utils.lru.ResultCache`), keyed by the query's
  *canonical* form (rename-invariant), the milli-rounded threshold, the
  strategy and the index's ``histogram_epoch`` — so structurally
  identical queries share one plan, thresholds inside the same
  milli-bucket share one plan, and a plan lives exactly as long as the
  estimates it was costed with: a mutation batch moves no estimate and
  keeps every plan, compaction rewrites the histograms and re-keys them
  all (stale keys age out of the LRU).
  Cached plans are stored in canonical *position* space and rehydrated
  onto the concrete query's node ids through
  :meth:`~repro.query.query_graph.QueryGraph.canonical_order`.
* **Nothing learned** — the planner keeps no state but the cache, so
  a plan is a pure function of its :func:`plan_key` and a cache hit
  returns exactly what a fresh plan would. Under live updates
  (:mod:`repro.delta`) the index estimates from its stored-path
  histograms alone — stale by what the batches since compaction
  changed, which no lookup feeds back — and compaction trues them up.

:meth:`QueryPlanner.observe` measures the estimator against the raw
lookup counts of an evaluation, for reporting only. Any valid
decomposition yields the same matches — planning affects cost only —
so cache hits and fresh plans of every strategy are interchangeable
for correctness (the differential harness asserts it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.index.grid import milli
from repro.obs.metrics import get_registry
from repro.query.decompose import Decomposition, QueryPath, decompose_query
from repro.query.query_graph import QueryGraph
from repro.utils.lru import ResultCache

_PLAN_HITS = get_registry().counter("repro_plan_cache_hits_total")
_PLAN_MISSES = get_registry().counter("repro_plan_cache_misses_total")


def plan_key(
    query: QueryGraph,
    alpha: float,
    strategy: str,
    seed,
    histogram_epoch: int,
    max_length: int,
) -> tuple:
    """Canonical cache key of one planning request.

    Alpha is milli-rounded with the index's one rounding rule
    (:func:`repro.index.grid.milli`): a decomposition's validity
    does not depend on the threshold at all, and its cost model only
    meaningfully shifts across bucket boundaries, so thresholds inside
    one milli-bucket deliberately share a plan. ``seed`` participates
    only for the random strategy (a seeded shuffle is deterministic and
    therefore cacheable). ``histogram_epoch`` is the only ingredient
    that changes under a live graph: a plan depends on the graph only
    through the histogram estimates, so mutation batches (which leave
    the histograms alone) keep it and compaction re-keys it.
    """
    return (
        query.canonical_form(),
        milli(alpha),
        strategy,
        seed if strategy == "random" else None,
        int(histogram_epoch),
        int(max_length),
    )


@dataclass(frozen=True)
class PlanInfo:
    """Provenance of one chosen decomposition.

    ``source`` is ``"cache"`` for a plan-cache hit, otherwise the
    strategy that actually ran (``"greedy"``, ``"exact"`` or
    ``"random"``; a fallback from exact past its work budget reports
    ``"greedy"``).
    """

    strategy: str
    source: str
    cached: bool
    estimated_cost: float


class QueryPlanner:
    """Per-engine planning subsystem: plan cache and strategies.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.query.engine.QueryEngine`; supplies
        the estimator (its index), the ``histogram_epoch`` the cache
        keys mix in, and ``max_length``.
    cache_size:
        Plan-cache capacity in entries; 0 disables caching entirely
        (every query is planned afresh).
    """

    def __init__(self, engine, cache_size: int = 512) -> None:
        self.engine = engine
        self.cache = ResultCache(cache_size)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def observe(self, query: QueryGraph, decomposition, alpha: float,
                raw_counts: dict) -> dict:
        """Measure the estimator against one evaluation's lookups.

        ``raw_counts`` maps partition index to the observed raw lookup
        cardinality (pre-context-pruning, exactly what
        ``estimate_cardinality`` predicts). Returns ``{partition:
        (histogram estimate, observed)}`` for provenance reporting and
        changes nothing; below-beta thresholds are skipped — those
        lookups bypass the index, so the histogram was never consulted.
        """
        index = self.engine.index
        if alpha < index.beta:
            return {}
        return {
            i: (
                index.estimate_cardinality(
                    query.label_sequence(path.nodes), alpha
                ),
                raw_counts[i],
            )
            for i, path in enumerate(decomposition.paths)
            if i in raw_counts
        }

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self, query: QueryGraph, alpha: float, options) -> tuple:
        """Choose a decomposition; returns ``(decomposition, PlanInfo)``.

        Consults the plan cache first (unseeded random plans are never
        cached — they are nondeterministic by contract); on a miss the
        requested strategy runs over the index's histogram estimates and
        the result is published for the next structurally identical
        query.
        """
        strategy = options.decomposition
        cacheable = self.cache.capacity > 0 and (
            strategy != "random" or options.seed is not None
        )
        index = self.engine.index
        key = None
        if cacheable:
            key = plan_key(
                query,
                alpha,
                strategy,
                options.seed,
                index.histogram_epoch,
                self.engine.max_length,
            )
            entry = self.cache.get(key)
            if entry is not None:
                _PLAN_HITS.inc()
                decomposition = self._rehydrate(query, entry)
                return decomposition, PlanInfo(
                    strategy=strategy,
                    source="cache",
                    cached=True,
                    estimated_cost=decomposition.estimated_cost,
                )
        _PLAN_MISSES.inc()
        decomposition = decompose_query(
            query,
            estimator=index.estimate_cardinality,
            alpha=alpha,
            max_length=self.engine.max_length,
            strategy=strategy,
            seed=options.seed,
        )
        if key is not None:
            self.cache.put(key, self._dehydrate(query, decomposition))
        return decomposition, PlanInfo(
            strategy=strategy,
            source=decomposition.strategy_used,
            cached=False,
            estimated_cost=decomposition.estimated_cost,
        )

    @staticmethod
    def _dehydrate(query: QueryGraph, decomposition: Decomposition) -> tuple:
        """Encode a plan in canonical position space (rename-invariant)."""
        position = {
            node: i for i, node in enumerate(query.canonical_order())
        }
        paths = tuple(
            tuple(position[node] for node in path.nodes)
            for path in decomposition.paths
        )
        return (
            paths,
            decomposition.estimated_cost,
            decomposition.strategy_used,
        )

    @staticmethod
    def _rehydrate(query: QueryGraph, entry: tuple) -> Decomposition:
        """Instantiate a cached position-space plan onto ``query``.

        The cache key contains the canonical form, so any query that
        hits shares it with the plan's original query; equal canonical
        forms make position ``i`` of both canonical orders isomorphic
        images of each other, and the rebuilt decomposition is exactly
        the original plan with nodes renamed.
        """
        positions, estimated_cost, strategy_used = entry
        order = query.canonical_order()
        paths = [
            QueryPath(tuple(order[p] for p in path)) for path in positions
        ]
        return Decomposition(
            query=query,
            paths=paths,
            estimated_cost=estimated_cost,
            strategy_used=strategy_used,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Planner counters for the serving stats surface.

        Sizes are this engine's; hits and misses read the process-wide
        ``repro_plan_cache_*_total`` counters, the only place those
        events are stored, so one engine's or one call's share is a
        before/after delta. Includes the engine's link-structure cache
        (:class:`~repro.query.links.LinkStructureCache`, same rule) —
        the planner snapshot is the one per-engine cache surface the
        serving layer merges.
        """
        snapshot = {
            "plan_cache_size": len(self.cache),
            "plan_cache_capacity": self.cache.capacity,
            "plan_cache_hits": _PLAN_HITS.value,
            "plan_cache_misses": _PLAN_MISSES.value,
        }
        link_cache = getattr(self.engine, "link_cache", None)
        if link_cache is not None:
            snapshot.update(link_cache.stats_snapshot())
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryPlanner(cache={len(self.cache)}/{self.cache.capacity})"
