"""Adaptive query planning: plan caching and estimator feedback.

The paper's online phase (Section 5.2.1) re-runs the SET-COVER planner
from scratch on every query and trusts the offline histograms forever.
For serving workloads both are wasted work: real traffic repeats query
shapes, and live updates (:mod:`repro.delta`) drift the histograms away
from the graph until the next compaction. :class:`QueryPlanner` closes
both gaps per engine:

* **Plan caching** — chosen :class:`~repro.query.decompose.Decomposition`
  plans are memoized in the same LRU machinery the serving layer uses
  (:class:`~repro.utils.lru.ResultCache`), keyed by the query's
  *canonical* form (rename-invariant), the milli-rounded threshold, the
  strategy and the engine's ``graph_version`` — so structurally
  identical queries share one plan, thresholds inside the same
  milli-bucket share one plan, and every applied mutation batch
  invalidates plans versionlessly (stale keys age out of the LRU).
  Cached plans are stored in canonical *position* space and rehydrated
  onto the concrete query's node ids through
  :meth:`~repro.query.query_graph.QueryGraph.canonical_order`.
* **Estimator feedback** — after an evaluation, the observed
  per-sequence lookup cardinalities (the raw index counts the candidate
  stage already produces) are compared against the histogram estimates
  and folded into an :class:`EstimatorFeedback` table of multiplicative
  corrections, so post-delta estimate drift self-heals without a
  rebuild; compaction trues the histograms up and resets the table.

Any valid decomposition yields the same matches — planning affects cost
only — so cache hits, exact plans and feedback-corrected plans are all
interchangeable for correctness (the differential harness asserts it).
"""

from __future__ import annotations

import threading

from dataclasses import dataclass

from repro.index.grid import milli
from repro.index.protocol import canonical_sequence
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
    graph_version: int,
    max_length: int,
    use_feedback: bool = True,
) -> tuple:
    """Canonical cache key of one planning request.

    Alpha is milli-rounded with the index's one rounding rule
    (:func:`repro.index.grid.milli`): a decomposition's validity
    does not depend on the threshold at all, and its cost model only
    meaningfully shifts across bucket boundaries, so thresholds inside
    one milli-bucket deliberately share a plan. ``seed`` participates
    only for the random strategy (a seeded shuffle is deterministic and
    therefore cacheable). ``use_feedback`` participates because the
    two estimator settings are different cost models — a plan costed
    with corrections must not answer a request that asked for raw
    histogram estimates (or vice versa).
    """
    return (
        query.canonical_form(),
        milli(alpha),
        strategy,
        seed if strategy == "random" else None,
        int(graph_version),
        int(max_length),
        bool(use_feedback),
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


class EstimatorFeedback:
    """Per-(sequence, threshold) corrections learned from execution.

    For every (canonical label sequence, milli-rounded alpha) pair the
    table keeps an exponentially weighted estimate of
    ``observed / estimated`` — the factor by which the offline
    histogram misjudges the live graph. Keying on the milli-threshold
    (the same discipline as the plan cache and the overlay's
    stale-count memos) keeps a drift ratio observed at one threshold —
    where add-one smoothing on tiny counts distorts most — from
    corrupting estimates at thresholds where the histogram is
    accurate. Corrections are add-one smoothed (so empty lookups stay
    finite) and clamped to ``[1/max_correction, max_correction]``; a
    pair never observed corrects by exactly 1.0.
    """

    def __init__(self, decay: float = 0.5, max_correction: float = 64.0) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        if max_correction < 1.0:
            raise ValueError(
                f"max_correction must be >= 1, got {max_correction}"
            )
        self.decay = float(decay)
        self.max_correction = float(max_correction)
        self._corrections: dict = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def correction(self, canonical_seq: tuple, alpha: float) -> float:
        """Current multiplicative correction for one (sequence, alpha)."""
        with self._lock:
            return self._corrections.get(
                (canonical_seq, milli(alpha)), 1.0
            )

    def observe(self, canonical_seq: tuple, alpha: float,
                estimated: float, observed: int) -> float:
        """Fold one estimate-vs-observed pair in; returns the new factor."""
        ratio = (float(observed) + 1.0) / (max(estimated, 0.0) + 1.0)
        ratio = min(max(ratio, 1.0 / self.max_correction), self.max_correction)
        key = (canonical_seq, milli(alpha))
        with self._lock:
            previous = self._corrections.get(key, 1.0)
            updated = (1.0 - self.decay) * previous + self.decay * ratio
            self._corrections[key] = updated
        return updated

    def reset(self) -> None:
        """Forget every correction (e.g. after compaction trues up)."""
        with self._lock:
            self._corrections.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._corrections)


class QueryPlanner:
    """Per-engine planning subsystem: cache, strategies, feedback.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.query.engine.QueryEngine`; supplies
        the estimator (its index), the ``graph_version`` the cache keys
        mix in, and ``max_length``.
    cache_size:
        Plan-cache capacity in entries; 0 disables caching entirely.
    feedback:
        Optional pre-built :class:`EstimatorFeedback` (tests inject
        tuned decay/clamps; the default is shared-nothing per engine).
    """

    def __init__(self, engine, cache_size: int = 512, feedback=None) -> None:
        self.engine = engine
        self.cache = ResultCache(cache_size)
        self.feedback = feedback if feedback is not None else EstimatorFeedback()

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def estimator(self, use_feedback: bool = True):
        """The cost-model estimator: index histograms × feedback."""
        base = self.engine.index.estimate_cardinality
        if not use_feedback:
            return base
        feedback = self.feedback

        def estimate(label_seq, alpha):
            canonical = canonical_sequence(tuple(label_seq))
            return base(label_seq, alpha) * feedback.correction(
                canonical, alpha
            )

        return estimate

    def observe(self, query: QueryGraph, decomposition, alpha: float,
                raw_counts: dict) -> dict:
        """Close the loop after one evaluation.

        ``raw_counts`` maps partition index to the observed raw lookup
        cardinality (pre-context-pruning, exactly what
        ``estimate_cardinality`` predicts). Returns ``{partition:
        (corrected estimate, observed)}`` for provenance reporting;
        below-beta thresholds are skipped — those lookups bypass the
        index, so the histogram was never consulted.
        """
        index = self.engine.index
        if alpha < index.beta:
            return {}
        observations: dict = {}
        for i, path in enumerate(decomposition.paths):
            observed = raw_counts.get(i)
            if observed is None:
                continue
            label_seq = query.label_sequence(path.nodes)
            canonical = canonical_sequence(label_seq)
            base = index.estimate_cardinality(label_seq, alpha)
            corrected = base * self.feedback.correction(canonical, alpha)
            # Corrections always learn against the *base* estimate, so
            # successive observations converge instead of compounding.
            self.feedback.observe(canonical, alpha, base, observed)
            observations[i] = (corrected, observed)
        return observations

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self, query: QueryGraph, alpha: float, options) -> tuple:
        """Choose a decomposition; returns ``(decomposition, PlanInfo)``.

        Consults the plan cache first (unseeded random plans are never
        cached — they are nondeterministic by contract); on a miss the
        requested strategy runs over the feedback-corrected estimator
        and the result is published for the next structurally identical
        query.
        """
        strategy = options.decomposition
        use_feedback = getattr(options, "use_estimator_feedback", True)
        cacheable = (
            getattr(options, "use_plan_cache", True)
            and self.cache.capacity > 0
            and (strategy != "random" or options.seed is not None)
        )
        key = None
        if cacheable:
            key = plan_key(
                query,
                alpha,
                strategy,
                options.seed,
                getattr(self.engine, "graph_version", 0),
                self.engine.max_length,
                use_feedback,
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
            estimator=self.estimator(use_feedback),
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
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached plan and learned correction.

        Not needed for live updates — ``graph_version`` re-keys plans
        on its own — but compaction trues the histograms up, so the
        engine calls this to let estimates restart from exact.
        """
        self.cache.clear()
        self.feedback.reset()

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
            "feedback_sequences": len(self.feedback),
        }
        link_cache = getattr(self.engine, "link_cache", None)
        if link_cache is not None:
            snapshot.update(link_cache.stats_snapshot())
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryPlanner(cache={len(self.cache)}/{self.cache.capacity})"
