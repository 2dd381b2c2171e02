"""Human-readable explanations of query evaluations.

``explain`` renders a :class:`~repro.query.engine.QueryResult` the way a
database EXPLAIN ANALYZE would: the chosen decomposition, per-stage
search-space sizes, reduction statistics, timings, and the top matches.
Useful when tuning β/γ/L or debugging why a query returns nothing.
"""

from __future__ import annotations

from repro.query.engine import QueryResult


def explain(result: QueryResult, max_matches: int = 5) -> str:
    """Render a query result as a readable multi-line report.

    When the result carries planner provenance
    (:class:`~repro.query.plan.PlanInfo`), the report names the
    requested strategy, where the plan came from (``cache``, ``exact``,
    ``greedy`` or ``random`` — a fallback from exact past its work
    budget shows ``greedy``) and its estimated cost beside the realized
    search space after index lookup (``search_space_path``, what the
    cost estimates), plus one line per partition comparing the
    planner's cardinality estimate against the observed raw index count
    (``x{ratio}`` above 1 means the estimator undershot).
    """
    lines = ["query evaluation"]
    if result.plan is not None:
        plan = result.plan
        source = "cache" if plan.cached else plan.source
        lines.append(
            f"  plan: strategy={plan.strategy} source={source}  "
            f"estimated cost {plan.estimated_cost:.4g}  "
            f"realized search space {result.search_space_path:.4g}"
        )
    lines.append("  decomposition:")
    for i, nodes in enumerate(result.decomposition_paths):
        rendered = " - ".join(str(n) for n in nodes)
        count = result.candidate_counts.get(i)
        suffix = f"  ({count} candidates)" if count is not None else ""
        lines.append(f"    P{i}: {rendered}{suffix}")
    if result.estimate_observations:
        lines.append("  cardinality estimates (estimated vs observed):")
        for i in sorted(result.estimate_observations):
            estimated, observed = result.estimate_observations[i]
            if estimated > 0:
                ratio = f"x{observed / estimated:.2f}"
            else:
                ratio = "x-" if observed else "x1.00"
            lines.append(
                f"    P{i}: est {estimated:8.4g}  obs {observed:6d}  {ratio}"
            )
    if result.link_stats:
        stats = result.link_stats
        cache = ""
        if stats.get("cache_hits") or stats.get("cache_misses"):
            cache = (
                f"  cache {stats['cache_hits']} hit"
                f"/{stats['cache_misses']} miss"
            )
        lines.append(
            f"  links: backend={stats['backend']} "
            f"pairs={stats['pairs']}{cache}"
        )
    lines.append("  search space:")
    lines.append(f"    after index lookup:   {result.search_space_path:.4g}")
    lines.append(f"    after context pruning:{result.search_space_context:.4g}")
    lines.append(f"    after joint reduction:{result.search_space_final:.4g}")
    if result.reduction is not None:
        reduction = result.reduction
        lines.append(
            "  reduction: "
            f"structure removed {reduction.structure_removed}, "
            f"upperbounds removed {reduction.upperbound_removed}, "
            f"{reduction.rounds} message rounds"
        )
    if result.timings:
        lines.append("  timings (ms):")
        for stage, seconds in result.timings.items():
            lines.append(f"    {stage:<12s}{seconds * 1000:8.2f}")
        lines.append(f"    {'total':<12s}{result.total_seconds * 1000:8.2f}")
    lines.append(f"  matches: {len(result.matches)}")
    for match in result.matches[:max_matches]:
        rendered = ", ".join(
            "{" + ",".join(str(r) for r in sorted(entity, key=str)) + "}"
            f":{label}"
            for entity, label in match.nodes
        )
        lines.append(f"    Pr={match.probability:.4f}  {rendered}")
    if len(result.matches) > max_matches:
        lines.append(f"    ... {len(result.matches) - max_matches} more")
    return "\n".join(lines)
