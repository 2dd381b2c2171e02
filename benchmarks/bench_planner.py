"""Planner benchmark: plan caching and the exact strategy.

Measures what :mod:`repro.query.plan` promises for repeated-traffic
serving:

* **plan caching** — planning time for a repeated workload with the
  cache on (hits skip candidate enumeration, per-candidate histogram
  estimation and the cover search entirely) vs re-planning every query
  from scratch with a zero-capacity
  :class:`~repro.query.plan.QueryPlanner`: the median cached /
  re-plan ratio of ``PLAN_ROUNDS`` (9) paired rounds
  (:func:`benchmarks.paired.paired`, one workload pass of each per
  round) against the claim "cached planning is not slower than
  re-planning" (bound 1.0), with its IQR, range and verdict; plus the
  end-to-end plan-stage share of full evaluations with either planner,
* **exact strategy** — estimated-cost ratio of exact (bitmask-DP) plans,
  the default, against the paper's greedy plans over the workload
  (never above 1.0: exact is optimal for the same objective), with its
  planning-time premium,
* **pools** — the end-to-end benchmark's four request pools (recipes
  copied in), planned greedy and exact: partitions and link pairs per
  request, how many requests exact hands to its greedy fallback
  (past the DP's work budget), and how many requests that are
  themselves a path of at most ``L`` edges each strategy splits into
  more than one partition,
* **sizes** — whether exact plans with the DP (or falls back) at the
  query sizes of the paper's figures, q(3,3) to q(10,40), for
  ``L = 1, 2, 3``,
* **fidelity** — whether the cost model's optimum is the fastest plan:
  for each ``match_heavy`` and ``lookup_heavy`` request, the exact
  plan's CPU time (:func:`benchmarks.paired.fastest` of N runs on
  ``time.process_time``, link cache off) against the fastest of
  greedy and six seeded random plans (identical plans are timed once).
  It reports how many requests exact serves within 5% of that fastest
  plan, how many more than 20% slower, and the pool's exact time over
  its per-request fastest. These are timings on a shared host: they
  are reported, never gated.

A correctness spot check runs inside: cached-plan and exact-strategy
evaluations must produce exactly the matches of the fresh greedy
baseline, and on the pools exact and greedy plans the same match
multisets, probability bits included. Results go to
``BENCH_planner.json``; ``--trajectory`` writes a versioned copy under
``benchmarks/results/``. The script exits non-zero when a check
disagrees or an exact plan costs more than a greedy one; with
``--smoke`` (the CI gate) also when the median cached / re-plan ratio
is above 1.0, when exact falls back on any ``lookup_heavy`` request, or
when exact plans a pool request that is itself a path of at most ``L``
edges as more than one partition. Greedy's count of such splits is
reported, not gated: its rule (newly covered edges over cost) takes a
single edge first whenever the whole path's estimate is a few times
the edge's, as it is on every such pool request.

Usage::

    PYTHONPATH=src python benchmarks/bench_planner.py --trajectory
    PYTHONPATH=src python benchmarks/bench_planner.py --smoke
"""

from __future__ import annotations

import dataclasses
import functools
import os
import random
import sys
import time

if __package__ in (None, ""):  # run as a script: put src/ and the repo root on the path
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from benchmarks import harness
from benchmarks.paired import describe, fastest, paired
from repro import __version__
from repro.datasets import SyntheticConfig, generate_synthetic_pgd, random_query
from repro.peg import build_peg
from repro.query import QueryEngine, QueryOptions, QueryPlanner
from repro.query.decompose import decompose_query, enumerate_candidate_paths

ALPHA = 0.3
MAX_LENGTH = 2
BETA = 0.05

PLAN_CACHED = QueryOptions()
PLAN_GREEDY = QueryOptions(decomposition="greedy")
PLAN_EXACT = QueryOptions(decomposition="exact")

# The [pools] row's recipes: the end-to-end benchmark's four request
# pools (benchmarks/e2e/workloads.py), copied so this module stands
# alone. Per pool: graph, L, beta, query shapes, queries per shape and
# the alphas every query is asked at.
POOL_SEED = 20140331
POOL_GRAPH = SyntheticConfig(num_references=200, uncertainty=0.2, seed=POOL_SEED)
POOLS = {
    "match_heavy": (
        POOL_GRAPH, 3, 0.5,
        ((3, 2), (3, 3), (4, 3), (4, 4), (5, 5)), 20, (0.5,),
    ),
    "lookup_heavy": (
        POOL_GRAPH, 3, 0.5,
        ((4, 5), (4, 6), (5, 7), (5, 8), (6, 9), (6, 10)), 16, (0.5,),
    ),
    "wire_zipf": (
        SyntheticConfig(
            num_references=600, num_labels=4, uncertainty=0.4, seed=POOL_SEED
        ),
        2, 0.1,
        ((3, 3), (4, 4), (4, 5), (4, 6), (5, 5), (5, 6), (5, 7), (6, 8)), 4,
        tuple(round(0.60 + 0.01 * step, 2) for step in range(16)),
    ),
    "live_updates": (
        POOL_GRAPH, 2, 0.3, ((2, 1), (3, 2), (3, 3), (4, 4), (4, 5)), 5,
        (0.5,),
    ),
}
# The [sizes] row: query sizes (nodes, edges) of the paper's figures.
SIZES = ((3, 3), (5, 7), (5, 10), (7, 21), (10, 20), (10, 40))
# The [fidelity] row: its pools, and the seeds of the random plans the
# exact plan is timed against (beside greedy's).
FIDELITY_POOLS = ("match_heavy", "lookup_heavy")
FIDELITY_SEEDS = tuple(range(6))
#: Paired rounds of the cached-vs-re-plan comparison.
PLAN_ROUNDS = 9


def _build_engine(num_references: int) -> QueryEngine:
    config = SyntheticConfig(
        num_references=num_references,
        edges_per_node=2,
        num_labels=4,
        uncertainty=0.3,
        groups=max(1, num_references // 20),
        seed=20260730,
    )
    peg = build_peg(generate_synthetic_pgd(config))
    return QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)


def _workload(rng: random.Random, sigma, distinct: int, repeats: int) -> list:
    queries = []
    for _ in range(distinct):
        num_nodes = rng.choice((3, 3, 4))
        max_edges = num_nodes * (num_nodes - 1) // 2
        num_edges = rng.randint(num_nodes - 1, max_edges)
        queries.append(
            random_query(num_nodes, num_edges, sigma,
                         seed=rng.randrange(2**31))
        )
    return queries * repeats


def match_keys(matches):
    return sorted(
        (m.nodes, m.edges, m.probability.hex()) for m in matches
    )


def _pool_requests(name: str) -> list:
    """``(query, alpha)`` of every request of pool ``name``, in the
    order of the end-to-end benchmark's pool."""
    graph, _, _, shapes, per_shape, alphas = POOLS[name]
    sigma = [f"L{i}" for i in range(graph.num_labels)]
    rng = random.Random(f"{POOL_SEED}/{name}")
    queries = [
        random_query(nodes, edges, sigma, seed=rng.randrange(2**31))
        for nodes, edges in shapes
        for _ in range(per_shape)
    ]
    return [(query, alpha) for query in queries for alpha in alphas]


@functools.lru_cache(maxsize=None)
def _engine(graph: SyntheticConfig, max_length: int, beta: float) -> QueryEngine:
    return QueryEngine(
        build_peg(generate_synthetic_pgd(graph)),
        max_length=max_length, beta=beta,
    )


def _pool_engine(name: str) -> QueryEngine:
    graph, max_length, beta, *_rest = POOLS[name]
    return _engine(graph, max_length, beta)


def _is_short_path(query, max_length: int) -> bool:
    """Whether ``query`` is itself a path of at most ``max_length``
    edges: one candidate path visits every node over every edge."""
    edges = set(query.edges)
    return any(
        len(path.nodes) == len(query.nodes) and path.path_edges == edges
        for path in enumerate_candidate_paths(query, max_length)
    )


def run_pools() -> dict:
    """Greedy against exact plans on every request of the four pools."""
    rows = {}
    for name in POOLS:
        engine = _pool_engine(name)
        requests = _pool_requests(name)
        totals = {"greedy": [0, 0], "exact": [0, 0]}
        fallbacks = 0
        short_paths = 0
        splits = {"greedy": 0, "exact": 0}
        agreement = True
        for query, alpha in requests:
            results = {
                "greedy": engine.query(query, alpha, PLAN_GREEDY),
                "exact": engine.query(query, alpha, PLAN_EXACT),
            }
            fallbacks += results["exact"].plan.source == "greedy"
            for strategy, result in results.items():
                totals[strategy][0] += len(result.decomposition_paths)
                totals[strategy][1] += result.link_stats.get("pairs", 0)
            if _is_short_path(query, engine.max_length):
                short_paths += 1
                for strategy, result in results.items():
                    splits[strategy] += len(result.decomposition_paths) > 1
            agreement = agreement and match_keys(
                results["greedy"].matches
            ) == match_keys(results["exact"].matches)
        row = {"requests": len(requests), "exact_fallbacks": fallbacks,
               "short_paths": short_paths,
               "agreement": agreement}
        for strategy, (partitions, pairs) in totals.items():
            row[f"{strategy}_partitions_per_request"] = partitions / len(requests)
            row[f"{strategy}_link_pairs_per_request"] = pairs / len(requests)
            row[f"{strategy}_short_path_splits"] = splits[strategy]
        rows[name] = row
    return rows


def run_fidelity(repeats: int) -> dict:
    """The exact plan's CPU time against the fastest alternative plan,
    per request of :data:`FIDELITY_POOLS`."""
    strategies = [PLAN_EXACT, PLAN_GREEDY] + [
        QueryOptions(decomposition="random", seed=seed)
        for seed in FIDELITY_SEEDS
    ]
    rows = {}
    for name in FIDELITY_POOLS:
        engine = _pool_engine(name)
        within_5 = slower_20 = 0
        exact_total = fastest_total = 0.0
        requests = _pool_requests(name)
        for query, alpha in requests:
            # Each distinct plan, keyed by its paths, is timed once;
            # exact's comes first.
            plans: dict = {}
            for options in strategies:
                decomposition, _ = engine.planner.plan(query, alpha, options)
                plans.setdefault(
                    tuple(path.nodes for path in decomposition.paths), options
                )
            # The link cache is off so that every repeat builds links.
            seconds = []
            for options in plans.values():
                uncached = dataclasses.replace(options, use_link_cache=False)
                seconds.append(fastest(
                    lambda: engine.query(query, alpha, uncached),
                    repeats, time.process_time,
                ))
            exact, best = seconds[0], min(seconds)
            within_5 += exact <= 1.05 * best
            slower_20 += exact > 1.20 * best
            exact_total += exact
            fastest_total += best
        rows[name] = {
            "requests": len(requests),
            "repeats": repeats,
            "exact_within_5pct": within_5,
            "exact_over_20pct_slower": slower_20,
            "exact_over_fastest": exact_total / fastest_total,
        }
    return rows


def run_sizes() -> dict:
    """``{L: {"q(n,e)": strategy exact used}}`` over :data:`SIZES`."""
    sigma = ("A", "B", "C")
    rows = {}
    for max_length in (1, 2, 3):
        row = {}
        for nodes, edges in SIZES:
            query = random_query(nodes, edges, sigma, seed=0)
            decomposition = decompose_query(
                query, lambda labels, alpha: 10.0, ALPHA, max_length,
                strategy="exact",
            )
            row[f"q({nodes},{edges})"] = {
                "candidates": len(enumerate_candidate_paths(query, max_length)),
                "strategy_used": decomposition.strategy_used,
            }
        rows[str(max_length)] = row
    return rows


def _planning_pass(planner: QueryPlanner, workload):
    """A side of the timer: plan every query of ``workload`` once."""
    return lambda: [
        planner.plan(query, ALPHA, PLAN_CACHED) for query in workload
    ]


def run(num_references: int, distinct: int, repeats: int) -> dict:
    rng = random.Random(96117)
    engine = _build_engine(num_references)
    sigma = sorted(engine.peg.sigma, key=repr)
    workload = _workload(rng, sigma, distinct, repeats)
    # Re-plans every query with the default strategy: the cache's
    # baseline, swapped in for the engine's own planner.
    cached_planner = engine.planner
    fresh_planner = QueryPlanner(engine, cache_size=0)

    # -- plan caching: planner-only timings ---------------------------
    # The hit/miss counters are process-wide; this run's share is the
    # delta around it. One cold pass fills the cache, then cached (B)
    # against re-planning (A).
    stats_before = cached_planner.stats_snapshot()
    cached_planner.cache.clear()
    cold_seconds = fastest(
        _planning_pass(cached_planner, workload[:distinct]), 1
    )
    caching = paired(
        _planning_pass(fresh_planner, workload),
        _planning_pass(cached_planner, workload), PLAN_ROUNDS, 1.0,
    )
    stats_after = cached_planner.stats_snapshot()
    planner_stats = {
        key: stats_after[key] - stats_before[key]
        for key in ("plan_cache_hits", "plan_cache_misses")
    }

    # -- plan caching: end-to-end decompose share ---------------------
    def decompose_share(planner):
        total = 0.0
        decompose = 0.0
        engine.planner = planner
        try:
            for query in workload:
                result = engine.query(query, ALPHA, PLAN_CACHED)
                total += result.total_seconds
                decompose += result.timings["plan"]
        finally:
            engine.planner = cached_planner
        return decompose, total

    fresh_decompose, fresh_total = decompose_share(fresh_planner)
    cached_decompose, cached_total = decompose_share(cached_planner)

    # -- exact strategy ----------------------------------------------
    exact_start = time.perf_counter()
    cost_ratios = []
    agreement = True
    for query in workload[:distinct]:
        exact_result = engine.query(query, ALPHA, PLAN_EXACT)
        greedy_result = engine.query(query, ALPHA, PLAN_GREEDY)
        cached_result = engine.query(query, ALPHA, PLAN_CACHED)
        baseline = match_keys(greedy_result.matches)
        agreement = agreement and match_keys(
            exact_result.matches
        ) == baseline and match_keys(cached_result.matches) == baseline
        if greedy_result.plan.estimated_cost > 0:
            cost_ratios.append(
                exact_result.plan.estimated_cost
                / greedy_result.plan.estimated_cost
            )
    exact_seconds = time.perf_counter() - exact_start

    return {
        "nodes": engine.peg.num_nodes,
        "workload": {
            "distinct": distinct,
            "repeats": repeats,
            "requests": len(workload),
        },
        "planning": {
            "cold_seconds": cold_seconds,
            "cached_over_replan": caching,
            "plan_cache_hits": planner_stats["plan_cache_hits"],
            "plan_cache_misses": planner_stats["plan_cache_misses"],
        },
        "end_to_end": {
            "fresh_decompose_seconds": fresh_decompose,
            "fresh_total_seconds": fresh_total,
            "cached_decompose_seconds": cached_decompose,
            "cached_total_seconds": cached_total,
            "decompose_speedup": fresh_decompose / cached_decompose
            if cached_decompose else float("inf"),
        },
        "exact": {
            "queries": distinct,
            "seconds": exact_seconds,
            "mean_cost_ratio_vs_greedy": (
                sum(cost_ratios) / len(cost_ratios) if cost_ratios else 1.0
            ),
        },
        "agreement": agreement,
    }


def main(argv=None) -> int:
    parser = harness.bench_parser(
        __doc__, "BENCH_planner",
        "small workload + CI gate: cached planning must beat re-planning",
    )
    parser.add_argument(
        "--size", type=int, default=None,
        help="override the synthetic graph size (references)",
    )
    args = parser.parse_args(argv)

    num_references = args.size or (120 if args.smoke else 400)
    distinct = 6 if args.smoke else 12
    repeats = 5 if args.smoke else 20

    results = run(num_references, distinct, repeats)
    pools = run_pools()
    sizes = run_sizes()
    fidelity = run_fidelity(3 if args.smoke else 7)
    report = {
        "benchmark": "planner",
        "repro_version": __version__,
        "mode": "smoke" if args.smoke else "large",
        "planner": results,
        "pools": pools,
        "sizes": sizes,
        "fidelity": fidelity,
    }
    outputs = harness.write_bench(report, args, "BENCH_planner")

    planning = results["planning"]
    caching = planning["cached_over_replan"]
    end_to_end = results["end_to_end"]
    print(
        f"[plan]     {results['workload']['requests']} requests "
        f"({results['workload']['distinct']} distinct): re-plan "
        f"{caching['a']:.4f}s vs cached {caching['b']:.4f}s "
        f"({planning['plan_cache_hits']} hits); cached/re-plan "
        f"{describe(caching)}"
    )
    print(
        f"[evaluate] decompose stage {end_to_end['fresh_decompose_seconds']:.4f}s"
        f" -> {end_to_end['cached_decompose_seconds']:.4f}s "
        f"({end_to_end['decompose_speedup']:.1f}x) of "
        f"{end_to_end['cached_total_seconds']:.4f}s total"
    )
    print(
        f"[exact]    mean cost ratio vs greedy "
        f"{results['exact']['mean_cost_ratio_vs_greedy']:.3f} "
        f"({results['exact']['seconds']:.4f}s for "
        f"{results['exact']['queries']} queries)"
    )
    for name, row in pools.items():
        print(
            f"[pools]    {name}: {row['requests']} requests; partitions "
            f"{row['greedy_partitions_per_request']:.2f} greedy -> "
            f"{row['exact_partitions_per_request']:.2f} exact, link pairs "
            f"{row['greedy_link_pairs_per_request']:.1f} -> "
            f"{row['exact_link_pairs_per_request']:.1f}; "
            f"{row['exact_fallbacks']} exact fallbacks; short paths split "
            f"{row['greedy_short_path_splits']} greedy -> "
            f"{row['exact_short_path_splits']}/{row['short_paths']} exact; "
            f"agreement={row['agreement']}"
        )
    for max_length, row in sizes.items():
        print(
            f"[sizes]    L={max_length}, plan (candidate paths): " + ", ".join(
                f"{size} {cell['strategy_used']} ({cell['candidates']})"
                for size, cell in row.items()
            )
        )
    for name, row in fidelity.items():
        print(
            f"[fidelity] {name}: exact within 5% of the fastest plan on "
            f"{row['exact_within_5pct']}/{row['requests']}, >20% slower on "
            f"{row['exact_over_20pct_slower']}; pool time "
            f"{row['exact_over_fastest']:.3f}x the per-request fastest "
            f"(fastest CPU time of {row['repeats']}, reported, not gated)"
        )
    print("wrote " + ", ".join(outputs))

    if not results["agreement"]:
        print("FAIL: planned evaluations disagree with the greedy baseline")
        return 1
    if not all(row["agreement"] for row in pools.values()):
        print("FAIL: exact and greedy plans disagree on a pool's matches")
        return 1
    if results["exact"]["mean_cost_ratio_vs_greedy"] > 1.0 + 1e-9:
        print("FAIL: exact plans cost more than greedy plans")
        return 1
    if args.smoke and caching["median"] > caching["bound"]:
        print("FAIL: cached planning is slower than re-planning")
        return 1
    if args.smoke and pools["lookup_heavy"]["exact_fallbacks"]:
        print("FAIL: exact falls back to greedy on lookup_heavy requests")
        return 1
    if args.smoke and any(
        row["exact_short_path_splits"] for row in pools.values()
    ):
        print("FAIL: exact splits a query that is a path of at most L edges")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
