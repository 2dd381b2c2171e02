"""Candidate-link building benchmark: vectorized vs Python builder.

Measures the link-construction stage, on the same synthetic candidate
workload as ``bench_reduction_core.py`` (ring+chords PEG, 4-node chain
query, three partitions):

* **cold build** — :func:`repro.query.links.build_candidate_links_vectorized`
  with an empty :class:`~repro.query.links.LinkStructureCache` against
  the pure-Python reference
  (:func:`repro.query.kpartite.build_candidate_links`),
* **warm build** — the same call against a populated cache (every
  partition pair must report as a cache hit),
* **total online cost** — link build plus k-partite construction plus
  ``reduce()``, Python end to end against vectorized end to end; this
  is the number the CI gate enforces, because a fast link build that
  slowed reduction down would be a regression,
* **traffic** — many small queries, the shape the engine actually
  serves: the end-to-end benchmark's ``lookup_heavy`` pool (96 dense
  queries, ~12 joining partition pairs each) and ``match_heavy`` pool
  (100 sparse ones, ~3 pairs each), recipes copied in, each through the
  engine's planner and lookup once; per query that reaches the join,
  CPU ms and numpy calls of the stacked build (no cache) against the
  per-pair oracle (:func:`repro.testing.reference.per_pair_links`).

Builds, the warm total and the traffic rows are the fastest of
``--repeats`` runs (:func:`benchmarks.paired.fastest`; the traffic rows
in CPU time). The gated total is compared in ``--repeats`` paired
rounds (:func:`benchmarks.paired.paired`): the estimator is the median
vectorized / Python ratio, with its IQR, range and verdict against the
speedup floor's bound (1/5 large, 1/2 ``--smoke``); ``speedup_total``
is its inverse.

The script exits non-zero when the builders disagree on the link
structure (exact list equality; on the traffic row, the stacked pass's
pre-α probabilities against the oracle's bit for bit), when the two
reduction runs disagree on sizes/removals/survivors, when a warm build
is not pure cache hits, or when the median total ratio misses the
speedup floor (5x large, 2x ``--smoke``). Results are written as
``BENCH_links.json``; with
``--trajectory`` a per-version copy goes to
``benchmarks/results/BENCH_links-v<version>.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_link_build.py --trajectory  # large
    PYTHONPATH=src python benchmarks/bench_link_build.py --smoke       # CI
"""

from __future__ import annotations

import os
import random
import sys
import time

if __package__ in (None, ""):  # run as a script: put src/ and the repo root on the path
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from benchmarks import harness
from benchmarks.bench_reduction_core import (
    ALPHA,
    build_candidate_workload,
    numpy_calls,
)
from benchmarks.paired import describe, fastest, paired
from repro import __version__
from repro.datasets import SyntheticConfig, generate_synthetic_pgd, random_query
from repro.peg import build_peg
from repro.query import QueryEngine, QueryOptions
from repro.query.candidates import CandidateFinder
from repro.query.kpartite import CandidateKPartiteGraph, build_candidate_links
from repro.query.links import (
    LinkStructureCache,
    build_candidate_links_vectorized,
    link_probabilities,
)
from repro.query.reduction import PegProbabilityArrays, VectorizedKPartiteGraph
from repro.testing.reference import per_pair_links

# The traffic row's recipes: the end-to-end benchmark's lookup_heavy and
# match_heavy pools, copied so this module stands alone.
TRAFFIC_GRAPH = SyntheticConfig(
    num_references=200, uncertainty=0.2, seed=20140331
)
TRAFFIC_POOLS = {
    "lookup_heavy": ((4, 5), (4, 6), (5, 7), (5, 8), (6, 9), (6, 10)),
    "match_heavy": ((3, 2), (3, 3), (4, 3), (4, 4), (5, 5)),
}
TRAFFIC_PER_SHAPE = {"lookup_heavy": 16, "match_heavy": 20}
TRAFFIC_MAX_LENGTH = 3
TRAFFIC_BETA = 0.5
TRAFFIC_ALPHA = 0.5


def _reduce_stats(graph):
    stats = graph.reduce()
    return (
        stats.initial_sizes,
        stats.after_structure_sizes,
        stats.final_sizes,
        stats.structure_removed,
        stats.upperbound_removed,
        tuple(graph.alive_vertex_ids(i) for i in range(graph.k)),
    )


def bench_links(num_nodes: int, repeats: int, floor: float) -> dict:
    peg, decomposition, candidates, reference, _ = build_candidate_workload(
        num_nodes
    )
    total_vertices = sum(len(c) for c in candidates.values())
    arrays = PegProbabilityArrays(peg)

    # Python reference builder (re-timed here; the workload helper's
    # single-shot timing is discarded).
    py_build = fastest(
        lambda: build_candidate_links(peg, decomposition, candidates, ALPHA),
        repeats,
    )

    # Vectorized cold: fresh cache every call, so every pair misses.
    def cold():
        return build_candidate_links_vectorized(
            peg, decomposition, candidates, ALPHA,
            arrays=arrays, cache=LinkStructureCache(),
        )

    cold_build = fastest(cold, repeats)
    cold_links = cold()
    if cold_links.pair_lists() != reference:
        raise SystemExit("FAIL: vectorized links differ from the reference")
    if cold_links.stats["cache_hits"] != 0:
        raise SystemExit("FAIL: cold build reported cache hits")

    # Vectorized warm: one shared cache, populated by the first build.
    cache = LinkStructureCache()
    build_candidate_links_vectorized(
        peg, decomposition, candidates, ALPHA, arrays=arrays, cache=cache
    )

    def warm():
        return build_candidate_links_vectorized(
            peg, decomposition, candidates, ALPHA, arrays=arrays, cache=cache
        )

    warm_build = fastest(warm, repeats)
    warm_links = warm()
    partition_pairs = warm_links.stats["cache_hits"]
    if partition_pairs == 0 or warm_links.stats["cache_misses"] != 0:
        raise SystemExit("FAIL: warm build was not pure cache hits")
    if warm_links.pair_lists() != reference:
        raise SystemExit("FAIL: warm cached links differ from the reference")

    # End-to-end online cost: build links, build the k-partite graph,
    # reduce. Reduction outcomes must agree exactly across the paths.
    outcomes = {}

    def python_total():
        links = build_candidate_links(peg, decomposition, candidates, ALPHA)
        graph = CandidateKPartiteGraph(
            peg, decomposition, candidates, ALPHA, links=links
        )
        outcomes["python"] = _reduce_stats(graph)

    def vectorized_total(warm_cache=None):
        links = build_candidate_links_vectorized(
            peg, decomposition, candidates, ALPHA,
            arrays=arrays,
            cache=warm_cache if warm_cache is not None
            else LinkStructureCache(),
        )
        graph = VectorizedKPartiteGraph(
            peg, decomposition, candidates, ALPHA, links=links, arrays=arrays
        )
        key = "cold" if warm_cache is None else "warm"
        outcomes[key] = _reduce_stats(graph)

    total = paired(python_total, vectorized_total, repeats, 1.0 / floor)
    warm_total = fastest(lambda: vectorized_total(warm_cache=cache), repeats)
    agreement = outcomes["python"] == outcomes["cold"] == outcomes["warm"]
    py_total, vec_total = total["a"], total["b"]

    num_links = sum(len(pairs) for pairs in reference.values())
    return {
        "total_vertices": total_vertices,
        "partition_pairs": partition_pairs,
        "links": num_links,
        "fallback_pairs": cold_links.stats["fallback_pairs"],
        "python_build_seconds": py_build,
        "vectorized_build_seconds": cold_build,
        "warm_build_seconds": warm_build,
        "speedup_build": py_build / max(cold_build, 1e-12),
        "speedup_warm_build": py_build / max(warm_build, 1e-12),
        "python_total_seconds": py_total,
        "vectorized_total_seconds": vec_total,
        "warm_total_seconds": warm_total,
        "speedup_total": 1.0 / total["median"],
        "speedup_warm_total": py_total / max(warm_total, 1e-12),
        "vectorized_over_python_total": total,
        "agreement": agreement,
    }


def traffic_joins(engine, name: str, scale: float) -> list:
    """``(decomposition, candidates)`` of every query of pool ``name``
    that reaches the join with at least one joining pair."""
    peg = engine.peg
    sigma = [f"L{i}" for i in range(TRAFFIC_GRAPH.num_labels)]
    rng = random.Random(f"{TRAFFIC_GRAPH.seed}/{name}")
    per_shape = max(1, round(TRAFFIC_PER_SHAPE[name] * scale))
    joins = []
    for nodes, edges in TRAFFIC_POOLS[name]:
        for _ in range(per_shape):
            query = random_query(nodes, edges, sigma, seed=rng.randrange(2**31))
            decomposition, _ = engine.planner.plan(
                query, TRAFFIC_ALPHA, QueryOptions()
            )
            finder = CandidateFinder(
                peg, query, TRAFFIC_ALPHA, index=engine.index,
                context=engine.context,
            )
            candidates = {
                i: finder.find(path)[0]
                for i, path in enumerate(decomposition.paths)
            }
            if all(candidates.values()) and decomposition.join_predicates:
                joins.append((decomposition, candidates))
    return joins


def bench_traffic(scale: float, repeats: int) -> dict:
    peg = build_peg(generate_synthetic_pgd(TRAFFIC_GRAPH))
    engine = QueryEngine(
        peg, max_length=TRAFFIC_MAX_LENGTH, beta=TRAFFIC_BETA
    )
    arrays = PegProbabilityArrays(peg)
    rows = {}
    for name in TRAFFIC_POOLS:
        joins = traffic_joins(engine, name, scale)
        builders = {
            "oracle": lambda d, c: per_pair_links(peg, d, c, arrays),
            "stacked": lambda d, c: build_candidate_links_vectorized(
                peg, d, c, TRAFFIC_ALPHA, arrays=arrays
            ),
        }
        agreement = True
        for decomposition, candidates in joins:
            oracle = per_pair_links(peg, decomposition, candidates, arrays)
            stacked = link_probabilities(peg, decomposition, candidates, arrays)
            agreement = agreement and list(stacked) == list(oracle) and all(
                [array.tobytes() for array in stacked[pair][:3]]
                + [stacked[pair][3]]
                == [array.tobytes() for array in oracle[pair][:3]]
                + [oracle[pair][3]]
                for pair in oracle
            )
        count = max(len(joins), 1)
        row = {
            "joins": len(joins),
            "pairs_per_join": sum(
                len(d.join_predicates) for d, _ in joins
            ) / count,
            "agreement": agreement,
        }
        for label, build in builders.items():
            # Warm the plans and edge rows, then the fastest of
            # ``repeats`` passes over every join, in CPU time.
            def every_join(build=build):
                return [build(d, c) for d, c in joins]

            every_join()
            best = fastest(every_join, repeats, time.process_time)
            calls = sum(
                numpy_calls(lambda: build(decomposition, candidates))
                for decomposition, candidates in joins
            )
            row[f"{label}_ms_per_join"] = 1e3 * best / count
            row[f"{label}_numpy_calls_per_join"] = calls / count
        rows[name] = row
    return rows


def main(argv=None) -> int:
    parser = harness.bench_parser(
        __doc__, "BENCH_links",
        "small CI workload; exit 1 below a 2x total speedup",
    )
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="override the PEG size (nodes; candidates scale ~4x)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="best-of repeat count, and the gated total's paired rounds",
    )
    args = parser.parse_args(argv)

    num_nodes = args.nodes or (500 if args.smoke else 2500)
    repeats = args.repeats or (2 if args.smoke else 3)
    floor = 2.0 if args.smoke else 5.0

    links = bench_links(num_nodes, repeats, floor)
    traffic = bench_traffic(0.25 if args.smoke else 1.0, repeats)

    report = {
        "benchmark": "link_build",
        "repro_version": __version__,
        "mode": "smoke" if args.smoke else "large",
        "workload": {
            "nodes": num_nodes,
            "alpha": ALPHA,
            "repeats": repeats,
        },
        "links": links,
        "traffic": traffic,
    }
    outputs = harness.write_bench(report, args, "BENCH_links")

    print(
        f"[links] {links['total_vertices']} candidate vertices, "
        f"{links['links']} links over {links['partition_pairs']} pairs: "
        f"python build {links['python_build_seconds']:.4f}s, vectorized "
        f"{links['vectorized_build_seconds']:.4f}s "
        f"({links['speedup_build']:.1f}x cold, "
        f"{links['speedup_warm_build']:.1f}x warm)"
    )
    print(
        f"[total] build+reduce: python {links['python_total_seconds']:.4f}s, "
        f"vectorized {links['vectorized_total_seconds']:.4f}s "
        f"({links['speedup_total']:.1f}x cold, "
        f"{links['speedup_warm_total']:.1f}x warm), agreement="
        f"{links['agreement']}; vectorized/python "
        f"{describe(links['vectorized_over_python_total'])}"
    )
    for name, row in traffic.items():
        print(
            f"[traffic] {name}: {row['joins']} joins, "
            f"{row['pairs_per_join']:.1f} pairs each; per join, oracle "
            f"{row['oracle_ms_per_join']:.3f} ms in "
            f"{row['oracle_numpy_calls_per_join']:.0f} numpy calls, stacked "
            f"{row['stacked_ms_per_join']:.3f} ms in "
            f"{row['stacked_numpy_calls_per_join']:.0f}, "
            f"agreement={row['agreement']}"
        )
    print("wrote " + ", ".join(outputs))

    if not links["agreement"]:
        print("FAIL: reduction outcomes disagree across builders")
        return 1
    if not all(row["agreement"] for row in traffic.values()):
        print("FAIL: the stacked link pass differs from the per-pair oracle")
        return 1
    if not args.smoke and links["total_vertices"] < 10_000:
        print("FAIL: large workload must have >= 10k candidate vertices")
        return 1
    total = links["vectorized_over_python_total"]
    if total["median"] > total["bound"]:
        print(
            f"FAIL: total (build+reduce) speedup "
            f"{links['speedup_total']:.2f}x below the {floor:.0f}x floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
