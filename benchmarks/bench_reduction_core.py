"""Online-phase core benchmark: the stacked reduction against the
Python backend, on one large graph and on many small queries.

Measures the online phase's array hot paths:

* **reduction, large** — ``reduce()`` of one candidate k-partite graph
  large enough to be interpreter-bound (k = 3, >= 10k vertices): the
  stacked numpy backend (:mod:`repro.query.reduction`) against the
  incremental pure-Python reference (:mod:`repro.query.kpartite`), over
  the identical prebuilt link structure,
* **reduction, traffic** — many small queries, the shape the engine
  actually serves: 96 dense random queries (4-6 nodes, 5-10 edges) on
  a 200-reference synthetic graph at alpha 0.5, each through the
  engine's planner, lookup and link builder once; per query that
  reaches the join, build and ``reduce()`` time and the numpy calls
  ``reduce()`` makes,
* **decode** — bulk ``np.frombuffer`` payload decoding
  (:func:`repro.index.paths.decode_paths`) against the record-by-record
  scalar decoder,
* **store reads** — ``DiskPathStore.get_bucket`` (mmap-backed
  zero-copy views) feeding the filtered bulk decode.

Each backend's build time and the traffic, decode and store rows are
the fastest of ``--repeats`` runs (:func:`benchmarks.paired.fastest`).
The large graph's ``reduce()`` is compared in ``--repeats`` paired
rounds (:func:`benchmarks.paired.paired`; graphs built before the
clock starts): the estimator is the median vectorized / Python ratio,
with its IQR, range and verdict against the claim "vectorized is not
slower" (bound 1.0).

Results are written as machine-readable ``BENCH_reduction.json`` (see
``--out``; CI uploads it as a build artifact). With ``--trajectory``
the same report is *also* written to
``benchmarks/results/BENCH_reduction-v<version>.json`` — one file per
repro version, never overwritten by later versions.

The script exits non-zero when the backends disagree on a reduction
outcome (on both rows the stacked reduction must also match the
per-pair oracle :class:`repro.testing.reference.PerPairKPartiteGraph`
bit for bit: alive masks, perception vectors, ``rounds``,
``message_updates``), or — with ``--smoke``, the CI gate — when that
median ratio is above 1.0 on the large graph.

Usage::

    PYTHONPATH=src python benchmarks/bench_reduction_core.py --trajectory  # large
    PYTHONPATH=src python benchmarks/bench_reduction_core.py --smoke       # CI
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import time

import numpy as np

if __package__ in (None, ""):  # run as a script: put src/ and the repo root on the path
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from benchmarks import harness
from benchmarks.paired import describe, fastest, paired
from repro import __version__
from repro.datasets import SyntheticConfig, generate_synthetic_pgd, random_query
from repro.index.paths import (
    _decode_paths_scalar,
    decode_paths,
    decode_paths_above,
    encode_path_arrays,
)
from repro.peg import build_peg
from repro.peg.arrays import PegProbabilityArrays
from repro.pgd import pgd_from_edge_list
from repro.query import QueryEngine, QueryOptions
from repro.query.candidates import CandidateFinder
from repro.query.decompose import decompose_query
from repro.query.kpartite import CandidateKPartiteGraph, build_candidate_links
from repro.query.links import build_candidate_links_vectorized
from repro.query.query_graph import QueryGraph
from repro.query.reduction import VectorizedKPartiteGraph
from repro.storage.kvstore import DiskPathStore
from repro.testing.reference import PerPairKPartiteGraph

#: Query threshold of the reduction workload — low enough to keep many
#: candidates, high enough that both reduction principles fire.
ALPHA = 0.15

# The traffic row's recipe: the end-to-end benchmark's lookup_heavy
# pool, copied so this module stands alone.
TRAFFIC_GRAPH = SyntheticConfig(
    num_references=200, uncertainty=0.2, seed=20140331
)
TRAFFIC_QUERY_SEED = "20140331/lookup_heavy"
TRAFFIC_SHAPES = ((4, 5), (4, 6), (5, 7), (5, 8), (6, 9), (6, 10))
TRAFFIC_MAX_LENGTH = 3
TRAFFIC_BETA = 0.5
TRAFFIC_ALPHA = 0.5


def build_workload_peg(num_nodes: int, seed: int = 7):
    """Random ring+chords graph with uncertain labels and edges."""
    rng = random.Random(seed)
    node_labels = {
        f"n{i}": {"A": 0.85, "B": 0.15} for i in range(num_nodes)
    }
    edges = {(i, (i + 1) % num_nodes) for i in range(num_nodes)}
    while len(edges) < num_nodes * 2:
        a = rng.randrange(num_nodes)
        b = rng.randrange(num_nodes)
        if a != b and (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))
    # A wide edge-probability spread makes the perception-vector bounds
    # straddle alpha, so the upperbound pass runs real deletion rounds.
    edge_list = [
        (f"n{a}", f"n{b}", round(rng.uniform(0.4, 0.95), 3))
        for a, b in sorted(edges)
    ]
    return build_peg(pgd_from_edge_list(node_labels, edge_list))


def build_candidate_workload(num_nodes: int, seed: int = 7):
    """PEG + decomposition + candidates + links of the 4-node chain query.

    The chain decomposes into three length-1 paths (k = 3 partitions).
    Two partitions would make the upperbound pass a no-op — every
    surviving link already carries an exact pairwise probability >= α —
    so three are needed for multi-hop perception-vector propagation to
    delete vertices the structure pass cannot.
    """
    peg = build_workload_peg(num_nodes, seed)
    query = QueryGraph(
        {"u": "A", "v": "A", "w": "A", "x": "A"},
        [("u", "v"), ("v", "w"), ("w", "x")],
    )
    decomposition = decompose_query(
        query, estimator=lambda seq, alpha: 1.0, alpha=ALPHA, max_length=1
    )
    finder = CandidateFinder(
        peg, query, ALPHA, index=None, context=None, use_context=False
    )
    candidates = {
        i: finder.find(path)[0]
        for i, path in enumerate(decomposition.paths)
    }
    started = time.perf_counter()
    links = build_candidate_links(peg, decomposition, candidates, ALPHA)
    link_seconds = time.perf_counter() - started
    return peg, decomposition, candidates, links, link_seconds


def numpy_calls(fn) -> int:
    """How many numpy C functions, ufuncs and array methods ``fn()``
    calls (``sys.setprofile`` ``c_call`` events)."""
    count = 0

    def profile(_frame, event, arg) -> None:
        nonlocal count
        if event != "c_call":
            return
        owner = getattr(arg, "__self__", None)
        if isinstance(arg, np.ufunc) or isinstance(
            owner, (np.ndarray, np.ufunc, np.generic)
        ) or (getattr(arg, "__module__", None) or "").startswith("numpy"):
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def same_reduction(graph, stats, oracle, oracle_stats) -> bool:
    """Two reductions left the same state: every stat (``rounds`` and
    ``message_updates`` included), the alive masks, and the perception
    vectors of alive vertices bit for bit."""
    alive = graph.all_alive
    return (
        stats == oracle_stats
        and alive.tobytes() == oracle.all_alive.tobytes()
        and graph.vectors[:, alive].tobytes()
        == oracle.vectors[:, alive].tobytes()
    )


def bench_reduction(num_nodes: int, repeats: int) -> dict:
    peg, decomposition, candidates, links, link_seconds = (
        build_candidate_workload(num_nodes)
    )
    total_vertices = sum(len(c) for c in candidates.values())
    factories = {
        "python": lambda: CandidateKPartiteGraph(
            peg, decomposition, candidates, ALPHA, links=links
        ),
        "vectorized": lambda: VectorizedKPartiteGraph(
            peg, decomposition, candidates, ALPHA, links=links
        ),
    }
    # Each backend's fastest build; the graphs it builds are the ones
    # the paired rounds reduce, one per call, so only reduce() is timed.
    built = {name: [] for name in factories}
    build_seconds = {
        name: fastest(lambda: built[name].append(factory()), repeats)
        for name, factory in factories.items()
    }
    reduced = {}

    def reduce_side(name):
        def side():
            graph = built[name].pop()
            reduced[name] = (graph, graph.reduce())
        return side

    reduction = paired(
        reduce_side("python"), reduce_side("vectorized"), repeats, 1.0
    )
    (py_graph, py_stats), (vec_graph, vec_stats) = (
        reduced["python"], reduced["vectorized"]
    )
    pair_graph = PerPairKPartiteGraph(
        peg, decomposition, candidates, ALPHA, links=links
    )
    pair_stats = pair_graph.reduce()

    agreement = (
        py_stats.initial_sizes == vec_stats.initial_sizes
        and py_stats.after_structure_sizes == vec_stats.after_structure_sizes
        and py_stats.final_sizes == vec_stats.final_sizes
        and py_stats.structure_removed == vec_stats.structure_removed
        and py_stats.upperbound_removed == vec_stats.upperbound_removed
        and all(
            py_graph.alive_vertex_ids(i) == vec_graph.alive_vertex_ids(i)
            for i in range(py_graph.k)
        )
        and same_reduction(vec_graph, vec_stats, pair_graph, pair_stats)
    )
    py_build, vec_build = build_seconds["python"], build_seconds["vectorized"]
    py_reduce, vec_reduce = reduction["a"], reduction["b"]
    return {
        "total_vertices": total_vertices,
        "partition_sizes": list(py_stats.initial_sizes),
        "final_sizes": list(py_stats.final_sizes),
        "structure_removed": py_stats.structure_removed,
        "upperbound_removed": py_stats.upperbound_removed,
        "link_build_seconds": link_seconds,
        "python_build_seconds": py_build,
        "python_reduce_seconds": py_reduce,
        "vectorized_build_seconds": vec_build,
        "vectorized_reduce_seconds": vec_reduce,
        "rounds": vec_stats.rounds,
        "message_updates": vec_stats.message_updates,
        "speedup_reduce": 1.0 / reduction["median"],
        "speedup_total": (py_build + py_reduce)
        / max(vec_build + vec_reduce, 1e-12),
        "vectorized_over_python_reduce": reduction,
        "agreement": agreement,
    }


def build_traffic_workload(per_shape: int) -> list:
    """``(peg, arrays, queries, joins)``: every traffic query that
    reaches the join, as the ``(decomposition, candidates, links)`` the
    engine's plan, lookup and link stages produce."""
    peg = build_peg(generate_synthetic_pgd(TRAFFIC_GRAPH))
    engine = QueryEngine(
        peg, max_length=TRAFFIC_MAX_LENGTH, beta=TRAFFIC_BETA
    )
    arrays = PegProbabilityArrays(peg)
    sigma = [f"L{i}" for i in range(TRAFFIC_GRAPH.num_labels)]
    rng = random.Random(TRAFFIC_QUERY_SEED)
    queries = [
        random_query(nodes, edges, sigma, seed=rng.randrange(2**31))
        for nodes, edges in TRAFFIC_SHAPES
        for _ in range(per_shape)
    ]
    joins = []
    for query in queries:
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
        if all(candidates.values()):
            links = build_candidate_links_vectorized(
                peg, decomposition, candidates, TRAFFIC_ALPHA, arrays=arrays
            )
            joins.append((decomposition, candidates, links))
    return peg, arrays, len(queries), joins


def bench_traffic(per_shape: int, repeats: int) -> dict:
    peg, arrays, num_queries, joins = build_traffic_workload(per_shape)

    def graphs(graph_class):
        return [
            graph_class(
                peg, decomposition, candidates, TRAFFIC_ALPHA, links=links,
                arrays=arrays,
            )
            for decomposition, candidates, links in joins
        ]

    # Warm the probability tables, then the fastest of ``repeats``
    # passes over every join, in CPU time: building every graph, then
    # reducing the graphs one building pass left.
    graphs(VectorizedKPartiteGraph)
    built = []
    best_build = fastest(
        lambda: built.append(graphs(VectorizedKPartiteGraph)), repeats,
        time.process_time,
    )
    best_reduce = fastest(
        lambda: [graph.reduce() for graph in built.pop()], repeats,
        time.process_time,
    )
    calls = 0
    agreement = True
    for graph, oracle in zip(
        graphs(VectorizedKPartiteGraph), graphs(PerPairKPartiteGraph)
    ):
        results = {}
        calls += numpy_calls(lambda: results.update(stats=graph.reduce()))
        agreement = agreement and same_reduction(
            graph, results["stats"], oracle, oracle.reduce()
        )
    count = max(len(joins), 1)
    return {
        "queries": num_queries,
        "joins": len(joins),
        "alpha": TRAFFIC_ALPHA,
        "build_ms_per_join": 1e3 * best_build / count,
        "reduce_ms_per_join": 1e3 * best_reduce / count,
        "reduce_numpy_calls_per_join": calls / count,
        "agreement": agreement,
    }


def random_payload(num_paths: int, seed: int) -> bytes:
    """One bucket payload of ``num_paths`` random 4-node paths."""
    rng = np.random.default_rng(seed)
    return encode_path_arrays(
        rng.integers(0, 2**31, size=(num_paths, 4)),
        rng.random(num_paths),
        rng.random(num_paths),
    )


def bench_decode(num_paths: int, repeats: int) -> dict:
    payload = random_payload(num_paths, 13)
    scalar = fastest(lambda: _decode_paths_scalar(payload), repeats)
    bulk = fastest(lambda: decode_paths(payload), repeats)
    filtered = fastest(lambda: decode_paths_above(payload, 0.5), repeats)
    return {
        "paths": num_paths,
        "scalar_decode_seconds": scalar,
        "bulk_decode_seconds": bulk,
        "bulk_decode_above_seconds": filtered,
        "speedup_decode": scalar / max(bulk, 1e-12),
    }


def bench_store_reads(num_paths: int, repeats: int) -> dict:
    payload = random_payload(num_paths, 17)
    sequence = ("A", "A", "A", "A")
    with tempfile.TemporaryDirectory() as directory:
        with DiskPathStore(directory) as store:
            for bucket in range(330, 1000, 10):
                store.put_bucket(sequence, bucket, payload)
            best = fastest(
                lambda: [
                    decode_paths_above(store.get_bucket(sequence, bucket), 0.5)
                    for bucket in range(330, 1000, 10)
                ],
                repeats,
            )
    return {"mmap_read_decode_seconds": best, "paths_per_bucket": num_paths}


def main(argv=None) -> int:
    parser = harness.bench_parser(
        __doc__, "BENCH_reduction",
        "small CI workload; exit 1 if the vectorized backend is "
        "slower than the Python backend",
    )
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="override the PEG size (nodes; candidates scale ~4x)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="best-of repeat count, and the large graph's paired rounds",
    )
    args = parser.parse_args(argv)

    num_nodes = args.nodes or (500 if args.smoke else 2500)
    repeats = args.repeats or (2 if args.smoke else 3)

    reduction = bench_reduction(num_nodes, repeats)
    traffic = bench_traffic(4 if args.smoke else 16, repeats)
    decode = bench_decode(2_000 if args.smoke else 50_000, repeats)
    store = bench_store_reads(500 if args.smoke else 5_000, repeats)

    report = {
        "benchmark": "reduction_core",
        "repro_version": __version__,
        "mode": "smoke" if args.smoke else "large",
        "workload": {
            "nodes": num_nodes,
            "alpha": ALPHA,
            "repeats": repeats,
        },
        "reduction": reduction,
        "traffic": traffic,
        "decode": decode,
        "store_reads": store,
    }
    outputs = harness.write_bench(report, args, "BENCH_reduction")

    print(
        f"[reduction] {reduction['total_vertices']} candidate vertices: "
        f"python reduce {reduction['python_reduce_seconds']:.4f}s, "
        f"vectorized reduce {reduction['vectorized_reduce_seconds']:.4f}s "
        f"({reduction['speedup_reduce']:.1f}x), agreement="
        f"{reduction['agreement']}; vectorized/python "
        f"{describe(reduction['vectorized_over_python_reduce'])}"
    )
    print(
        f"[traffic]   {traffic['joins']} of {traffic['queries']} queries "
        f"join: per join, build {traffic['build_ms_per_join']:.3f} ms, "
        f"reduce {traffic['reduce_ms_per_join']:.3f} ms in "
        f"{traffic['reduce_numpy_calls_per_join']:.1f} numpy calls, "
        f"agreement={traffic['agreement']}"
    )
    print(
        f"[decode]    {decode['paths']} paths: scalar "
        f"{decode['scalar_decode_seconds']:.4f}s, bulk "
        f"{decode['bulk_decode_seconds']:.4f}s "
        f"({decode['speedup_decode']:.1f}x)"
    )
    print(
        f"[store]     read+decode {store['mmap_read_decode_seconds']:.4f}s "
        f"({store['paths_per_bucket']} paths/bucket)"
    )
    print("wrote " + ", ".join(outputs))

    if not (reduction["agreement"] and traffic["agreement"]):
        print("FAIL: backends disagree on the reduction outcome")
        return 1
    if not args.smoke and reduction["total_vertices"] < 10_000:
        print("FAIL: large workload must have >= 10k candidate vertices")
        return 1
    ratio = reduction["vectorized_over_python_reduce"]
    if args.smoke and ratio["median"] > ratio["bound"]:
        print("FAIL: vectorized backend slower than the Python backend")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
