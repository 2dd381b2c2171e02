"""Online-phase core benchmark: vectorized vs Python reduction backend.

Measures the three hot paths PR 3 vectorized, on one synthetic workload
large enough to be interpreter-bound:

* **reduction** — ``reduce()`` of the candidate k-partite graph, numpy
  whole-array backend (:mod:`repro.query.reduction`) against the
  incremental pure-Python reference (:mod:`repro.query.kpartite`), over
  the identical prebuilt link structure,
* **decode** — bulk ``np.frombuffer`` payload decoding
  (:func:`repro.index.paths.decode_paths`) against the record-by-record
  scalar decoder,
* **store reads** — ``DiskPathStore.get_bucket`` (mmap-backed
  zero-copy views) feeding the filtered bulk decode.

Results are written as machine-readable ``BENCH_reduction.json`` (see
``--out``; CI uploads it as a build artifact). With ``--trajectory``
the same report is *also* written to
``benchmarks/results/BENCH_reduction-v<version>.json`` — one file per
repro version, never overwritten by later versions — which is what
``benchmarks/summarize.py`` merges into the perf-trajectory table;
commit that copy so future PRs have a baseline to regress against. The
script exits non-zero when the backends disagree on the reduction
outcome, or — with ``--smoke``, the CI gate — when the vectorized
backend is not at least as fast as the Python backend.

Usage::

    PYTHONPATH=src python benchmarks/bench_reduction_core.py --trajectory  # large
    PYTHONPATH=src python benchmarks/bench_reduction_core.py --smoke       # CI
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time

import numpy as np

if __package__ in (None, ""):  # allow running without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    )

from repro import __version__
from repro.index.paths import (
    _decode_paths_scalar,
    decode_paths,
    decode_paths_above,
    encode_path_arrays,
)
from repro.peg import build_peg
from repro.pgd import pgd_from_edge_list
from repro.query.candidates import CandidateFinder
from repro.query.decompose import decompose_query
from repro.query.kpartite import CandidateKPartiteGraph, build_candidate_links
from repro.query.query_graph import QueryGraph
from repro.query.reduction import VectorizedKPartiteGraph
from repro.storage.kvstore import DiskPathStore

#: Query threshold of the reduction workload — low enough to keep many
#: candidates, high enough that both reduction principles fire.
ALPHA = 0.15


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


def _time_backend(factory, repeats: int) -> tuple:
    """Best-of-``repeats`` construction and reduce() time of one backend."""
    best_build = best_reduce = float("inf")
    stats = None
    for _ in range(repeats):
        started = time.perf_counter()
        graph = factory()
        built = time.perf_counter()
        stats = graph.reduce()
        reduced = time.perf_counter()
        best_build = min(best_build, built - started)
        best_reduce = min(best_reduce, reduced - built)
    return best_build, best_reduce, stats, graph


def bench_reduction(num_nodes: int, repeats: int) -> dict:
    peg, decomposition, candidates, links, link_seconds = (
        build_candidate_workload(num_nodes)
    )
    total_vertices = sum(len(c) for c in candidates.values())

    py_build, py_reduce, py_stats, py_graph = _time_backend(
        lambda: CandidateKPartiteGraph(
            peg, decomposition, candidates, ALPHA, links=links
        ),
        repeats,
    )
    vec_build, vec_reduce, vec_stats, vec_graph = _time_backend(
        lambda: VectorizedKPartiteGraph(
            peg, decomposition, candidates, ALPHA, links=links
        ),
        repeats,
    )

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
    )
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
        "speedup_reduce": py_reduce / max(vec_reduce, 1e-12),
        "speedup_total": (py_build + py_reduce)
        / max(vec_build + vec_reduce, 1e-12),
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

    def best(fn):
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            times.append(time.perf_counter() - started)
        return min(times)

    scalar = best(lambda: _decode_paths_scalar(payload))
    bulk = best(lambda: decode_paths(payload))
    filtered = best(lambda: decode_paths_above(payload, 0.5))
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
            best = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                for bucket in range(330, 1000, 10):
                    decode_paths_above(
                        store.get_bucket(sequence, bucket), 0.5
                    )
                best = min(best, time.perf_counter() - started)
    return {"mmap_read_decode_seconds": best, "paths_per_bucket": num_paths}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small CI workload; exit 1 if the vectorized backend is "
        "slower than the Python backend",
    )
    parser.add_argument(
        "--out", default="BENCH_reduction.json",
        help="where to write the machine-readable results",
    )
    parser.add_argument(
        "--trajectory", action="store_true",
        help="also write benchmarks/results/BENCH_reduction-v<version>"
        ".json (the committed perf-trajectory point for this version)",
    )
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="override the PEG size (nodes; candidates scale ~4x)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="best-of repeat count"
    )
    args = parser.parse_args(argv)

    num_nodes = args.nodes or (500 if args.smoke else 2500)
    repeats = args.repeats or (2 if args.smoke else 3)

    reduction = bench_reduction(num_nodes, repeats)
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
        "decode": decode,
        "store_reads": store,
    }
    outputs = [args.out]
    if args.trajectory:
        outputs.append(
            os.path.join(
                os.path.dirname(os.path.abspath(__file__)),
                "results",
                f"BENCH_reduction-v{__version__}.json",
            )
        )
    for out in outputs:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

    print(
        f"[reduction] {reduction['total_vertices']} candidate vertices: "
        f"python reduce {reduction['python_reduce_seconds']:.4f}s, "
        f"vectorized reduce {reduction['vectorized_reduce_seconds']:.4f}s "
        f"({reduction['speedup_reduce']:.1f}x), agreement="
        f"{reduction['agreement']}"
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

    if not reduction["agreement"]:
        print("FAIL: backends disagree on the reduction outcome")
        return 1
    if not args.smoke and reduction["total_vertices"] < 10_000:
        print("FAIL: large workload must have >= 10k candidate vertices")
        return 1
    if args.smoke and reduction["speedup_reduce"] < 1.0:
        print("FAIL: vectorized backend slower than the Python backend")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
