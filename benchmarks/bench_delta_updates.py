"""Live-update benchmark: live index maintenance vs full rebuild.

Measures the cost model the :mod:`repro.delta` subsystem promises:

* **apply throughput** — mutation batches absorbed per second by a
  running engine (PEG surgery + enumeration of the paths through the
  batch's dirty nodes + context patch), against the offline-rebuild
  time the same batch would otherwise cost; every batch is timed, and
  a batch should cost what it touches, whatever the graph's size and
  however many batches came before it,
* **overlay lookup overhead** — online query latency through an index
  that carries a live delta (:class:`~repro.index.path_index.PathIndex`
  masking stored rows through dirty nodes and appending the delta's
  rows) relative to an engine rebuilt from scratch over the *same*
  mutated graph. The estimator is the median overlay / rebuilt
  ratio of ``LOOKUP_ROUNDS`` (9) paired rounds
  (:func:`benchmarks.paired.paired`, one workload pass of each per
  round), with its IQR and range, against the claim "the overlay reads
  no slower than rebuilt" (bound 1.0): ``holds``, ``does not hold`` or
  ``unresolved``. Reported, never gated,
* **first pass after a batch** — the query workload timed once right
  after every batch, which pays whatever the batch invalidated (link
  structures, and plans if a batch re-keyed them); the warm overlay
  passes above hide it. Reported only, never gated,
* **compaction** — the cost of folding the delta back into the index's
  store, after which lookups are overhead-free again.

A correctness spot check (overlay vs rebuild match sets) runs inside
the benchmark: a fast wrong answer must fail, not impress. Results are
written as machine-readable ``BENCH_delta.json``; with ``--trajectory``
a versioned copy goes under ``benchmarks/results/``. With ``--smoke``
(the CI gate) the script exits non-zero when the *mean* batch is not at
least ``SMOKE_MIN_SPEEDUP`` times faster than rebuilding the offline
phase from scratch — the whole point of the subsystem.

Usage::

    PYTHONPATH=src python benchmarks/bench_delta_updates.py --trajectory
    PYTHONPATH=src python benchmarks/bench_delta_updates.py --smoke
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
from benchmarks.paired import describe, fastest, paired
from repro import __version__
from repro.datasets import SyntheticConfig, generate_synthetic_pgd, random_query
from repro.delta import AddEdge, AddEntity, UpdateLabelProbability
from repro.peg import build_peg
from repro.pgd import BernoulliEdge
from repro.query import QueryEngine

ALPHA = 0.3
MAX_LENGTH = 2
BETA = 0.05
#: The smoke gate: rebuild seconds / mean batch seconds, over *all*
#: batches (an overlay that re-enumerates its cumulative dirty region
#: passes on the first batch and fails on the mean).
SMOKE_MIN_SPEEDUP = 5.0
#: Paired rounds of the overlay-vs-rebuilt read comparison.
LOOKUP_ROUNDS = 9


def _build_peg(num_references: int):
    config = SyntheticConfig(
        num_references=num_references,
        edges_per_node=2,
        num_labels=4,
        uncertainty=0.3,
        groups=max(1, num_references // 20),
        seed=20260730,
    )
    return build_peg(generate_synthetic_pgd(config))


def _random_dist(rng: random.Random, sigma) -> dict:
    chosen = rng.sample(sigma, rng.randint(1, min(3, len(sigma))))
    weights = [rng.uniform(0.1, 1.0) for _ in chosen]
    total = sum(weights)
    return {label: w / total for label, w in zip(chosen, weights)}


def _mutation_batches(rng: random.Random, peg, sigma, num_batches: int,
                      batch_size: int) -> list:
    """Mixed update/add batches addressing the live graph."""
    batches = []
    fresh = 0
    live = [n for n in peg.node_ids() if not peg.is_removed_id(n)]
    for _ in range(num_batches):
        batch = []
        for _ in range(batch_size):
            roll = rng.random()
            if roll < 0.6:
                node = rng.choice(live)
                batch.append(
                    UpdateLabelProbability(
                        tuple(sorted(peg.entity_of(node), key=repr)),
                        _random_dist(rng, sigma),
                    )
                )
            elif roll < 0.8:
                fresh += 1
                batch.append(
                    AddEntity(
                        (f"bench-dyn-{fresh}",),
                        _random_dist(rng, sigma),
                        rng.uniform(0.6, 1.0),
                    )
                )
            else:
                anchor = rng.choice(live)
                fresh += 1
                batch.append(AddEntity(
                    (f"bench-dyn-{fresh}",),
                    _random_dist(rng, sigma),
                    rng.uniform(0.6, 1.0),
                ))
                batch.append(AddEdge(
                    tuple(sorted(peg.entity_of(anchor), key=repr)),
                    (f"bench-dyn-{fresh}",),
                    BernoulliEdge(rng.uniform(0.4, 1.0)),
                ))
        batches.append(batch)
    return batches


def _query_workload(rng: random.Random, sigma, count: int) -> list:
    queries = []
    for _ in range(count):
        num_nodes = rng.choice((2, 3))
        num_edges = 1 if num_nodes == 2 else rng.choice((2, 3))
        queries.append(
            random_query(num_nodes, num_edges, sigma,
                         seed=rng.randrange(2**31))
        )
    return queries


def _workload_pass(engine, queries):
    """A side of the timer: one pass of the query workload."""
    return lambda: [engine.query(query, ALPHA) for query in queries]


def match_keys(matches):
    return sorted(
        (m.nodes, m.edges, round(m.probability, 9)) for m in matches
    )


def run(num_references: int, num_batches: int, batch_size: int,
        num_queries: int) -> dict:
    rng = random.Random(4173)
    peg = _build_peg(num_references)
    sigma = sorted(peg.sigma, key=repr)

    build_start = time.perf_counter()
    engine = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    rebuild_seconds = time.perf_counter() - build_start

    queries = _query_workload(rng, sigma, num_queries)
    baseline_query_seconds = fastest(_workload_pass(engine, queries), 1)

    batches = _mutation_batches(rng, peg, sigma, num_batches, batch_size)
    total_ops = sum(len(batch) for batch in batches)
    batch_seconds = []
    enumerated_paths = []
    first_pass_seconds = []
    for batch in batches:
        batch_start = time.perf_counter()
        summary = engine.apply_updates(batch)
        batch_seconds.append(time.perf_counter() - batch_start)
        enumerated_paths.append(summary["enumerated_paths"])
        first_pass_seconds.append(
            fastest(_workload_pass(engine, queries), 1)
        )
    apply_seconds = sum(batch_seconds)

    # Overlay overhead is overlay (B) vs rebuilt (A) on the *same*
    # (mutated) graph, after one warm-up pass each: against the
    # pre-mutation baseline the two sides would answer different
    # queries' worth of matches.
    rebuilt = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    overlay_pass = _workload_pass(engine, queries)
    rebuilt_pass = _workload_pass(rebuilt, queries)
    overlay_pass()
    rebuilt_pass()
    overhead = paired(rebuilt_pass, overlay_pass, LOOKUP_ROUNDS, 1.0)
    agreement = all(
        match_keys(engine.query(q, ALPHA).matches)
        == match_keys(rebuilt.query(q, ALPHA).matches)
        for q in queries
    )

    compact_start = time.perf_counter()
    compact_stats = engine.compact_updates()
    compact_seconds = time.perf_counter() - compact_start
    # The fastest of five passes: the first warms the compacted stores.
    compacted_query_seconds = fastest(_workload_pass(engine, queries), 5)

    apply_per_batch = apply_seconds / max(1, num_batches)
    return {
        "nodes": peg.num_nodes,
        "rebuild_seconds": rebuild_seconds,
        "apply": {
            "batches": num_batches,
            "ops": total_ops,
            "seconds_total": apply_seconds,
            "seconds_per_batch": apply_per_batch,
            "seconds_each_batch": batch_seconds,
            "enumerated_paths_each_batch": enumerated_paths,
            "ops_per_second": total_ops / apply_seconds
            if apply_seconds else float("inf"),
            "speedup_vs_rebuild": rebuild_seconds / apply_per_batch
            if apply_per_batch else float("inf"),
        },
        "lookup": dict(
            overlay_overhead=overhead,
            queries=len(queries),
            baseline_seconds=baseline_query_seconds,
            first_pass_seconds_each_batch=first_pass_seconds,
            first_pass_seconds_mean=sum(first_pass_seconds)
            / max(1, len(first_pass_seconds)),
            compacted_seconds=compacted_query_seconds,
        ),
        "compact": dict(compact_stats, seconds=compact_seconds),
        "agreement": agreement,
    }


def main(argv=None) -> int:
    parser = harness.bench_parser(
        __doc__, "BENCH_delta",
        "small workload + CI gate: the mean batch must beat a rebuild "
        f"by {SMOKE_MIN_SPEEDUP:g}x",
    )
    parser.add_argument(
        "--size", type=int, default=None,
        help="override the synthetic graph size (references)",
    )
    args = parser.parse_args(argv)

    # The gate compares a batch (which costs what it touches) with a
    # rebuild (which scales with the graph): since the array-native
    # enumeration a 120-reference rebuild is ~20 ms, twice a batch, so
    # the smoke graph is the size at which the ratio means something.
    num_references = args.size or (600 if args.smoke else 400)
    num_batches = 4 if args.smoke else 10
    batch_size = 2 if args.smoke else 3
    num_queries = 10 if args.smoke else 25

    results = run(num_references, num_batches, batch_size, num_queries)
    report = {
        "benchmark": "delta_updates",
        "repro_version": __version__,
        "mode": "smoke" if args.smoke else "large",
        "workload": {
            "references": num_references,
            "batches": num_batches,
            "batch_size": batch_size,
            "queries": num_queries,
            "alpha": ALPHA,
        },
        "delta": results,
    }
    outputs = harness.write_bench(report, args, "BENCH_delta")

    apply = results["apply"]
    lookup = results["lookup"]
    print(
        f"[apply]   {apply['ops']} ops in {apply['batches']} batches: "
        f"mean batch {apply['seconds_per_batch']:.4f}s vs rebuild "
        f"{results['rebuild_seconds']:.4f}s "
        f"({apply['speedup_vs_rebuild']:.1f}x), "
        f"{apply['ops_per_second']:.0f} ops/s"
    )
    print(
        "[batches] "
        + " ".join(f"{s:.4f}s" for s in apply["seconds_each_batch"])
    )
    print(
        "[paths]   "
        + " ".join(str(n) for n in apply["enumerated_paths_each_batch"])
        + " enumerated"
    )
    overhead = lookup["overlay_overhead"]
    print(
        f"[lookup]  {lookup['queries']} queries: rebuilt "
        f"{overhead['a']:.4f}s, overlay {overhead['b']:.4f}s; overlay/"
        f"rebuilt {describe(overhead)}; post-compact "
        f"{lookup['compacted_seconds']:.4f}s (pre-mutation graph: "
        f"{lookup['baseline_seconds']:.4f}s)"
    )
    print(
        "[first]   "
        + " ".join(
            f"{s:.4f}s" for s in lookup["first_pass_seconds_each_batch"]
        )
        + f" (mean {lookup['first_pass_seconds_mean']:.4f}s; warm overlay "
        f"{overhead['b']:.4f}s)"
    )
    print(
        f"[compact] {results['compact']['sequences_rewritten']} sequences "
        f"in {results['compact']['seconds']:.4f}s; agreement="
        f"{results['agreement']}"
    )
    print("wrote " + ", ".join(outputs))

    if not results["agreement"]:
        print("FAIL: overlay results disagree with a from-scratch rebuild")
        return 1
    if args.smoke and apply["speedup_vs_rebuild"] < SMOKE_MIN_SPEEDUP:
        print(
            "FAIL: the mean mutation batch is not "
            f"{SMOKE_MIN_SPEEDUP:g}x faster than a rebuild"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
