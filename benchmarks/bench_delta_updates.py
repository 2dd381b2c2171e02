"""Live-update benchmark: delta-overlay maintenance vs full rebuild.

Measures the cost model the :mod:`repro.delta` subsystem promises:

* **apply throughput** — mutation batches absorbed per second by a
  running engine (PEG surgery + enumeration of the paths through the
  batch's dirty nodes + context patch), against the offline-rebuild
  time the same batch would otherwise cost; every batch is timed, and
  a batch should cost what it touches, whatever the graph's size and
  however many batches came before it,
* **overlay lookup overhead** — online query latency through the
  :class:`~repro.delta.overlay.DeltaOverlayIndex` (dirty-node masking +
  delta union) relative to an engine rebuilt from scratch over the
  *same* mutated graph, timed in alternating rounds (one pass of each
  per round) and reported as the median per-round ratio with its
  min-max range; a range that straddles 1 is ``unresolved``,
* **first pass after a batch** — the query workload timed once right
  after every batch, which pays whatever the batch invalidated (link
  structures, and plans if a batch re-keyed them); the warm overlay
  passes above hide it. Reported only, never gated,
* **compaction** — the cost of folding the delta back into the base
  stores, after which lookups are overhead-free again.

A correctness spot check (overlay vs rebuild match sets) runs inside
the benchmark: a fast wrong answer must fail, not impress. Results are
written as machine-readable ``BENCH_delta.json``; with ``--trajectory``
a versioned copy goes under ``benchmarks/results/`` for the
perf-trajectory table in ``benchmarks/summarize.py``. With ``--smoke``
(the CI gate) the script exits non-zero when the *mean* batch is not at
least ``SMOKE_MIN_SPEEDUP`` times faster than rebuilding the offline
phase from scratch — the whole point of the subsystem.

Usage::

    PYTHONPATH=src python benchmarks/bench_delta_updates.py --trajectory
    PYTHONPATH=src python benchmarks/bench_delta_updates.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

if __package__ in (None, ""):  # allow running without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    )

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
#: Alternating rounds of the overlay-vs-rebuilt read comparison.
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


def _time_queries(engine, queries, passes: int = 1) -> float:
    """Seconds for the workload: the fastest of ``passes`` runs (with
    several, the first is the warm-up of plans and probability arrays)."""
    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        for query in queries:
            engine.query(query, ALPHA)
        best = min(best, time.perf_counter() - start)
    return best


def _paired_overhead(overlay, rebuilt, queries) -> dict:
    """Overlay over rebuilt read time, one pass of each per round.

    The two passes of a round run back to back, their order alternating
    between rounds, so the host's drift lands on both sides of every
    round's ratio rather than on one side of two separate best-ofs.
    After one warm-up pass each, every round's ratio is kept: the
    median is the overhead, and a min-max range that straddles 1 means
    this run cannot tell the two apart (``unresolved``).
    """
    _time_queries(overlay, queries)
    _time_queries(rebuilt, queries)
    overlay_seconds, rebuilt_seconds = [], []
    for round_index in range(LOOKUP_ROUNDS):
        if round_index % 2:
            rebuilt_seconds.append(_time_queries(rebuilt, queries))
            overlay_seconds.append(_time_queries(overlay, queries))
        else:
            overlay_seconds.append(_time_queries(overlay, queries))
            rebuilt_seconds.append(_time_queries(rebuilt, queries))
    ratios = [
        over / base if base else float("inf")
        for over, base in zip(overlay_seconds, rebuilt_seconds)
    ]
    low, high = min(ratios), max(ratios)
    if low > 1.0:
        verdict = "overhead"
    elif high < 1.0:
        verdict = "faster"
    else:
        verdict = "unresolved"
    return {
        "overlay_seconds": statistics.median(overlay_seconds),
        "rebuilt_seconds": statistics.median(rebuilt_seconds),
        "overlay_overhead_ratio": statistics.median(ratios),
        "overlay_overhead_range": [low, high],
        "overlay_overhead_rounds": LOOKUP_ROUNDS,
        "overlay_overhead_verdict": verdict,
    }


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
    baseline_query_seconds = _time_queries(engine, queries)

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
        first_pass_seconds.append(_time_queries(engine, queries))
    apply_seconds = sum(batch_seconds)

    # Overlay overhead is overlay vs rebuilt on the *same* (mutated)
    # graph: against the pre-mutation baseline the two sides would
    # answer different queries' worth of matches.
    rebuilt = QueryEngine(peg, max_length=MAX_LENGTH, beta=BETA)
    overhead = _paired_overhead(engine, rebuilt, queries)
    agreement = all(
        match_keys(engine.query(q, ALPHA).matches)
        == match_keys(rebuilt.query(q, ALPHA).matches)
        for q in queries
    )

    compact_start = time.perf_counter()
    compact_stats = engine.compact_updates()
    compact_seconds = time.perf_counter() - compact_start
    compacted_query_seconds = _time_queries(engine, queries, passes=5)

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
            overhead,
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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload + CI gate: the mean batch must beat a rebuild "
        f"by {SMOKE_MIN_SPEEDUP:g}x",
    )
    parser.add_argument(
        "--out", default="BENCH_delta.json",
        help="where to write the machine-readable results",
    )
    parser.add_argument(
        "--trajectory", action="store_true",
        help="also write benchmarks/results/BENCH_delta-v<version>.json "
        "(the committed perf-trajectory point for this version)",
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
    outputs = [args.out]
    if args.trajectory:
        outputs.append(
            os.path.join(
                os.path.dirname(os.path.abspath(__file__)),
                "results",
                f"BENCH_delta-v{__version__}.json",
            )
        )
    for out in outputs:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

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
    low, high = lookup["overlay_overhead_range"]
    print(
        f"[lookup]  {lookup['queries']} queries, median of "
        f"{lookup['overlay_overhead_rounds']} alternating rounds: rebuilt "
        f"{lookup['rebuilt_seconds']:.4f}s, overlay "
        f"{lookup['overlay_seconds']:.4f}s (overlay/rebuilt "
        f"{lookup['overlay_overhead_ratio']:.3f}x, range "
        f"{low:.3f}-{high:.3f}x: {lookup['overlay_overhead_verdict']}), "
        f"post-compact {lookup['compacted_seconds']:.4f}s "
        f"(pre-mutation graph: {lookup['baseline_seconds']:.4f}s)"
    )
    print(
        "[first]   "
        + " ".join(
            f"{s:.4f}s" for s in lookup["first_pass_seconds_each_batch"]
        )
        + f" (mean {lookup['first_pass_seconds_mean']:.4f}s; warm overlay "
        f"{lookup['overlay_seconds']:.4f}s)"
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
