"""Sharded-store scaling benchmark: parallel builds + batched queries.

Not a paper figure — this measures the sharded store and the
process-pool build added on top of the reproduction
(``repro.index.sharded``, ``PathIndexBuilder(build_processes=)`` and
batched execution):

* the offline build must get faster with a parallel enumeration —
  *given CPUs to scale onto*: the build uses a process pool whose
  workers warm-start with the pickled PEG, and on a single-core host
  the ratio is pinned near (or below) 1.0 by hardware, so the strict
  assertion only applies when >= 2 CPUs are available;
* the sharded and monolithic indexes must hold exactly the same paths
  (count parity is asserted here; exact per-lookup agreement is the
  differential harness's job);
* a batch of queries sharing candidate label sequences must issue
  strictly fewer store reads through
  :meth:`~repro.query.engine.QueryEngine.query_batch` than the same
  queries evaluated individually — asserted via the stores' read
  counters — while returning identical results.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_shard_scaling.py -v``.
"""

import pytest

from benchmarks import harness
from repro.index import build_path_index, open_store
from repro.index.bundle import clear_offline_artifacts
from repro.query import QueryEngine, QueryGraph
from repro.datasets import random_query
from repro.obs.timing import Timer

#: Large enough that the serial sharded build (~1 s on the 2-CPU
#: sandbox) is past the 0.4 s below which the scaling gate skips itself:
#: since the array-native enumeration a 600-reference build is ~0.1 s,
#: and at 4000 (~0.6 s) two processes lost to one in a run out of three.
NUM_REFERENCES = 6000
MAX_LENGTH = 2
BETA = 0.1
NUM_SHARDS = 4


@pytest.fixture(scope="module")
def peg():
    return harness.synthetic_peg(NUM_REFERENCES)


def _best_of(runs: int, build) -> tuple:
    """Minimum wall-clock over ``runs`` builds (noise suppression)."""
    best_seconds = None
    index = None
    for _ in range(runs):
        with Timer() as timer:
            index = build()
        if best_seconds is None or timer.elapsed < best_seconds:
            best_seconds = timer.elapsed
    return best_seconds, index


def test_parallel_shard_build_scaling(peg, tmp_path_factory):
    cpus = harness.available_cpus()
    processes = max(2, min(NUM_SHARDS, cpus))

    with Timer() as mono_timer:
        monolithic = build_path_index(peg, max_length=MAX_LENGTH, beta=BETA)

    def build_sharded(directory: str, build_processes: int):
        # Rebuilding into the same directory: clear the previous run's
        # shard stores first, as every build into a reused directory does.
        clear_offline_artifacts(directory)
        return build_path_index(
            peg,
            max_length=MAX_LENGTH,
            beta=BETA,
            store=open_store(directory, NUM_SHARDS),
            build_processes=build_processes,
        )

    # Best-of-2 on both sides: one noisy scheduler hiccup on a small
    # shared CI runner must not decide the comparison.
    serial_dir = str(tmp_path_factory.mktemp("serial"))
    serial_seconds, serial = _best_of(
        2, lambda: build_sharded(serial_dir, 0)
    )

    parallel_dir = str(tmp_path_factory.mktemp("parallel"))
    parallel_seconds, parallel = _best_of(
        2, lambda: build_sharded(parallel_dir, processes)
    )

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    harness.report(
        "shard_scaling",
        "measurement  value",
        [
            ("cpus", cpus),
            ("shards", NUM_SHARDS),
            ("build_processes", processes),
            ("monolithic_build_s", round(mono_timer.elapsed, 3)),
            ("serial_sharded_build_s", round(serial_seconds, 3)),
            ("parallel_sharded_build_s", round(parallel_seconds, 3)),
            ("parallel_speedup", round(speedup, 2)),
        ],
    )

    # Sharded construction (serial or parallel) must index exactly the
    # monolithic path set.
    assert serial.num_paths() == monolithic.num_paths()
    assert parallel.num_paths() == monolithic.num_paths()
    assert set(parallel.histograms) == set(monolithic.histograms)

    if cpus >= 2 and serial_seconds >= 0.4:
        # On a multi-CPU host the map/reduce build must beat the same
        # sharded build run serially. A serial baseline under 0.4s is
        # too small to amortize pool startup and is skipped — it means
        # the host is far faster than this workload, not that the
        # parallel build failed to scale.
        assert parallel_seconds < serial_seconds, (
            f"parallel sharded build ({parallel_seconds:.3f}s) did "
            f"not improve on the serial one ({serial_seconds:.3f}s) "
            f"with {cpus} CPUs"
        )


def _renamed(query: QueryGraph) -> QueryGraph:
    """The same pattern under fresh node names (isomorphic, not equal)."""
    mapping = {node: f"renamed_{i}" for i, node in enumerate(query.nodes)}
    return QueryGraph(
        {mapping[node]: query.label(node) for node in query.nodes},
        [
            tuple(mapping[node] for node in edge)
            for edge in map(tuple, query.edges)
        ],
    )


@pytest.fixture(scope="module")
def batch_workload(peg):
    sigma = sorted(peg.sigma, key=repr)
    queries = [random_query(3, 2, sigma, seed=seed) for seed in range(8)]
    # Node-renamed duplicates share every candidate label sequence with
    # their original — the batcher must fetch those once.
    queries += [
        _renamed(random_query(3, 2, sigma, seed=seed)) for seed in range(4)
    ]
    return [(query, 0.4) for query in queries]


def test_batched_queries_issue_fewer_store_reads(peg, batch_workload):
    engine = QueryEngine(
        peg, max_length=MAX_LENGTH, beta=BETA,
        store=open_store(None, NUM_SHARDS),
    )
    store = engine.index.store

    store.reset_read_count()
    individual = [
        engine.query(query, alpha) for query, alpha in batch_workload
    ]
    individual_reads = store.read_count

    store.reset_read_count()
    batched = engine.query_batch(batch_workload)
    batched_reads = store.read_count

    harness.report(
        "shard_scaling",
        "measurement  value",
        [
            ("workload_queries", len(batch_workload)),
            ("individual_store_reads", individual_reads),
            ("batched_store_reads", batched_reads),
        ],
    )

    def keys(result):
        return sorted(
            (m.nodes, m.edges, round(m.probability, 9))
            for m in result.matches
        )

    for one, many in zip(individual, batched):
        assert keys(one) == keys(many)
    assert batched_reads < individual_reads, (
        f"batched execution issued {batched_reads} store reads vs "
        f"{individual_reads} individually — batching must share fetches"
    )
